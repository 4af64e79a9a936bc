"""Raw results -> CSV -> per-workload tables."""

import csv
import json

from report import regenerate


def _raw(out, workload, seed, value):
    path = out / "raw" / workload / f"seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "trace": 0,
                "stamp": f"s{seed}",
                "correct": True,
                "metrics": {"oracle.rate": {"value": value, "unit": "1/s"}},
            }
        )
    )


def test_tables_regenerate_from_raw_files(tmp_path):
    for seed, value in enumerate((10.0, 30.0, 20.0)):
        _raw(tmp_path, "table3", seed, value)
    _raw(tmp_path, "campaign", 0, 2.5)
    written = regenerate(tmp_path)
    assert sorted(p.name for p in written) == ["campaign.txt", "table3.txt"]
    with open(tmp_path / "results.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 4
    line = next(
        row for row in (tmp_path / "tables" / "table3.txt").read_text().splitlines()
        if row.startswith("oracle.rate")
    )
    assert line.split()[2:4] == ["3", "20"]
