"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table3 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that wraps each layer's public
entry points (see ``layers.py``) and prints the per-layer metrics.  The
last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; every run also
writes a raw JSON under ``perfbench/out/raw/`` and regenerates the
per-workload tables (``report.py``).  A failed correctness gate prints
the failing checks to standard error and exits with status 1.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent

#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 3

#: Stop starting rounds after this much wall time, whatever ``--seconds``
#: says, so a run always ends well inside the 180 s limit.
HARD_CAP_S = 120.0

#: End-to-end metric name -> unit.  Rates are work units per host second,
#: normalized to the reference host speed (``workloads.Clock``).
END_TO_END = {
    "setup_s": "s",
    "oracle.rate": "1/s",
    "array.rate": "1/s",
    "observed.rate": "1/s",
    "validate.rate": "1/s",
    "peak_rss_mb": "MB",
}

DEFAULT_SEED = 0


def _parse(argv):
    parser = argparse.ArgumentParser(description="ShareStreams reproduction benchmark")
    parser.add_argument(
        "--workload", required=True,
        choices=("table3", "endsystem", "campaign", "aggregation"),
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default="perfbench/out",
        help="results directory, relative to the repository root",
    )
    parser.add_argument(
        "--write-digest", action="store_true",
        help="record this run's first-round digest as the committed "
        "reference (default seed only)",
    )
    return parser.parse_args(argv)


def _bootstrap(root: Path) -> float:
    """Put the checkout's ``src`` first on the path; import the package."""
    package = root / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(
            f"perfbench: no package source at {package.relative_to(root)}; "
            "run from the root of a full checkout"
        )
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(1, str(HERE))
    import repro  # noqa: F401

    loaded = Path(sys.modules["repro"].__file__).resolve()
    if root.resolve() not in loaded.parents:
        raise SystemExit(f"perfbench: imported repro from {loaded}, outside the checkout")
    import layers  # noqa: F401 - imports every wrapped module up front
    import workloads  # noqa: F401

    for layer in layers.LAYERS:
        __import__(layer.target.partition(":")[0])
    return time.perf_counter() - _T_START


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(workload, seed: int, repeats: int):
    times, state = [], None
    for _ in range(repeats):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return state, times


def _untraced(workload, state, seconds: float, deadline_cap: float):
    from workloads import Clock

    rounds = []
    end = time.perf_counter() + seconds
    while True:
        rounds.append(workload.run(state, len(rounds), Clock()))
        now = time.perf_counter()
        if now >= end or now >= deadline_cap:
            return rounds


def _traced(workload, state, seconds: float, deadline_cap: float, batch: str | None):
    """Alternate traced and untraced rounds; time the batch baseline untraced.

    Returns the tracer, the traced and untraced rounds, the baseline
    rates and ``trace.overhead_share``: traced round wall time over
    untraced round wall time, minus one.
    """
    from layers import LAYERS
    from tracing import Tracer
    from workloads import Clock

    tracer = Tracer(LAYERS)
    traced, plain, baseline = [], [], []
    walls = [0.0, 0.0]
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        with tracer.installed():
            traced.append(workload.run(state, 2 * len(plain), Clock(tracer)))
        t1 = time.perf_counter()
        plain.append(workload.run(state, 2 * len(plain) + 1, Clock()))
        walls[0] += t1 - t0
        walls[1] += time.perf_counter() - t1
        if batch is not None and time.perf_counter() < deadline_cap:
            baseline.append(workload.baseline(state, batch))
        now = time.perf_counter()
        if now >= end or now >= deadline_cap:
            return tracer, traced, plain, baseline, walls[0] / walls[1] - 1.0


def _checks(rounds, workload, seed: int, write_digest: bool):
    from workloads import Check, digest

    checks = [c for rnd in rounds for c in rnd.checks]
    ref_path = HERE / "digests.json"
    refs = json.loads(ref_path.read_text(encoding="utf-8")) if ref_path.is_file() else {}
    got = digest(rounds[0].stats)
    if write_digest:
        if seed != DEFAULT_SEED:
            raise SystemExit("--write-digest records the default seed only")
        refs[workload.name] = got
        ref_path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if seed == DEFAULT_SEED or not workload.seeded:
        want = refs.get(workload.name)
        checks.append(
            Check(
                "digest of simulated statistics",
                want == got,
                "" if want == got else f"{got} != committed {want}",
            )
        )
    return checks, got


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    import_s = _bootstrap(root)
    from hostinfo import fingerprint
    from layers import PER_LAYER, per_layer_metrics
    from roles import ROLES, available_engines, resolve
    from workloads import make_workloads

    cap = _T_START + HARD_CAP_S
    available = available_engines()
    engines = {role: resolve(role, available) for role in ROLES}
    out = root / args.out
    workload = make_workloads(engines, out / "scratch")[args.workload]
    repeats = SETUP_REPEATS if args.trace == 0 else 1
    state, setup_times = _setup(workload, args.seed, repeats)

    ran = ["oracle", "array"]
    if args.trace == 0:
        rounds = _untraced(workload, state, args.seconds, cap)
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            **{
                f"{role}.rate": statistics.median(r.units / r.seconds[role] for r in rounds)
                for role in ("oracle", "array", "observed", "validate")
            },
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = dict(END_TO_END)
        tracer = None
    else:
        batch = engines["batch"]
        tracer, traced, plain, baseline, overhead = _traced(
            workload, state, args.seconds, cap, batch
        )
        if batch is not None:
            ran.append("batch")
        rounds = traced + plain
        extra = {
            "observability.violations": statistics.median(r.violations for r in traced),
            "aggregation.rss_delta_mb": state.get("rss_delta_mb", 0.0),
            "baseline.batch.rate": statistics.median(baseline) if baseline else 0.0,
            "trace.overhead_share": overhead,
        }
        metrics = per_layer_metrics(tracer, len(traced), extra)
        units = dict(PER_LAYER)

    checks, got_digest = _checks(rounds, workload, args.seed, args.write_digest)
    failed = [c for c in checks if not c.ok]
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    raw = {
        "workload": workload.name,
        "work_unit": workload.unit,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "stamp": stamp,
        **result,
        "error_rate": len(failed) / len(checks),
        "failures": [{"check": c.name, "detail": c.detail} for c in failed],
        "digest": got_digest,
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "rounds": [
            {"units": r.units, "seconds": r.seconds, "raw_seconds": r.raw_seconds}
            for r in rounds
        ],
        "paper_error": rounds[0].paper,
        "host": fingerprint(engines, ran),
    }
    raw_dir = out / "raw" / workload.name
    raw_dir.mkdir(parents=True, exist_ok=True)
    name = f"seed{args.seed}-trace{args.trace}-{stamp}"
    (raw_dir / f"{name}.json").write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        spans = out / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.recorder.save(spans / f"{workload.name}-{name}.npz")
    from report import regenerate

    regenerate(out)
    for check in failed:
        print(f"perfbench: FAILED {check.name}: {check.detail}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
