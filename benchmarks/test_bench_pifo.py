"""PIFO rank evaluators vs the handwritten discipline hot paths.

The programmable layer must not cost an order of magnitude over the
disciplines it re-expresses.  Three rates are compared, all in
per-packet terms:

* the handwritten SFQ enqueue/dequeue loop (the hot path the paper's
  software comparison measures),
* the interpreted software PIFO (``pifo:sfq`` through the registry),
* the compiled tensorized rank evaluator over one slot vector
  (``(1, N)``) and over a whole campaign (``(S, N)``), amortized per
  rank.

The acceptance bar: the one-row and whole-campaign evaluations must
land within 2x of the handwritten per-packet tag computation (in
practice they are far faster — one array expression ranks a whole slot
vector).
Machine-readable results land in ``BENCH_PIFO.json`` at the repo root
(``benchmarks/_schema.py`` record format).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from _schema import bench_record, write_bench
from repro.disciplines.base import Packet, SwStream
from repro.disciplines.fair_queuing import SFQ
from repro.disciplines.pifo import PifoDiscipline, rank_function

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_PIFO.json"

_PACKETS = 4_000
_EVAL_ROUNDS = 2_000
_N = 64
_S = 64
_WARMUP = 200


def _discipline_rate(discipline) -> float:
    """Packets/second through one enqueue+dequeue round trip."""
    for sid in range(8):
        discipline.add_stream(SwStream(stream_id=sid, weight=(sid % 4) + 1))

    def run(n: int, base: int) -> None:
        for i in range(n):
            sid = i % 8
            discipline.enqueue(
                Packet(stream_id=sid, seq=base + i, arrival=base + i)
            )
            discipline.dequeue(base + i)

    run(_WARMUP, 0)
    start = time.perf_counter()
    run(_PACKETS, _WARMUP)
    return _PACKETS / (time.perf_counter() - start)


def _env(shape) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    env = {
        name: rng.integers(1, 1 << 16, size=shape, dtype=np.int64)
        for name in ("deadline", "arrival", "finish", "vtime", "credits")
    }
    env["length"] = np.full(shape, 1500, dtype=np.int64)
    env["weight"] = rng.integers(1, 13, size=shape, dtype=np.int64)
    env["priority"] = rng.integers(0, 4, size=shape, dtype=np.int64)
    env["sid"] = np.broadcast_to(
        np.arange(shape[-1], dtype=np.int64), shape
    ).copy()
    return env


def _evaluator_rate(evaluate, shape) -> float:
    """Ranks/second of one compiled evaluator over fixed-shape inputs."""
    env = _env(shape)
    ranks_per_call = int(np.prod(shape))
    for _ in range(20):
        evaluate(env)
    start = time.perf_counter()
    for _ in range(_EVAL_ROUNDS):
        evaluate(env)
    return _EVAL_ROUNDS * ranks_per_call / (time.perf_counter() - start)


def test_rank_evaluators_within_2x_of_handwritten(report):
    fn = rank_function("sfq")
    handwritten = _discipline_rate(SFQ())
    interpreted = _discipline_rate(PifoDiscipline(fn))
    row_eval = _evaluator_rate(fn.compile_tensor(), (1, _N))
    tensor_eval = _evaluator_rate(fn.compile_tensor(), (_S, _N))
    write_bench(
        OUTPUT,
        "pifo",
        [
            bench_record(
                "handwritten_sfq", handwritten, "pkt/s", direction="higher"
            ),
            bench_record(
                "interpreted_pifo", interpreted, "pkt/s", direction="higher"
            ),
            bench_record(
                "row_eval", row_eval, "rank/s",
                direction="higher", slots=_N,
            ),
            bench_record(
                "tensorized_eval", tensor_eval, "rank/s",
                direction="higher", scenarios=_S, slots=_N,
            ),
            bench_record(
                "row_vs_handwritten", row_eval / handwritten,
                "ratio", direction="higher", bound=0.5,
            ),
            bench_record(
                "tensorized_vs_handwritten", tensor_eval / handwritten,
                "ratio", direction="higher", bound=0.5,
            ),
        ],
        workload="pifo:sfq rank evaluation, 8-stream round trips, "
        f"{_EVAL_ROUNDS} evaluator rounds",
    )
    report(
        "PIFO rank evaluation vs handwritten SFQ (per packet/rank)",
        "\n".join(
            [
                f"handwritten SFQ     {handwritten:>12,.0f} pkt/s",
                f"interpreted pifo    {interpreted:>12,.0f} pkt/s "
                f"({interpreted / handwritten:.2f}x)",
                f"one row (1x{_N})    {row_eval:>12,.0f} rank/s "
                f"({row_eval / handwritten:.2f}x)",
                f"tensorized ({_S}x{_N}) {tensor_eval:>12,.0f} rank/s "
                f"({tensor_eval / handwritten:.2f}x)",
            ]
        ),
    )
    # Acceptance bar: compiled evaluators within 2x of the handwritten
    # hot path; amortized over a slot vector they should beat it.
    assert row_eval >= handwritten / 2, (
        f"one-row evaluator {row_eval:,.0f} rank/s vs "
        f"handwritten {handwritten:,.0f} pkt/s"
    )
    assert tensor_eval >= handwritten / 2, (
        f"tensorized evaluator {tensor_eval:,.0f} rank/s vs "
        f"handwritten {handwritten:,.0f} pkt/s"
    )
    # The interpreted software PIFO adds one dict + closure chain per
    # packet over the handwritten arithmetic; a generous floor keeps
    # pathological regressions (e.g. per-packet recompilation) visible.
    assert interpreted >= handwritten / 10, (
        f"interpreted PIFO {interpreted:,.0f} pkt/s collapsed vs "
        f"handwritten {handwritten:,.0f} pkt/s"
    )


def test_frontend_throughput_reported(report):
    """End-to-end services/second of the two PIFO frontends."""
    from repro.disciplines.pifo import generate_pifo_scenario, run_pifo

    scenario = generate_pifo_scenario(1, n_cycles=150)
    rows = []
    for engine in ("reference", "tensor"):
        run_pifo("sfq", scenario, engine=engine)  # warm caches
        start = time.perf_counter()
        summary = run_pifo("sfq", scenario, engine=engine)
        elapsed = time.perf_counter() - start
        rows.append(
            f"{engine:>9}: "
            f"{len(summary['services']) / elapsed:>10,.0f} services/s"
        )
    report("PIFO frontend throughput (pifo:sfq, 8 slots)", "\n".join(rows))
