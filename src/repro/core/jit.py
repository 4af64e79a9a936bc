"""The whole-run periodic driver: K decision cycles in one scalar loop.

:func:`run_cycles` is the small-shape side of
:meth:`~repro.core.tensor_engine.CampaignEngine.run_periodic`: K
periodic decision cycles (rank → winner/block selection → miss
registration → DWCS window + EDF bias updates → idle fast-forward
detection via :func:`_next_release`) without returning to the engine,
using scratch buffers allocated once up front and writing each cycle's
circulated sid into a preallocated ring (``ring[s, t]``) that the engine
drains for ``collect_winners``.  At small S×N the per-call cost of
dozens of small array ops dominates the NumPy loop, and this scalar loop
wins; the engine picks it by shape (``DRIVER_MAX_CELLS`` in
:mod:`repro.core.tensor_engine`).

When `numba`_ is importable the driver is compiled with
``@njit(cache=True)``; otherwise the same code runs as plain Python with
identical semantics.  All state is int64/bool — no floats — so the
driver and the NumPy loop are byte-identical by construction;
``tests/test_jit_equivalence.py`` asserts it.

First-call note: ``cache=True`` persists compiled machine code next to
the source (``__pycache__``), so the one-time compile cost (~seconds)
is paid once per interpreter/ABI, not once per process.

.. _numba: https://numba.pydata.org/
"""

from __future__ import annotations

import numpy as np

from repro.core.batch_engine import _Y_MAX

__all__ = ["NUMBA_AVAILABLE", "run_cycles"]

try:
    from numba import njit

    NUMBA_AVAILABLE = True  # pragma: no cover - needs the jit extra
except ImportError:
    NUMBA_AVAILABLE = False

    def njit(**options):
        """Identity stand-in for ``numba.njit(**options)`` when numba is absent.

        The kernels below then run as ordinary Python functions with
        identical semantics (the same behavior numba's
        ``NUMBA_DISABLE_JIT=1`` debugging switch produces).
        """
        return lambda fn: fn


#: int64 sentinel beyond any release boundary (idle fast-forward scan).
_FAR_FUTURE = 2**62


@njit(cache=True)
def _packed_key(xv, yv):
    """One int64 word ordering like the (ratio, den, num) key triple.

    Mirrors :func:`~repro.core.tensor_engine.table2_rank_order`:
    zero-wildcard slots (``x == 0 or y == 0``) carry ``wc_key = 0``,
    ``den_key = 255 - y``, ``num_key = 0``; live-ratio slots carry the
    order-exact fixed-point ratio ``(x << 16) // y``, ``den_key = 255``
    and ``num_key = x``.
    """
    if xv == 0 or yv == 0:
        return (255 - yv) << 8
    return (((xv << 16) // yv) << 16) | (255 << 8) | xv


@njit(cache=True)
def _key_gt(a, b, k_inv, k_dl, k_pk, k_arr):
    """Strict lexicographic greater-than over the rank key cascade.

    Key significance (most to least): invalid, deadline, packed window
    constraint, arrival.  The final ``sid`` tie-break is implicit: the
    stable insertion sort only displaces on *strictly* greater, so
    equal composite keys keep ascending slot order.
    """
    if k_inv[a] != k_inv[b]:
        return k_inv[a] > k_inv[b]
    if k_dl[a] != k_dl[b]:
        return k_dl[a] > k_dl[b]
    if k_pk[a] != k_pk[b]:
        return k_pk[a] > k_pk[b]
    return k_arr[a] > k_arr[b]


@njit(cache=True)
def _sort_row(n, order, k_inv, k_dl, k_pk, k_arr):
    """Stable insertion sort of slot indices by the composite key."""
    for i in range(n):
        order[i] = i
    for i in range(1, n):
        cur = order[i]
        j = i - 1
        while j >= 0 and _key_gt(order[j], cur, k_inv, k_dl, k_pk, k_arr):
            order[j + 1] = order[j]
            j -= 1
        order[j + 1] = cur


@njit(cache=True)
def _replay_row(
    state, rank, tmp, n, bitonic, partner_all, gt_all, shuffle, log2n
):
    """Advance one scenario's network state through every pass."""
    if bitonic:
        for p in range(partner_all.shape[0]):
            for j in range(n):
                ss = state[j]
                sp = state[partner_all[p, j]]
                if gt_all[p, j]:
                    tmp[j] = sp if rank[ss] > rank[sp] else ss
                else:
                    tmp[j] = sp if rank[ss] < rank[sp] else ss
            for j in range(n):
                state[j] = tmp[j]
    else:
        for _ in range(log2n):
            for j in range(n):
                tmp[j] = state[shuffle[j]]
            for p in range(n // 2):
                a = tmp[2 * p]
                b = tmp[2 * p + 1]
                if rank[a] > rank[b]:
                    state[2 * p] = b
                    state[2 * p + 1] = a
                else:
                    state[2 * p] = a
                    state[2 * p + 1] = b


@njit(cache=True)
def _win_update_at(s, i, x, y, cfg_x, cfg_y, window_resets):
    """Scalar DWCS win update (window decrement + reset check)."""
    if y[s, i] > 0:
        y[s, i] -= 1
    if y[s, i] == 0 or y[s, i] <= x[s, i]:
        x[s, i] = cfg_x[s, i]
        y[s, i] = cfg_y[s, i]
        window_resets[s, i] += 1


@njit(cache=True)
def _loss_update_at(s, i, x, y, cfg_x, cfg_y, violations, window_resets):
    """Scalar DWCS loss update (tolerance decrement or violation)."""
    if x[s, i] > 0:
        x[s, i] -= 1
        if y[s, i] > 0:
            y[s, i] -= 1
        if y[s, i] == 0 or x[s, i] == y[s, i]:
            x[s, i] = cfg_x[s, i]
            y[s, i] = cfg_y[s, i]
            window_resets[s, i] += 1
    else:
        violations[s, i] += 1
        nxt = y[s, i] + 1
        y[s, i] = nxt if nxt < _Y_MAX else _Y_MAX


@njit(cache=True)
def _next_release(loaded, consumed, strides, n_cycles, have_streams):
    """Idle fast-forward detection: the earliest pending release.

    The scalar twin of the NumPy loop's
    ``min(where(loaded, avail, FAR_FUTURE))`` scan.
    """
    if not have_streams:
        return n_cycles
    s_count, n = loaded.shape
    nxt = _FAR_FUTURE
    for s in range(s_count):
        for i in range(n):
            if loaded[s, i]:
                a = consumed[s, i] * strides[s, i]
                if a < nxt:
                    nxt = a
    return nxt


@njit(cache=True)
def run_cycles(
    n_cycles,
    loaded,
    offs,
    steps,
    strides,
    dwcs_like,
    edf,
    x,
    y,
    cfg_x,
    cfg_y,
    edf_bias,
    wins,
    serviced,
    missed,
    violations,
    window_resets,
    deadline_only,
    winner_only,
    max_first,
    bitonic,
    partner_all,
    gt_all,
    shuffle,
    log2n,
    consume_block,
    count_misses,
    fast_forward,
    have_streams,
    ring,
    stats,
):
    """Whole-run driver: K periodic decision cycles in one scalar loop.

    The small-shape side of
    :meth:`~repro.core.tensor_engine.CampaignEngine.run_periodic`,
    byte-identical to its NumPy loop.  All ``(S, N)`` state/counter arrays are mutated in
    place; every emitted decision lands in the preallocated ring
    (``ring[s, t] = circulated sid``, rows stay ``-1`` on idle/sat-out
    cycles) when the ring has capacity; ``stats`` returns
    ``[non-fast-forwarded cycles, fast-forwarded cycles, ff gaps]`` so
    the caller can replay the lockstep control-unit accounting in bulk.

    Scratch buffers (consumed counts, validity masks, rank keys,
    network state) are allocated once before the loop — the loop body
    itself performs no allocation.
    """
    s_count, n = loaded.shape
    consumed = np.zeros((s_count, n), np.int64)
    valid = np.zeros((s_count, n), np.bool_)
    row_active = np.zeros(s_count, np.bool_)
    k_inv = np.empty(n, np.int64)
    k_dl = np.empty(n, np.int64)
    k_pk = np.empty(n, np.int64)
    k_arr = np.empty(n, np.int64)
    order = np.empty(n, np.int64)
    rank = np.empty(n, np.int64)
    state = np.empty(n, np.int64)
    tmp = np.empty(n, np.int64)
    late = np.zeros(n, np.bool_)
    collect = ring.shape[1] > 0
    nonff = 0
    ff_cycles = 0
    ff_gaps = 0
    t = 0
    while t < n_cycles:
        any_active = False
        for s in range(s_count):
            act = False
            for i in range(n):
                v = loaded[s, i] and consumed[s, i] * strides[s, i] <= t
                valid[s, i] = v
                act = act or v
            row_active[s] = act
            any_active = any_active or act
        if not any_active:
            if fast_forward:
                nxt = _next_release(
                    loaded, consumed, strides, n_cycles, have_streams
                )
                if nxt < t + 1:
                    nxt = t + 1
                if nxt > n_cycles:
                    nxt = n_cycles
                ff_cycles += nxt - t
                ff_gaps += 1
                t = nxt
            else:
                nonff += 1
                t += 1
            continue
        for s in range(s_count):
            if not row_active[s]:
                continue
            # SCHEDULE keys: attribute deadline = periodic release (+
            # EDF bias), arrival key = consumed count.  Computed before
            # miss registration, which mutates x/y below.
            for i in range(n):
                k_inv[i] = 0 if valid[s, i] else 1
                real_dl = offs[s, i] + consumed[s, i] * steps[s, i]
                adl = real_dl
                if edf[s, i]:
                    adl += edf_bias[s, i]
                k_dl[i] = adl
                k_arr[i] = consumed[s, i]
                k_pk[i] = (
                    0 if deadline_only else _packed_key(x[s, i], y[s, i])
                )
                late[i] = valid[s, i] and real_dl < t
            w = 0
            for i in range(1, n):
                if _key_gt(w, i, k_inv, k_dl, k_pk, k_arr):
                    w = i
            if winner_only or max_first:
                circulated = w
            else:
                # Block tail circulation: full sort + network replay,
                # then the last valid emitted position.
                _sort_row(n, order, k_inv, k_dl, k_pk, k_arr)
                for pos in range(n):
                    rank[order[pos]] = pos
                for j in range(n):
                    state[j] = j
                _replay_row(
                    state, rank, tmp, n, bitonic,
                    partner_all, gt_all, shuffle, log2n,
                )
                circulated = w
                for pos in range(n - 1, -1, -1):
                    if valid[s, state[pos]]:
                        circulated = state[pos]
                        break
            if count_misses:
                for i in range(n):
                    if late[i]:
                        missed[s, i] += 1
                        if dwcs_like[s, i]:
                            _loss_update_at(
                                s, i, x, y, cfg_x, cfg_y,
                                violations, window_resets,
                            )
            # PRIORITY_UPDATE: winner consume updates the circulated
            # slot; block consume services every valid head.
            if consume_block:
                if dwcs_like[s, w]:
                    _win_update_at(s, w, x, y, cfg_x, cfg_y, window_resets)
                if edf[s, w]:
                    edf_bias[s, w] += steps[s, w]
                for i in range(n):
                    if valid[s, i]:
                        serviced[s, i] += 1
                        consumed[s, i] += 1
            else:
                c = circulated
                late_c = late[c]
                if dwcs_like[s, c] and not late_c:
                    _win_update_at(s, c, x, y, cfg_x, cfg_y, window_resets)
                if not count_misses and dwcs_like[s, c] and late_c:
                    _loss_update_at(
                        s, c, x, y, cfg_x, cfg_y, violations, window_resets
                    )
                if edf[s, c] and (not count_misses or not late_c):
                    edf_bias[s, c] += steps[s, c]
                serviced[s, c] += 1
                consumed[s, c] += 1
            wins[s, circulated] += 1
            if collect:
                ring[s, t] = circulated
        nonff += 1
        t += 1
    stats[0] = nonff
    stats[1] = ff_cycles
    stats[2] = ff_gaps
