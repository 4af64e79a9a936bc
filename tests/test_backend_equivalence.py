"""The Table 2 rank permutation contract, enforced by property testing.

Two implementations rank slots by the Table 2 key cascade, and both
must produce the *permutation-identical* order to the historical float
ratio ``np.lexsort`` over the full cascade — including deadline/arrival
ties, loss-constraint ratio ties (``1/2`` vs ``2/4``), zero-wildcard
streams and invalid-slot masking:

* :func:`repro.core.tensor_engine.table2_rank_order`, one ``lexsort``
  over the ``(S, N)`` keys with the window-constraint keys packed into
  one order-exact integer word;
* the periodic driver's stable insertion sort
  (:func:`repro.core.jit._sort_row` over the same packed-key table).

The lexsort reference is reconstructed here verbatim from the original
``_rank`` so the property pins the historical behavior, not either
implementation.  The packed window-constraint key table is checked
exhaustively over its whole 8-bit ``(x', y')`` domain, and the head-only
ranking against column 0 of the full order on both sides of
``HEAD_SCAN_MIN_SLOTS``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import jit, tensor_engine
from repro.core.tensor_engine import table2_rank_order


def _lexsort_reference(invalid, dl, arr, x, y, *, deadline_only):
    """The pre-refactor ``_rank`` key cascade, verbatim."""
    n = dl.shape[-1]
    sid = np.broadcast_to(np.arange(n, dtype=np.int64), dl.shape)
    if deadline_only:
        return np.lexsort((sid, arr, dl, invalid), axis=-1)
    zero_wc = (x == 0) | (y == 0)
    wc = np.where(zero_wc, 0.0, x / np.where(y == 0, 1, y))
    den_key = np.where(zero_wc, -y, 0)
    num_key = np.where(zero_wc, 0, x)
    return np.lexsort(
        (sid, arr, num_key, den_key, wc, dl, invalid), axis=-1
    )


# Tight value ranges force heavy tie pressure: with 8 slots drawing
# deadlines from 9 values and ratios from {0..3}/{0..3}, most examples
# contain multi-way ties on every key level.
_key_arrays = st.integers(min_value=1, max_value=6).flatmap(
    lambda s: st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.fixed_dictionaries(
            {
                "dl": st.lists(
                    st.lists(
                        st.integers(min_value=-4, max_value=4),
                        min_size=n, max_size=n,
                    ),
                    min_size=s, max_size=s,
                ),
                "arr": st.lists(
                    st.lists(
                        st.integers(min_value=-4, max_value=4),
                        min_size=n, max_size=n,
                    ),
                    min_size=s, max_size=s,
                ),
                "x": st.lists(
                    st.lists(
                        st.integers(min_value=0, max_value=3),
                        min_size=n, max_size=n,
                    ),
                    min_size=s, max_size=s,
                ),
                "y": st.lists(
                    st.lists(
                        st.integers(min_value=0, max_value=3),
                        min_size=n, max_size=n,
                    ),
                    min_size=s, max_size=s,
                ),
                "invalid": st.lists(
                    st.lists(st.booleans(), min_size=n, max_size=n),
                    min_size=s, max_size=s,
                ),
            }
        )
    )
)


class TestPackedKeyCascade:
    """Both rank implementations are permutation-identical to the reference."""

    @settings(max_examples=200, deadline=None)
    @given(_key_arrays)
    def test_full_cascade_matches_lexsort(self, keys):
        dl = np.asarray(keys["dl"], dtype=np.int64)
        arr = np.asarray(keys["arr"], dtype=np.int64)
        x = np.asarray(keys["x"], dtype=np.int64)
        y = np.asarray(keys["y"], dtype=np.int64)
        invalid = np.asarray(keys["invalid"], dtype=bool)
        got = table2_rank_order(invalid=invalid, dl=dl, arr=arr, x=x, y=y)
        expected = _lexsort_reference(
            invalid, dl, arr, x, y, deadline_only=False
        )
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(_key_arrays)
    def test_deadline_only_cascade_matches_lexsort(self, keys):
        dl = np.asarray(keys["dl"], dtype=np.int64)
        arr = np.asarray(keys["arr"], dtype=np.int64)
        invalid = np.asarray(keys["invalid"], dtype=bool)
        got = table2_rank_order(
            invalid=invalid, dl=dl, arr=arr, deadline_only=True
        )
        expected = _lexsort_reference(
            invalid, dl, arr, None, None, deadline_only=True
        )
        np.testing.assert_array_equal(got, expected)

    def test_ratio_ties_break_on_numerator(self):
        """1/2 vs 2/4: equal loss-constraint, ordered by raw numerator."""
        shape = (1, 4)
        dl = np.zeros(shape, dtype=np.int64)
        arr = np.zeros(shape, dtype=np.int64)
        invalid = np.zeros(shape, dtype=bool)
        x = np.asarray([[2, 1, 2, 1]], dtype=np.int64)
        y = np.asarray([[4, 2, 4, 2]], dtype=np.int64)
        got = table2_rank_order(invalid=invalid, dl=dl, arr=arr, x=x, y=y)
        expected = _lexsort_reference(
            invalid, dl, arr, x, y, deadline_only=False
        )
        np.testing.assert_array_equal(got, expected)
        assert got.tolist() == [[1, 3, 0, 2]]

    @pytest.mark.parametrize("deadline_only", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(keys=_key_arrays)
    def test_driver_insertion_sort_matches_lexsort(self, keys, deadline_only):
        """The periodic driver's packed-key insertion sort, row by row."""
        dl = np.asarray(keys["dl"], dtype=np.int64)
        arr = np.asarray(keys["arr"], dtype=np.int64)
        x = np.asarray(keys["x"], dtype=np.int64)
        y = np.asarray(keys["y"], dtype=np.int64)
        invalid = np.asarray(keys["invalid"], dtype=bool)
        s_count, n = dl.shape
        got = np.empty((s_count, n), dtype=np.int64)
        for s in range(s_count):
            k_pk = (
                np.zeros(n, dtype=np.int64)
                if deadline_only
                else tensor_engine._WC_KEY[x[s], y[s]]
            )
            jit._sort_row(
                n, got[s], invalid[s].astype(np.int64), dl[s], k_pk, arr[s]
            )
        expected = _lexsort_reference(
            invalid, dl, arr, x, y, deadline_only=deadline_only
        )
        np.testing.assert_array_equal(got, expected)


_ALL_X, _ALL_Y = (
    a.ravel() for a in np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
)


class TestWindowKeyTable:
    """The packed window-constraint key, exhaustively over 8-bit x', y'."""

    def test_table_order_is_table2_window_order(self):
        """Sorting by the table gives the Table 2 window order with the
        same tie classes: exact ratio, then -y' among zero-ratio slots,
        then x' among equal live ratios."""

        def tie_class(x, y):
            if x == 0 or y == 0:
                return (Fraction(0), -y, 0)
            return (Fraction(x, y), 0, x)

        assert tensor_engine._WC_KEY.shape == (256, 256)
        pairs = list(zip(_ALL_X.tolist(), _ALL_Y.tolist()))
        classes = [tie_class(x, y) for x, y in pairs]
        keys = tensor_engine._WC_KEY[_ALL_X, _ALL_Y]
        # Stable sorts on both sides: same class order, same ties.
        by_key = np.argsort(keys, kind="stable").tolist()
        by_class = sorted(range(len(pairs)), key=classes.__getitem__)
        assert by_key == by_class
        # Equal keys exactly where the tie classes are equal.
        for a, b in zip(by_key, by_key[1:]):
            assert (keys[a] == keys[b]) == (classes[a] == classes[b])


# Wide window draws: tie-heavy small values mixed with the full 8-bit
# range; N up to 64 so the scan sees long rows and both cascades.
_window_values = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=255),
)
_head_keys = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=64)
).flatmap(
    lambda shape: st.fixed_dictionaries(
        {
            "dl": hnp.arrays(np.int64, shape, elements=st.integers(-3, 3)),
            "arr": hnp.arrays(np.int64, shape, elements=st.integers(-3, 3)),
            "x": hnp.arrays(np.int64, shape, elements=_window_values),
            "y": hnp.arrays(np.int64, shape, elements=_window_values),
            "invalid": hnp.arrays(bool, shape),
        }
    )
)


class TestHeadOnlyRank:
    """``head_only`` returns column 0 of the full order on every row
    that holds a valid slot, whichever side of the constant runs."""

    @pytest.mark.parametrize("deadline_only", [False, True])
    @pytest.mark.parametrize("side", ["scan", "lexsort"])
    @settings(max_examples=100, deadline=None)
    @given(keys=_head_keys)
    def test_head_is_first_column(self, keys, side, deadline_only):
        dl, arr, x, y, invalid = (
            keys[name] for name in ("dl", "arr", "x", "y", "invalid")
        )
        operands = dict(
            invalid=invalid, dl=dl, arr=arr, x=x, y=y,
            deadline_only=deadline_only,
        )
        # The constant counts slots per row: 0 forces the scan on every
        # shape, a bound above the drawn row length forces the lexsort.
        limit = 0 if side == "scan" else dl.shape[-1] + 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor_engine, "HEAD_SCAN_MIN_SLOTS", limit)
            heads = table2_rank_order(head_only=True, **operands)
        full = table2_rank_order(**operands)
        assert heads.shape == (dl.shape[0],)
        has_valid = ~invalid.all(axis=-1)
        np.testing.assert_array_equal(heads[has_valid], full[has_valid, 0])
