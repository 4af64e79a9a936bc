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
  (:func:`repro.core.jit._sort_row` over :func:`repro.core.jit._packed_key`).

The lexsort reference is reconstructed here verbatim from the original
``_rank`` so the property pins the historical behavior, not either
implementation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import jit
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
            k_pk = np.asarray(
                [
                    0 if deadline_only else jit._packed_key(x[s, i], y[s, i])
                    for i in range(n)
                ],
                dtype=np.int64,
            )
            jit._sort_row(
                n, got[s], invalid[s].astype(np.int64), dl[s], k_pk, arr[s]
            )
        expected = _lexsort_reference(
            invalid, dl, arr, x, y, deadline_only=deadline_only
        )
        np.testing.assert_array_equal(got, expected)
