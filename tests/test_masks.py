import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forward_mask, full_mask
from puncstream import masks as mk


def test_ct_mask_n3_l1():
    m = mk.build_ct_mask(3, 1)
    ninf = -np.inf
    assert m.tolist() == [[0, 0, ninf], [0, 0, 0], [0, 0, 0]]


def test_ct_mask_zero_budget_is_forward_mask():
    assert np.array_equal(mk.build_ct_mask(4, 0), forward_mask(4))


def test_ct_mask_saturated_budget_is_full_mask():
    for budget in (3, 7, 100):
        assert np.array_equal(mk.build_ct_mask(4, budget), full_mask(4))


def test_forward_mask_n2():
    assert mk.build_ct_mask(2, 0).tolist() == [[0, -np.inf], [0, 0]]


def test_empty_input_rejected():
    for budget in (0, 1):
        with pytest.raises(mk.EmptyInputError):
            mk.build_ct_mask(0, budget)


def test_diagonal_always_unmasked():
    for n in (1, 2, 9):
        for budget in (0, 1, 5):
            assert (np.diag(mk.build_ct_mask(n, budget)) == 0).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40))
def test_ct_mask_monotone_in_budget(n, budget):
    wider = mk.build_ct_mask(n, budget) == 0
    narrower = mk.build_ct_mask(n, budget - 1) == 0
    assert (wider | ~narrower).all()  # unmasked set grows with the budget


def test_degeneracy_across_lengths():
    for n in range(1, 65):
        assert np.array_equal(mk.build_ct_mask(n, 0), forward_mask(n))
        assert np.array_equal(mk.build_ct_mask(n, n - 1), full_mask(n))


def test_effective_lookahead():
    assert mk.effective_lookahead(mk.MaskSpec((0, 1))) == 1
    assert mk.effective_lookahead(mk.MaskSpec((0, 0, 0, 0, 0, 9))) == 9
    assert mk.effective_lookahead(mk.MaskSpec((0,))) == 0


def test_spec_string_round_trip():
    spec = mk.MaskSpec.from_string("0, 0, 0, 0, 0, 9")
    assert spec.per_layer_lookahead == (0, 0, 0, 0, 0, 9)
    assert mk.MaskSpec.from_string(spec.to_string()) == spec


def test_spec_rejects_negative_and_garbage():
    with pytest.raises(ValueError):
        mk.MaskSpec((1, -2))
    with pytest.raises(ValueError):
        mk.MaskSpec.from_string("1,two,3")


def test_masks_are_cached_and_immutable():
    m = mk.build_ct_mask(6, 2)
    assert mk.build_ct_mask(6, 2) is m
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_negative_budget_rejected():
    with pytest.raises(ValueError, match="lookahead must be >= 0"):
        mk.build_ct_mask(3, -1)


def test_masks_of_every_length_up_to_512_hold_little_memory():
    # every lru_cache of the module starts empty, so the tables count too
    for fn in vars(mk).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    tracemalloc.start()
    try:
        for n in range(1, 513):
            for budget in (0, 9):
                mk.build_ct_mask(n, budget)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 8 * 2 ** 20, f"{held / 2 ** 20:.1f} MiB held by masks"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(0, 600))
def test_ct_mask_matches_reference_is_read_only_and_cached(n, budget):
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    m = mk.build_ct_mask(n, budget)
    assert np.array_equal(m, np.where(i + budget >= j, 0.0, -np.inf))
    assert not m.flags.writeable
    assert mk.build_ct_mask(n, budget) is m
