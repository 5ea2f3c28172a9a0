import numpy as np
import pytest

from oracles import ranks_oracle, srcc_oracle
from vidmem.metrics import ConstantInputError, fractional_ranks, srcc


def test_identical_ordering():
    assert srcc([1, 2, 3], [10, 20, 30]) == 1.0


def test_reversed_ordering():
    assert srcc([1, 2, 3], [3, 2, 1]) == -1.0


def test_tie_example_matches_hand_rank_transform():
    # ranks of [1,2,2,4] are [1, 2.5, 2.5, 4]; of [1,3,2,4] are [1,3,2,4]
    np.testing.assert_array_equal(fractional_ranks([1, 2, 2, 4]), [1, 2.5, 2.5, 4])
    ra = np.array([1, 2.5, 2.5, 4.0])
    rb = np.array([1, 3, 2, 4.0])
    expected = np.corrcoef(ra, rb)[0, 1]
    assert srcc([1, 2, 2, 4], [1, 3, 2, 4]) == pytest.approx(expected, abs=1e-15)


def test_constant_list_raises():
    with pytest.raises(ConstantInputError):
        srcc([1.0, 1.0, 1.0], [1, 2, 3])
    with pytest.raises(ConstantInputError):
        srcc([1, 2, 3], [5.0, 5.0, 5.0])


def test_symmetry_exact():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.integers(0, 5, size=20).astype(float)
        b = rng.normal(size=20)
        assert srcc(a, b) == srcc(b, a)


def test_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    a = rng.normal(size=50)
    b = rng.normal(size=50)
    base = srcc(a, b)
    assert abs(srcc(np.exp(a), b) - base) <= 1e-12
    assert abs(srcc(a, 3.0 * b + 7.0) - base) <= 1e-12
    assert abs(srcc(a ** 3, b) - base) <= 1e-12


def test_against_brute_force_oracle():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(2, 201))
        # coarse quantization forces ties
        a = np.round(rng.normal(size=n), 1)
        b = np.round(rng.normal(size=n), 1)
        try:
            got = srcc(a, b)
        except ConstantInputError:
            continue
        assert abs(got - srcc_oracle(a, b)) <= 1e-12


def test_too_short_rejected():
    with pytest.raises(ValueError, match="need at least two pairs"):
        srcc([1.0], [2.0])


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="inputs must be finite"):
        srcc([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="inputs must be finite"):
        srcc([1.0, 2.0, 3.0], [1.0, np.inf, 3.0])


def test_rows_ranked_independently_as_oracle():
    rng = np.random.default_rng(3)
    for levels in (1, 2, 5, 20):
        for n in (1, 2, 3, 17, 120):
            values = np.floor(rng.random((6, n)) * levels) / levels
            got = fractional_ranks(values)
            for row, ranks in zip(values, got):
                np.testing.assert_array_equal(ranks, fractional_ranks(row))
                np.testing.assert_array_equal(ranks, ranks_oracle(row))


def test_ranks_along_last_axis_of_3d_input():
    values = np.floor(np.random.default_rng(4).random((3, 4, 9)) * 3)
    got = fractional_ranks(values)
    assert got.shape == values.shape
    for i in range(3):
        for j in range(4):
            np.testing.assert_array_equal(got[i, j], ranks_oracle(values[i, j]))
