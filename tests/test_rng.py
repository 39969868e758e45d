"""t3table.rng against numpy: the same entropy gives the same draws, value for value."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t3table.rng import POISSON_LAM_MAX, Rng

np = pytest.importorskip("numpy")

# below 10 the multiplication method, from 10 up PTRS; 9.99 and 10 sit either side of the switch
LAMS = (0, 0.04, 1.38, 9.99, 10, 10.34, 12.71, 50, 1e4)

draws = st.one_of(
    st.tuples(st.just("integers"), st.integers(1, 2**32 - 1)),
    st.tuples(st.just("between"), st.integers(-(2**40), 2**40), st.integers(1, 2**32 - 1)),
    st.tuples(st.just("random")),
    # a run of draws: a PTRS constant that is off moves about one draw in a hundred
    st.tuples(st.just("poisson"), st.sampled_from(LAMS), st.integers(1, 50)),
    st.tuples(st.just("shuffle"), st.integers(0, 60)),
)


def _draw(rng, draw: tuple):
    kind, *args = draw
    if kind == "integers":
        return int(rng.integers(*args))
    if kind == "between":  # integers(low, low + width)
        low, width = args
        return int(rng.integers(low, low + width))
    if kind == "random":
        return float(rng.random())
    if kind == "poisson":
        lam, n = args
        return [int(rng.poisson(lam)) for _ in range(n)]
    items = list(range(args[0]))
    rng.shuffle(items)
    return items


# seeds past 2**32 take more than one seeding word, past 2**96 more than the pool's four
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**160), st.integers(0, 2**32), st.lists(draws, max_size=60))
def test_every_draw_equals_numpys(seed, index, sequence):
    ours, theirs = Rng([seed, index]), np.random.default_rng([seed, index])
    for draw in sequence:
        assert _draw(ours, draw) == _draw(theirs, draw), draw


@pytest.mark.parametrize("lam", (10, 12.71, 1e4, 1e9))
def test_long_poisson_runs_equal_numpys(lam):
    # PTRS rejects and recomputes k often enough here to reach its log-gamma test
    ours, theirs = Rng([5, 0]), np.random.default_rng([5, 0])
    assert [ours.poisson(lam) for _ in range(3000)] == theirs.poisson(lam, 3000).tolist()


class _Counting(Rng):
    """An Rng that counts its 32-bit draws."""

    def __init__(self, entropy):
        super().__init__(entropy)
        self.draws = 0

    def _next32(self):
        self.draws += 1
        return super()._next32()


def test_a_range_that_rejects_often_still_equals_numpys():
    # over 2**31 + 1 values Lemire's method rejects about half its first draws, and draws again
    ours, theirs = _Counting([7, 0]), np.random.default_rng([7, 0])
    assert [ours.integers(2**31 + 1) for _ in range(1000)] == theirs.integers(2**31 + 1, size=1000).tolist()
    assert ours.draws > 1500  # about 2,000: one in two draws is rejected
    assert ours.random() == theirs.random()  # both consumed the same words


@pytest.mark.parametrize("call", [
    lambda: Rng([-1, 0]),
    lambda: Rng([0, 0]).integers(0),
    lambda: Rng([0, 0]).integers(5, 5),
    lambda: Rng([0, 0]).integers(2**32),
    lambda: Rng([0, 0]).integers(-1, 2**32 - 1),
    lambda: Rng([0, 0]).poisson(-1e-9),
    lambda: Rng([0, 0]).poisson(math.nan),
    lambda: Rng([0, 0]).poisson(math.inf),
    lambda: Rng([0, 0]).poisson(math.nextafter(POISSON_LAM_MAX, math.inf)),
], ids=["negative_entropy", "empty_range", "empty_range_between", "range_2_32", "range_2_32_between",
        "negative_lam", "nan_lam", "infinite_lam", "lam_past_max"])
def test_what_it_does_not_copy_is_a_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_lam_max_is_numpys():
    rng = np.random.default_rng(0)
    rng.poisson(POISSON_LAM_MAX)
    with pytest.raises(ValueError):
        rng.poisson(math.nextafter(POISSON_LAM_MAX, math.inf))


class _Huge:
    """A sequence that says it holds 2**32 + 1 items and holds none."""

    def __len__(self) -> int:
        return 2**32 + 1


def test_shuffle_of_more_than_2_32_items_is_a_value_error():
    with pytest.raises(ValueError, match=r"cannot shuffle 4294967297 items, at most 2\*\*32"):
        Rng([0, 0]).shuffle(_Huge())


class _ZeroFirst(Rng):
    """Rng whose first random() is 0.0, which numpy's default_rng almost never draws."""

    def __init__(self, entropy) -> None:
        super().__init__(entropy)
        self.zero_given = False

    def random(self) -> float:
        if self.zero_given:
            return super().random()
        self.zero_given = True
        return 0.0


def test_ptrs_rejects_the_pair_whose_u_is_at_the_edge_as_c_does():
    # u = 0.0 - 0.5 leaves us = 0, where C divides by zero to -inf and rejects the pair, v included
    ours, plain = _ZeroFirst([5, 0]), Rng([5, 0])
    plain.random()  # the v of the rejected pair
    assert ours.poisson(30.0) == plain.poisson(30.0)
    assert ours.random() == plain.random()  # both consumed the same words
