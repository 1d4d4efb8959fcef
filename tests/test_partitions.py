from hypothesis import given, settings
from hypothesis import strategies as st

from greenpoly.partitions import (
    cycle_type_size,
    partitions,
    sym_char,
    transpose,
)

from oracles import dominates, hooks, sym_char_by_hooks


def random_partition(n):
    return st.sampled_from(partitions(n))


@given(st.integers(1, 8).flatmap(lambda n: random_partition(n)))
@settings(deadline=None)
def test_transpose_involution(lam):
    assert transpose(transpose(lam)) == lam


@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(random_partition(n), random_partition(n))))
@settings(deadline=None)
def test_transpose_reverses_dominance(pair):
    lam, mu = pair
    if dominates(lam, mu):
        assert dominates(transpose(mu), transpose(lam))


@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(random_partition(n), random_partition(n), random_partition(n))))
@settings(deadline=None)
def test_dominance_partial_order(triple):
    a, b, c = triple
    assert dominates(a, a)
    if dominates(a, b) and dominates(b, a):
        assert a == b
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.just(n), random_partition(n), random_partition(n))))
@settings(deadline=None)
def test_hook_removal_preserves_size(args):
    n, lam, mu = args
    r = mu[0]
    for smaller, leg in hooks(lam, r):
        assert sum(smaller) == n - r
        assert 0 <= leg < len(lam)


def test_class_sizes_sum():
    from math import factorial

    for n in range(1, 9):
        assert sum(cycle_type_size(n, lam) for lam in partitions(n)) == factorial(n)


def test_sym_char_dimensions_hook_length():
    # MN at the identity against the hook length formula
    from math import factorial

    for n in range(1, 8):
        for lam in partitions(n):
            hookprod = 1
            t = transpose(lam)
            for i, row in enumerate(lam):
                for j in range(row):
                    hookprod *= row - j + t[j] - i - 1
            assert sym_char(lam, (1,) * n) == factorial(n) // hookprod


def test_sym_char_matches_beta_list_recursion():
    # the abacus bitmask against the rim-hook recursion on beta lists, on
    # every pair of sizes up to 10, unequal sizes (value 0) included
    parts = [lam for n in range(11) for lam in partitions(n)]
    for lam in parts:
        for mu in parts:
            assert sym_char(lam, mu) == sym_char_by_hooks(lam, mu), (lam, mu)
