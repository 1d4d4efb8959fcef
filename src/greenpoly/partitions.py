"""Partition combinatorics shared by the group and orbit modules."""

from __future__ import annotations

from functools import lru_cache
from math import factorial


Partition = tuple  # weakly decreasing tuple of positive ints


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None):
    """All partitions of n, descending lex, parts bounded by max_part."""
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def transpose(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def dominates(lam: Partition, mu: Partition) -> bool:
    """lam >= mu in dominance order (both partitions of the same number)."""
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def multiplicities(lam: Partition) -> dict:
    out = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out


def is_distinct(lam: Partition) -> bool:
    return len(set(lam)) == len(lam)


def cycle_type_size(n: int, lam: Partition) -> int:
    """Size of the S_n conjugacy class with cycle type lam."""
    z = 1
    for part, mult in multiplicities(lam).items():
        z *= part**mult * factorial(mult)
    return factorial(n) // z


def hooks(lam: Partition, r: int):
    """All ways to remove an r-rim-hook; yields (smaller partition, leg length).

    Works on beta numbers: removing an r-hook moves one bead down by r on the
    abacus, and the leg length counts the beads jumped over.  The beads are
    kept in decreasing order, so the moved bead is slotted in after the ones
    it jumps, with no sort.
    """
    m = len(lam)
    beta = [p + m - 1 - i for i, p in enumerate(lam)]
    for i, b in enumerate(beta):
        nb = b - r
        if nb < 0:
            continue
        j = i + 1
        while j < m and beta[j] > nb:
            j += 1
        if j < m and beta[j] == nb:
            continue
        new_beta = beta[:i] + beta[i + 1:j] + [nb] + beta[j:]
        smaller = tuple(v - (m - 1 - k) for k, v in enumerate(new_beta) if v > m - 1 - k)
        yield smaller, j - i - 1


@lru_cache(maxsize=None)
def _signed_hooks(lam: Partition, r: int) -> tuple:
    """The r-rim-hooks of lam, as (smaller partition, (-1)^leg), found once:
    the characters of S_n at different cycle types reach the same (lam, r)
    many times."""
    return tuple((smaller, -1 if leg % 2 else 1) for smaller, leg in hooks(lam, r))


@lru_cache(maxsize=None)
def sym_char(lam: Partition, mu: Partition) -> int:
    """Character of the S_n irrep lam at cycle type mu (Murnaghan-Nakayama)."""
    if not mu:
        return 1 if not lam else 0
    rest = mu[1:]
    return sum(sign * sym_char(smaller, rest) for smaller, sign in _signed_hooks(lam, mu[0]))


def count_odd_part_partitions(n: int) -> int:
    return sum(1 for lam in partitions(n) if all(p % 2 for p in lam))


def count_even_length_partitions(n: int) -> int:
    return sum(1 for lam in partitions(n) if len(lam) % 2 == 0)


def distinct_partitions(n: int):
    return tuple(lam for lam in partitions(n) if is_distinct(lam))
