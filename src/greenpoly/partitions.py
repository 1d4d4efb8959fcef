"""Partition combinatorics shared by the group and orbit modules.

A partition is a weakly decreasing tuple of positive ints.  For the
characters of S_n it is also read on the abacus: lam with m parts is the
set of beads lam_i + m - 1 - i (its beta numbers), kept as the bits of one
int, on which removing a rim hook is moving one bead down (`sym_char`).
"""

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


@lru_cache(maxsize=None)
def transpose(lam: Partition) -> Partition:
    """The conjugate partition, memoised: a GL(n) table reads it three times
    per orbit (its irreducible, d_e and the row filled by the sign twist)."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


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


@lru_cache(maxsize=None)
def _beads(lam: Partition) -> int:
    """lam on the abacus: bit lam_i + m - 1 - i set for each of its m parts."""
    m = len(lam)
    mask = 0
    for i, p in enumerate(lam):
        mask |= 1 << (p + m - 1 - i)
    return mask


@lru_cache(maxsize=None)
def _mn(mask: int, mu: tuple) -> int:
    """The Murnaghan-Nakayama sum over the rim hooks of mask's partition.

    An r-rim-hook is a bead at p moved down to an empty place p - r, with
    sign (-1)^(beads strictly between).  A full run of beads at the bottom
    is a run of zero parts, so each new mask drops it and stays the one
    mask of its partition; the empty partition is 0.
    """
    if not mu:
        return 0 if mask else 1
    r, rest = mu[0], mu[1:]
    between = (1 << (r - 1)) - 1
    total = 0
    # bit p - r of movable is set when a bead sits at p and p - r is empty
    movable = (mask & ~(mask << r)) >> r
    while movable:
        low = movable & -movable  # the empty place p - r
        movable ^= low
        moved = mask ^ (low | low << r)
        # drop the run of beads at the bottom, the zero parts
        moved >>= (~moved & (moved + 1)).bit_length() - 1
        value = _mn(moved, rest)
        if (mask >> low.bit_length() & between).bit_count() & 1:
            value = -value
        total += value
    return total


def sym_char(lam: Partition, mu: Partition) -> int:
    """Character of the S_n irrep lam at cycle type mu (Murnaghan-Nakayama),
    0 when |lam| != |mu|.

    lam is one int on the abacus (`_beads`), and mu's parts are stripped
    largest first, memoised on (mask, parts left).  Stripping the smallest
    first shares fewer states: 12 648 against 7 332 for the S_12 table,
    which it took 2.6 times as long to fill.
    """
    return _mn(_beads(lam), tuple(mu))


def count_odd_part_partitions(n: int) -> int:
    return sum(1 for lam in partitions(n) if all(p % 2 for p in lam))


def count_even_length_partitions(n: int) -> int:
    return sum(1 for lam in partitions(n) if len(lam) % 2 == 0)


def distinct_partitions(n: int):
    return tuple(lam for lam in partitions(n) if is_distinct(lam))
