"""Exact arithmetic over Z[q]: polynomials and matrices of polynomials.

An `IntPoly` is immutable and normalized on construction, so equal values
compare equal componentwise and can be shared freely across threads; `ZERO`
and `ONE` are such shared values.  A `PackedRows` is mutable: it grows with
each row it combines, and belongs to the one caller that builds it.

All linear algebra stays in Z[q]: `adjugate` inverts a square block up to its
determinant by fraction-free elimination, and `sparse_matmul` multiplies
matrices of polynomials, skipping zero factors; `PackedRows` keeps rows of
polynomials packed for exact integer combinations of them.  A polynomial f whose
coefficients lie strictly between -2^(b-1) and 2^(b-1) is packed into the
single integer f(2^b) (`IntPoly.pack`) and read back by signed digits
(`IntPoly.unpack`); since evaluation at 2^b is a ring map, sums of products of
packed values are packed sums of products, so one big-integer multiply-add
replaces a schoolbook polynomial product (Harvey, J. Symbolic Comput. 44,
2009).  The slot width b comes from a coefficient bound computed from the
inputs (`slot_bits`).  For many values in one integer, at a width that is a
whole number of bytes, `pack_ints` and `split_ints` pack and split in time
linear in the length: each value, offset by half its slot, is one run of
little-endian bytes, so a single `int.from_bytes` or `int.to_bytes` moves them
all, and a constant bias takes the offsets off again.

Nothing here leaves Z[q]: every division is exact (`IntPoly.divexact`, the
pivots of `adjugate`), and there is no field of fractions.  `RatFun` is a
placeholder whose constructor raises; it stays only because the benchmark
tracer still counts calls of `RatFun.__init__`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress, count
from operator import attrgetter, sub
from typing import Iterable, Union


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def slot_bits(bound: int) -> int:
    """Slot width b for packing values whose coefficients are at most bound
    in absolute value: every coefficient then lies below 2^(b-1).  b is at
    least 2, the narrowest width `IntPoly.unpack` reads."""
    return max(bound.bit_length() + 1, 2)


@lru_cache(maxsize=None)
def _bias(width: int, count: int) -> int:
    """sum_j 2^(width-1) 2^(width j) over j < count: the offsets that make
    every slot of `pack_ints` and `split_ints` nonnegative."""
    return int.from_bytes((bytes((width >> 3) - 1) + b"\x80") * count, "little")


def pack_ints(values, width: int) -> int:
    """sum_j values[j] 2^(width j), for a width that is a multiple of 8 and
    values with -2^(width-1) <= v < 2^(width-1); OverflowError otherwise.

    Each value plus 2^(width-1) is written as width/8 little-endian bytes and
    the joined bytes are read back as one integer, so the time is linear in
    the total length, where a shift-accumulate (`IntPoly.pack`) is quadratic.
    """
    nbytes, half = width >> 3, 1 << (width - 1)
    data = b"".join([(v + half).to_bytes(nbytes, "little") for v in values])
    return int.from_bytes(data, "little") - _bias(width, len(values))


def split_ints(u: int, width: int, count: int):
    """The count signed digits of u in base 2^width, lowest first, each in
    [-2^(width-1), 2^(width-1)), for a width that is a multiple of 8; None
    when u is not sum_j d_j 2^(width j) over j < count with such digits.

    The inverse of `pack_ints`, in time linear in count: u plus the bias is
    written out as bytes once and each slot is read back alone.
    """
    nbytes, half = width >> 3, 1 << (width - 1)
    try:
        data = (u + _bias(width, count)).to_bytes(nbytes * count, "little")
    except OverflowError:  # negative, or too long for count slots
        return None
    read = int.from_bytes
    return [read(data[i:i + nbytes], "little") - half for i in range(0, nbytes * count, nbytes)]


def byte_width(bits: int) -> int:
    """bits rounded up to a whole number of bytes."""
    return -(-bits // 8) * 8


class IntPoly:
    """Dense polynomial in q with arbitrary-precision integer coefficients.

    Coefficients are stored ascending; the zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = _trim(tuple(coeffs))
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("IntPoly is immutable")

    # -- structure ------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def norm_inf(self) -> int:
        """Largest absolute value of a coefficient."""
        return max(map(abs, self.coeffs), default=0)

    def norm1(self) -> int:
        """Sum of the absolute values of the coefficients."""
        return sum(map(abs, self.coeffs))

    # -- Kronecker substitution ------------------------------------------
    def pack(self, b: int) -> int:
        """f(2^b) as one integer."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc << b) + c
        return acc

    @staticmethod
    def unpack(n: int, b: int) -> "IntPoly":
        """The f with f(2^b) = n, reading signed base-2^b digits; exact when
        every coefficient of f lies strictly between -2^(b-1) and 2^(b-1).
        ValueError for b < 2: at b = 1 no nonzero digit lies in that range.

        Each digit shifts the whole remaining integer, so the time is
        quadratic in the number of digits.  A caller that packs many values
        into one long integer at a byte-aligned stride splits it into entries
        first (`split_ints`, linear) and unpacks each entry alone.
        """
        if b < 2:
            raise ValueError(f"slot width {b} is below 2")
        out = []
        mask, half, full = (1 << b) - 1, 1 << (b - 1), 1 << b
        while n:
            d = n & mask
            n >>= b
            if d >= half:
                d -= full
                n += 1
            out.append(d)
        return _poly(out)

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out)

    def __neg__(self) -> "IntPoly":
        return _poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: Union["IntPoly", int]) -> "IntPoly":
        if isinstance(other, int):
            return _poly(tuple(other * c for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return _poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPoly":
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        out = IntPoly((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divexact(self, other: "IntPoly") -> "IntPoly":
        """The quotient self/other in Z[q], by long division.  ValueError when
        it does not lie in Z[q]: the message shows the numerator as reduced
        so far, the remainder once the division has run to the end."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        num = list(self.coeffs)
        den = other.coeffs
        dl, top = den[-1], len(den) - 1
        out = [0] * max(0, len(num) - top)
        for k in range(len(out) - 1, -1, -1):
            f, r = divmod(num[k + top], dl)
            if r:  # the quotient leaves Z[q]
                break
            out[k] = f
            if f:
                for j, dj in enumerate(den):
                    num[k + j] -= f * dj
        if any(num):
            raise ValueError(f"inexact polynomial division: remainder {_poly(num)}")
        return _poly(out)

    def divisible_int(self, n: int) -> bool:
        return all(c % n == 0 for c in self.coeffs)

    def divexact_int(self, n: int) -> "IntPoly":
        if not self.divisible_int(n):
            raise ValueError(f"coefficients not divisible by {n}: {self}")
        return _poly(tuple(c // n for c in self.coeffs))

    # -- substitutions ---------------------------------------------------
    def negate_q(self) -> "IntPoly":
        """f(q) -> f(-q)."""
        return _poly(tuple(-c if i % 2 else c for i, c in enumerate(self.coeffs)))

    def reverse(self, n: int) -> "IntPoly":
        """q^n * f(1/q); requires n >= deg f."""
        if n < self.degree:
            raise ValueError(f"reverse({n}) needs n >= deg = {self.degree}")
        out = [0] * (n + 1)
        for i, c in enumerate(self.coeffs):
            out[n - i] = c
        return _poly(out)

    def eval(self, q0: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    # -- io ----------------------------------------------------------------
    def to_json(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self):
        return f"IntPoly({self})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                t = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                t = f"{mag}q" if i == 1 else f"{mag}q^{i}"
            terms.append(("-" if c < 0 else "+", t))
        sign0, t0 = terms[0]
        out = ("-" if sign0 == "-" else "") + t0
        for sign, t in terms[1:]:
            out += sign + t
        return out


_set_coeffs = IntPoly.coeffs.__set__
_coeffs = attrgetter("coeffs")


def _poly(coeffs) -> IntPoly:
    """Unchecked IntPoly constructor for arithmetic results: a sequence of
    ints, only trimmed."""
    self = object.__new__(IntPoly)
    _set_coeffs(self, _trim(coeffs))
    return self


ZERO = IntPoly()
ONE = IntPoly((1,))
Q = IntPoly((0, 1))


# ---------------------------------------------------------------------------
# matrices over Z[q], as lists of rows of IntPolys


def sparse_matmul(A, B, zero=ZERO) -> list:
    """The exact product A*B, skipping zero factors.

    Each row of A meets only the nonzero entries of B's rows, so a
    block-diagonal or triangular factor costs a multiply per nonzero pair,
    not per entry.  The entries are IntPolys, or, with zero=0, packed
    polynomials, that is ints.
    """
    ncols = len(B[0]) if B else 0
    nonzero_b = [[(j, x) for j, x in enumerate(row) if x] for row in B]
    out = []
    for row in A:
        acc = [zero] * ncols
        for a, row_b in zip(row, nonzero_b):
            if a:
                for j, x in row_b:
                    acc[j] = acc[j] + a * x
        out.append(acc)
    return out


def nonzero_positions(row) -> list:
    """The positions of the nonzero IntPolys in row, by one C-level scan."""
    return list(compress(count(), map(len, map(_coeffs, row))))


def _row_norm(row) -> int:
    """Largest |coefficient| of any IntPoly in row, by one C-level scan."""
    return max(map(abs, chain.from_iterable(map(_coeffs, row))), default=0)


class PackedRows:
    """Rows of IntPolys kept packed at one slot width b, for exact integer
    combinations of them.

    A new row is base - sum c * row_j over (c, j) in terms, taken on the
    packed rows at q = 2^b.  Each coefficient of its entry at position p is
    at most |base_p|_inf + sum |c|_1 |row_j,p|_inf in absolute value, and so
    at most max_p |base_p|_inf + (sum |c|_1) top, top being the largest
    |coefficient| anywhere in a stored row.  That one bound holds at every
    position; it is read from one scan of the base's coefficients, and top
    is kept by one scan of each row stored.  Once b holds the bound, the
    integer the combination gives at each position is the new entry's
    packed form, so the row is unpacked once and never packed again.  When
    the bound outgrows b, b becomes max(needed, 2b) and every stored row is
    packed again, so a row is repacked O(log) times however many rows
    follow.
    """

    def __init__(self):
        self.b = 0
        self.rows: list = []  # each row's IntPolys
        self.packed: list = []  # each row at q = 2^b
        self.top = 0  # the largest |coefficient| of a stored row

    def combine(self, base, terms) -> list:
        """Store and return the row base - sum c * row_j over (c, j) in terms."""
        scale = sum(c.norm1() for c, _ in terms)
        needed = slot_bits(_row_norm(base) + scale * self.top)
        if needed > self.b:
            self.b = b = max(needed, 2 * self.b)
            self.packed = [[x.pack(b) for x in row] for row in self.rows]
        b = self.b
        acc = [x.pack(b) for x in base]
        for c, j in terms:
            acc = list(map(sub, acc, map(c.pack(b).__mul__, self.packed[j])))
        row = [IntPoly.unpack(x, b) if x else ZERO for x in acc]
        self.rows.append(row)
        self.packed.append(acc)
        self.top = max(self.top, _row_norm(row))
        return row


def adjugate(rows) -> tuple:
    """Adjugate and determinant (adj, det) of a square matrix over Z[q].

    Fraction-free Gauss-Jordan elimination on [A | I] (Bareiss, Math. Comp.
    22, 1968): after the step on column k every entry is a minor of order
    k + 1, so each division by the previous pivot is exact in Z[q].  At the
    end the left half is d*I and the right half d*A^{-1}, where d is the
    last pivot, det(A) times the sign of the row swaps.  Raises
    ZeroDivisionError when A is singular.
    """
    n = len(rows)
    m = [
        list(row) + [ONE if i == j else ZERO for j in range(n)]
        for i, row in enumerate(rows)
    ]
    prev, sign = ONE, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pk = m[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(pk[k] * x - f * y).divexact(prev) for x, y in zip(m[i], pk)]
        prev = pk[k]
    if sign > 0:
        return [row[n:] for row in m], prev
    return [[-x for x in row[n:]] for row in m], -prev


class RatFun:
    """Retired: greenpoly computes in Z[q] only.  The name stays because the
    benchmark tracer counts calls of `RatFun.__init__`; it goes with that
    counter."""

    def __init__(self, *args):
        raise TypeError("RatFun is retired: greenpoly computes in Z[q] only")
