"""Exact arithmetic over Z[q]: polynomials and matrices of polynomials.

Everything here is immutable and normalized on construction, so equal values
compare equal componentwise and can be shared freely across threads.

All linear algebra stays in Z[q]: `adjugate` inverts a square block up to its
determinant by fraction-free elimination, and `sparse_matmul` multiplies
matrices of polynomials, skipping zero factors.  A polynomial f whose
coefficients lie strictly between -2^(b-1) and 2^(b-1) is packed into the
single integer f(2^b) (`IntPoly.pack`) and read back by signed digits
(`IntPoly.unpack`); since evaluation at 2^b is a ring map, sums of products of
packed values are packed sums of products, so one big-integer multiply-add
replaces a schoolbook polynomial product (Harvey, J. Symbolic Comput. 44,
2009).  The slot width b comes from a coefficient bound computed from the
inputs (`slot_bits`).

`RatFun`, a rational function over Q, has no caller in the library.  It stays
only because the benchmark tracer still counts calls of `RatFun.__init__`;
it goes once the tracer stops naming it.
"""

from __future__ import annotations

from typing import Iterable, Union


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def slot_bits(bound: int) -> int:
    """Slot width b for packing values whose coefficients are at most bound
    in absolute value: every coefficient then lies below 2^(b-1)."""
    return bound.bit_length() + 1


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

    # -- constructors ---------------------------------------------------
    @staticmethod
    def const(c: int) -> "IntPoly":
        return IntPoly((c,))

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

        Each digit shifts the whole remaining integer, so the time is
        quadratic in the number of digits.  A caller that packs many values
        into one long integer splits it into entries first, by halves
        (`charring._signed_chunks`), and unpacks each entry alone.
        """
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
        out = IntPoly((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divexact(self, other: "IntPoly") -> "IntPoly":
        """Exact division; raises ValueError on a nonzero remainder."""
        q, r = self.divmod(other)
        if r:
            raise ValueError(f"inexact polynomial division: remainder {r}")
        return q

    def divmod(self, other: "IntPoly"):
        """Division within Z[q]: quotient and remainder, where a nonzero
        remainder (possibly the partially reduced numerator) means the exact
        quotient does not lie in Z[q]."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        num = list(self.coeffs)
        den = other.coeffs
        dl = den[-1]
        out = [0] * max(0, len(num) - len(den) + 1)
        for k in range(len(out) - 1, -1, -1):
            c = num[k + len(den) - 1]
            if c % dl:
                # quotient leaves Z[q]; signal through the remainder
                return _poly(out), _poly(num)
            f = c // dl
            out[k] = f
            if f:
                for j, dj in enumerate(den):
                    num[k + j] -= f * dj
        return _poly(out), _poly(num)

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

    @staticmethod
    def from_json(obj: dict) -> "IntPoly":
        return IntPoly(tuple(int(c) for c in obj["coeffs"]))

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
    return [[x * sign for x in row[n:]] for row in m], prev * sign


# ---------------------------------------------------------------------------
# rational coefficients


def _fr_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _fr_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _fr_trim(out)


def _fr_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _fr_trim(out)


def _fr_neg(a):
    return tuple(-c for c in a)


def _to_int_primitive(a):
    """Clear denominators and content; returns (int coeff tuple, scale)."""
    from fractions import Fraction
    from math import gcd, lcm

    if not a:
        return (), Fraction(1)
    den = 1
    for c in a:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in a]
    g = 0
    for c in ints:
        g = gcd(g, c)
    g = g or 1
    return tuple(c // g for c in ints), Fraction(g, den)


def _int_gcd_poly(a, b):
    """gcd of integer coefficient tuples via a primitive PRS; result primitive."""
    from math import gcd

    def content(u):
        g = 0
        for c in u:
            g = gcd(g, c)
        return g or 1

    def primitive(u):
        g = content(u)
        return tuple(c // g for c in u)

    a, b = _trim(a), _trim(b)
    if not a:
        return primitive(b) if b else ()
    if not b:
        return primitive(a)
    if len(a) < len(b):
        a, b = b, a
    a, b = primitive(a), primitive(b)
    while True:
        # pseudo-remainder: scale by the leading coefficient at every step so
        # everything stays integral, then strip content
        r = list(a)
        lc = b[-1]
        while r and len(r) >= len(b):
            top = r[-1]
            shift = len(r) - len(b)
            r = [lc * c for c in r]
            for j, bj in enumerate(b):
                r[shift + j] -= top * bj
            r = list(_trim(r))
        if not r:
            return b
        a, b = b, primitive(tuple(r))


class RatFun:
    """Reduced rational function num/den with rational coefficients.

    Canonical form: gcd(num, den) = 1 and den monic, so equal fractions are
    componentwise equal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        from fractions import Fraction

        if isinstance(num, IntPoly):
            num = tuple(Fraction(c) for c in num.coeffs)
        if isinstance(den, IntPoly):
            den = tuple(Fraction(c) for c in den.coeffs)
        if den is None:
            den = (Fraction(1),)
        num = _fr_trim(Fraction(c) for c in num)
        den = _fr_trim(Fraction(c) for c in den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        num, den = self._reduce(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    @staticmethod
    def _reduce(num, den):
        from fractions import Fraction

        if not num:
            return (), (Fraction(1),)
        ni, ns = _to_int_primitive(num)
        di, ds = _to_int_primitive(den)
        g = _int_gcd_poly(ni, di)
        if len(g) > 1:
            gp = IntPoly(g)
            ni = IntPoly(ni).divexact(gp).coeffs
            di = IntPoly(di).divexact(gp).coeffs
        scale = ns / ds / di[-1]
        num = tuple(Fraction(c) * scale for c in ni)
        den = tuple(Fraction(c, di[-1]) for c in di)
        return num, den

    @staticmethod
    def from_int(c) -> "RatFun":
        return RatFun((c,))

    def is_zero(self):
        return not self.num

    def is_polynomial(self):
        return self.den == (1,)

    def as_intpoly(self) -> IntPoly:
        """Convert to IntPoly; raises if not an integer polynomial."""
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: {self}")
        out = []
        for c in self.num:
            if c.denominator != 1:
                raise ValueError(f"non-integer coefficient in {self}")
            out.append(c.numerator)
        return IntPoly(out)

    def __eq__(self, other):
        return (
            isinstance(other, RatFun)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return RatFun(
            _fr_add(_fr_mul(self.num, other.den), _fr_mul(other.num, self.den)),
            _fr_mul(self.den, other.den),
        )

    def __neg__(self):
        return RatFun(_fr_neg(self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatFun(_fr_mul(self.num, other.num), _fr_mul(self.den, other.den))

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(_fr_mul(self.num, other.den), _fr_mul(self.den, other.num))

    def to_json(self):
        return {
            "num": {"coeffs": [str(c) for c in self.num]},
            "den": {"coeffs": [str(c) for c in self.den]},
        }

    @staticmethod
    def from_json(obj):
        return RatFun(obj["num"]["coeffs"], obj["den"]["coeffs"])

    def __repr__(self):
        def fmt(cs):
            return "+".join(f"{c}q^{i}" if i else str(c) for i, c in enumerate(cs)) or "0"

        if self.is_polynomial():
            return f"RatFun({fmt(self.num)})"
        return f"RatFun(({fmt(self.num)})/({fmt(self.den)}))"

