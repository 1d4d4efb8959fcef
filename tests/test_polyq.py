from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenpoly.polyq import (
    ONE,
    IntPoly,
    pack_ints,
    slot_bits,
    sparse_matmul,
    split_ints,
)

from conftest import run_fresh
from oracles import matmul, reverse, to_json


def P(*coeffs):
    return IntPoly(coeffs)


class TestIntPoly:
    def test_difference_of_squares(self):
        assert P(1, -1) * P(1, 1) == P(1, 0, -1)

    def test_additive_identity(self):
        f = P(3, 0, 2)
        assert IntPoly() + f == f
        assert f + IntPoly() == f

    def test_hand_expansion(self):
        # (1-q^2)(1-q^3) = 1 - q^2 - q^3 + q^5
        assert P(1, 0, -1) * P(1, 0, 0, -1) == P(1, 0, -1, -1, 0, 1)

    def test_power(self):
        assert P(1, 1) ** 0 == ONE
        assert P(1, 1) ** 3 == P(1, 3, 3, 1)

    def test_negative_power_raises(self):
        # a negative exponent once looped forever (-1 >> 1 is -1), so the
        # call runs in a fresh interpreter with a timeout
        code = (
            "from greenpoly.polyq import IntPoly\n"
            "try:\n"
            "    IntPoly((1, 1)) ** -1\n"
            "except ValueError:\n"
            "    print('ValueError')\n"
        )
        assert run_fresh(code, timeout=10, text=True).stdout == "ValueError\n"

    def test_normalization(self):
        assert IntPoly((1, 0, 0)).coeffs == (1,)
        assert IntPoly((0, 0)).is_zero()

    def test_negate_q(self):
        assert P(1, 1).negate_q() == P(1, -1)

    def test_reverse(self):
        # q^3 (1 + q^-2) = q^3 + q
        assert reverse(P(1, 0, 1), 3) == P(0, 1, 0, 1)
        with pytest.raises(ValueError):
            reverse(P(1, 0, 1), 1)

    def test_eval(self):
        assert P(1, 0, -1).eval(-1) == 0
        assert P(1, 2, 3).eval(10) == 321

    def test_divexact(self):
        f = P(1, 0, -1)
        assert f.divexact(P(1, -1)) == P(1, 1)
        with pytest.raises(ValueError):
            f.divexact(P(1, 1, 1))
        # the division stops at the first quotient coefficient outside Z and
        # shows the numerator as reduced so far
        with pytest.raises(ValueError) as err:
            P(1, 0, 3).divexact(P(0, 2))
        assert str(err.value) == "inexact polynomial division: remainder 1+3*q^2"
        with pytest.raises(ZeroDivisionError):
            f.divexact(IntPoly())

    def test_constructor_checks_integers(self):
        with pytest.raises(TypeError):
            IntPoly([1.5])
        with pytest.raises(TypeError):
            IntPoly((1, Fraction(1, 2)))
        # arithmetic results skip the check but are trimmed all the same
        assert (P(1, 1) - P(0, 1) - P(1)).coeffs == ()

    @given(st.lists(st.integers(-(10**40), 10**40), max_size=8))
    @settings(deadline=None)
    def test_pack_unpack_roundtrip(self, cs):
        f = IntPoly(cs)
        b = slot_bits(f.norm_inf())
        assert IntPoly.unpack(f.pack(b), b) == f
        assert f.pack(b) == f.eval(2**b)

    def test_slot_width_is_at_least_two(self):
        # at b = 1 the signed digits are -1 and 0 only, so unpacking 1 would
        # carry forever; slot_bits never gives b = 1 and unpack refuses it
        assert slot_bits(0) == 2 and slot_bits(1) == 2
        with pytest.raises(ValueError):
            IntPoly.unpack(1, 1)

    def test_json_roundtrip(self):
        f = P(1, 0, -1)
        assert to_json(f) == {"coeffs": ["1", "0", "-1"]}

    @given(st.lists(st.integers(-50, 50), max_size=6),
           st.lists(st.integers(-50, 50), max_size=6))
    @settings(deadline=None)
    def test_reverse_multiplicative(self, a, b):
        f, g = IntPoly(a), IntPoly(b)
        if f.is_zero() or g.is_zero():
            return
        df, dg = len(f.coeffs) - 1, len(g.coeffs) - 1
        assert reverse(f * g, df + dg) == reverse(f, df) * reverse(g, dg)

    @given(st.lists(st.integers(-9, 9), max_size=5),
           st.lists(st.integers(-9, 9), max_size=5))
    @settings(deadline=None)
    def test_mul_commutes_with_eval(self, a, b):
        f, g = IntPoly(a), IntPoly(b)
        assert (f * g).eval(3) == f.eval(3) * g.eval(3)

    # a nonzero divisor, its leading coefficient +-1 a good share of the time
    @given(st.lists(st.integers(-50, 50), max_size=6),
           st.lists(st.integers(-50, 50), max_size=4),
           st.one_of(st.sampled_from((1, -1)), st.integers(-50, 50).filter(bool)),
           st.lists(st.integers(-50, 50), max_size=5))
    @settings(deadline=None)
    def test_divexact_inverts_mul(self, a, b, lead, c):
        f, g, r = IntPoly(a), IntPoly(b + [lead]), IntPoly(c)
        assert (f * g).divexact(g) == f
        # the quotient of f*g + r over Q is f + quotient(r) and the remainder
        # that of r, so g divides it in Z[q] exactly when it divides r there
        quot, rem = _divide_over_q(r, g)
        h = f * g + r
        if any(rem) or any(x.denominator != 1 for x in quot):
            with pytest.raises(ValueError) as err:
                h.divexact(g)
            text = str(err.value)
            assert text.startswith("inexact polynomial division: remainder ")
            if abs(g.coeffs[-1]) == 1:  # the division runs to the end
                assert text == f"inexact polynomial division: remainder {IntPoly(map(int, rem))}"
        else:
            assert h.divexact(g) == f + IntPoly(map(int, quot))

    @given(st.lists(st.integers(-50, 50), max_size=6), st.integers(-12, 12).filter(bool),
           st.lists(st.integers(-50, 50), max_size=6))
    @settings(deadline=None)
    def test_divexact_int_inverts_scaling(self, a, n, c):
        f, r = IntPoly(a), IntPoly(c)
        assert (f * n).divexact_int(n) == f
        h = f * n + r
        if all(x % n == 0 for x in c):
            assert h.divexact_int(n) == f + IntPoly([x // n for x in c])
        else:
            with pytest.raises(ValueError) as err:
                h.divexact_int(n)
            assert str(err.value) == f"coefficients not divisible by {n}: {h}"


def _divide_over_q(h, g):
    """Quotient and remainder of h by g over Q, as lists of Fractions, lowest
    degree first; g divides h in Z[q] exactly when the remainder is 0 and
    every quotient coefficient is an integer."""
    num = [Fraction(c) for c in h.coeffs]
    den = g.coeffs
    out = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        out[k] = num[k + len(den) - 1] / den[-1]
        for j, dj in enumerate(den):
            num[k + j] -= out[k] * dj
    return out, num


def _schoolbook_matmul(A, B):
    return [
        [sum((A[i][k] * B[k][j] for k in range(len(B))), IntPoly()) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


# half the entries zero, so the product's skipping of zero factors is exercised
_wide_poly = st.one_of(
    st.just(IntPoly()), st.lists(st.integers(-(10**30), 10**30), max_size=5).map(IntPoly)
)


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_matmul_matches_schoolbook(data):
    n, m, l = (data.draw(st.integers(1, 4)) for _ in range(3))
    A = [[data.draw(_wide_poly) for _ in range(m)] for _ in range(n)]
    B = [[data.draw(_wide_poly) for _ in range(l)] for _ in range(m)]
    want = _schoolbook_matmul(A, B)
    assert matmul(A, B) == want
    # on packed entries the product is the packed product: coefficients stay
    # below 4 * 5 * 10^60 < 2^255
    packed = sparse_matmul([[x.pack(256) for x in row] for row in A],
                           [[x.pack(256) for x in row] for row in B])
    assert packed == [[x.pack(256) for x in row] for row in want]


# byte-packed slots: a width that is a multiple of 8, from 8 to 2048 bits,
# and values anywhere in its signed range, its two ends included
_widths = st.integers(1, 256).map(lambda k: 8 * k)


def _slot_values(width):
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    return st.lists(st.one_of(st.integers(lo, hi), st.sampled_from((lo, lo + 1, -1, 0, 1, hi))),
                    max_size=12)


@given(st.data())
@settings(deadline=None, max_examples=200)
def test_pack_ints_is_intpoly_pack(data):
    width = data.draw(_widths)
    values = data.draw(_slot_values(width))
    assert pack_ints(values, width) == IntPoly(values).pack(width)


@given(st.data())
@settings(deadline=None, max_examples=200)
def test_split_ints_inverts_pack_ints(data):
    width = data.draw(_widths)
    values = data.draw(_slot_values(width))
    assert split_ints(pack_ints(values, width), width, len(values)) == values


@pytest.mark.parametrize("width", [8, 16, 64, 2048])
def test_split_ints_reads_extreme_digits(width):
    top = (1 << (width - 1)) - 1
    for values in ([top, -top, 0, top], [-top, top], [top], [-top], [0], [0, 0, 0], []):
        assert split_ints(pack_ints(values, width), width, len(values)) == values
    assert split_ints(0, width, 3) == [0, 0, 0]


@given(st.data())
@settings(deadline=None, max_examples=200)
def test_split_ints_rejects_out_of_range(data):
    # the integers that count signed slots hold are exactly those from
    # pack_ints([-2^(w-1)] * count) to pack_ints([2^(w-1) - 1] * count)
    width, count = data.draw(_widths), data.draw(st.integers(0, 6))
    half = 1 << (width - 1)
    lowest, highest = pack_ints([-half] * count, width), pack_ints([half - 1] * count, width)
    assert split_ints(lowest, width, count) == [-half] * count
    assert split_ints(highest, width, count) == [half - 1] * count
    beyond = data.draw(st.integers(1, 1 << (width * count + 2)))
    assert split_ints(lowest - beyond, width, count) is None
    assert split_ints(highest + beyond, width, count) is None
