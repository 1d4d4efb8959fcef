from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenpoly.polyq import (
    IntPoly,
    Q,
    RatFun,
    matmul,
    slot_bits,
)


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

    def test_normalization(self):
        assert IntPoly((1, 0, 0)).coeffs == (1,)
        assert IntPoly((0, 0)).is_zero()
        assert IntPoly().degree == -1

    def test_negate_q(self):
        assert P(1, 1).negate_q() == P(1, -1)

    def test_reverse(self):
        # q^3 (1 + q^-2) = q^3 + q
        assert P(1, 0, 1).reverse(3) == P(0, 1, 0, 1)
        with pytest.raises(ValueError):
            P(1, 0, 1).reverse(1)

    def test_eval(self):
        assert P(1, 0, -1).eval(-1) == 0
        assert P(1, 2, 3).eval(10) == 321

    def test_divexact(self):
        f = P(1, 0, -1)
        assert f.divexact(P(1, -1)) == P(1, 1)
        with pytest.raises(ValueError):
            f.divexact(P(1, 1, 1))

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

    def test_json_roundtrip(self):
        f = P(1, 0, -1)
        assert f.to_json() == {"coeffs": ["1", "0", "-1"]}
        assert IntPoly.from_json(f.to_json()) == f

    @given(st.lists(st.integers(-50, 50), max_size=6),
           st.lists(st.integers(-50, 50), max_size=6))
    @settings(deadline=None)
    def test_reverse_multiplicative(self, a, b):
        f, g = IntPoly(a), IntPoly(b)
        if f.is_zero() or g.is_zero():
            return
        df, dg = f.degree, g.degree
        assert (f * g).reverse(df + dg) == f.reverse(df) * g.reverse(dg)

    @given(st.lists(st.integers(-9, 9), max_size=5),
           st.lists(st.integers(-9, 9), max_size=5))
    @settings(deadline=None)
    def test_mul_commutes_with_eval(self, a, b):
        f, g = IntPoly(a), IntPoly(b)
        assert (f * g).eval(3) == f.eval(3) * g.eval(3)


class TestRatFun:
    def test_canonical_form(self):
        a = RatFun(P(2, 2), P(4))
        b = RatFun(P(1, 1), P(2))
        assert a == b
        assert a.den == (Fraction(1),)

    def test_gcd_reduction(self):
        # (1-q^2)/(1-q) = 1+q
        r = RatFun(P(1, 0, -1), P(1, -1))
        assert r.is_polynomial()
        assert r.as_intpoly() == P(1, 1)

    def test_den_monic(self):
        r = RatFun(P(1), P(0, 2))
        assert r.den[-1] == 1

    def test_arith(self):
        half = RatFun(P(1), P(2))
        assert half + half == RatFun(P(1))
        q_over = RatFun(Q, P(1, -1))
        s = q_over + RatFun(P(1))
        # q/(1-q) + 1 = 1/(1-q)
        assert s == RatFun(P(1), P(1, -1))

    def test_zero_den_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFun(P(1), IntPoly())

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=4),
           st.lists(st.integers(-9, 9), min_size=1, max_size=4))
    @settings(deadline=None)
    def test_reconstruction(self, a, b):
        f, g = IntPoly(a), IntPoly(b)
        if g.is_zero():
            return
        r = RatFun(f, g)
        # r * g == f as rational functions
        assert r * RatFun(g) == RatFun(f)


def _schoolbook_matmul(A, B):
    return [
        [sum((A[i][k] * B[k][j] for k in range(len(B))), IntPoly()) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


_wide_poly = st.lists(st.integers(-(10**30), 10**30), max_size=5).map(IntPoly)


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_matmul_matches_schoolbook(data):
    n, m, l = (data.draw(st.integers(1, 4)) for _ in range(3))
    A = [[data.draw(_wide_poly) for _ in range(m)] for _ in range(n)]
    B = [[data.draw(_wide_poly) for _ in range(l)] for _ in range(m)]
    assert matmul(A, B) == _schoolbook_matmul(A, B)

