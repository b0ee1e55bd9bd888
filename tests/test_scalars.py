from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from braidhopf.scalars import (Scalar, TPoly, S_I, S_ONE, S_ZERO, T_ONE,
                               T_T, T_ZERO, as_scalar, as_tpoly,
                               parse_rational)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
scalars = st.builds(Scalar, rationals, rationals)
polys = st.builds(lambda cs: TPoly(cs), st.lists(scalars, max_size=5))


# -- Scalar ---------------------------------------------------------------


@given(scalars, scalars, scalars)
def test_scalar_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + S_ZERO == a
    assert a * S_ONE == a


@given(scalars)
def test_scalar_conj_and_inverse(a):
    assert a.conj().conj() == a
    assert (a * a.conj()).im == 0
    if a:
        assert a * a.inv() == S_ONE
        assert a / a == S_ONE


def test_scalar_i_squared():
    assert S_I * S_I == Scalar(-1)


@given(scalars)
def test_scalar_parse_str_round_trip(a):
    assert Scalar.parse(str(a)) == a


def test_scalar_parse_forms():
    assert Scalar.parse("-3/4 + 2 i") == Scalar(Fraction(-3, 4), 2)
    assert Scalar.parse("i") == S_I
    assert Scalar.parse("-i") == Scalar(0, -1)
    assert Scalar.parse("5") == Scalar(5)
    with pytest.raises(ValueError):
        Scalar.parse("x")
    with pytest.raises(ValueError):
        Scalar.parse("")


def test_parse_rational():
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational(" 4 ") == Fraction(4)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("a")


def test_floats_are_rejected_at_coercion():
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        as_tpoly(0.5)


def test_scalar_zero_inverse():
    with pytest.raises(ZeroDivisionError):
        S_ZERO.inv()


# -- TPoly ----------------------------------------------------------------


def test_tpoly_trims_trailing_zeros():
    assert TPoly((S_ONE, S_ZERO, S_ZERO)) == TPoly((S_ONE,))
    assert TPoly((S_ZERO,)) == T_ZERO
    assert T_ZERO.degree() == -1
    assert T_T.degree() == 1


@given(polys, polys, polys)
def test_tpoly_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + T_ZERO == p
    assert p * T_ONE == p


# evaluation is a ring homomorphism, so arithmetic done on polynomials and
# arithmetic done on values must land in the same place — an independent
# oracle for + and *
@given(polys, polys, rationals)
def test_tpoly_eval_is_homomorphism(p, q, r):
    assert (p + q).eval(r) == p.eval(r) + q.eval(r)
    assert (p * q).eval(r) == p.eval(r) * q.eval(r)


@given(polys, rationals)
def test_tpoly_flip_sign_oracle(p, r):
    assert p.flip_sign().eval(r) == p.eval(-r)
    assert p.flip_sign().flip_sign() == p


@given(polys, rationals)
def test_tpoly_conj_oracle(p, r):
    # t is a real parameter: conj commutes with evaluation at real points
    assert p.conj().eval(r) == p.eval(r).conj()


@given(polys, rationals, rationals)
def test_tpoly_shift_expands_p_at_t_plus_s(p, t0, s0):
    # p(t + s) = sum_j shift_j(p)(t) s^j
    total = sum((p.shift(j).eval(t0) * Scalar(s0 ** j)
                 for j in range(len(p.coeffs))), S_ZERO)
    assert total == p.eval(t0 + s0)
    assert not p.shift(len(p.coeffs))


def test_tpoly_spot_values():
    p = T_T * T_T + 3 * T_T + 1          # t^2 + 3t + 1
    assert p.eval(Fraction(2)) == Scalar(11)
    assert p.constant_term() == S_ONE
    assert p.degree() == 2
    assert TPoly.term(5, 3).eval(Fraction(1, 2)) == Scalar(Fraction(5, 8))


def test_tpoly_str_uses_t():
    assert str(T_T) == "t"
    assert "t" in str(T_T * T_T - 1)
