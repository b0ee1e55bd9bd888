import copy
import pickle
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from braidhopf.presentation import PresentationError, parse_scalar
from braidhopf.scalars import (ABD_ZERO, Scalar, TPoly, S_ZERO, T_MINUS_ONE,
                               T_ONE, T_T, T_ZERO, abd_add, abd_inv, abd_mul,
                               as_abd, as_poly, as_scalar, from_abd, from_abds,
                               poly_add, poly_conj, poly_eval, poly_flip,
                               poly_integrate, poly_mul, poly_neg, poly_part,
                               poly_shift, poly_str)
from oracles import RefScalar, RefTPoly

S_ONE = Scalar(1)
rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
scalars = st.builds(Scalar, rationals, rationals)
# coefficient tuples, built and trimmed by the TPoly constructor
polys = st.builds(lambda cs: TPoly(cs).abds, st.lists(scalars, max_size=5))


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
        assert abd_mul(a.abd, abd_inv(a.abd)) == S_ONE.abd


def test_scalar_i_squared():
    assert Scalar(0, 1) * Scalar(0, 1) == Scalar(-1)


@given(scalars)
def test_scalar_parse_str_round_trip(a):
    assert parse_scalar(str(a)) == a


def test_scalar_parse_forms():
    assert parse_scalar("-3/4 + 2 i") == Scalar(Fraction(-3, 4), 2)
    assert parse_scalar("i") == Scalar(0, 1)
    assert parse_scalar("-i") == Scalar(0, -1)
    assert parse_scalar("5") == Scalar(5)
    # a scalar is an element expression without generators
    assert parse_scalar("1 + 2") == Scalar(3)
    assert parse_scalar("- - 1") == S_ONE
    for text in ("x", "", "2 3", "1 / 2", "1/0"):
        with pytest.raises(PresentationError) as exc:
            parse_scalar(text, 4)
        assert str(exc.value) == f"line 4: malformed scalar {text!r}"


def test_floats_are_rejected_at_coercion():
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        as_poly(0.5)


@pytest.mark.parametrize("parts", [(0.1,), (1, 0.5), (Decimal("0.1"),),
                                   ("1",), (S_ONE,), (0, complex(0, 1))])
def test_scalar_accepts_only_int_and_fraction_parts(parts):
    with pytest.raises(TypeError):
        Scalar(*parts)


def test_scalar_arithmetic_rejects_floats():
    with pytest.raises(TypeError):
        S_ONE * 0.5
    with pytest.raises(TypeError):
        0.5 + S_ONE
    with pytest.raises(TypeError):
        TPoly((S_ONE,)) * 0.5


def test_scalar_zero_inverse():
    with pytest.raises(ZeroDivisionError):
        S_ZERO.inv()


# -- polynomials as coefficient tuples -------------------------------------


def at(p, r):
    """The value of the coefficient tuple p at the number r, a Scalar."""
    return from_abd(poly_eval(p, as_abd(r)))


def test_tpoly_trims_trailing_zeros():
    assert TPoly((S_ONE, S_ZERO, S_ZERO)) == TPoly((S_ONE,))
    assert TPoly((S_ONE, S_ZERO, S_ZERO)).abds == T_ONE
    assert TPoly((S_ZERO,)) == T_ZERO
    assert TPoly((S_ZERO,)).abds == T_ZERO == ()
    assert len(T_T) == 2


@given(polys, polys, polys)
def test_tpoly_ring_axioms(p, q, r):
    add, mul = poly_add, poly_mul
    assert add(add(p, q), r) == add(p, add(q, r))
    assert mul(mul(p, q), r) == mul(p, mul(q, r))
    assert mul(p, q) == mul(q, p)
    assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))
    assert add(p, T_ZERO) == p
    assert mul(p, T_ONE) == p
    assert from_abds(p) * from_abds(q) == mul(p, q)


# evaluation is a ring homomorphism, so arithmetic done on polynomials and
# arithmetic done on values must land in the same place — an independent
# oracle for + and *
@given(polys, polys, rationals)
def test_tpoly_eval_is_homomorphism(p, q, r):
    assert at(poly_add(p, q), r) == at(p, r) + at(q, r)
    assert at(poly_mul(p, q), r) == at(p, r) * at(q, r)


@given(polys, rationals)
def test_tpoly_flip_sign_oracle(p, r):
    assert at(poly_flip(p), r) == at(p, -r)
    assert poly_flip(poly_flip(p)) == p


@given(polys, rationals)
def test_tpoly_conj_oracle(p, r):
    # t is a real parameter: conj commutes with evaluation at real points
    assert at(poly_conj(p), r) == at(p, r).conj()


@given(polys, rationals, rationals)
def test_tpoly_shift_expands_p_at_t_plus_s(p, t0, s0):
    # p(t + s) = sum_j shift_j(p)(t) s^j
    total = sum((at(poly_shift(p, j), t0) * Scalar(s0 ** j)
                 for j in range(len(p))), S_ZERO)
    assert total == at(p, t0 + s0)
    assert not poly_shift(p, len(p))


def test_tpoly_spot_values():
    # t^2 + 3t + 1
    p = poly_add(poly_add(poly_mul(T_T, T_T), poly_mul(T_T, as_poly(3))),
                 T_ONE)
    assert at(p, Fraction(2)) == Scalar(11)
    assert from_abd(p[0]) == S_ONE
    assert len(p) == 3
    assert at(TPoly((0, 0, 0, 5)).abds, Fraction(1, 2)) == Scalar(
        Fraction(5, 8))


def test_tpoly_str_uses_t():
    assert poly_str(T_T) == "t"
    assert "t" in poly_str(poly_add(poly_mul(T_T, T_T), T_MINUS_ONE))
    assert str(TPoly((0, 1))) == "t"


# -- the == / hash contract ------------------------------------------------

_small = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


@st.composite
def numbers(draw):
    """An int, Fraction, Scalar or TPoly drawn from a small pool of values,
    so that equal values of different types come up often."""
    re, im = draw(_small), draw(st.sampled_from([0, 0, 1, Fraction(1, 2)]))
    kind = draw(st.sampled_from(["int", "fraction", "scalar", "const",
                                 "linear"]))
    if kind == "int" and not im and Fraction(re).denominator == 1:
        return int(re)
    if kind == "fraction" and not im:
        return Fraction(re)
    if kind == "const":
        return TPoly((Scalar(re, im),))
    if kind == "linear":
        return TPoly((Scalar(re, im), Scalar(draw(_small))))
    return Scalar(re, im)


@given(numbers(), numbers())
def test_equal_values_hash_equal(x, y):
    # a TPoly is unhashable, so only its == is drawn against the others
    if x == y and TPoly not in (type(x), type(y)):
        assert hash(x) == hash(y)
    assert (x == y) == (y == x)


def test_real_scalars_find_their_numbers_in_dicts():
    assert {Scalar(1): "v"}.get(1) == "v"
    assert {Fraction(1, 2): "v"}.get(Scalar(Fraction(1, 2))) == "v"
    assert hash(S_ZERO) == hash(0)
    with pytest.raises(TypeError):
        hash(TPoly((S_ONE,)))


@given(st.one_of(scalars, polys.map(from_abds)))
def test_copy_deepcopy_and_pickle_round_trip(x):
    copies = [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]
    if type(x) is Scalar:
        copies.append(copy.deepcopy([x, {x: x}])[1][x])
    for y in copies:
        assert type(y) is type(x)
        assert y == x and str(y) == str(x)
        assert type(x) is TPoly or hash(y) == hash(x)


# -- the int-triple kernel against the Fraction-pair oracle -----------------

_parts = st.one_of(
    st.integers(-10 ** 12, 10 ** 12),
    st.fractions(min_value=-10 ** 12, max_value=10 ** 12,
                 max_denominator=10 ** 12),
    rationals)
_pairs = st.tuples(_parts, st.one_of(st.just(0), _parts))


def _agrees(x, ref):
    """x is a canonical Scalar whose value is the oracle's."""
    a, b, d = x.abd
    assert d > 0 and gcd(a, b, d) == 1
    assert type(x.re) is Fraction and type(x.im) is Fraction
    return x.re == ref.re and x.im == ref.im


def _poly_agrees(p, ref):
    return (len(p.coeffs) == len(ref.coeffs)
            and all(map(_agrees, p.coeffs, ref.coeffs)))


@given(_pairs, _pairs)
def test_scalar_kernel_matches_fraction_pair_oracle(p, q):
    x, y = Scalar(*p), Scalar(*q)
    rx, ry = RefScalar(*p), RefScalar(*q)
    assert _agrees(x, rx)
    assert _agrees(x + y, rx + ry)
    assert _agrees(from_abd(abd_add(x.abd, (-y).abd)), rx - ry)
    assert _agrees(x * y, rx * ry)
    assert _agrees(-x, -rx)
    assert _agrees(x.conj(), rx.conj())
    if ry:
        assert _agrees(from_abd(abd_mul(x.abd, abd_inv(y.abd))), rx / ry)
        assert _agrees(y.inv(), ry.inv())
    else:
        with pytest.raises(ZeroDivisionError):
            y.inv()
    assert (x == y) == (rx == ry)
    assert (x == x * S_ONE) and (x + y == y + x)
    assert str(x) == str(rx)
    assert parse_scalar(str(x)) == x


@given(st.lists(_pairs, max_size=4), st.lists(_pairs, max_size=4), _pairs,
       st.integers(0, 4))
def test_tpoly_kernel_matches_fraction_pair_oracle(ps, qs, r, j):
    p, q = TPoly(Scalar(*c) for c in ps), TPoly(Scalar(*c) for c in qs)
    rp, rq = RefTPoly(RefScalar(*c) for c in ps), \
        RefTPoly(RefScalar(*c) for c in qs)
    assert _poly_agrees(p, rp)
    assert _poly_agrees(p * q, rp * rq)
    assert _poly_agrees(from_abds(poly_shift(p.abds, j)), rp.shift(j))
    assert _agrees(from_abd(poly_eval(p.abds, Scalar(*r).abd)),
                   rp.eval(RefScalar(*r)))


def _abds_agree(abds, ref):
    """abds is a canonical coefficient tuple, with no trailing zero, whose
    value is the oracle's."""
    assert type(abds) is tuple
    assert not abds or abds[-1] != ABD_ZERO
    return _poly_agrees(from_abds(abds), ref)


@given(st.lists(_pairs, max_size=4), st.lists(_pairs, max_size=4),
       st.integers(0, 4), st.booleans())
def test_poly_kernel_matches_fraction_pair_oracle(ps, qs, j, cancel):
    if cancel:
        # q is -p above its lowest len(qs) coefficients, so the top of
        # p + q cancels, and all of it when qs is empty
        qs = qs[:len(ps)] + [(-a, -b) for a, b in ps[len(qs):]]
    p, q = (TPoly(Scalar(*c) for c in cs).abds for cs in (ps, qs))
    rp, rq = (RefTPoly(RefScalar(*c) for c in cs) for cs in (ps, qs))
    assert _abds_agree(poly_add(p, q), rp + rq)
    if cancel and not qs:
        assert poly_add(p, q) == ()
    assert _abds_agree(poly_mul(p, q), rp * rq)
    one = RefTPoly((RefScalar(1),))
    assert poly_mul(T_ONE, p) == p == poly_mul(p, T_ONE)
    assert _abds_agree(poly_mul(T_ONE, p), one * rp)
    assert _abds_agree(poly_mul(q, T_ONE), rq * one)
    assert _abds_agree(poly_neg(p), -rp)
    assert _abds_agree(poly_conj(p), rp.conj())
    assert _abds_agree(poly_flip(p), rp.flip())
    assert _abds_agree(poly_shift(p, j), rp.shift(j))
    assert _abds_agree(poly_integrate(p), rp.integrate())
    assert _abds_agree(poly_part(p, j), RefTPoly(rp.coeffs[j:j + 1]))
