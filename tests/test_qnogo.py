from fractions import Fraction

import pytest

from braidhopf import (Algebra, Scalar, Tensor, q_presentation, qnogo_eval,
                       run_catalog)
from braidhopf.scalars import T_T, as_poly


def side(c):
    return Tensor(2, {((), (0,)): c})


def test_obstruction_spot_value():
    lhs, rhs = qnogo_eval(Scalar(2))
    assert lhs.substitute(Fraction(1)) == side(Scalar(4))
    assert rhs.substitute(Fraction(1)) == side(Scalar(1))
    assert lhs != rhs


@pytest.mark.parametrize("q", (
    Scalar(2), Scalar(Fraction(1, 2)), Scalar(0, 1), Scalar(-3),
    Scalar(1, 1),
))
def test_both_sides_in_closed_form(q):
    # the whole expression collapses to multiples of 1 (x) x: lhs carries
    # q^2 t, rhs carries t, so they differ exactly when q^2 != 1
    lhs, rhs = qnogo_eval(q)
    assert lhs == side(q * q).scale(T_T)
    assert rhs == side(Scalar(1)).scale(T_T)
    assert (lhs == rhs) == (q * q == Scalar(1))


@pytest.mark.parametrize("q", (Scalar(1), Scalar(-1)))
def test_unimodular_real_q_is_unobstructed(q):
    lhs, rhs = qnogo_eval(q)
    assert lhs == rhs


def test_undeformed_time_is_always_unobstructed():
    # at t = 0 both sides vanish, though as polynomials in t they differ
    lhs, rhs = qnogo_eval(Scalar(7))
    assert lhs != rhs
    lhs, rhs = lhs.substitute(Fraction(0)), rhs.substitute(Fraction(0))
    assert lhs == rhs
    assert not lhs.terms


def test_q_zero_is_rejected():
    with pytest.raises(ValueError):
        qnogo_eval(Scalar(0))
    with pytest.raises(ValueError):
        q_presentation(Scalar(0))


def test_q_presentation_structure():
    pres = q_presentation(Scalar(2))
    assert pres.generators == ("x", "xs")
    assert pres.star == (1, 0)
    assert pres.braiding_kind == "diagonal"
    assert pres.braiding_table == ((Scalar(2), Scalar(2)),
                                   (Scalar(Fraction(1, 2)),
                                    Scalar(Fraction(1, 2))))
    alg = Algebra(pres)
    nf = alg.normal_form_word((1, 0))
    assert nf.coefficient(((0, 1),)) == as_poly(Fraction(1, 2))


# the catalog at q = i, degree 3: the checks whose bodies compute braid
# coefficients, involutions and the star on tensors, pinned by witness
Q_I_FAILURES = {
    "beta-compat-cocycle": {"input": "x (x) x (x) xs", "lhs": "-1",
                            "rhs": "1"},
    "gen-commute": {"input": "x (x) xs xs", "lhs": "(1 - i) xs",
                    "rhs": "(1 + i) xs"},
    "involution-antihom": {"input": "xs (x) x", "lhs": "i x xs",
                           "rhs": "-i x xs"},
    "star-tensor-squared": {"input": "x (x) x", "lhs": "- x (x) x",
                            "rhs": "x (x) x"},
}


@pytest.mark.parametrize("cid", sorted(Q_I_FAILURES))
def test_q_equal_i_catalog_failures_at_degree_3(cid):
    (rep,) = run_catalog(q_presentation(Scalar(0, 1)), [cid], max_degree=3)
    assert rep.status == "fail"
    assert rep.witness == Q_I_FAILURES[cid]
