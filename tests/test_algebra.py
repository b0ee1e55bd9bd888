from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from braidhopf import Algebra, Scalar, Tensor, parse_presentation, tensor_product
from braidhopf.braidtensor import braided_product, comul_word
from braidhopf.scalars import T_ONE, T_T, as_poly, from_abd, poly_mul
from braidhopf.verify import fixture_path

from oracles import (diagonal_braid_coeff, exhaustive_normal_forms,
                     sign_braid_coeff, words_up_to)


def make(name):
    return Algebra(parse_presentation(fixture_path(name).read_text()))


@pytest.fixture(scope="module")
def car():
    return make("car.alg")


@pytest.fixture(scope="module")
def q2():
    return make("q2.alg")


@pytest.fixture(scope="module")
def free2():
    return make("free2.alg")


def combo_of(t: Tensor):
    return tuple(sorted((k[0], from_abd(v[0])) for k, v in t.terms.items()))


# -- normal forms ----------------------------------------------------------


@pytest.mark.parametrize("name", ("car.alg", "q2.alg"))
def test_normal_form_matches_exhaustive_rewriting(name):
    alg = make(name)
    for w in words_up_to(2, 4):
        finals = exhaustive_normal_forms(w, alg.pres)
        assert len(finals) == 1
        assert combo_of(alg.normal_form_word(w)) == next(iter(finals))


def test_normal_form_spot_values(car, q2):
    assert combo_of(car.normal_form_word((1, 0))) == (((0, 1), Scalar(-1)),)
    assert combo_of(car.normal_form_word((1, 0, 0))) == (((0, 0, 1), Scalar(1)),)
    assert combo_of(car.normal_form_word((1, 1, 0))) == (((0, 1, 1), Scalar(1)),)
    assert combo_of(q2.normal_form_word((1, 0))) == (
        ((0, 1), Scalar(Fraction(1, 2))),)


def test_normal_words_are_fixed_points(car):
    for w in car.basis(4):
        assert car.normal_form_word(w) == Tensor.basis((w,))


# -- multiplication --------------------------------------------------------

words = st.lists(st.integers(min_value=0, max_value=1), max_size=3).map(tuple)
coeffs = st.builds(
    Scalar,
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)
elements = st.dictionaries(words, coeffs, max_size=3)


def as_element(alg, d):
    # normalize the words so the result lives on the quotient basis
    out = Tensor(1)
    for w, c in d.items():
        for key, v in alg.normal_form_word(w).terms.items():
            out.add_term(key, poly_mul(v, as_poly(c)))
    return out


@given(elements, elements, elements)
def test_mul_is_associative_and_unital(da, db, dc):
    alg = make("car.alg")
    a, b, c = (as_element(alg, d) for d in (da, db, dc))
    mul = lambda u, v: braided_product(alg, u, v)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(alg.one(), a) == a
    assert mul(a, alg.one()) == a


@given(elements, elements)
def test_mul_is_bilinear(da, db):
    alg = make("car.alg")
    a, b = as_element(alg, da), as_element(alg, db)
    two_a = a.scale(as_poly(2))
    assert (braided_product(alg, two_a, b)
            == braided_product(alg, a, b).scale(as_poly(2)))


def test_car_relation_holds_in_quotient(car):
    # x xs + xs x = 0 in the undeformed algebra
    x, xs = car.parse_element("x"), car.parse_element("xs")
    assert (braided_product(car, x, xs) + braided_product(car, xs, x)
            == Tensor(1))


# -- involution ------------------------------------------------------------


def test_involution_spot_values(car):
    assert car.involution_word((0,)) == Tensor.basis(((1,),))
    assert car.involution_word((0, 1)) == Tensor.basis(((0, 1),))
    assert car.involution_word((0, 0)) == Tensor.basis(((1, 1),))


def test_involution_is_antilinear(car):
    a = car.element({(0,): Scalar(0, 1)})          # i x
    assert car.involution(a) == car.element({(1,): Scalar(0, -1)})


@given(words, words)
def test_involution_is_an_antihomomorphism(u, v):
    alg = make("car.alg")
    lhs = alg.involution(alg.mul_words(u, v))
    rhs = braided_product(alg, alg.involution_word(v),
                          alg.involution_word(u))
    assert lhs == rhs


@given(words)
def test_involution_squares_to_identity(w):
    alg = make("car.alg")
    assert alg.involution(alg.involution_word(w)) == alg.normal_form_word(w)


# -- antipode --------------------------------------------------------------


def test_antipode_spot_values(car):
    assert car.antipode_word((0,)) == Tensor.basis(((0,),)).scale(
        as_poly(-1))
    assert car.antipode_word((0, 1)) == Tensor.basis(((0, 1),))


def test_antipode_is_the_convolution_inverse(car):
    # mul . (S (x) id) . comul = unit . counit pins S uniquely, so checking
    # the identity on a spanning set is a complete oracle for S
    for w in car.basis(3):
        acc = Tensor(1)
        for (k0, k1), v in comul_word(car, w).terms.items():
            acc = acc + braided_product(car, car.antipode_word(k0),
                                        Tensor.basis((k1,))).scale(v)
        expect = car.one() if w == () else Tensor(1)
        assert acc == expect


# -- braiding coefficients -------------------------------------------------


@given(words, words)
def test_sign_braiding_closed_form(u, v):
    alg = make("car.alg")
    assert alg.braid_coeff((u, v)) == (
        sign_braid_coeff(alg.pres.grades, u, v).abd,)


@given(words, words)
def test_diagonal_braiding_closed_form(u, v):
    alg = make("q2.alg")
    assert alg.braid_coeff((u, v)) == (diagonal_braid_coeff(
        alg.pres.braiding_table, u, v).abd,)


# -- basis enumeration -----------------------------------------------------


def test_basis_counts(car, q2, free2):
    # x^a xs^b with a = b = 0..4, a+b <= 4
    assert len(car.basis(4)) == 15
    assert len(q2.basis(4)) == 15
    # free: all words, 1 + 2 + 4 + 8 + 16
    assert len(free2.basis(4)) == 31


def test_basis_shortlex_prefix(car):
    assert car.basis(2) == [(), (0,), (1,), (0, 0), (0, 1), (1, 1)]


def test_basis_words_avoid_rule_lhs(q2):
    for w in q2.basis(4):
        assert (1, 0) not in tuple(zip(w, w[1:]))


def test_free_algebra_shares_alphabet(car):
    fr = Algebra(replace(car.pres, rules=()))
    assert fr.normal_form_word((1, 0)) == Tensor.basis(((1, 0),))


# -- elements and formatting -----------------------------------------------


def test_parse_element_normalizes(car):
    assert car.parse_element("xs x") == car.element({(0, 1): Scalar(-1)})
    assert car.parse_element("x xs + xs x") == Tensor(1)


def test_format_spot_values(car):
    a = Tensor(1, {((0, 1),): -1, ((),): T_T})
    assert car.format(a) == "- x xs + t"
    assert car.format(Tensor(1)) == "0"
    assert car.format(car.one()) == "1"
    b = car.element({(0,): Scalar(0, 1), (): Scalar(Fraction(1, 2))})
    assert car.format(b) == "i x + 1/2"


def test_format_rank2(car):
    u = tensor_product(car.parse_element("x"), car.parse_element("xs"))
    assert car.format(u) == "x (x) xs"


# -- tensors ---------------------------------------------------------------


def test_tensor_add_term_drops_zeros():
    t = Tensor(1)
    t.add_term(((0,),), T_ONE)
    t.add_term(((0,),), as_poly(-1))
    assert not t.terms


def test_tensor_substitute():
    t = Tensor(1, {((),): poly_mul(T_T, T_T)})
    assert t.substitute(Fraction(3)).coefficient(((),)) == as_poly(9)


def test_tensor_rank_mismatch_rejected():
    t = Tensor(2)
    with pytest.raises(ValueError):
        t + Tensor(1)
