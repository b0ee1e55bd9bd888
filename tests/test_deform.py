from fractions import Fraction

import pytest

from braidhopf import (Algebra, Deformation, Scalar, Tensor,
                       cocycle_functional, conv_exp, counit_functional,
                       parse_presentation, psi_functional, table_functional,
                       tensor_product, zero_functional)
from braidhopf.deform import (cocycle_defect, conv_exp_key, conv_power,
                              conv_sesqui, convolve_fn, eval_functional,
                              sesquilinearize)
from braidhopf.scalars import T_ONE, T_T, T_ZERO, as_tpoly
from braidhopf.verify import fixture_path

from oracles import naive_exp2


def make(name):
    return Algebra(parse_presentation(fixture_path(name).read_text()))


CAR = make("car.alg")
L = cocycle_functional(CAR)
DEF = Deformation(CAR)

X, XS = (0,), (1,)


# -- the convolution exponential against the naive series ------------------


def test_conv_exp_matches_naive_series():
    # truncation argument: powers beyond the total degree vanish, so the
    # naive series with cutoff = total degree must agree exactly
    fn = lambda a, b: L.on_key((a, b))
    for a in CAR.basis(3):
        for b in CAR.basis(3):
            d = len(a) + len(b)
            if d > 3:
                continue
            assert conv_exp_key(L, (a, b)) == naive_exp2(CAR, fn, a, b, d)


def test_conv_exp_spot_values():
    assert conv_exp_key(L, (XS, X)) == T_T
    assert conv_exp_key(L, (X, XS)) == T_ZERO
    assert conv_exp_key(L, ((), ())) == T_ONE
    # xs xs (x) x x: the only way to hit L twice needs the xs (x) xs split
    # of xs xs, whose binomial vanishes under the sign braiding, so the
    # exponential stays linear in t on every basis pair of this algebra
    assert conv_exp_key(L, ((1, 1), (0, 0))) == T_ZERO
    fn = lambda a, b: L.on_key((a, b))
    assert naive_exp2(CAR, fn, (1, 1), (0, 0), 4) == T_ZERO


def test_conv_exp_time_sign():
    u = Tensor.basis((XS, X))
    assert conv_exp(L, u) == T_T
    # negative time is t -> -t on the formal value: e*^{-tL}(xs (x) x) is
    # the unit coefficient of mu_{-t}(xs (x) x)
    neg = DEF.mu_t(u, time_sign=-1).coefficient(((),))
    assert neg == conv_exp(L, u).flip_sign() == T_T.flip_sign()


def test_conv_exp_requires_vanishing_on_unit():
    F = table_functional(CAR, {((), ()): Scalar(1)}, 2)
    with pytest.raises(ValueError):
        conv_exp_key(F, (X, XS))


def test_conv_power_zero_is_counit():
    F = conv_power(L, 0)
    assert F.on_key(((), ())) == T_ONE
    assert F.on_key((X, XS)) == T_ZERO


def test_convolution_unit_law():
    delta2 = counit_functional(CAR, 2)
    conv = convolve_fn(delta2, delta2)
    for a in CAR.basis(2):
        for b in CAR.basis(2):
            assert conv.on_key((a, b)) == delta2.on_key((a, b))


def test_convolution_rejects_mismatches():
    with pytest.raises(ValueError):
        convolve_fn(L, counit_functional(CAR, 1))
    with pytest.raises(ValueError):
        convolve_fn(L, cocycle_functional(make("car.alg")))
    with pytest.raises(ValueError):
        eval_functional(L, Tensor.basis((X,)))


# -- trivial functionals ---------------------------------------------------


def test_trivial_flag_propagates():
    z = zero_functional(CAR, 2)
    assert z.trivial
    assert table_functional(CAR, {(X, XS): Scalar(0)}, 2).trivial
    assert not table_functional(CAR, {(X, XS): Scalar(1)}, 2).trivial
    assert convolve_fn(z, L).trivial
    assert convolve_fn(L, z).trivial
    assert conv_exp_key(z, (X, XS)) == T_ZERO
    assert conv_exp_key(z, ((), ())) == T_ONE


def test_trivial_generator_leaves_product_undeformed():
    d = Deformation(CAR, zero_functional(CAR, 2))
    assert d.sigma.trivial
    for a in CAR.basis(2):
        for b in CAR.basis(2):
            assert d.mu_t_key((a, b)) == CAR.mul_words(a, b)
            assert d.st_word(a) == CAR.antipode_word(a)


# -- the deformed product --------------------------------------------------


def test_mu_t_spot_values():
    got = DEF.mu_t_key((XS, X))
    want = Tensor(1)
    want.add_term(((0, 1),), as_tpoly(-1))
    want.add_term(((),), T_T)
    assert got == want
    assert DEF.mu_t_key((X, XS)) == Tensor.basis(((0, 1),))
    assert DEF.mu_t_key(((), X)) == Tensor.basis((X,))


def test_mu_t_at_time_zero_is_mul():
    for a in CAR.basis(2):
        for b in CAR.basis(2):
            got = DEF.mu_t_key((a, b)).substitute(Fraction(0))
            assert got == CAR.mul_words(a, b)


def test_mu_t_pair_form_and_negative_time():
    x, xs = CAR.generator("x"), CAR.generator("xs")
    u = tensor_product(xs, x)
    assert DEF.mu_t(xs, x) == DEF.mu_t(u)
    neg = DEF.mu_t(u, time_sign=-1)
    want = Tensor(1)
    want.add_term(((0, 1),), as_tpoly(-1))
    want.add_term(((),), T_T.flip_sign())
    assert neg == want
    with pytest.raises(ValueError):
        DEF.mu_t(x)


def test_mu_t_key_is_memoized():
    assert DEF.mu_t_key((XS, X)) is DEF.mu_t_key((XS, X))


def test_generator_arity_is_checked():
    with pytest.raises(ValueError):
        Deformation(CAR, counit_functional(CAR, 1))


# -- sigma and the deformed antipode ---------------------------------------


def test_sigma_spot_values():
    assert DEF.sigma_word(X) == T_ZERO
    assert DEF.sigma_word(XS) == T_ZERO
    assert DEF.sigma_word((0, 1)) == T_ONE
    assert DEF.sigma.on_key(((0, 1),)) == T_ONE
    assert DEF.sigma.on_key((X,)) == T_ZERO


def test_deformed_antipode_spot_values():
    got = DEF.st_word((0, 1))
    want = Tensor(1)
    want.add_term(((0, 1),), T_ONE)
    want.add_term(((),), T_T.flip_sign())
    assert got == want
    assert DEF.st_word(X) == Tensor.basis((X,)).scale(as_tpoly(-1))


def test_deformed_antipode_inverts_at_negative_time():
    # the undeformed coproduct is cocommutative here, so S_{-t} . S_t = id
    for w in CAR.basis(3):
        back = DEF.st(DEF.st_word(w), time_sign=-1)
        assert back == Tensor.basis((w,))
    with pytest.raises(ValueError):
        DEF.st(Tensor.basis((X, XS)))


def test_ft_is_the_exponential_of_sigma():
    assert DEF.ft_key((0, 1)) == T_T
    assert DEF.ft_key((0, 1), time_sign=-1) == T_T.flip_sign()
    assert DEF.ft_key(()) == T_ONE


# -- sesquilinear forms ----------------------------------------------------


def test_sesquilinearize_spot_values():
    K = sesquilinearize(L)
    assert K.on_key((X, X)) == T_ONE      # L(x* (x) x) = L(xs (x) x)
    assert K.on_key((XS, X)) == T_ZERO
    with pytest.raises(ValueError):
        sesquilinearize(counit_functional(CAR, 1))


def test_conv_sesqui_unit_law():
    d = sesquilinearize(counit_functional(CAR, 2))
    K = sesquilinearize(L)
    conv = conv_sesqui(d, K)
    for a in CAR.basis(2):
        for b in CAR.basis(2):
            assert conv.on_key((a, b)) == K.on_key((a, b))
    with pytest.raises(ValueError):
        conv_sesqui(K, sesquilinearize(cocycle_functional(make("car.alg"))))


# -- the coboundary --------------------------------------------------------


def test_cocycle_defect_vanishes_for_the_generating_cocycle():
    for a in CAR.basis(2):
        for b in CAR.basis(2):
            for c in CAR.basis(2):
                assert cocycle_defect(L, a, b, c) == T_ZERO


def test_cocycle_defect_detects_a_non_cocycle():
    bad = Algebra(parse_presentation(fixture_path("car-badL.alg").read_text()))
    Lb = cocycle_functional(bad)
    assert cocycle_defect(Lb, X, X, (1, 1)) == T_ONE


def test_psi_functional_table():
    psi = psi_functional(CAR, {(0, 1): Scalar(2)})
    assert psi.on_key(((0, 1),)) == as_tpoly(2)
    assert psi.on_key((X,)) == T_ZERO
