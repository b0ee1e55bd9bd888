import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from braidhopf import (Algebra, Deformation, Scalar, Tensor, conv_exp,
                       parse_presentation, table_functional, tensor_product)
from braidhopf.cli import main
from braidhopf.deform import (Functional, cocycle_defect, conv_exp_key,
                              conv_power, conv_sesqui, convolve_fn,
                              sesquilinearize)
from braidhopf.presentation import (check_confluence,
                                    check_quotient_compatibility)
from braidhopf.scalars import T_ONE, T_T, T_ZERO, as_poly, poly_flip
from braidhopf.verify import fixture_path

from oracles import (hand_sigma_word, naive_exp2, neg_time_st,
                     unpruned_conv_exp_key, unpruned_conv_power,
                     unpruned_convolve, unpruned_mu_t_key)

# the benchmark's presentation generators
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from inputs import (WEIGHTS, car_presentation,
                    free_cocycle_presentation, mode_names)


def make(name):
    return Algebra(parse_presentation(fixture_path(name).read_text()))


CAR = make("car.alg")
DEF = Deformation(CAR)
L = DEF.L

X, XS = (0,), (1,)

# the counits of CAR and CAR (x) CAR as one-entry tables
DELTA1 = table_functional(CAR, {((),): 1}, 1)
DELTA2 = table_functional(CAR, {((), ()): 1}, 2)


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
    neg = DEF.mu_t(u).map_coeffs(poly_flip).coefficient(((),))
    assert neg == poly_flip(conv_exp(L, u)) == poly_flip(T_T)


def test_conv_exp_requires_vanishing_on_unit():
    F = table_functional(CAR, {((), ()): Scalar(1)}, 2)
    with pytest.raises(ValueError):
        conv_exp_key(F, (X, XS))


def test_a_table_key_that_is_not_a_tuple_of_normal_words_is_refused():
    # xs x is not normal in CAR, and CAR has no generator 2
    for key in (((1, 0), ()), (X, (2,))):
        with pytest.raises(ValueError) as exc:
            table_functional(CAR, {key: 1}, 2)
        assert str(exc.value) == (f"table key {key!r} is not a tuple of "
                                  "normal words")
    # the unit word is normal
    assert table_functional(CAR, {((), ()): 1}, 2).on_key(((), ())) == T_ONE


def test_conv_power_zero_is_counit():
    assert conv_power(L, (0, ((), ()))) == T_ONE
    assert conv_power(L, (0, (X, XS))) == T_ZERO


def test_convolution_unit_law():
    conv = convolve_fn(DELTA2, DELTA2)
    for a in CAR.basis(2):
        for b in CAR.basis(2):
            assert conv.on_key((a, b)) == DELTA2.on_key((a, b))


def test_convolution_rejects_mismatches():
    with pytest.raises(ValueError):
        convolve_fn(L, DELTA1)
    with pytest.raises(ValueError):
        convolve_fn(L, Deformation(make("car.alg")).L)
    with pytest.raises(ValueError):
        L(Tensor.basis((X,)))


def test_convolution_takes_arity_one_or_two():
    F = table_functional(CAR, {(X, XS, X): Scalar(1)}, 3)
    with pytest.raises(ValueError, match="arity 1 or 2"):
        convolve_fn(F, F)
    with pytest.raises(ValueError, match="arity 1 or 2"):
        conv_exp_key(F, (X, XS, X))


# -- supports ----------------------------------------------------------------


def test_trivial_flag_propagates():
    # the empty table and an all-zero table have empty support
    z = table_functional(CAR, {}, 2)
    assert z.support == frozenset()
    assert table_functional(CAR, {(X, XS): Scalar(0)}, 2).support == frozenset()
    # car.alg keeps letter counts: a support holds the (x, xs) counts of
    # each slot, concatenated
    assert L.support == {(0, 1, 1, 0)}
    M = table_functional(CAR, {(X, XS): Scalar(1), ((0, 1), X): Scalar(2),
                               ((), X): Scalar(3)}, 2)
    assert M.support == {(1, 0, 0, 1), (1, 1, 1, 0), (0, 0, 1, 0)}
    assert DELTA2.support == {(0, 0, 0, 0)}
    assert DEF.sigma.support == {(1, 1)}
    assert conv_exp_key(z, (X, XS)) == T_ZERO
    assert conv_exp_key(z, ((), ())) == T_ONE


def test_trivial_generator_leaves_product_undeformed():
    # a zero-support generator leaves mu_t = mul and S_t = S
    d = Deformation(CAR, table_functional(CAR, {}, 2))
    assert d.L.support == d.sigma.support == frozenset()
    for a in CAR.basis(2):
        for b in CAR.basis(2):
            assert d.mu_t_key((a, b)) == CAR.mul_words(a, b)
            assert d.st_word(a) == CAR.antipode_word(a)


# -- support pruning against the walk over every split ---------------------


PRUNED_FIXTURES = [make(f) for f in ("car.alg", "q2.alg", "freec.alg",
                                     "free2.alg", "car-badL.alg")]


@lru_cache(maxsize=None)
def parsed(text):
    return Algebra(parse_presentation(text))


@st.composite
def pruned_algebras(draw):
    """A fixture, or n-mode CAR or free-with-cocycle from the benchmark's
    input generators with a drawn declaration order (which picks the
    rewrite rules and so the normal words) and cocycle weight."""
    kind = draw(st.sampled_from(("fixture", "car", "free")))
    if kind == "fixture":
        return draw(st.sampled_from(PRUNED_FIXTURES))
    n = draw(st.sampled_from((1, 2)))
    order = draw(st.permutations([g for pair in mode_names(n) for g in pair]))
    w = draw(st.sampled_from(WEIGHTS))
    text = (car_presentation if kind == "car"
            else free_cocycle_presentation)(n, order, w)
    return parsed(text)


def short_words(alg):
    """A normal word of up to three letters, its length drawn first, so
    that short words and support elements of small total come often."""
    words = alg.basis(3)
    return st.integers(0, 3).flatmap(
        lambda n: st.sampled_from([w for w in words if len(w) == n]))


@st.composite
def pruning_cases(draw, arity):
    """An algebra, two tables F and G of the arity and a few basis keys of
    total length at most 4.  At arity 2, F holds a random part of the
    algebra's own cocycle.  Both hold random entries on slot-tuples of
    normal words of up to three letters, never the unit tuple, whose
    supports have elements of at least two totals (as {(0, 1), (1, 1)}
    does), so that the least total, not the largest, bounds the powers and
    sums of two and three support elements fit in the keys."""
    alg = draw(pruned_algebras())
    word = short_words(alg)
    tuples = st.tuples(*[word] * arity)

    def table():
        return draw(st.dictionaries(
            tuples.filter(any), st.integers(-2, 2).filter(bool).map(Scalar),
            min_size=2, max_size=4).filter(
                lambda t: len({sum(map(len, k)) for k in t}) > 1))

    own = [((l, r), c) for l, r, c in alg.pres.cocycle] if arity == 2 else []
    F = dict(draw(st.lists(st.sampled_from(own), unique=True))
             if own else [])
    F.update(table())
    G = table()
    keys = draw(st.lists(tuples.filter(lambda k: sum(map(len, k)) <= 4),
                         min_size=1, max_size=6))
    return (table_functional(alg, F, arity), table_functional(alg, G, arity),
            keys)


def assert_pruned_convolutions_match(F, G, keys):
    """conv_power(F, (k, key)) for k = 2, 3, e*^{tF}, F * G and G * F
    against the walk over every split; returns the oracle's powers of F."""
    powers = {}
    for key in keys:
        for k in (2, 3):
            assert conv_power(F, (k, key)) == unpruned_conv_power(
                F, k, key, powers)
        assert conv_exp_key(F, key) == unpruned_conv_exp_key(F, key, powers)
        for A, B in ((F, G), (G, F)):
            assert convolve_fn(A, B).on_key(key) == unpruned_convolve(
                A.alg, A.on_key, B.on_key, key)
    return powers


@settings(deadline=None, max_examples=60)
@given(pruning_cases(2))
def test_pruned_mu_t_and_exponential_match_the_full_walk(case):
    L, G, pairs = case
    powers = assert_pruned_convolutions_match(L, G, pairs)
    defm = Deformation(L.alg, L)
    for key in pairs:
        assert defm.mu_t_key(key) == unpruned_mu_t_key(L, key, powers)
    # the deformed antipode's exponential e*^{t sigma}, against the same
    # walk over a sigma that carries no support
    sigma = Functional(L.alg, 1, defm.sigma.on_key)
    sigma_powers = {}
    for key in pairs:
        assert conv_exp_key(defm.sigma, key[:1]) == unpruned_conv_exp_key(
            sigma, (key[0],), sigma_powers)


@settings(deadline=None, max_examples=60)
@given(pruning_cases(1))
def test_pruned_arity_one_powers_and_exponential_match_the_full_walk(case):
    assert_pruned_convolutions_match(*case)


CAR_UNIT = """\
[algebra]
name = car-unit
generators = x xs
involution = x:xs
grade = x:1 xs:1

[braiding]
kind = graded-sign

[relations]
xs x = - x xs + 1

[cocycle]
xs | x = 1
"""


def _unit_term_case():
    alg = Algebra(parse_presentation(CAR_UNIT))
    assert not alg.homogeneous
    return alg, Deformation(alg).L


def test_a_table_records_its_support_only_where_it_prunes():
    # off a length-homogeneous algebra only an all-zero table bounds its
    # convolution powers by its support
    alg, L = _unit_term_case()
    assert L.support is None
    zero = table_functional(alg, {}, 2)
    assert zero.support == frozenset()
    assert Deformation(alg, L).sigma.support is None
    assert Deformation(alg, zero).sigma.support == frozenset()


def _bare_function_case():
    # the cocycle of car.alg behind a bare function: its support is unknown
    L = Functional(CAR, 2, DEF.L.on_key)
    assert CAR.homogeneous and L.support is None
    return CAR, L


def _nonletter_antipode_case():
    # passes both ideal checks, yet an antipode off the letters makes the
    # algebra inhomogeneous
    alg = Algebra(parse_presentation(fixture_path("freec.alg").read_text()
                                     + "\n[antipode]\nx = - x + x x\n"))
    assert check_confluence(alg).ok()
    assert check_quotient_compatibility(alg, 3).ok()
    assert not alg.homogeneous
    L = Deformation(alg).L
    assert L.support is None
    return alg, L


def assert_matches_the_full_walk(defm, psi):
    """e*^{tL} and mu_t on pairs of degree 2, and the exponentials of
    sigma and of the psi table on words of degree 3, against the walk over
    every split."""
    alg, L = defm.alg, defm.L
    powers = {}
    for a in alg.basis(2):
        for b in alg.basis(2):
            assert conv_exp_key(L, (a, b)) == unpruned_conv_exp_key(
                L, (a, b), powers)
            assert defm.mu_t_key((a, b)) == unpruned_mu_t_key(
                L, (a, b), powers)
    for F in (defm.sigma, psi):
        powers = {}
        for w in alg.basis(3):
            assert conv_exp_key(F, (w,)) == unpruned_conv_exp_key(
                F, (w,), powers)


def _psi(alg):
    return table_functional(alg, {((0,),): 1, ((0, 0),): Fraction(1, 2)}, 1)


@pytest.mark.parametrize("case", [_unit_term_case, _bare_function_case,
                                  _nonletter_antipode_case],
                         ids=["unit-term-rule", "bare-function-L",
                              "nonletter-antipode"])
def test_full_walk_fallback_matches_the_oracle(case):
    alg, L = case()
    defm = Deformation(alg, L)
    assert defm.sigma.support is None
    # off a length-homogeneous algebra a psi table records no support
    # either
    psi = _psi(alg)
    assert (psi.support is None) == (not alg.homogeneous)
    assert_matches_the_full_walk(defm, psi)


# length-homogeneous presentations whose rewriting or antipode moves a
# letter to another one, so that only word lengths are kept
LENGTH_ONLY = {
    "antipode-off-its-generator": fixture_path("freec.alg").read_text()
    + "\n[antipode]\nx = - xs\n",
    "rule-changing-letters": fixture_path("car.alg").read_text().replace(
        "xs x = - x xs", "xs x = - x x"),
}


@pytest.mark.parametrize("name", sorted(LENGTH_ONLY))
def test_a_length_only_algebra_records_word_length_supports(name):
    alg = Algebra(parse_presentation(LENGTH_ONLY[name]))
    assert alg.homogeneous
    assert alg.grade((0, 1, 1)) == (3,)
    defm = Deformation(alg)
    assert defm.L.support == {(1, 1)}
    assert defm.sigma.support == {(2,)}
    psi = _psi(alg)
    assert psi.support == {(1,), (2,)}
    assert_matches_the_full_walk(defm, psi)


@pytest.mark.parametrize("lhs, rhs, key", [
    ("xs", "x", ((1,), (0,))),
    ("x xs", "x xs", ((0, 1), (0, 1))),
])
def test_unit_term_rule_reaches_mu_t_through_eval(capsys, tmp_path, lhs,
                                                   rhs, key):
    path = tmp_path / "car-unit.alg"
    path.write_text(CAR_UNIT)
    assert main(["eval", str(path), "--op", "mu_t", "--lhs", lhs,
                 "--rhs", rhs]) == 0
    alg, L = _unit_term_case()
    want = alg.format(unpruned_mu_t_key(L, key, {}))
    assert capsys.readouterr().out == want + "\n"


# -- the deformed product --------------------------------------------------


def test_mu_t_spot_values():
    got = DEF.mu_t_key((XS, X))
    want = Tensor(1, {((0, 1),): -1, ((),): T_T})
    assert got == want
    assert DEF.mu_t_key((X, XS)) == Tensor.basis(((0, 1),))
    assert DEF.mu_t_key(((), X)) == Tensor.basis((X,))


def test_mu_t_at_time_zero_is_mul():
    for a in CAR.basis(2):
        for b in CAR.basis(2):
            got = DEF.mu_t_key((a, b)).substitute(Fraction(0))
            assert got == CAR.mul_words(a, b)


def test_mu_t_pair_form_and_negative_time():
    x, xs = CAR.parse_element("x"), CAR.parse_element("xs")
    u = tensor_product(xs, x)
    neg = DEF.mu_t(u).map_coeffs(poly_flip)
    want = Tensor(1, {((0, 1),): -1, ((),): poly_flip(T_T)})
    assert neg == want
    with pytest.raises(ValueError):
        DEF.mu_t(x)


def test_mu_t_key_is_memoized():
    assert DEF.mu_t_key((XS, X)) is DEF.mu_t_key((XS, X))


def test_generator_arity_is_checked():
    with pytest.raises(ValueError):
        Deformation(CAR, DELTA1)


# -- sigma and the deformed antipode ---------------------------------------


def test_sigma_spot_values():
    assert DEF.sigma.on_key((X,)) == T_ZERO
    assert DEF.sigma.on_key((XS,)) == T_ZERO
    assert DEF.sigma.on_key(((0, 1),)) == T_ONE


SIGMA_FIXTURES = [make("q2.alg"), make("freec.alg")]


@st.composite
def sigma_cases(draw):
    """q2.alg or freec.alg, whose antipodes tell the two slots of the
    comultiplication apart, and a random generator table on pairs of
    normal words of total length at most 3."""
    alg = draw(st.sampled_from(SIGMA_FIXTURES))
    words = alg.basis(3)
    table = draw(st.dictionaries(
        st.tuples(st.sampled_from(words), st.sampled_from(words)).filter(
            lambda p: any(p) and len(p[0]) + len(p[1]) <= 3),
        st.integers(-2, 2).filter(bool).map(Scalar), min_size=1,
        max_size=6))
    return alg, table


@settings(deadline=None, max_examples=30)
@given(sigma_cases())
def test_sigma_matches_the_split_by_split_loop(case):
    alg, table = case
    L = table_functional(alg, table, 2)
    defm = Deformation(alg, L)
    for w in alg.basis(3):
        assert defm.sigma.on_key((w,)) == hand_sigma_word(L, w)


def test_deformed_antipode_spot_values():
    got = DEF.st_word((0, 1))
    want = Tensor(1, {((0, 1),): T_ONE, ((),): poly_flip(T_T)})
    assert got == want
    assert DEF.st_word(X) == Tensor.basis((X,)).scale(as_poly(-1))


def test_deformed_antipode_inverts_at_negative_time():
    # the undeformed coproduct is cocommutative here, so S_{-t} . S_t = id
    # with S_{-t}(u) = flip(S_t(flip(u))), flip sending t to -t
    for w in CAR.basis(3):
        back = DEF.st(DEF.st_word(w).map_coeffs(poly_flip)).map_coeffs(
            poly_flip)
        assert back == Tensor.basis((w,))
    with pytest.raises(ValueError):
        DEF.st(Tensor.basis((X, XS)))


@pytest.mark.parametrize("name", [
    "car.alg", "car-badL.alg", "car-negL.alg", "car-wrongsign.alg",
    "free2.alg", "freec.alg", "q2.alg"])
def test_negative_time_by_flipping_matches_the_word_by_word_oracle(name):
    # S_{-t}(u) = flip(S_t(flip(u))) on each input u of the st-star check
    alg = make(name)
    defm = Deformation(alg)

    def flip(u):
        return u.map_coeffs(poly_flip)

    for w in alg.basis(3):
        u = alg.involution(defm.st(alg.involution_word(w)))
        assert flip(defm.st(flip(u))) == neg_time_st(defm, u)


def test_ft_is_the_exponential_of_sigma():
    assert conv_exp_key(DEF.sigma, ((0, 1),)) == T_T
    assert conv_exp_key(DEF.sigma, ((),)) == T_ONE


# -- sesquilinear forms ----------------------------------------------------


def test_sesquilinearize_spot_values():
    K = sesquilinearize(L)
    assert K.on_key((X, X)) == T_ONE      # L(x* (x) x) = L(xs (x) x)
    assert K.on_key((XS, X)) == T_ZERO
    with pytest.raises(ValueError):
        sesquilinearize(DELTA1)


def test_conv_sesqui_unit_law():
    d = sesquilinearize(DELTA2)
    K = sesquilinearize(L)
    conv = conv_sesqui(d, K)
    for a in CAR.basis(2):
        for b in CAR.basis(2):
            assert conv.on_key((a, b)) == K.on_key((a, b))
    with pytest.raises(ValueError):
        conv_sesqui(K, sesquilinearize(Deformation(make("car.alg")).L))


# -- the coboundary --------------------------------------------------------


def test_cocycle_defect_vanishes_for_the_generating_cocycle():
    for a in CAR.basis(2):
        for b in CAR.basis(2):
            for c in CAR.basis(2):
                assert cocycle_defect(L, a, b, c) == T_ZERO


def test_cocycle_defect_detects_a_non_cocycle():
    bad = Algebra(parse_presentation(fixture_path("car-badL.alg").read_text()))
    Lb = Deformation(bad).L
    assert cocycle_defect(Lb, X, X, (1, 1)) == T_ONE


def test_psi_functional_table():
    psi = table_functional(CAR, {((0, 1),): Scalar(2)}, 1)
    assert psi.on_key(((0, 1),)) == as_poly(2)
    assert psi.on_key((X,)) == T_ZERO
