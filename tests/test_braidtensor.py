import pytest
from hypothesis import given, strategies as st

from braidhopf import Algebra, Scalar, Tensor, parse_presentation
from braidhopf.algebra import slot_map
from braidhopf.braidtensor import (braid_at, braided_product, comul_word,
                                   counit, lambda_n_key, star_tensor)
from braidhopf.scalars import T_ONE, T_ZERO, poly_neg
from braidhopf.verify import fixture_path

from oracles import (braid_key, diagonal_braid_coeff, lambda2_splits, mul,
                     sign_braid_coeff, words_up_to)


def make(name):
    return Algebra(parse_presentation(fixture_path(name).read_text()))


CAR = make("car.alg")
Q2 = make("q2.alg")
FREE2 = make("free2.alg")
FREEC = make("freec.alg")


def tensor(rank, d):
    return Tensor(rank, d)


coeffs = st.builds(
    Scalar,
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)
basis2 = st.sampled_from(CAR.basis(2))
keys2 = st.dictionaries(st.tuples(basis2, basis2), coeffs, max_size=3)


# -- braid family ----------------------------------------------------------


def test_braid_pair_spot_value():
    def b(m, n):
        return braid_at(CAR, Tensor.basis((m, n)), 0, 1, 1)

    assert b((0,), (1,)) == tensor(2, {((1,), (0,)): Scalar(-1)})
    assert b((), (0,)) == tensor(2, {((0,), ()): Scalar(1)})


@st.composite
def braid_cases(draw):
    """An algebra, a tensor of rank 2-4 with up to three random slot-tuples
    (words of up to three letters, not necessarily normal) and blocks
    (start, m, n) inside its rank."""
    alg = draw(st.sampled_from((CAR, Q2, FREE2)))
    rank = draw(st.integers(2, 4))
    word = st.lists(st.integers(0, 1), max_size=3).map(tuple)
    key = st.tuples(*[word] * rank)
    terms = draw(st.dictionaries(key, coeffs, min_size=1, max_size=3))
    start = draw(st.integers(0, rank))
    m = draw(st.integers(0, rank - start))
    n = draw(st.integers(0, rank - start - m))
    return alg, tensor(rank, terms), start, m, n


@given(braid_cases())
def test_braid_at_matches_crossing_by_crossing_oracle(case):
    alg, u, start, m, n = case
    want = Tensor(u.rank)
    for key, c in u.terms.items():
        k, mid = braid_key(alg.pres, key[start:], m, n)
        want.add_term(key[:start] + mid + key[start + m + n:], mul(c, k))
    assert braid_at(alg, u, start, m, n) == want


def test_braid_blocks_match_letterwise_coefficients():
    # b_{m,n} swaps the blocks; its coefficient only sees the letters, so it
    # must agree with the letter-by-letter product over the concatenations
    for key in ((w1, w2, w3) for w1 in words_up_to(2, 1)
                for w2 in words_up_to(2, 1) for w3 in words_up_to(2, 2)):
        u = Tensor.basis(key)
        for m, n in ((1, 1), (1, 2), (2, 1)):
            a = sum(key[:m], ())
            b = sum(key[m:m + n], ())
            want_key = key[m:m + n] + key[:m] + key[m + n:]
            got = braid_at(CAR, u, 0, m, n)
            c = sign_braid_coeff(CAR.pres.grades, a, b)
            assert got == tensor(3, {want_key: c})
            got = braid_at(Q2, u, 0, m, n)
            c = diagonal_braid_coeff(Q2.pres.braiding_table, a, b)
            assert got == tensor(3, {want_key: c})


@pytest.mark.parametrize("start,m,n", (
    pytest.param(0, 2, 1, id="blocks-past-rank"),
    pytest.param(0, -1, 1, id="negative-block"),
    pytest.param(-1, 1, 1, id="negative-start"),
    pytest.param(1, 1, 1, id="start-plus-blocks-past-rank"),
    pytest.param(3, 0, 0, id="start-past-rank"),
))
def test_braid_rejects_oversized_blocks(start, m, n):
    with pytest.raises(ValueError):
        braid_at(CAR, Tensor.basis(((), ())), start, m, n)


# -- comultiplication ------------------------------------------------------


def test_comul_on_generators_is_primitive():
    assert comul_word(CAR, (0,)) == tensor(2, {((0,), ()): T_ONE,
                                               ((), (0,)): T_ONE})


def test_comul_spot_values():
    assert comul_word(CAR, (0, 0)) == tensor(2, {
        ((0, 0), ()): T_ONE, ((), (0, 0)): T_ONE})
    assert comul_word(CAR, (0, 0, 0)) == tensor(2, {
        ((0, 0, 0), ()): T_ONE, ((), (0, 0, 0)): T_ONE,
        ((0,), (0, 0)): T_ONE, ((0, 0), (0,)): T_ONE})
    assert comul_word(CAR, (0, 1)) == tensor(2, {
        ((), (0, 1)): T_ONE, ((0,), (1,)): T_ONE,
        ((0, 1), ()): T_ONE, ((1,), (0,)): -1})
    assert comul_word(Q2, (0, 0)) == tensor(2, {
        ((0, 0), ()): T_ONE, ((), (0, 0)): T_ONE,
        ((0,), (0,)): 3})


def comul_left(w):
    # (comul (x) id) . comul, the three-slot iterated coproduct
    return slot_map(comul_word(CAR, w), 0, 1,
                    lambda k: comul_word(CAR, k), 2)


def test_comul_is_coassociative():
    for w in CAR.basis(3):
        right = Tensor(3)
        for (k0, k1), v in comul_word(CAR, w).terms.items():
            for (m0, m1), u in comul_word(CAR, k1).terms.items():
                right.add_term((k0, m0, m1), mul(v, u))
        assert comul_left(w) == right


def test_comul_iter_spot_value():
    assert comul_left((0, 1)) == tensor(3, {
        ((), (), (0, 1)): T_ONE,
        ((), (0,), (1,)): T_ONE,
        ((), (0, 1), ()): T_ONE,
        ((), (1,), (0,)): -1,
        ((0,), (), (1,)): T_ONE,
        ((0,), (1,), ()): T_ONE,
        ((0, 1), (), ()): T_ONE,
        ((1,), (), (0,)): -1,
        ((1,), (0,), ()): -1,
    })


def test_counit_laws():
    assert counit(CAR.one()) == T_ONE
    assert counit(CAR.parse_element("x")) == T_ZERO
    for w in CAR.basis(3):
        # (counit (x) id) . comul = id
        back = Tensor(1)
        for (k0, k1), v in comul_word(CAR, w).terms.items():
            if k0 == ():
                back.add_term((k1,), v)
        assert back == Tensor.basis((w,))


# -- braided product on the square -----------------------------------------


def test_braided_product_rank1_is_mul():
    a = CAR.parse_element("x + xs")
    b = CAR.parse_element("x xs - 2")
    want = Tensor(1)
    for (u,), cu in a.terms.items():
        for (v,), cv in b.terms.items():
            for key, c in CAR.mul_words(u, v).terms.items():
                want.add_term(key, mul(c, cu, cv))
    assert braided_product(CAR, a, b) == want


def test_braided_product_crossing_picks_up_sign():
    x = Tensor.basis(((0,), (0,)))
    y = Tensor.basis(((0,), ()))
    assert braided_product(CAR, x, y) == tensor(
        2, {((0, 0), (0,)): -1})


def test_braided_product_is_associative():
    u = tensor(2, {((0,), (1,)): Scalar(1), ((), (0, 1)): Scalar(0, 1)})
    v = tensor(2, {((0,), ()): Scalar(2)})
    w = tensor(2, {((1,), (0,)): Scalar(1, 1)})
    for alg in (CAR, Q2):
        lhs = braided_product(alg, braided_product(alg, u, v), w)
        rhs = braided_product(alg, u, braided_product(alg, v, w))
        assert lhs == rhs


# -- involution on the square ----------------------------------------------


def test_star_tensor_spot_value():
    u = Tensor.basis(((0,), (1,)))
    assert star_tensor(CAR, u) == tensor(2, {((1,), (0,)): Scalar(-1)})


@given(keys2)
def test_star_tensor_is_involutive(d):
    u = tensor(2, d)
    for alg in (CAR, Q2):
        assert star_tensor(alg, star_tensor(alg, u)) == u


@given(keys2)
def test_star_tensor_is_antilinear(d):
    u, i = tensor(2, d), ((0, 1, 1),)
    for alg in (CAR, Q2):
        assert (star_tensor(alg, u.scale(i))
                == star_tensor(alg, u).scale(poly_neg(i)))


def test_star_tensor_rejects_wrong_rank():
    with pytest.raises(ValueError):
        star_tensor(CAR, Tensor.basis(((0,),)))


# -- comultiplication of the tensor square ---------------------------------


def test_lambda_matches_split_enumeration():
    # normal words up to length 2 on car and q2, every word up to length 3
    # on the free fixtures (grade 1 and grade 0)
    for alg, n in ((CAR, 2), (Q2, 2), (FREE2, 3), (FREEC, 3)):
        for a in alg.basis(n):
            for b in alg.basis(n):
                want = Tensor(4)
                for key, c in lambda2_splits(alg, a, b):
                    want.add_term(key, c)
                assert lambda_n_key(alg, (a, b)) == want


def test_lambda_spot_value():
    got = lambda_n_key(CAR, ((0,), (1,)))
    want = tensor(4, {
        ((), (), (0,), (1,)): Scalar(1),
        ((), (1,), (0,), ()): Scalar(-1),
        ((0,), (), (), (1,)): Scalar(1),
        ((0,), (1,), (), ()): Scalar(1),
    })
    assert got == want


def lambda_n(alg, u):
    """Lambda_n on a rank-n tensor: lambda_n_key extended linearly."""
    return slot_map(u, 0, u.rank, lambda *key: lambda_n_key(alg, key),
                    2 * u.rank)


def test_lambda_n_linear_extension():
    u = tensor(2, {((0,), (1,)): Scalar(2), ((), ()): Scalar(1)})
    direct = Tensor(4)
    for key, c in u.terms.items():
        for k2, v in lambda_n_key(CAR, key).terms.items():
            direct.add_term(k2, mul(v, c))
    assert lambda_n(CAR, u) == direct


def test_lambda_is_an_algebra_map():
    # Lambda_2 . M_2 = M_4 . (Lambda_2 (x) Lambda_2) up to the middle braid,
    # which is exactly how the deformed product stays associative; check the
    # simplest nontrivial instance straight against the definitions
    u = Tensor.basis(((0,), ()))
    v = Tensor.basis(((), (1,)))
    lhs = lambda_n(CAR, braided_product(CAR, u, v))
    lu, lv = lambda_n(CAR, u), lambda_n(CAR, v)
    # braid slots 2,3 of lu past slots 0,1 of lv pairwise when interleaving:
    # the rank-4 product does that internally
    rhs = braided_product(CAR, lu, lv)
    assert lhs == rhs
