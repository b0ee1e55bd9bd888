"""Oracles for the conjugation paths, on a presentation with non-real
coefficients.  Every bundled fixture has real relation, braid and
comultiplication coefficients, so there a missing or an extra conjugation
changes no output.  On qi, (x y)* = y x = i x y, so the involution and the
comultiplication carry +-i."""

import random
from fractions import Fraction

import pytest

from braidhopf import (Algebra, Scalar, Tensor, parse_presentation,
                       run_catalog, sesquilinearize, table_functional,
                       tensor_product)
from braidhopf.braidtensor import comul_word, star_tensor
from braidhopf.deform import conv_sesqui
from braidhopf.scalars import as_poly
from braidhopf.verify import fixture_path

from oracles import hand_conv_sesqui, hand_star_tensor

QI = """\
[algebra]
name = qi
generators = x y
involution = x:x y:y
grade = x:1 y:1

[braiding]
kind = diagonal
x x = 1
x y = - i
y x = i
y y = 1

[relations]
y x = i x y
"""

I = Scalar(0, 1)
XY = (0, 1)


def qi():
    return Algebra(parse_presentation(QI))


def gaussian(rng):
    return Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def complex_table(alg, rng):
    """An arity-2 table with a random Gaussian rational on every pair of
    words of length <= 2."""
    words = alg.basis(2)
    return table_functional(
        alg, {(a, b): gaussian(rng) for a in words for b in words}, 2)


def test_qi_passes_the_catalog_with_non_real_coefficients():
    reports = run_catalog(parse_presentation(QI), max_degree=3)
    assert len(reports) == 45 and all(r.ok() for r in reports)
    alg = qi()
    assert alg.involution_word(XY) == Tensor(1, {(XY,): I})
    assert comul_word(alg, XY).coefficient(((1,), (0,))) == as_poly(-I)


@pytest.mark.parametrize("seed", range(3))
def test_sesquilinearize_against_the_involution(seed):
    alg = qi()
    K = complex_table(alg, random.Random(seed))
    form = sesquilinearize(K)
    for a in alg.basis(3):
        for b in alg.basis(3):
            assert form.on_key((a, b)) == K(tensor_product(
                alg.involution_word(a), Tensor.basis((b,))))


@pytest.mark.parametrize("seed", range(3))
def test_conv_sesqui_against_the_term_sum(seed):
    alg = qi()
    rng = random.Random(seed)
    P, Q = complex_table(alg, rng), complex_table(alg, rng)
    conv = conv_sesqui(P, Q)
    for a in alg.basis(3):
        for b in alg.basis(3):
            assert conv.on_key((a, b)) == hand_conv_sesqui(P, Q, a, b)


@pytest.mark.parametrize("make", [
    qi, lambda: Algebra(parse_presentation(fixture_path("q2.alg").read_text()))
], ids=["qi", "q2"])
def test_star_tensor_against_the_composition(make):
    alg = make()
    rng = random.Random(0)
    words = alg.basis(3)
    for a in words:
        for b in words:
            u = Tensor(2, {(a, b): gaussian(rng)})
            assert star_tensor(alg, u) == hand_star_tensor(alg, u)
    for _ in range(20):
        u = Tensor(2, {(rng.choice(words), rng.choice(words)): gaussian(rng)
                       for _ in range(3)})
        assert star_tensor(alg, u) == hand_star_tensor(alg, u)
