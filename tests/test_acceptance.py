"""End-to-end acceptance: each test covers one advertised guarantee of the
package, with exact arithmetic and zero tolerance everywhere."""

import random
import re
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from braidhopf import (CHECK_IDS, Algebra, Deformation, Scalar, Tensor,
                       parse_presentation, psd_exact, run_catalog,
                       schoenberg_check, tensor_product)
from braidhopf.braidtensor import comul_word
from braidhopf.cli import main
from braidhopf.deform import conv_exp_key
from braidhopf.scalars import T_ONE, T_T, poly_flip
from braidhopf.verify import fixture_path

from oracles import hermitian, naive_exp2, psd_by_minors


def load(name):
    return parse_presentation(fixture_path(name).read_text())


def rank1(d):
    return Tensor(1, {(w,): c for w, c in d.items()})


def test_full_catalog_at_degree_four_under_a_minute():
    start = time.monotonic()
    reports = run_catalog(load("car.alg"), max_degree=4)
    elapsed = time.monotonic() - start
    assert [r.id for r in reports] == list(CHECK_IDS)
    not_passing = [(r.id, r.status, r.witness) for r in reports
                   if r.status != "pass"]
    assert not_passing == []
    assert elapsed < 60.0


def test_deformed_product_and_antipode_spot_values():
    alg = Algebra(load("car.alg"))
    defm = Deformation(alg)
    x, xs, xxs = (0,), (1,), (0, 1)

    # the deformed anti-commutation relation, term by term
    assert defm.mu_t_key((xs, x)) == rank1({xxs: -1, (): T_T})
    assert defm.mu_t_key((x, xs)) == rank1({xxs: T_ONE})
    closure = defm.mu_t_key((x, xs)) + defm.mu_t_key((xs, x))
    assert closure == rank1({(): T_T})

    assert comul_word(alg, xxs) == _comul_xxs(alg)
    assert conv_exp_key(defm.L, (xs, x)) == T_T

    # the deformed antipode value, then its defining identity at x xs
    assert defm.st_word(xxs) == rank1({xxs: T_ONE, (): poly_flip(T_T)})
    total = Tensor(1)
    for (k0, k1), c in comul_word(alg, xxs).terms.items():
        total = total + defm.mu_t(tensor_product(
            Tensor.basis((k0,)), defm.st_word(k1))).scale(c)
    assert not total.terms


def _comul_xxs(alg):
    return Tensor(2, {((0, 1), ()): T_ONE, ((0,), (1,)): T_ONE,
                      ((1,), (0,)): -1, ((), (0, 1)): T_ONE})


def test_positivity_checker_accepts_and_rejects_exactly(capsys):
    car = str(fixture_path("car.alg"))
    zero = str(fixture_path("zero.psi"))

    rc = main(["schoenberg", car, "--psi", zero, "--t", "0,1/2,1,2",
               "--max-degree", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out

    rc = main(["schoenberg", car, "--psi", zero, "--t", "-1",
               "--max-degree", "2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "witness: x; form-value: -1" in out

    rc = main(["schoenberg", str(fixture_path("car-negL.alg")),
               "--max-degree", "2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.splitlines()[0] == ("[FAIL] schoenberg-conditional (degree 2)"
                                   " -- witness: x; form-value: -1")


def test_braiding_obstruction_at_q_two_and_unimodular_q(capsys):
    rc = main(["qnogo", "--q", "2", "--t", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out == "lhs = 4 (1 (x) x)\nrhs = 1 (x) x\nunequal\n"

    for q in ("1", "-1"):
        rc = main(["qnogo", "--q", q, "--t", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.endswith("equal\n") and "unequal" not in out


def test_negative_control_fixtures_fail_precisely():
    reports = run_catalog(load("car-badL.alg"), max_degree=3)
    failed = [r for r in reports if r.status == "fail"]
    assert [r.id for r in failed] == ["cocycle"]
    assert failed[0].witness == {"input": "x (x) x (x) xs xs",
                                 "lhs": "1", "rhs": "0"}

    res = schoenberg_check(load("car-badL.alg"), max_degree=2)
    assert not res.ok()
    assert res.conditional.witness == {"witness": "xs xs",
                                       "form-value": "-1"}

    reports = run_catalog(load("car-wrongsign.alg"), max_degree=3)
    failed = [r for r in reports if r.status == "fail"]
    assert [r.id for r in failed] == ["quotient-compat"]
    assert failed[0].witness["subcheck"] == "a"


def test_psd_and_exponential_match_independent_oracles():
    # every hermitian 2x2 with entries from a small Gaussian-integer box
    ints = [Scalar(k) for k in (-1, 0, 1)]
    gauss = [Scalar(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    for a in ints:
        for d in ints:
            for b in gauss:
                rows = [[a, b], [b.conj(), d]]
                G = hermitian(rows)
                verdict, wit = psd_exact(G)
                assert (verdict == "psd") == psd_by_minors(rows)
                if wit is not None:
                    assert G.quadratic_form(wit).re < 0

    # seeded 3x3 and 4x4 samples from the same box
    rng = random.Random(7)
    for n in (3, 4):
        for _ in range(30):
            rows = [[Scalar(0)] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = Scalar(rng.randint(-2, 2))
                for j in range(i + 1, n):
                    b = Scalar(rng.randint(-1, 1), rng.randint(-1, 1))
                    rows[i][j] = b
                    rows[j][i] = b.conj()
            G = hermitian(rows)
            verdict, wit = psd_exact(G)
            assert (verdict == "psd") == psd_by_minors(rows)
            if wit is not None:
                assert G.quadratic_form(wit).re < 0

    # the convolution exponential against the naive series
    alg = Algebra(load("car.alg"))
    L = Deformation(alg).L
    fn = lambda a, b: L.on_key((a, b))
    for a in alg.basis(3):
        for b in alg.basis(3):
            d = len(a) + len(b)
            if d <= 3:
                assert conv_exp_key(L, (a, b)) == \
                    naive_exp2(alg, fn, a, b, d)


def test_the_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    out = StringIO()
    with redirect_stdout(out):
        exec(example, {})
    lines = out.getvalue().splitlines()
    assert lines[:3] == ["- x xs + t", "- x xs", "- x xs + 1/2"]
    assert lines[3:] == [f"{cid} pass" for cid in CHECK_IDS]
