import inspect
import json
import random
import sys
from math import comb
from pathlib import Path

import pytest

from braidhopf import CHECK_IDS, Algebra, Tensor, parse_presentation
from braidhopf.cli import main
from braidhopf.verify import CATALOG, VerifyContext, fixture_path

GOLDEN = Path(__file__).parent / "golden"


def alg(name):
    return str(fixture_path(name))


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- verify ----------------------------------------------------------------


def test_verify_all_pass(capsys):
    rc, out, _ = run(capsys, "verify", alg("car.alg"), "--max-degree", "2")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 45
    assert lines[0] == "[pass] confluence (degree 3)"
    assert all(line.startswith("[pass]") for line in lines)


def test_verify_failure_and_skip_lines(capsys):
    rc, out, _ = run(capsys, "verify", alg("car-badL.alg"),
                     "--max-degree", "3")
    assert rc == 1
    lines = out.splitlines()
    assert ("[FAIL] cocycle (degree 3) -- input: x (x) x (x) xs xs; "
            "lhs: 1; rhs: 0") in lines
    assert ("[skip] nilpotency (degree 3) -- reason: requires cocycle"
            in lines)


@pytest.mark.parametrize("check, witness", (
    ("gen-hermitian", "input: x (x) xs; lhs: i; rhs: -i"),
    ("star-deformation",
     "input: xs (x) x; lhs: - x xs + i t; rhs: - x xs - i t"),
    ("expL-hermitian", "input: x (x) xs; lhs: i t; rhs: -i t"),
    ("st-star", "input: x xs; lhs: x xs + 2 i t; rhs: x xs"),
    ("sesqui-hermitian", "input: x; lhs: i; rhs: -i"),
))
def test_an_imaginary_generator_fails_the_hermiticity_checks(
        capsys, tmp_path, check, witness):
    # L(xs (x) x) = i breaks L's hermiticity, which each of these checks
    # sees in its own identity when run past its gates
    text = fixture_path("car.alg").read_text().replace(
        "xs | x = 1", "xs | x = i")
    run_check = next(fn for cid, _, fn in CATALOG if cid == check)
    rep = run_check(VerifyContext(parse_presentation(text), 2))
    assert rep.status == "fail"
    assert "; ".join(f"{k}: {v}" for k, v in rep.witness.items()) == witness
    # verify prints the full run's line: the deformation checks are
    # skipped behind gen-hermitian, which runs silently
    path = tmp_path / "car-imagL.alg"
    path.write_text(text)
    rc, out, err = run(capsys, "verify", str(path), "--checks", check,
                       "--max-degree", "2")
    assert (rc, err) == (1, "")
    assert out == (f"[FAIL] {check} (degree 2) -- {witness}\n"
                   if check == "gen-hermitian" else
                   f"[skip] {check} (degree 2) -- reason: requires "
                   "gen-hermitian\n")


def test_verify_reports_inconsistent_rules_with_a_composite_coefficient(
        capsys, tmp_path):
    # two rules for b a whose right sides differ by i a b, a coefficient
    # with both a real and an imaginary part
    path = tmp_path / "twin.alg"
    path.write_text("[algebra]\nname = twin\ngenerators = a b\n"
                    "involution = a:a b:b\ngrade = a:0 b:0\n\n"
                    "[braiding]\nkind = graded-sign\n\n"
                    "[relations]\nb a = a b + i a b\nb a = a b\n")
    rc, out, err = run(capsys, "verify", str(path), "--checks", "confluence")
    assert (rc, err) == (1, "")
    assert out == ("[FAIL] confluence (degree 3) -- input: b a; "
                   "lhs: a b + i a b; rhs: a b\n")


# c (b a) and (c b) a both reduce to a multiple of a
COEFF = ("[algebra]\nname = coeff\ngenerators = a b c\n"
         "involution = a:a b:b c:c\ngrade = a:1 b:1 c:1\n\n"
         "[braiding]\nkind = graded-sign\n\n"
         "[relations]\nb a = - a a\nc a = 2\nc b = 3 a c\n")


def test_verify_reports_forms_that_first_differ_in_a_coefficient(
        capsys, tmp_path):
    path = tmp_path / "coeff.alg"
    path.write_text(COEFF)
    rc, out, err = run(capsys, "verify", str(path), "--checks", "confluence")
    assert (rc, err) == (1, "")
    assert out == ("[FAIL] confluence (degree 3) -- input: c b a; "
                   "lhs: - 2 a; rhs: 6 a\n")


def test_only_verify_runs_on_non_confluent_relations(capsys, tmp_path):
    # a product would depend on the order of rewriting, c (b a) giving
    # - 2 a and (c b) a giving 6 a: verify reports it and skips every check
    # downstream, eval and schoenberg refuse the input
    path = tmp_path / "coeff.alg"
    path.write_text(COEFF)
    rc, out, err = run(capsys, "verify", str(path), "--max-degree", "2")
    lines = out.splitlines()
    assert (rc, err, len(lines)) == (1, "", 45)
    assert lines[0] == ("[FAIL] confluence (degree 3) -- input: c b a; "
                        "lhs: - 2 a; rhs: 6 a")
    assert all(line.startswith("[skip] ")
               and line.endswith(" -- reason: requires confluence")
               for line in lines[1:])
    refusal = (2, "", "error: relations are not confluent: c b a rewrites "
                      "to - 2 a and to 6 a\n")
    for argv in (("eval", "--op", "mul", "--lhs", "c", "--rhs", "b a"),
                 ("eval", "--op", "mul", "--lhs", "c b", "--rhs", "a"),
                 ("eval", "--op", "comul", "--lhs", "a"),
                 ("schoenberg", "--max-degree", "2")):
        assert run(capsys, argv[0], str(path), *argv[1:]) == refusal


# confluent, but c a = a c + b b is not a coideal relation
COIDEAL = ("[algebra]\nname = coideal\ngenerators = a b c\n"
           "involution = a:a b:b c:c\ngrade = a:1 b:1 c:1\n\n"
           "[braiding]\nkind = graded-sign\n\n"
           "[relations]\nb a = - a b\nc b = - b c\nc a = a c + b b\n")


@pytest.mark.parametrize("text, checks, degree, reason", (
    (COEFF, "assoc-mul,bialgebra,coassoc", "3", "confluence"),
    (COIDEAL, "coassoc", "2", "quotient-compat"),
    (fixture_path("q2.alg").read_text(), "antipode-squared,st-inverse", "2",
     "cocommutative"),
), ids=["non-confluent", "not-a-coideal", "q2-not-cocommutative"])
def test_a_subset_run_checks_its_unselected_prerequisites(
        capsys, tmp_path, text, checks, degree, reason):
    # each selected check rests on a prerequisite that was not selected and
    # fails
    path = tmp_path / "p.alg"
    path.write_text(text)
    rc, out, err = run(capsys, "verify", str(path), "--checks", checks,
                       "--max-degree", degree)
    assert (rc, err) == (1, "")
    assert out == "".join(
        f"[skip] {cid} (degree {degree}) -- reason: requires {reason}\n"
        for cid in checks.split(","))


@pytest.mark.parametrize("name", sorted(
    p.name for p in fixture_path("").iterdir() if p.name.endswith(".alg")))
def test_a_subset_run_prints_the_full_run_lines(capsys, name):
    _, out, _ = run(capsys, "verify", alg(name), "--max-degree", "2")
    full = dict(zip(CHECK_IDS, out.splitlines()))
    rng = random.Random(name)
    for _ in range(4):
        ids = rng.sample(CHECK_IDS, rng.randint(1, 8))
        rc, out, err = run(capsys, "verify", alg(name), "--max-degree", "2",
                           "--checks", ",".join(ids))
        lines = [full[cid] for cid in CHECK_IDS if cid in ids]
        assert (out, err) == ("".join(line + "\n" for line in lines), "")
        assert rc == (0 if all(line.startswith("[pass]") for line in lines)
                      else 1)


def test_verify_json_matches_golden(capsys):
    rc, out, _ = run(capsys, "verify", alg("car.alg"),
                     "--checks", "confluence,assoc-mul,coassoc,cocycle",
                     "--max-degree", "2", "--format", "json")
    assert rc == 0
    assert out == (GOLDEN / "verify_car_subset.json").read_text()


@pytest.mark.parametrize("name,degree", (
    [(n, 2) for n in ("car", "car-badL", "car-negL", "car-wrongsign",
                      "free2", "freec", "q2")]
    + [(n, 3) for n in ("car-badL", "car-wrongsign", "freec", "q2")]))
def test_verify_full_catalog_matches_golden(capsys, name, degree):
    rc, out, _ = run(capsys, "verify", alg(name + ".alg"),
                     "--max-degree", str(degree), "--format", "json")
    assert rc == (0 if '"fail"' not in out else 1)
    golden = GOLDEN / f"verify_{name}_d{degree}.json"
    assert out == golden.read_text()


def test_verify_json_is_valid_json(capsys):
    rc, out, _ = run(capsys, "verify", alg("q2.alg"), "--max-degree", "2",
                     "--format", "json")
    assert rc == 1
    reports = json.loads(out)
    statuses = {r["id"]: r["status"] for r in reports}
    assert statuses["cocommutative"] == "fail"
    assert statuses["antipode-squared"] == "skipped"
    fail = next(r for r in reports if r["status"] == "fail")
    assert set(fail) == {"id", "status", "degree", "witness"}


def test_verify_unknown_check_id(capsys):
    rc, out, err = run(capsys, "verify", alg("car.alg"),
                       "--checks", "nosuch")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: unknown check id(s): nosuch")


def test_verify_rejects_negative_degree(capsys):
    rc, out, err = run(capsys, "verify", alg("car.alg"), "--max-degree", "-1")
    assert rc == 2
    assert out == ""
    assert err == "error: max degree must be positive, got -1\n"


@pytest.mark.parametrize("argv", (
    ("verify", alg("car-badL.alg")),
    ("schoenberg", alg("car-negL.alg")),
), ids=("verify", "schoenberg"))
def test_degree_zero_is_refused(capsys, argv):
    # at degree 0 every domain is the unit word alone, so every check passes
    rc, out, err = run(capsys, *argv, "--max-degree", "0")
    _one_error_line(rc, out, err)
    assert err == "error: max degree must be positive, got 0\n"


@pytest.mark.parametrize("checks", ("", ","))
def test_verify_rejects_an_empty_check_selection(capsys, checks):
    rc, out, err = run(capsys, "verify", alg("car.alg"), "--checks", checks)
    assert rc == 2
    assert out == ""
    assert err == "error: no check ids given\n"


def test_verify_missing_file(capsys):
    rc, _, err = run(capsys, "verify", "/nonexistent/file.alg")
    assert rc == 2
    assert err.startswith("error:")


# -- eval ------------------------------------------------------------------


# the first entry of argv is the fixture; freec.alg's sigma and mu_t are
# not linear in t
@pytest.mark.parametrize("argv,want", (
    (("car.alg", "--op", "mu_t", "--lhs", "xs", "--rhs", "x"), "- x xs + t"),
    (("car.alg", "--op", "mu_t", "--lhs", "xs", "--rhs", "x", "--t", "1/2"),
     "- x xs + 1/2"),
    (("car.alg", "--op", "mul", "--lhs", "x", "--rhs", "xs"), "x xs"),
    (("car.alg", "--op", "expL", "--lhs", "xs", "--rhs", "x"), "t"),
    (("car.alg", "--op", "comul", "--lhs", "x xs"),
     "1 (x) x xs + x (x) xs + x xs (x) 1 - xs (x) x"),
    (("car.alg", "--op", "antipode", "--lhs", "x"), "- x"),
    (("car.alg", "--op", "s_t", "--lhs", "x xs"), "x xs - t"),
    (("car.alg", "--op", "s_t", "--lhs", "x xs", "--t", "2"), "x xs - 2"),
    (("car.alg", "--op", "sigma", "--lhs", "x xs"), "1"),
    (("car.alg", "--op", "sigma", "--lhs", "x"), "0"),
    (("freec.alg", "--op", "mu_t", "--lhs", "x xs", "--rhs", "xs x"),
     "x xs xs x + t x xs + t xs x + t^2"),
    (("freec.alg", "--op", "sigma", "--lhs", "x xs"), "-2"),
    (("freec.alg", "--op", "s_t", "--lhs", "x xs"), "xs x + 2 t"),
    (("freec.alg", "--op", "expL", "--lhs", "x xs", "--rhs", "xs x"), "t^2"),
    # products with coefficients other than 1
    (("freec.alg", "--op", "mu_t", "--lhs", "x xs x", "--rhs", "xs x xs"),
     "x xs x xs x xs + t x x xs xs + t x xs x xs + t x xs xs x + t xs x x xs"
     " + t xs x xs x + 4 t^2 x xs + 2 t^2 xs x + 2 t^3"),
    (("freec.alg", "--op", "mu_t", "--lhs", "x xs x", "--rhs", "xs x xs",
      "--t", "1/3"),
     "x xs x xs x xs + 1/3 x x xs xs + 1/3 x xs x xs + 1/3 x xs xs x"
     " + 1/3 xs x x xs + 1/3 xs x xs x + 4/9 x xs + 2/9 xs x + 2/27"),
    (("freec.alg", "--op", "expL", "--lhs", "x xs x xs", "--rhs",
      "xs x xs x"), "4 t^4"),
    (("freec.alg", "--op", "s_t", "--lhs", "x xs x xs"),
     "xs x xs x + 2 t x xs + 6 t xs x + 8 t^2"),
    (("q2.alg", "--op", "comul", "--lhs", "x xs x"),
     "1/2 (1 (x) x x xs) + 3/2 (x (x) x xs) + 1/2 (x x (x) xs)"
     " + 1/2 (x x xs (x) 1) + 3 (x xs (x) x) + 2 (xs (x) x x)"),
    # the functional ops at a value of t
    (("freec.alg", "--op", "expL", "--lhs", "x xs x xs", "--rhs",
      "xs x xs x", "--t", "1/2"), "1/4"),
    (("car.alg", "--op", "sigma", "--lhs", "x", "--t", "2"), "0"),
    (("car.alg", "--op", "expL", "--lhs", "xs", "--rhs", "x", "--t", "-3"),
     "-3"),
    (("freec.alg", "--op", "sigma", "--lhs", "x xs", "--t", "1/3"), "-2"),
))
def test_eval_spot_outputs(capsys, argv, want):
    fixture, *options = argv
    rc, out, _ = run(capsys, "eval", alg(fixture), *options)
    assert rc == 0
    assert out == want + "\n"


def test_eval_long_words_do_not_exhaust_the_stack(capsys):
    # 1600 anticommuting swaps, each giving -1: the coefficient is +1
    rc, out, _ = run(capsys, "eval", alg("car.alg"), "--op", "mul",
                     "--lhs", " ".join(["xs"] * 40),
                     "--rhs", " ".join(["x"] * 40))
    assert rc == 0
    assert out == " ".join(["x"] * 40 + ["xs"] * 40) + "\n"


def test_eval_antipode_of_a_long_word(capsys):
    rc, out, _ = run(capsys, "eval", alg("car.alg"), "--op", "antipode",
                     "--lhs", " ".join(["x"] * 1100))
    assert rc == 0
    assert out == " ".join(["x"] * 1100) + "\n"


def _x_power_comul(n):
    # x is odd and primitive, so for even n comul(x^n) is the sum of the
    # (-1)-binomials [n, k] x^k (x) x^(n-k): C(n/2, k/2) for even k, else 0
    car = Algebra(parse_presentation(fixture_path("car.alg").read_text()))
    return car.format(Tensor(2, {
        ((0,) * k, (0,) * (n - k)): comb(n // 2, k // 2)
        for k in range(0, n + 1, 2)}))


@pytest.mark.parametrize("op, want", (
    ("comul", _x_power_comul(150)),
    # S(x^n) = (-1)^(n(n+1)/2) x^n, and sigma vanishes on powers of x
    ("s_t", "- " + " ".join(["x"] * 150)),
), ids=["comul", "s_t"])
def test_eval_comul_of_a_long_word_stays_off_the_stack(capsys, op, want):
    # a recursion limit far below the word's 150 letters: a comultiplication
    # that recursed once per letter would raise RecursionError
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        rc, out, err = run(capsys, "eval", alg("car.alg"), "--op", op,
                           "--lhs", " ".join(["x"] * 150))
    finally:
        sys.setrecursionlimit(limit)
    assert (rc, out, err) == (0, want + "\n", "")


@pytest.mark.parametrize("argv", (
    ("--op", "mul", "--lhs", "x"),                 # missing --rhs
    ("--op", "comul", "--lhs", "x", "--rhs", "x"),  # stray --rhs
    ("--op", "mul", "--lhs", "x +", "--rhs", "x"),  # malformed element
    ("--op", "mul", "--lhs", "y", "--rhs", "x"),    # unknown generator
))
def test_eval_errors(capsys, argv):
    rc, out, err = run(capsys, "eval", alg("car.alg"), *argv)
    assert rc == 2
    assert err.startswith("error:")


# -- schoenberg ------------------------------------------------------------


def test_schoenberg_passes_with_zero_psi(capsys):
    rc, out, _ = run(capsys, "schoenberg", alg("car.alg"),
                     "--psi", str(fixture_path("zero.psi")),
                     "--max-degree", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "[pass] schoenberg-conditional (degree 2)"
    assert lines[-1] == "equivalence observed: yes"
    assert sum(1 for l in lines if l.startswith("[pass] schoenberg-state")) \
        == 4


def test_schoenberg_negative_sample_fails(capsys):
    rc, out, _ = run(capsys, "schoenberg", alg("car.alg"),
                     "--max-degree", "2", "--t", "0,-1")
    assert rc == 1
    assert ("[FAIL] schoenberg-state (degree 2) -- t: -1; witness: x; "
            "form-value: -1") in out.splitlines()


def test_schoenberg_negative_generator(capsys):
    rc, out, _ = run(capsys, "schoenberg", alg("car-negL.alg"),
                     "--max-degree", "1")
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == ("[FAIL] schoenberg-conditional (degree 1) -- "
                        "witness: x; form-value: -1")
    assert lines[-1] == "equivalence observed: yes"


def test_schoenberg_hypothesis_violation(capsys):
    rc, out, err = run(capsys, "schoenberg", alg("car.alg"),
                       "--psi", str(fixture_path("nonhermitian.psi")),
                       "--max-degree", "2")
    assert rc == 2
    assert err == "error: psi is not hermitian at x\n"


def test_schoenberg_blames_a_non_hermitian_generator(capsys, tmp_path):
    path = tmp_path / "car-imagL.alg"
    path.write_text(fixture_path("car.alg").read_text().replace(
        "xs | x = 1", "xs | x = i"))
    rc, out, err = run(capsys, "schoenberg", str(path), "--max-degree", "2")
    _one_error_line(rc, out, err)
    assert err == "error: the generator L is not hermitian at (x, x)\n"


@pytest.mark.parametrize("argv,message", (
    (("--t", ""), "no t sample points given"),
    (("--max-degree", "-1"), "max degree must be positive, got -1"),
))
def test_schoenberg_rejects_vacuous_input(capsys, argv, message):
    rc, out, err = run(capsys, "schoenberg", alg("car.alg"),
                       "--psi", str(fixture_path("zero.psi")), *argv)
    assert rc == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_schoenberg_json(capsys):
    rc, out, _ = run(capsys, "schoenberg", alg("car.alg"),
                     "--max-degree", "2", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"conditional", "states", "equivalence_observed"}
    assert doc["conditional"]["status"] == "pass"
    assert [s["witness"]["t"] for s in doc["states"]] == \
        ["0", "1/2", "1", "2"]
    assert doc["equivalence_observed"] is True


@pytest.mark.parametrize("golden,argv", (
    ("schoenberg_car_xxs_d3", ("car.alg", "--psi", alg("xxs.psi"),
                               "--max-degree", "3")),
    ("schoenberg_car-badL_d3", ("car-badL.alg", "--max-degree", "3",
                                "--t=-1,0,1/2,1,2")),
    ("schoenberg_car-negL_d2", ("car-negL.alg", "--max-degree", "2")),
    ("schoenberg_freec_d3", ("freec.alg", "--max-degree", "3",
                             "--t=-1,0,1/2,1,2")),
))
def test_schoenberg_json_matches_golden(capsys, golden, argv):
    rc, out, err = run(capsys, "schoenberg", alg(argv[0]), *argv[1:],
                       "--format", "json")
    assert err == ""
    assert rc == (0 if '"fail"' not in out else 1)
    assert out == (GOLDEN / f"{golden}.json").read_text()


# -- qnogo -----------------------------------------------------------------


def test_qnogo_obstructed(capsys):
    rc, out, _ = run(capsys, "qnogo", "--q", "2")
    assert rc == 1
    assert out == "lhs = 4 (1 (x) x)\nrhs = 1 (x) x\nunequal\n"


def test_qnogo_unobstructed(capsys):
    rc, out, _ = run(capsys, "qnogo", "--q", "-1", "--t", "5")
    assert rc == 0
    assert out.splitlines()[-1] == "equal"


def test_qnogo_decides_on_the_formal_sides(capsys):
    # at t = 0 both sides print as 0, yet q^2 t and t differ for q = 2
    rc, out, _ = run(capsys, "qnogo", "--q", "2", "--t", "0")
    assert rc == 1
    assert out == "lhs = 0\nrhs = 0\nunequal\n"


def test_qnogo_json(capsys):
    rc, out, _ = run(capsys, "qnogo", "--q", "2", "--format", "json")
    assert rc == 1
    doc = json.loads(out)
    assert doc == {"q": "2", "t": "1", "lhs": "4 (1 (x) x)",
                   "rhs": "1 (x) x", "equal": False}


def test_qnogo_rejects_zero(capsys):
    rc, _, err = run(capsys, "qnogo", "--q", "0")
    assert rc == 2
    assert err.startswith("error:")


# -- zero denominators -----------------------------------------------------


def _one_error_line(rc, out, err):
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("before, after", (
    ("[algebra]\n", "[algebra]\n_lines = 1\n"),
    ("grade = x:1 xs:1\n", "grade = x:1 xs:1\n_lines = 1\n"),
), ids=["first", "after-grade"])
def test_a_lines_key_is_ignored_like_any_unknown_key(capsys, tmp_path,
                                                      before, after):
    text = fixture_path("car.alg").read_text()
    path = tmp_path / "car.alg"
    path.write_text(text.replace(before, after, 1))
    argv = ("--max-degree", "2", "--checks", "confluence,cocycle")
    want = run(capsys, "verify", alg("car.alg"), *argv)
    assert run(capsys, "verify", str(path), *argv) == want
    assert want[0] == 0


@pytest.mark.parametrize("generators, message", (
    pytest.param("1 a", "generator name '1' must match [A-Za-z_][A-Za-z0-9_]*",
                 id="1"),
    pytest.param("-x a",
                 "generator name '-x' must match [A-Za-z_][A-Za-z0-9_]*",
                 id="-x"),
    pytest.param("i a", "generator name 'i' is reserved", id="i"),
    pytest.param("a a", "duplicate generator", id="duplicate"),
))
def test_a_generator_name_elements_cannot_spell_is_refused(
        capsys, tmp_path, generators, message):
    # "1" would read as the scalar 1 in an element, "-x" as a minus sign,
    # "i" as the imaginary unit, and a repeated name as either generator
    path = tmp_path / "bad.alg"
    path.write_text(f"[algebra]\nname = bad\ngenerators = {generators}\n"
                    "involution = a:a\ngrade = a:0\n"
                    "\n[braiding]\nkind = graded-sign\n")
    rc, out, err = run(capsys, "eval", str(path), "--op", "mul",
                       "--lhs", "a", "--rhs", "a")
    _one_error_line(rc, out, err)
    assert err == f"error: line 3: {message}\n"


def test_zero_denominator_in_a_braiding_entry(capsys, tmp_path):
    text = fixture_path("q2.alg").read_text().replace(
        "xs x = 1/2", "xs x = 1/0", 1)
    assert "xs x = 1/0" in text
    path = tmp_path / "q2-zero.alg"
    path.write_text(text)
    _one_error_line(*run(capsys, "verify", str(path)))


def test_zero_denominator_in_a_psi_table(capsys, tmp_path):
    path = tmp_path / "zero-den.psi"
    path.write_text("[psi]\nx xs = 1/0\n")
    _one_error_line(*run(capsys, "schoenberg", alg("car.alg"),
                         "--psi", str(path)))


def test_zero_denominator_in_q(capsys):
    _one_error_line(*run(capsys, "qnogo", "--q", "1/0"))


# -- one grammar for every scalar ------------------------------------------


@pytest.mark.parametrize("name, line, edit", (
    ("q2.alg", 13, ("x x = 2", "x x = 2 3")),
    ("car.alg", 17, ("xs | x = 1", "xs | x = 1 2")),
), ids=["braiding", "cocycle"])
def test_juxtaposed_numbers_are_not_one_scalar(capsys, tmp_path, name, line,
                                               edit):
    # the digits of "2 3" are two numbers, not the number 23
    path = tmp_path / name
    path.write_text(fixture_path(name).read_text().replace(*edit, 1))
    value = edit[1].split("= ")[1]
    assert run(capsys, "verify", str(path)) == (
        2, "", f"error: line {line}: malformed scalar '{value}'\n")


def test_juxtaposed_numbers_in_a_psi_table(capsys, tmp_path):
    path = tmp_path / "bad.psi"
    path.write_text("[psi]\nx xs = 1 2\n")
    assert run(capsys, "schoenberg", alg("car.alg"), "--psi", str(path)) == (
        2, "", "error: line 2: malformed scalar '1 2'\n")


def test_juxtaposed_numbers_in_q(capsys):
    assert run(capsys, "qnogo", "--q", "1 0") == (
        2, "", "error: malformed scalar '1 0'\n")


MU_T = ("eval", alg("car.alg"), "--op", "mu_t", "--lhs", "xs", "--rhs", "x")


def test_t_value_reads_as_a_real_scalar(capsys):
    assert run(capsys, *MU_T, "--t", "-7/2") == (0, "- x xs - 7/2\n", "")
    assert run(capsys, *MU_T, "--t", " 4 ") == (0, "- x xs + 4\n", "")
    for text in ("1/0", "a"):
        assert run(capsys, *MU_T, "--t", text) == (
            2, "", f"error: malformed scalar {text!r}\n")


@pytest.mark.parametrize("argv", (
    MU_T,
    ("schoenberg", alg("car.alg"), "--max-degree", "1"),
    ("qnogo", "--q", "2"),
), ids=["eval", "schoenberg", "qnogo"])
@pytest.mark.parametrize("text", ("1_0", "2.5"))
def test_t_value_outside_the_scalar_grammar_is_refused(capsys, argv, text):
    # Python's Fraction syntax would read these as 10 and 5/2
    assert run(capsys, *argv, "--t", text) == (
        2, "", f"error: malformed scalar {text!r}\n")


def test_imaginary_t_value_is_refused(capsys):
    assert run(capsys, *MU_T, "--t", "i") == (
        2, "", "error: t must be real, got 'i'\n")


@pytest.mark.parametrize("grade", ("1_1", "-1", "+1", "1.0", "\u0661"))
def test_a_grade_is_ascii_digits(capsys, tmp_path, grade):
    # int() would read 1_1 as 11, +1 as 1 and the Arabic-Indic digit as 1
    path = tmp_path / "car.alg"
    path.write_text(fixture_path("car.alg").read_text().replace(
        "grade = x:1 xs:1", f"grade = x:{grade} xs:{grade}", 1))
    assert run(capsys, "verify", str(path)) == (
        2, "", f"error: line 8: malformed grade {grade!r}\n")


# -- option values that start with a dash ----------------------------------


@pytest.mark.parametrize("argv, option, value", (
    (("schoenberg", alg("car.alg"), "--max-degree", "1"), "--t", "-1,0"),
    (("eval", alg("car.alg"), "--op", "mu_t", "--lhs", "xs", "--rhs", "x"),
     "--t", "-1/2"),
    (("eval", alg("car.alg"), "--op", "mul", "--rhs", "xs"), "--lhs", "-x"),
    (("eval", alg("car.alg"), "--op", "mul", "--lhs", "x"), "--rhs", "-xs"),
    (("qnogo",), "--q", "-1/2"),
), ids=["schoenberg-t", "eval-t", "eval-lhs", "eval-rhs", "qnogo-q"])
def test_negative_option_values_match_the_equals_form(capsys, argv, option,
                                                      value):
    spaced = run(capsys, *argv, option, value)
    joined = run(capsys, *argv, f"{option}={value}")
    assert spaced == joined
    assert spaced[0] in (0, 1) and spaced[1] and not spaced[2]
