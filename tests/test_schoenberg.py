import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from braidhopf import (Algebra, Deformation, PresentationError, Scalar,
                       SchoenbergError, parse_presentation, parse_psi,
                       schoenberg_check, table_functional)
from braidhopf.scalars import (ABD_ZERO, as_abd, from_abd, poly_eval,
                               poly_mul, poly_part)
from braidhopf.verify import fixture_path, state_gram

from oracles import (hermitian, state_gram_at, unpruned_conditional_gram,
                     unpruned_state_gram)

# the benchmark's presentation generators
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from inputs import car_presentation, car_psi, mode_names


def load(name):
    return parse_presentation(fixture_path(name).read_text())


CAR = load("car.alg")


def read_psi(name, pres=CAR):
    return parse_psi(fixture_path(name).read_text(), pres)


# -- the two sides of the equivalence --------------------------------------


def test_zero_psi_gives_states_everywhere():
    res = schoenberg_check(CAR, max_degree=2)
    assert res.ok()
    assert res.conditional.id == "schoenberg-conditional"
    assert [r.witness["t"] for r in res.states] == ["0", "1/2", "1", "2"]
    assert res.equivalence_observed
    assert res.reports() == [res.conditional] + res.states


def test_zero_psi_file_parses_to_the_empty_table():
    assert read_psi("zero.psi") == {}
    res = schoenberg_check(CAR, psi=read_psi("zero.psi"), max_degree=2)
    assert res.ok()


def test_negative_time_is_not_a_state():
    # phi_{-1} on the deformed square of x picks up mu_{-t}(xs (x) x) = -1
    res = schoenberg_check(CAR, max_degree=2,
                           t_samples=(Fraction(0), Fraction(-1)))
    assert res.conditional.ok()
    good, bad = res.states
    assert good.ok() and not bad.ok()
    assert bad.witness["t"] == "-1"
    assert bad.witness["witness"] == "x"
    assert bad.witness["form-value"] == "-1"
    # the equivalence only quantifies over t >= 0
    assert res.equivalence_observed


def test_negative_generator_fails_both_sides():
    res = schoenberg_check(load("car-negL.alg"), max_degree=1)
    assert not res.conditional.ok()
    assert res.conditional.witness["witness"] == "x"
    assert res.conditional.witness["form-value"] == "-1"
    positive = [r for r, t in zip(res.states, (0, Fraction(1, 2), 1, 2))
                if t > 0]
    assert all(not r.ok() for r in positive)
    assert res.equivalence_observed
    assert not res.ok()


def test_nonzero_admissible_psi_passes_both_sides():
    table = read_psi("xxs.psi")
    assert table == {(0, 1): Scalar(1)}
    res = schoenberg_check(CAR, psi=table, max_degree=3)
    assert res.conditional.ok()
    assert all(r.ok() for r in res.states)
    assert res.equivalence_observed


# -- the state Gram matrix G(t) -------------------------------------------


DEFORMATIONS = {name: Deformation(Algebra(load(name)))
                for name in ("car.alg", "q2.alg", "freec.alg", "car-negL.alg")}
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def gram_cases(draw):
    """A deformation, a psi support table on nonempty normal words (no
    hypothesis gate applies: only the matrices are compared), a basis and
    a rational sample point, negative ones included."""
    defm = DEFORMATIONS[draw(st.sampled_from(sorted(DEFORMATIONS)))]
    keys = [w for w in defm.alg.basis(2) if w]
    table = draw(st.dictionaries(st.sampled_from(keys),
                                 st.builds(Scalar, rationals, rationals),
                                 max_size=3))
    basis = defm.alg.basis(draw(st.integers(0, 3)))
    psi = table_functional(defm.alg, {(w,): c for w, c in table.items()}, 1)
    return defm, psi, basis, draw(rationals)


@settings(deadline=None)
@given(gram_cases())
def test_state_gram_evaluates_to_the_per_sample_matrix(case):
    defm, psi, basis, t0 = case
    G = dense(state_gram(defm, psi, basis), len(basis))
    r = as_abd(t0)
    assert ([[from_abd(poly_eval(p, r)) for p in row] for row in G]
            == state_gram_at(defm, psi, basis, t0))


CAR2_ORDER = [g for pair in mode_names(2) for g in pair]

# presentation text, psi text or None, and whether the algebra keeps letter
# counts; car2 is the benchmark's 2-mode CAR and its psi, and car-unit has a
# unit term in its rule and neither cocycle nor psi, so both supports are
# recorded (empty) on an algebra whose products do not keep grades
GRAM_CASES = {
    "car.alg-xxs.psi": (fixture_path("car.alg").read_text(),
                        fixture_path("xxs.psi").read_text(), True),
    "freec.alg-None": (fixture_path("freec.alg").read_text(), None, True),
    "car2.alg-car2.psi": (car_presentation(2, CAR2_ORDER, 2),
                          car_psi(2, CAR2_ORDER, 1), True),
    "car-unit.alg-None": (fixture_path("car.alg").read_text().replace(
        "xs x = - x xs", "xs x = - x xs + 1").replace("xs | x = 1", ""),
        None, False),
}


def gram_case(name):
    text, psi_text, counts = GRAM_CASES[name]
    pres = parse_presentation(text)
    alg = Algebra(pres)
    assert alg.homogeneous == counts
    assert len(alg.grade(())) == (len(pres.generators) if counts else 1)
    table = parse_psi(psi_text, pres) if psi_text else {}
    psi = table_functional(alg, {(w,): c for w, c in table.items()}, 1)
    return Deformation(alg), psi, alg.basis(3)


def dense(cells, n):
    """The n x n rows of coefficient tuples of a cell map, zero off its
    cells."""
    return [[cells.get((i, j), ()) for j in range(n)] for i in range(n)]


def assert_entrywise_equal(basis, got, want):
    for a, row, want_row in zip(basis, got, want):
        for b, p, q in zip(basis, row, want_row):
            assert p == q, (a, b)


@pytest.mark.parametrize("name", sorted(GRAM_CASES))
def test_state_gram_matches_the_walk_over_every_split(name):
    defm, psi, basis = gram_case(name)
    cells = state_gram(defm, psi, basis)
    assert cells and all(cells.values())    # no zero cell is stored
    G = dense(cells, len(basis))
    assert any(p for row in G for p in row)
    if name != "car-unit.alg-None":
        assert any(len(p) > 1 for row in G for p in row)
    assert_entrywise_equal(basis, G,
                           unpruned_state_gram(defm.L, psi, basis))


def t1_block(cells, n):
    """The t^1 coefficients of the n x n cell map on the nonempty words, as
    constant coefficient tuples."""
    return [[poly_part(p, 1) for p in row[1:]] for row in dense(cells, n)[1:]]


@pytest.mark.parametrize("name", sorted(GRAM_CASES))
def test_t1_block_of_the_state_gram_is_the_conditional_form(name):
    defm, psi, basis = gram_case(name)
    assert basis[0] == ()
    kerdelta = basis[1:]
    rows = t1_block(state_gram(defm, psi, basis), len(basis))
    if name != "car-unit.alg-None":       # neither L nor psi
        assert any(p for row in rows for p in row)
    assert_entrywise_equal(kerdelta, rows,
                           unpruned_conditional_gram(defm.L, psi, kerdelta))


@settings(deadline=None)
@given(gram_cases())
def test_t1_block_is_the_conditional_form_for_any_psi(case):
    # the identity needs only psi(1) = 0, which every drawn table keeps
    defm, psi, basis, _ = case
    kerdelta = basis[1:]
    assert_entrywise_equal(kerdelta, t1_block(state_gram(defm, psi, basis),
                                              len(basis)),
                           unpruned_conditional_gram(defm.L, psi, kerdelta))


# -- the hermiticity check of HermitianMatrix ------------------------------


@pytest.mark.parametrize("rows, at", [
    # an off-diagonal pair equal up to the sign of its imaginary part
    ([[1, Scalar(2, 3)], [Scalar(2, 3), 1]], (0, 1)),
    # a diagonal entry with a nonzero imaginary part
    ([[1, 0, 0], [0, Scalar(1, 1), 0], [0, 0, 1]], (1, 1)),
    # two offending pairs: (0, 3) comes first in upper-triangle row-major
    # order, (1, 2) in column-major order
    ([[0, 0, 0, 1], [0, 0, 5, 0], [0, 6, 0, 0], [2, 0, 0, 0]], (0, 3)),
])
def test_hermitian_matrix_names_the_first_offending_entry(rows, at):
    with pytest.raises(ValueError) as exc:
        hermitian(rows)
    assert str(exc.value) == f"matrix is not hermitian at {at}"


# -- hypothesis gates ------------------------------------------------------


def test_a_state_gram_hermitian_only_at_the_samples_is_refused(monkeypatch):
    # i t (t - 1/2) (t - 1) (t - 2) vanishes at every default sample, and
    # its mirror cell is zero: G(t) is hermitian there and nowhere else
    samples = (0, Fraction(1, 2), 1, 2)
    p = ((0, 1, 1),)
    for r in samples:
        p = poly_mul(p, (as_abd(-r), (1, 0, 1)))
    assert all(poly_eval(p, as_abd(r)) == ABD_ZERO for r in samples)

    def gram(defm, psi, labels):
        assert len(labels) == 3              # 1, x, xs
        cells = state_gram(defm, psi, labels)
        assert (0, 1) not in cells and (1, 0) not in cells
        return {**cells, (0, 1): p}

    monkeypatch.setattr("braidhopf.verify.state_gram", gram)
    with pytest.raises(SchoenbergError) as exc:
        schoenberg_check(CAR, max_degree=1)
    assert exc.value.hypothesis == "hermitian"
    assert str(exc.value) == ("state Gram matrix is not hermitian (matrix "
                              "is not hermitian at (0, 1))")


def test_non_hermitian_psi_is_refused():
    with pytest.raises(SchoenbergError) as exc:
        schoenberg_check(CAR, psi=read_psi("nonhermitian.psi"), max_degree=2)
    assert exc.value.hypothesis == "hermitian"
    assert "x" in str(exc.value)


def test_non_hermitian_generator_is_blamed_not_psi():
    # L(xs (x) x) = i fails gen-hermitian; psi is zero and not at fault
    pres = parse_presentation(fixture_path("car.alg").read_text().replace(
        "xs | x = 1", "xs | x = i"))
    with pytest.raises(SchoenbergError) as exc:
        schoenberg_check(pres, max_degree=2)
    assert exc.value.hypothesis == "generator-hermitian"
    assert str(exc.value) == "the generator L is not hermitian at (x, x)"


@pytest.mark.parametrize("key", [(1, 0), (5,)])
def test_a_psi_key_that_is_not_a_normal_word_is_refused(key):
    # xs x is - x xs in the quotient, and there is no generator 5: either
    # table would read as the zero functional and pass vacuously
    with pytest.raises(ValueError) as exc:
        schoenberg_check(CAR, {key: 1}, max_degree=2)
    assert not isinstance(exc.value, SchoenbergError)
    assert str(exc.value) == (f"table key ({key!r},) is not a tuple of "
                              "normal words")


def test_a_real_scalar_sample_reads_as_its_number():
    res = schoenberg_check(CAR, max_degree=2,
                           t_samples=(Scalar(1), Scalar(Fraction(-1, 2))))
    assert [r.witness["t"] for r in res.states] == ["1", "-1/2"]
    assert res.states[0].ok() and not res.states[1].ok()
    # only t >= 0 enters the equivalence
    assert res.equivalence_observed


def test_a_non_real_sample_is_refused():
    with pytest.raises(ValueError) as exc:
        schoenberg_check(CAR, max_degree=2,
                         t_samples=(Fraction(0), Scalar(0, 1)))
    assert not isinstance(exc.value, SchoenbergError)
    assert str(exc.value) == "t sample i is not real"


def test_psi_hitting_the_unit_is_refused():
    with pytest.raises(SchoenbergError) as exc:
        schoenberg_check(CAR, psi={(): Scalar(1)}, max_degree=1)
    assert exc.value.hypothesis == "unit"


def test_braiding_sensitive_psi_is_refused():
    # hermitian (psi(x) = psi(x*)), but the diagonal braiding scales x
    with pytest.raises(SchoenbergError) as exc:
        schoenberg_check(load("q2.alg"),
                         psi={(0,): Scalar(1), (1,): Scalar(1)}, max_degree=2)
    assert exc.value.hypothesis == "braiding-invariant"


# -- the psi file format ---------------------------------------------------


def test_parse_psi_inline_after_header():
    assert parse_psi("[psi] x = 1", CAR) == {(0,): Scalar(1)}


def test_parse_psi_scalar_forms():
    table = parse_psi("[psi]\nx xs = 3/2\nx = i\nxs = -i\n", CAR)
    assert table == {(0, 1): Scalar(Fraction(3, 2)),
                     (0,): Scalar(0, 1), (1,): Scalar(0, -1)}


@pytest.mark.parametrize("text,fragment", (
    ("x = 1", "content before any section"),
    ("[psi]\n = 1", "unit"),
    ("[psi]\nxs x = 1", "normal-form"),
    ("[psi]\nx = 1\nx = 2", "duplicate"),
    ("[psi]\ny = 1", "unknown generator"),
    ("[psi]\nx", "expected"),
    ("[psi]\n[psi]", "duplicate section [psi]"),
    ("[algebra]\nx = 1", "unknown section [algebra]"),
    ("[psi]\nx = oops", "oops"),
    ("", "missing"),
))
def test_parse_psi_rejects_malformed_input(text, fragment):
    with pytest.raises(PresentationError) as exc:
        parse_psi(text, CAR)
    assert fragment in str(exc.value)


def test_parse_psi_reports_line_numbers():
    with pytest.raises(PresentationError) as exc:
        parse_psi("[psi]\n# fine\nxs x = 1", CAR)
    assert exc.value.line == 3
