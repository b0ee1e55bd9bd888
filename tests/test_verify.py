import gc
import random
from fractions import Fraction
from math import gcd

import pytest

from braidhopf import (CHECK_IDS, Algebra, Deformation, Functional,
                       HermitianMatrix, Scalar, Tensor, parse_presentation,
                       parse_psi, psd_exact, run_catalog, schoenberg_check)
from braidhopf.deform import conv_exp_key
from braidhopf.scalars import ABD_ZERO, TPoly, T_ONE, poly_add, poly_mul
from braidhopf.verify import CATALOG, VerifyContext, fixture_path

from oracles import hermitian, psd_by_minors, recursive_psd


def load(name):
    return parse_presentation(fixture_path(name).read_text())


S0, S1 = Scalar(0), Scalar(1)


def check_against_minors(rows):
    G = hermitian(rows)
    verdict, wit = psd_exact(G)
    assert (verdict == "psd") == psd_by_minors(rows)
    if verdict == "psd":
        assert wit is None
    else:
        q = G.quadratic_form(wit)
        assert not q.im
        assert q.re < 0
    return verdict


# -- exact positive semidefiniteness ---------------------------------------


def test_psd_all_one_by_one():
    for a in range(-2, 3):
        v = check_against_minors([[Scalar(a)]])
        assert v == ("psd" if a >= 0 else "not-psd")


def test_psd_all_small_two_by_two():
    rng = [Scalar(k) for k in range(-2, 3)]
    ims = [Scalar(0, k) for k in (-1, 0, 1)]
    for a in rng:
        for d in rng:
            for br in rng:
                for bi in ims:
                    b = br + bi
                    check_against_minors([[a, b], [b.conj(), d]])


def random_hermitian(rng, n, density=1.0):
    """A random hermitian matrix whose off-diagonal entries are nonzero
    with probability at most density."""
    rows = [[S0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Scalar(Fraction(rng.randint(-4, 8), rng.randint(1, 3)))
        for j in range(i + 1, n):
            if rng.random() >= density:
                continue
            b = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                       Fraction(rng.randint(-2, 2)))
            rows[i][j] = b
            rows[j][i] = b.conj()
    return rows


def random_gram(rng, n, rank=None):
    # B* B is positive semidefinite by construction; B has rank rows, n by
    # default, and fewer leave zero pivots in the elimination
    rank = n if rank is None else rank
    b = [[Scalar(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n)]
         for _ in range(rank)]
    rows = [[S0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = S0
            for k in range(rank):
                acc = acc + b[k][i].conj() * b[k][j]
            rows[i][j] = acc
    return rows


def test_psd_random_three_and_four_by_four():
    rng = random.Random(20260823)
    for n in (3, 4):
        for _ in range(40):
            check_against_minors(random_hermitian(rng, n))
        for _ in range(15):
            assert check_against_minors(random_gram(rng, n)) == "psd"
    # sparse rows: a zero pivot-column entry skips the Schur update
    verdicts = [check_against_minors(random_hermitian(rng, n, density))
                for n in (3, 4, 5) for density in (0.2, 0.4)
                for _ in range(30)]
    assert {"psd", "not-psd"} <= set(verdicts)


def random_case(rng):
    """A random hermitian matrix of size 1 to 6 with non-real off-diagonal
    entries: dense, sparse, B* B of full or lower rank, or with zeros put
    on part of its diagonal."""
    n = rng.randint(1, 6)
    kind = rng.randrange(5)
    if kind == 0:
        return random_hermitian(rng, n)
    if kind == 1:
        return random_hermitian(rng, n, rng.choice((0.2, 0.4)))
    if kind == 2:
        return random_gram(rng, n)
    if kind == 3:
        return random_gram(rng, n, rng.randint(0, n - 1))
    rows = random_hermitian(rng, n, rng.choice((0.3, 1.0)))
    for i in rng.sample(range(n), rng.randint(1, n)):
        rows[i][i] = S0
    return rows


def test_psd_exact_agrees_with_the_recursive_elimination():
    # the same verdict and the same witness as pivoting by recursion
    rng = random.Random(20261020)
    verdicts = []
    for _ in range(3000):
        rows = random_case(rng)
        verdict, wit = psd_exact(hermitian(rows))
        assert (verdict, wit) == recursive_psd(rows), rows
        verdicts.append(verdict)
    assert 1000 < verdicts.count("not-psd") < 2000


def test_psd_decides_a_large_diagonal_matrix_without_recursion():
    n, k = 1100, 1000
    rows = [[ABD_ZERO] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = (i % 3 + 1, 0, 1)
    rows[k][k] = (-2, 0, 1)
    G = HermitianMatrix(rows)
    verdict, wit = psd_exact(G)
    assert verdict == "not-psd"
    assert wit == (S0,) * k + (S1,) + (S0,) * (n - k - 1)
    assert G.quadratic_form(wit) == Scalar(-2)


def test_psd_spot_values():
    assert psd_exact(hermitian([[S1, S0], [S0, S0]])) == ("psd", None)
    assert psd_exact(HermitianMatrix([])) == ("psd", None)
    v, wit = psd_exact(hermitian([[Scalar(-1)]]))
    assert v == "not-psd" and wit == (S1,)
    # zero pivot with a nonzero off-diagonal entry can never be psd
    v, wit = psd_exact(hermitian([[S0, S1], [S1, S0]]))
    assert v == "not-psd"
    G = hermitian([[S0, S1], [S1, S0]])
    assert G.quadratic_form(wit).re < 0


def test_hermitian_matrix_validation():
    one, two = (1, 0, 1), (2, 0, 1)
    with pytest.raises(ValueError):
        HermitianMatrix([[one, ABD_ZERO]])
    with pytest.raises(ValueError):
        HermitianMatrix([[one, one], [two, one]])
    with pytest.raises(ValueError):
        HermitianMatrix([[(0, 1, 1)]])         # imaginary diagonal
    with pytest.raises(TypeError):
        HermitianMatrix([[0.5]])
    G = HermitianMatrix([[two]])
    assert G.quadratic_form((Scalar(1, 1),)) == Scalar(4)
    assert G.quadratic_form((3,)) == Scalar(18)
    with pytest.raises(TypeError):
        G.quadratic_form((0.5,))
    assert G.size == 1
    assert G.abds[0][0] == two


@pytest.mark.parametrize("v", [(S1,), (S1, S0, S0), ()])
def test_quadratic_form_refuses_a_vector_of_the_wrong_length(v):
    G = hermitian([[S1, S0], [S0, Scalar(2)]])
    with pytest.raises(ValueError) as exc:
        G.quadratic_form(v)
    assert str(exc.value) == (f"vector of length {len(v)} for a matrix "
                              "of size 2")


# -- the check catalog -----------------------------------------------------


def as_tuples(reports):
    return [(r.id, r.status, r.degree, r.witness) for r in reports]


def test_catalog_is_deterministic():
    pres = load("car.alg")
    assert as_tuples(run_catalog(pres, max_degree=2)) == \
        as_tuples(run_catalog(pres, max_degree=2))


def test_catalog_rejects_unknown_ids():
    with pytest.raises(ValueError, match="nosuch"):
        run_catalog(load("car.alg"), ids=["confluence", "nosuch"],
                    max_degree=2)


def test_catalog_rejects_an_empty_selection():
    with pytest.raises(ValueError, match="no check"):
        run_catalog(load("car.alg"), ids=[], max_degree=2)


def test_catalog_selection_keeps_order():
    reps = run_catalog(load("car.alg"), ids=["coassoc", "confluence"],
                       max_degree=2)
    assert [r.id for r in reps] == ["confluence", "coassoc"]
    assert all(r.ok() for r in reps)


def test_unselected_prerequisites_run_silently():
    reps = run_catalog(load("car.alg"), ids=["assoc-mul"], max_degree=2)
    assert as_tuples(reps) == [("assoc-mul", "pass", 2, None)]
    reps = run_catalog(load("car-wrongsign.alg"), ids=["assoc-mul"],
                       max_degree=2)
    assert as_tuples(reps) == [("assoc-mul", "skipped", 2,
                                {"reason": "requires quotient-compat"})]


def test_report_to_dict_shape():
    rep = run_catalog(load("car.alg"), ids=["assoc-mul"], max_degree=2)[0]
    assert rep.to_dict() == {"id": "assoc-mul", "status": "pass",
                             "degree": 2}
    # the witness key only appears when there is one
    bad = run_catalog(load("car-badL.alg"), ids=["cocycle"], max_degree=3)[0]
    assert set(bad.to_dict()) == {"id", "status", "degree", "witness"}


def test_full_catalog_passes_on_the_fermion_algebra():
    reps = run_catalog(load("car.alg"), max_degree=3)
    assert [r.id for r in reps] == list(CHECK_IDS)
    assert all(r.status == "pass" for r in reps)


def test_full_catalog_passes_on_the_free_algebra():
    reps = run_catalog(load("free2.alg"), max_degree=2)
    assert all(r.status == "pass" for r in reps)


def test_negative_generator_passes_the_algebraic_catalog():
    # positivity lives in the Schoenberg layer, not here
    reps = run_catalog(load("car-negL.alg"), max_degree=2)
    assert all(r.status == "pass" for r in reps)


def test_bad_generator_fails_exactly_the_cocycle_check():
    reps = run_catalog(load("car-badL.alg"), max_degree=3)
    by_status = {}
    for r in reps:
        by_status.setdefault(r.status, []).append(r.id)
    assert by_status["fail"] == ["cocycle"]
    assert by_status["skipped"] == [
        "nilpotency", "delta-mu-t", "mu-t-assoc", "mu-t-assoc-eq3",
        "deformation-law", "star-deformation", "expL-semigroup",
        "expL-hermitian", "primitive-formula", "sigma-two-sided",
        "ft-agreement", "ft-commute", "antipode-deformed", "st-unit",
        "st-mu", "st-comul", "st-inverse", "st-star", "sesqui-conv",
        "sesqui-hermitian"]
    fail = next(r for r in reps if r.status == "fail")
    assert fail.witness == {"input": "x (x) x (x) xs xs",
                            "lhs": "1", "rhs": "0"}
    skipped = next(r for r in reps if r.status == "skipped")
    assert skipped.witness == {"reason": "requires cocycle"}


def test_wrong_sign_relation_fails_quotient_compatibility():
    reps = run_catalog(load("car-wrongsign.alg"), max_degree=3)
    statuses = [r.status for r in reps]
    assert statuses.count("pass") == 1 and reps[0].id == "confluence"
    fail = next(r for r in reps if r.status == "fail")
    assert fail.id == "quotient-compat"
    assert fail.witness["subcheck"] == "a"
    assert fail.witness["input"] == "xs x"
    assert statuses.count("skipped") == len(CHECK_IDS) - 2


def test_q_deformed_plane_fails_only_cocommutativity():
    reps = run_catalog(load("q2.alg"), max_degree=3)
    by_status = {}
    for r in reps:
        by_status.setdefault(r.status, []).append(r.id)
    assert by_status["fail"] == ["cocommutative"]
    assert by_status["skipped"] == ["antipode-squared", "st-inverse"]
    fail = next(r for r in reps if r.status == "fail")
    assert fail.witness == {
        "input": "x x",
        "lhs": "1 (x) x x + 6 (x (x) x) + x x (x) 1",
        "rhs": "1 (x) x x + 3 (x (x) x) + x x (x) 1"}


# -- the t-identities are decided exactly ----------------------------------

# P vanishes on G = {0, 1, -1, 1/2, -3/2} and on G + G, so comparing values
# at t, s in G (and t + s) cannot see a perturbation by P; CUBIC is
# i (t - 1/2)(t - 1)(t - 2), which vanishes at 1/2, 1 and 2.
G = [Fraction(r) for r in ("0", "1", "-1", "1/2", "-3/2")]
P = T_ONE
for r in sorted(set(G) | {a + b for a in G for b in G}):
    P = poly_mul(P, TPoly((Scalar(-r), S1)).abds)
CUBIC = TPoly((Scalar(0, 1),)).abds
for r in (Fraction(1, 2), 1, 2):
    CUBIC = poly_mul(CUBIC, TPoly((Scalar(-r), S1)).abds)
XS_X = ((1,), (0,))


def perturb_mu_t(ctx):
    ctx.defm.memo["mu_t_key"][XS_X] = (
        ctx.defm.mu_t_key(XS_X) + ctx.alg.one().scale(P))


def perturb_exp_by(p):
    def perturb(ctx):
        ctx.L.memo["conv_exp_key"][XS_X] = poly_add(
            conv_exp_key(ctx.L, XS_X), p)
    return perturb


def perturb_st(ctx):
    w = (0, 1)
    ctx.defm.memo["st_word"][w] = (ctx.defm.st_word(w)
                                   + ctx.alg.one().scale(P))


@pytest.mark.parametrize("cid,perturb", [pytest.param(*p, id=p[0]) for p in (
    ("deformation-law", perturb_mu_t),
    ("expL-semigroup", perturb_exp_by(P)),
    ("st-comul", perturb_st),
    ("expL-hermitian", perturb_exp_by(CUBIC)),
)])
def test_t_identities_reject_perturbations_invisible_at_sample_points(
        cid, perturb):
    ctx = VerifyContext(load("car.alg"), 2)
    perturb(ctx)
    run = next(fn for i, _, fn in CATALOG if i == cid)
    assert run(ctx).status == "fail"


# -- one coefficient representation -----------------------------------------


def memo_entries(owner, seen):
    """(table name, value) for every entry in the memo tables of owner, and
    of the functionals those tables or owner's attributes hold, each table
    walked once."""
    if id(owner) in seen:
        return
    seen.add(id(owner))
    entries = [(name, v) for name, table in owner.memo.items()
               for v in table.values()]
    yield from entries
    for v in [v for _, v in entries] + [getattr(owner, name, None)
                                        for name in ("sigma", "L")]:
        if isinstance(v, (Functional, Deformation)):
            yield from memo_entries(v, seen)


def is_canonical_poly(abds):
    """abds is a nonempty tuple of canonical triples with no trailing
    zero."""
    return (type(abds) is tuple and abds and abds[-1] != (0, 0, 1)
            and all(type(x) is tuple and len(x) == 3
                    and all(type(n) is int for n in x)
                    and x[2] > 0 and gcd(*x) == 1 for x in abds))


@pytest.mark.parametrize("name", ("car", "q2", "freec"))
def test_every_memoized_tensor_holds_coefficient_tuples(name):
    """Every memoized Tensor coefficient, functional value (on_key) and
    exponential value (conv_exp_key) is a coefficient tuple."""
    ctx = VerifyContext(load(name + ".alg"), 2)
    for _, _, run in CATALOG:
        run(ctx)
    seen = set()
    owners = [ctx.alg, ctx.defm, ctx.L_form,
              *(f for pair in ctx.sesqui_conv_sides for f in pair)]
    entries = [e for o in owners for e in memo_entries(o, seen)]
    tensors = [v for _, v in entries if isinstance(v, Tensor)]
    assert len(tensors) > 100
    bad = [(key, c) for t in tensors for key, c in t.terms.items()
           if not is_canonical_poly(c)]
    assert bad == []
    values = {name: [v for n, v in entries if n == name]
              for name in ("on_key", "conv_exp_key")}
    assert all(len(v) > 10 for v in values.values())
    bad = [(name, v) for name, vs in values.items() for v in vs
           if v != () and not is_canonical_poly(v)]
    assert bad == []


# -- no reference cycles ----------------------------------------------------


def test_schoenberg_and_a_dropped_deformation_leave_no_cycles():
    """Their memo tables die with their owners by reference counting, with
    nothing left for the cyclic collector."""
    pres = load("car.alg")
    psi = parse_psi(fixture_path("xxs.psi").read_text(), pres)
    gc.collect()
    gc.disable()
    try:
        schoenberg_check(pres, psi, max_degree=3)
        assert gc.collect() == 0
        defm = Deformation(Algebra(pres))
        defm.st(defm.alg.parse_element("x xs"))       # reads sigma
        del defm
        assert gc.collect() == 0
    finally:
        gc.enable()
