"""Catalog-driven verification of the axioms and deformation identities.

Every identity the engine relies on is a named check over exhaustively
enumerated basis inputs up to the degree cutoff.  Checks are gated by
their logical prerequisites: nothing downstream of a broken rewrite
system or a broken generator is reported as failing for reasons that are
merely consequences, it is reported as skipped with the blocking check
named.  The module also houses the exact positive-semidefiniteness
certificate, the conditional-positivity/state checker built on it, and
the evaluator for the diagonal-braiding obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from importlib import resources
from itertools import product
from operator import add

from .algebra import Algebra, Tensor, scalar_map, slot_map, tensor_product
from .braidtensor import (braid_at, braided_product, comul, comul_word,
                          counit, counit_word, lambda_n_key, star_tensor)
from .deform import (Deformation, Functional, cocycle_defect, conv_exp,
                     conv_exp_key, conv_power, conv_sesqui, convolve_fn,
                     monoid, sesquilinearize, table_functional)
from .presentation import (AlgebraPresentation, Report, Rule,
                           check_confluence, check_quotient_compatibility)
from .scalars import (ABD_ZERO, Scalar, T_ONE, T_T, T_ZERO, abd_add,
                      abd_inv, abd_mul, as_abd, as_scalar, from_abd,
                      poly_add, poly_conj, poly_eval, poly_flip, poly_mul,
                      poly_part, poly_shift, poly_str)


def fixture_path(name: str):
    """Path to a packaged example presentation or support table."""
    return resources.files(__package__) / "fixtures" / name


# ---------------------------------------------------------------------------
# the catalog driver


class VerifyContext:
    """Shared state for one catalog run: algebra, generator, memo tables."""

    def __init__(self, pres: AlgebraPresentation, max_degree: int):
        self.pres = pres
        self.max_degree = max_degree
        self.alg = Algebra(pres)
        self.defm = Deformation(self.alg)
        self.L = self.defm.L
        self.basis = self.alg.basis(max_degree)
        # the sesquilinear form L~, and the form pairs ((F * K)~, F~ (*) K~)
        # for (F, K) = (delta.mul, L) and (L, delta.mul)
        self.L_form = sesquilinearize(self.L)
        alg = self.alg                # not self: no reference cycle
        delta_mul = Functional(
            alg, 2, lambda k: alg.mul_words(k[0], k[1]).coefficient(((),)))
        dm_form = sesquilinearize(delta_mul)
        self.sesqui_conv_sides = (
            (sesquilinearize(convolve_fn(delta_mul, self.L)),
             conv_sesqui(dm_form, self.L_form)),
            (sesquilinearize(convolve_fn(self.L, delta_mul)),
             conv_sesqui(self.L_form, dm_form)))

    def comul(self, w) -> Tensor:
        return comul_word(self.alg, w)

    def fail(self, cid, key, lhs, rhs, extras=None) -> Report:
        """The failure of check cid at the input key; each side is a Tensor
        or a coefficient tuple."""
        def fmt(x):
            return self.alg.format(x) if isinstance(x, Tensor) else poly_str(x)

        wit = {"input": " (x) ".join(map(self.pres.word_str, key)),
               "lhs": fmt(lhs), "rhs": fmt(rhs)}
        wit.update((k, str(v)) for k, v in (extras or {}).items())
        return Report(cid, "fail", self.max_degree, wit)


# -- two-time laws: f(t + s) = g(t, s), decided in Q(i)[t][s] one power of s
# at a time.  The s^j coefficient of f(t + s) is poly_shift(f, j); g depends
# on s only through factors evaluated at s, each of which contributes its t^j
# coefficient.  Both sides vanish beyond the largest t-degree of f and of
# those factors, so the powers compared are read off the polynomials.


def _t_degree(*values) -> int:
    """The largest t-degree among coefficient tuples and the coefficients
    of Tensors."""
    return max((len(p) - 1 for v in values for p in (
        v.terms.values() if isinstance(v, Tensor) else (v,))),
        default=-1)


# -- input domains: each yields the tuples of words a check is evaluated at


def words(ctx):
    return product(ctx.basis)


def pairs(ctx):
    return product(ctx.basis, repeat=2)


def triples(ctx):
    return product(ctx.basis, repeat=3)


def small_triples(ctx):
    """Triples of total degree within the cutoff (for the identities
    whose evaluation walks a rank-3 comultiplication)."""
    return (k for k in triples(ctx) if sum(map(len, k)) <= ctx.max_degree)


def generator_pairs(ctx):
    return product([(g,) for g in range(len(ctx.pres.generators))], repeat=2)


def fixed(*key):
    return lambda ctx: (key,)


_DECLARED = [
    ("confluence", (), lambda ctx: check_confluence(ctx.alg)),
    ("quotient-compat", ("confluence",),
     lambda ctx: check_quotient_compatibility(ctx.alg, ctx.max_degree)),
]


def check(cid: str, needs: tuple, domain):
    """Declare a catalog check.  The body takes the context and one input
    of the domain, and yields comparisons (lhs, rhs) or (lhs, rhs, extras).
    The check fails at the first unequal comparison, with the input, both
    sides and the extras as its witness; it passes when there is none."""
    def declare(body):
        def run(ctx) -> Report:
            for key in domain(ctx):
                for lhs, rhs, *extras in body(ctx, *key):
                    if lhs != rhs:
                        return ctx.fail(cid, key, lhs, rhs, *extras)
            return Report(cid, "pass", ctx.max_degree)

        _DECLARED.append((cid, needs, run))
        return body

    return declare


_BASE = ("confluence", "quotient-compat")
_DEFORM = _BASE + ("gen-unit", "beta-compat-cocycle", "gen-commute",
                   "cocycle", "gen-hermitian")


# -- structure checks -------------------------------------------------------


@check("assoc-mul", _BASE, triples)
def _assoc_mul(ctx, a, b, c):
    mul = ctx.alg.mul_words
    yield (braided_product(ctx.alg, mul(a, b), Tensor.basis((c,))),
           braided_product(ctx.alg, Tensor.basis((a,)), mul(b, c)))


@check("braid-equation", _BASE, triples)
def _braid_equation(ctx, a, b, c):
    def b12(u):
        return braid_at(ctx.alg, u, 0, 1, 1)

    def b23(u):
        return braid_at(ctx.alg, u, 1, 1, 1)

    u = Tensor.basis((a, b, c))
    yield b12(b23(b12(u))), b23(b12(b23(u)))


@check("beta-compat-mul", _BASE, triples)
def _beta_mul(ctx, a, b, c):
    mul, u = ctx.alg.mul_words, Tensor.basis((a, b, c))
    yield (braid_at(ctx.alg, slot_map(u, 0, 2, mul, 1), 0, 1, 1),
           slot_map(braid_at(ctx.alg, u, 0, 2, 1), 1, 2, mul, 1),
           {"side": "mul in the first factor"})
    yield (braid_at(ctx.alg, slot_map(u, 1, 2, mul, 1), 0, 1, 1),
           slot_map(braid_at(ctx.alg, u, 0, 1, 2), 0, 2, mul, 1),
           {"side": "mul in the second factor"})


@check("beta-compat-unit", _BASE,
       lambda ctx: (k for m in ctx.basis for k in (((), m), (m, ()))))
def _beta_unit(ctx, m, n):
    yield (braid_at(ctx.alg, Tensor.basis((m, n)), 0, 1, 1),
           Tensor.basis((n, m)))


@check("beta-compat-comul", _BASE, pairs)
def _beta_comul(ctx, a, b):
    u = Tensor.basis((a, b))
    bu = braid_at(ctx.alg, u, 0, 1, 1)
    yield (slot_map(bu, 0, 1, ctx.comul, 2),
           braid_at(ctx.alg, slot_map(u, 1, 1, ctx.comul, 2), 0, 1, 2),
           {"side": "comul in the first factor"})
    yield (slot_map(bu, 1, 1, ctx.comul, 2),
           braid_at(ctx.alg, slot_map(u, 0, 1, ctx.comul, 2), 0, 2, 1),
           {"side": "comul in the second factor"})


@check("beta-compat-counit", _BASE, pairs)
def _beta_counit(ctx, a, b):
    u = Tensor.basis((a, b))
    bu = braid_at(ctx.alg, u, 0, 1, 1)
    yield slot_map(bu, 0, 1, counit_word, 0), slot_map(u, 1, 1, counit_word, 0)
    yield slot_map(bu, 1, 1, counit_word, 0), slot_map(u, 0, 1, counit_word, 0)


@check("beta-compat-antipode", _BASE, pairs)
def _beta_antipode(ctx, a, b):
    S, u = ctx.alg.antipode_word, Tensor.basis((a, b))
    bu = braid_at(ctx.alg, u, 0, 1, 1)
    yield (slot_map(bu, 0, 1, S, 1),
           braid_at(ctx.alg, slot_map(u, 1, 1, S, 1), 0, 1, 1),
           {"side": "S in the first factor"})
    yield (slot_map(bu, 1, 1, S, 1),
           braid_at(ctx.alg, slot_map(u, 0, 1, S, 1), 0, 1, 1),
           {"side": "S in the second factor"})


@check("bialgebra", _BASE, pairs)
def _bialgebra(ctx, a, b):
    yield (comul(ctx.alg, ctx.alg.mul_words(a, b)),
           braided_product(ctx.alg, ctx.comul(a), ctx.comul(b)))


@check("coassoc", _BASE, words)
def _coassoc(ctx, w):
    yield (slot_map(ctx.comul(w), 0, 1, ctx.comul, 2),
           slot_map(ctx.comul(w), 1, 1, ctx.comul, 2))


@check("counit-law", _BASE, words)
def _counit_law(ctx, w):
    for i in (0, 1):
        yield slot_map(ctx.comul(w), i, 1, counit_word, 0), Tensor.basis((w,))


@check("counit-mul", _BASE, pairs)
def _counit_mul(ctx, a, b):
    yield counit(ctx.alg.mul_words(a, b)), T_ONE if a == b == () else T_ZERO


@check("cocommutative", _BASE, words)
def _cocommutative(ctx, w):
    yield braid_at(ctx.alg, ctx.comul(w), 0, 1, 1), ctx.comul(w)


@check("involution-squared", _BASE, words)
def _involution_squared(ctx, w):
    yield (ctx.alg.involution(ctx.alg.involution_word(w)),
           Tensor.basis((w,)))


@check("involution-antihom", _BASE, pairs)
def _involution_antihom(ctx, a, b):
    star = ctx.alg.involution_word
    yield (ctx.alg.involution(ctx.alg.mul_words(a, b)),
           braided_product(ctx.alg, star(b), star(a)))


@check("antipode-identity", _BASE, words)
def _antipode_identity(ctx, w):
    for i, side in ((0, "S left"), (1, "S right")):
        conv = slot_map(ctx.comul(w), i, 1, ctx.alg.antipode_word, 1)
        yield (slot_map(conv, 0, 2, ctx.alg.mul_words, 1),
               ctx.alg.one() if w == () else Tensor(1), {"side": side})


@check("antipode-squared", _BASE + ("cocommutative",), words)
def _antipode_squared(ctx, w):
    yield ctx.alg.antipode(ctx.alg.antipode_word(w)), Tensor.basis((w,))


@check("star-tensor-squared", _BASE, pairs)
def _star_tensor_squared(ctx, a, b):
    u = Tensor.basis((a, b))
    yield star_tensor(ctx.alg, star_tensor(ctx.alg, u)), u


@check("braiding-reconstruction", _BASE, pairs)
def _braiding_reconstruction(ctx, a, b):
    """mul(S a', (a'' b')') (x) mul((a'' b')'', S b'') is the braiding."""
    S, mul = ctx.alg.antipode_word, ctx.alg.mul_words
    u = slot_map(Tensor.basis((a, b)), 0, 1, ctx.comul, 2)
    u = slot_map(slot_map(slot_map(u, 2, 1, ctx.comul, 2), 0, 1, S, 1),
                 3, 1, S, 1)
    u = slot_map(u, 1, 2, lambda x, y: comul(ctx.alg, mul(x, y)), 2)
    u = slot_map(slot_map(u, 0, 2, mul, 1), 1, 2, mul, 1)
    yield u, braid_at(ctx.alg, Tensor.basis((a, b)), 0, 1, 1)


# -- generator checks -------------------------------------------------------


@check("gen-unit", _BASE, fixed((), ()))
def _gen_unit(ctx, a, b):
    yield ctx.L.on_key((a, b)), T_ZERO


@check("beta-compat-cocycle", _BASE,
       lambda ctx: ((w, a, b) for a, b in pairs(ctx) if ctx.L.on_key((a, b))
                    for w in ctx.basis))
def _beta_cocycle(ctx, w, a, b):
    k = ctx.alg.braid_coeff
    yield poly_mul(k((w, a)), k((w, b))), T_ONE
    yield poly_mul(k((a, w)), k((b, w))), T_ONE


@check("gen-commute", _BASE, pairs)
def _gen_commute(ctx, a, b):
    lam, L = lambda_n_key(ctx.alg, (a, b)), scalar_map(ctx.L.on_key)
    yield (slot_map(slot_map(lam, 0, 2, L, 0), 0, 2, ctx.alg.mul_words, 1),
           slot_map(slot_map(lam, 2, 2, L, 0), 0, 2, ctx.alg.mul_words, 1))


@check("cocycle", _BASE, triples)
def _cocycle(ctx, a, b, c):
    yield cocycle_defect(ctx.L, a, b, c), T_ZERO


@check("gen-hermitian", _BASE, pairs)
def _gen_hermitian(ctx, a, b):
    star = ctx.alg.involution_word
    yield (ctx.L(tensor_product(star(a), star(b))),
           poly_conj(ctx.L.on_key((b, a))))


# -- deformation checks -----------------------------------------------------


@check("nilpotency", _DEFORM, pairs)
def _nilpotency(ctx, a, b):
    power = len(a) + len(b) + 1
    yield conv_power(ctx.L, power).on_key((a, b)), T_ZERO, {"power": power}


@check("delta-mu-t", _DEFORM, pairs)
def _delta_mu_t(ctx, a, b):
    yield counit(ctx.defm.mu_t_key((a, b))), conv_exp_key(ctx.L, (a, b))


@check("mu-t-assoc", _DEFORM, triples)
def _mu_t_assoc(ctx, a, b, c):
    mu_t, mu_t_key = ctx.defm.mu_t, ctx.defm.mu_t_key
    yield (mu_t(tensor_product(mu_t_key((a, b)), Tensor.basis((c,)))),
           mu_t(tensor_product(Tensor.basis((a,)), mu_t_key((b, c)))))


@check("mu-t-assoc-eq3", _DEFORM, small_triples)
def _mu_t_assoc_eq3(ctx, a, b, c):
    """e^{tL} . (id (x) mul) (x) (delta (x) e^{tL}) against
    e^{tL} . (mul (x) id) (x) (e^{tL} (x) delta), through Lambda_3."""
    lam = lambda_n_key(ctx.alg, (a, b, c))
    exp = scalar_map(partial(conv_exp_key, ctx.L))

    def side(unit_slot, mul_at):
        u = slot_map(slot_map(lam, unit_slot, 1, counit_word, 0), 3, 2, exp, 0)
        return conv_exp(ctx.L, slot_map(u, mul_at, 2, ctx.alg.mul_words, 1))

    yield side(3, 1), side(5, 0)


@check("deformation-law", _DEFORM, pairs)
def _deformation_law(ctx, a, b):
    """Delta . mu_{t+s} = (mu_t (x) mu_s) . Lambda_2; the comultiplication
    has t-free coefficients, so it commutes with the shift."""
    lam, mu = lambda_n_key(ctx.alg, (a, b)), ctx.defm.mu_t_key
    left = comul(ctx.alg, mu((a, b)))
    for j in range(_t_degree(left, *(mu(k[2:]) for k in lam.terms)) + 1):
        yield (left.map_coeffs(lambda p: poly_shift(p, j)),
               slot_map(lam, 0, 4, lambda *k: tensor_product(
                   mu(k[:2]),
                   mu(k[2:]).map_coeffs(lambda p: poly_part(p, j))), 2),
               {"power of s": j})


@check("star-deformation", _DEFORM, pairs)
def _star_deformation(ctx, a, b):
    star = ctx.alg.involution_word
    yield (ctx.defm.mu_t(tensor_product(star(b), star(a))),
           ctx.alg.involution(ctx.defm.mu_t_key((a, b))))


@check("expL-semigroup", _DEFORM, pairs)
def _expL_semigroup(ctx, a, b):
    """e*^{(t+s)L} = (e*^{tL} (x) e*^{sL}) . Lambda_2."""
    exp = partial(conv_exp_key, ctx.L)
    splits = lambda_n_key(ctx.alg, (a, b)).terms
    for j in range(_t_degree(exp((a, b)), *(exp(k[2:]) for k in splits)) + 1):
        tot = ()
        for k, v in splits.items():
            tot = poly_add(tot, poly_mul(poly_mul(v, exp(k[:2])),
                                         poly_part(exp(k[2:]), j)))
        yield poly_shift(exp((a, b)), j), tot, {"power of s": j}


@check("expL-hermitian", _DEFORM, pairs)
def _expL_hermitian(ctx, a, b):
    """Exact in Q(i)[t] because t is real, so conj acts on coefficients."""
    star = ctx.alg.involution_word
    yield (conv_exp(ctx.L, tensor_product(star(a), star(b))),
           poly_conj(conv_exp_key(ctx.L, (b, a))))


@check("primitive-formula", _DEFORM, generator_pairs)
def _primitive_formula(ctx, a, b):
    yield (ctx.defm.mu_t_key((a, b)), ctx.alg.mul_words(a, b)
           + ctx.alg.one().scale(poly_mul(T_T, ctx.L.on_key((a, b)))))


# -- deformed Hopf checks ---------------------------------------------------


@check("sigma-two-sided", _DEFORM, words)
def _sigma_two_sided(ctx, w):
    yield (ctx.defm.sigma.on_key((w,)),
           ctx.L(slot_map(ctx.comul(w), 1, 1, ctx.alg.antipode_word, 1)))


@check("ft-agreement", _DEFORM, words)
def _ft_agreement(ctx, w):
    for i in (0, 1):
        split = slot_map(ctx.comul(w), i, 1, ctx.alg.antipode_word, 1)
        yield conv_exp(ctx.L, split), conv_exp_key(ctx.defm.sigma, (w,))


@check("ft-commute", _DEFORM, words)
def _ft_commute(ctx, w):
    ft = scalar_map(partial(conv_exp_key, ctx.defm.sigma))
    yield (slot_map(ctx.comul(w), 0, 1, ft, 0),
           slot_map(ctx.comul(w), 1, 1, ft, 0))


@check("antipode-deformed", _DEFORM, words)
def _antipode_deformed(ctx, w):
    for i, side in ((1, "S_t right"), (0, "S_t left")):
        yield (ctx.defm.mu_t(slot_map(ctx.comul(w), i, 1, ctx.defm.st_word, 1)),
               ctx.alg.one() if w == () else Tensor(1), {"side": side})


@check("st-unit", _DEFORM, fixed(()))
def _st_unit(ctx, w):
    yield ctx.defm.st_word(w), ctx.alg.one()


@check("st-mu", _DEFORM, pairs)
def _st_mu(ctx, a, b):
    defm = ctx.defm
    swapped = tensor_product(defm.st_word(b), defm.st_word(a))
    yield (defm.st(defm.mu_t_key((a, b)).map_coeffs(poly_flip)),
           defm.mu_t(swapped.scale(ctx.alg.braid_coeff((a, b)))))


@check("st-comul", _DEFORM, words)
def _st_comul(ctx, w):
    """Delta . S_{t+s} = (S_t (x) S_s) . b . Delta."""
    st_word = ctx.defm.st_word
    left = comul(ctx.alg, st_word(w))
    for j in range(_t_degree(left, *(st_word(k[0]) for k in ctx.comul(w)
                                     .terms)) + 1):
        yield (left.map_coeffs(lambda p: poly_shift(p, j)),
               slot_map(ctx.comul(w), 0, 2, lambda k0, k1: tensor_product(
                   st_word(k1),
                   st_word(k0).map_coeffs(lambda p: poly_part(p, j)))
                   .scale(ctx.alg.braid_coeff((k0, k1))), 2),
               {"power of s": j})


@check("st-inverse", _DEFORM + ("cocommutative",), words)
def _st_inverse(ctx, w):
    inner = ctx.defm.st_word(w).map_coeffs(poly_flip)
    yield ctx.defm.st(inner), Tensor.basis((w,))


@check("st-star", _DEFORM, words)
def _st_star(ctx, w):
    def flip(u):
        return u.map_coeffs(poly_flip)

    step = ctx.alg.involution(ctx.defm.st(ctx.alg.involution_word(w)))
    yield flip(ctx.defm.st(flip(step))), Tensor.basis((w,))


# -- sesquilinear checks ----------------------------------------------------


@check("sesqui-conv", _DEFORM, pairs)
def _sesqui_conv(ctx, a, b):
    for lhs, rhs in ctx.sesqui_conv_sides:
        yield lhs.on_key((a, b)), rhs.on_key((a, b))


@check("sesqui-hermitian", _DEFORM, words)
def _sesqui_hermitian(ctx, w):
    v = ctx.L_form.on_key((w, w))
    yield v, poly_conj(v)


CATALOG = tuple(_DECLARED)
CHECK_IDS = tuple(cid for cid, _, _ in CATALOG)


def run_catalog(pres: AlgebraPresentation, ids=None, *,
                max_degree: int) -> list:
    """Run the selected checks (all by default) in catalog order.

    A check is skipped when a prerequisite did not pass.  Unselected
    prerequisites run silently, so a check reports as in the full run.
    """
    if max_degree < 1:
        raise ValueError(f"max degree must be positive, got {max_degree}")
    if ids is None:
        selected = set(CHECK_IDS)
    else:
        selected = set(ids)
        if not selected:
            raise ValueError("no check ids given")
        unknown = selected - set(CHECK_IDS)
        if unknown:
            raise ValueError(
                "unknown check id(s): " + ", ".join(sorted(unknown)))
    needed = set(selected)
    for cid, needs, _ in reversed(CATALOG):
        if cid in needed:
            needed.update(needs)
    ctx = VerifyContext(pres, max_degree)
    status = {}
    reports = []
    for cid, needs, fn in CATALOG:
        if cid not in needed:
            continue
        blocker = next((n for n in needs if status[n] != "pass"), None)
        if blocker is not None:
            rep = Report(cid, "skipped", max_degree,
                         {"reason": f"requires {blocker}"})
        else:
            rep = fn(ctx)
        status[cid] = rep.status
        if cid in selected:
            reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# exact positive semidefiniteness


class HermitianMatrix:
    """Square matrix over Q(i) with entry (j, i) = conj(entry (i, j)), held
    as abds, the rows of the canonical triples of its entries (see
    scalars)."""

    __slots__ = ("abds",)

    def __init__(self, rows):
        """The matrix of rows of canonical triples."""
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix is not square")
        bad = _non_hermitian_at(rows)
        if bad is not None:
            raise ValueError(f"matrix is not hermitian at {bad}")
        self.abds = rows

    @property
    def size(self) -> int:
        return len(self.abds)

    def quadratic_form(self, v) -> Scalar:
        """v* G v for a vector of Scalars, ints or Fractions of the
        matrix's size; zero coordinates are skipped."""
        if len(v) != len(self.abds):
            raise ValueError(f"vector of length {len(v)} for a matrix of "
                             f"size {len(self.abds)}")
        nz = [(i, x) for i, x in enumerate(map(as_abd, v)) if x != ABD_ZERO]
        tot = ABD_ZERO
        for i, (a, b, d) in nz:
            row = self.abds[i]
            for j, y in nz:
                tot = abd_add(tot, abd_mul(abd_mul((a, -b, d), row[j]), y))
        return from_abd(tot)


def _non_hermitian_at(rows):
    """The first (i, j), i <= j, with rows[j][i] != conj(rows[i][j]), read
    on canonical triples."""
    for i, row in enumerate(rows):
        for j in range(i, len(rows)):
            a, b, d = row[j]
            if rows[j][i] != (a, -b, d):
                return (i, j)
    return None


def psd_exact(G: HermitianMatrix):
    """('psd', None) or ('not-psd', witness) with witness* G witness < 0,
    a tuple of Scalars, decided by exact Gaussian elimination.

    Pivots are taken in place, in index order, on the triples of G's upper
    triangle, the only part read.  A positive pivot a at k is inverted
    once and updates, by G[i][j] -= G[i][k] G[k][j] / a, only the rows
    i > k with G[i][k] nonzero, and in them only the columns j >= i where
    row k is nonzero; a zero pivot with a zero row is passed over.  Any
    other pivot k ends the elimination with a witness on the trailing
    block: e_k if it is negative, else e_k + c e_j at the first j with
    G[k][j] nonzero, c = -conj(G[k][j]), divided by G[j][j] where that is
    positive.  Back-substitution through the earlier positive pivots, last
    first, sets each one's coordinate to minus its row's product with the
    later coordinates, over a.
    """
    m = [list(row) for row in G.abds]
    n = len(m)
    pivots = []                       # (k, 1/a) of each positive pivot
    for k, row in enumerate(m):
        a = row[k]
        nz = [(j, row[j]) for j in range(k + 1, n) if row[j] != ABD_ZERO]
        if a[0] > 0:
            inv = abd_inv(a)
            scaled = [(j, abd_mul(x, inv)) for j, x in nz]
            for s, (i, (x, y, d)) in enumerate(nz):
                c, mi = (-x, y, d), m[i]      # -G[i][k] = -conj(G[k][i])
                for j, z in scaled[s:]:
                    mi[j] = abd_add(mi[j], abd_mul(c, z))
            pivots.append((k, inv))
        elif a[0] < 0 or nz:
            break
    else:
        return ("psd", None)
    wit = [ABD_ZERO] * n
    wit[k] = (1, 0, 1)
    if a[0] == 0:
        j, (x, y, d) = nz[0]
        p, _, e = m[j][j]             # the real diagonal entry p/e
        wit[j] = abd_mul((x, -y, d), (-1, 0, 1) if p <= 0 else (-e, 0, p))
    support = [(j, w) for j, w in enumerate(wit) if w != ABD_ZERO]
    for k, inv in reversed(pivots):
        row, tot = m[k], ABD_ZERO
        for j, w in support:
            tot = abd_add(tot, abd_mul(row[j], w))
        if tot != ABD_ZERO:
            x, y, d = abd_mul(tot, inv)
            wit[k] = (-x, -y, d)
            support.append((k, wit[k]))
    return ("not-psd", tuple(map(from_abd, wit)))


# ---------------------------------------------------------------------------
# the positivity checker


class SchoenbergError(ValueError):
    """A hypothesis of the positivity checker failed, on psi, on L or on
    the relations; carries which one."""

    def __init__(self, message: str, hypothesis: str):
        super().__init__(message)
        self.hypothesis = hypothesis


@dataclass
class SchoenbergResult:
    conditional: Report
    states: list
    equivalence_observed: bool

    def ok(self) -> bool:
        return self.conditional.ok() and all(r.ok() for r in self.states)

    def reports(self) -> list:
        return [self.conditional] + list(self.states)


def require_confluence(alg: Algebra) -> None:
    """Raise SchoenbergError, naming an overlap word and its two normal
    forms, unless the relations of alg are confluent: on a non-confluent
    rewrite system a product depends on the order of rewriting."""
    report = check_confluence(alg)
    if not report.ok():
        w = report.witness
        raise SchoenbergError(
            f"relations are not confluent: {w['input']} rewrites to "
            f"{w['lhs']} and to {w['rhs']}", "confluence")


def state_gram(defm: Deformation, psi: Functional, labels) -> list:
    """G(t), the Gram matrix of phi_t = e*^{t psi} on the words, with
    G(t)[a][b] = phi_t(mu_t(a* (x) b)) in Q(i)[t], the sum of
    c phi_t(mu_t(k (x) b)) over the terms c k of a*.  On a
    length-homogeneous algebra the words of mu_t(k (x) b) have the grades
    grade(k) + grade(b) - (p + q), (p, q) in M(L.support), and phi_t
    vanishes off M(psi.support), so a term on (k, b) off
    M(psi.support | sigma.support) is zero without mu_t.  Each entry is
    read once, so nothing is memoized.  The columns a term of grade g can
    reach, the b with g + grade(b) in M, are listed once per g; every
    other entry is zero without a test.  The entries are coefficient
    tuples."""
    alg, M = defm.alg, None
    if alg.homogeneous and None not in (psi.support, defm.sigma.support):
        M = monoid(psi.support | defm.sigma.support,
                   2 * max(map(len, labels), default=0), alg.grade(()))
    grades = [alg.grade(b) for b in labels]
    reach = {}                        # grade of a term of a* -> columns

    def columns(gk):
        cols = reach.get(gk)
        if cols is None:
            cols = reach[gk] = [j for j, gb in enumerate(grades)
                                if M is None or tuple(map(add, gk, gb)) in M]
        return cols

    def row(a):
        sums = {}
        for (k,), c in alg.involution_word(a).terms.items():
            for j in columns(alg.grade(k)):
                v = conv_exp(psi, defm.mu_t_key((k, labels[j])))
                if v:
                    sums[j] = poly_add(sums.get(j, ()), poly_mul(v, c))
        return [sums.get(j, T_ZERO) for j in range(len(labels))]

    return [row(a) for a in labels]


def schoenberg_check(pres: AlgebraPresentation, psi: dict | None = None, *,
                     max_degree: int,
                     t_samples=(Fraction(0), Fraction(1, 2), Fraction(1),
                                Fraction(2))) -> SchoenbergResult:
    """Conditional positivity of psi.mul + L over ker delta, plus the state
    property of the exponential family at each sample point.  The state
    Gram matrix G(t) is built once in Q(i)[t], and each sample evaluates
    its nonzero entries on triples; its t^1 block on ker delta is the
    conditional form, psi(a* b) + L(a* (x) b) being the derivative at
    t = 0 of phi_t(mu_t(a* (x) b)).

    psi is a support table, word -> scalar, or None for the zero
    functional.  The relations must be confluent, and the three hypotheses
    on psi are verified first; a violation raises SchoenbergError.
    """
    if not t_samples:
        raise ValueError("no t sample points given")
    if max_degree < 1:
        raise ValueError(f"max degree must be positive, got {max_degree}")
    alg = Algebra(pres)
    require_confluence(alg)
    psi = table_functional(alg, {(w,): c for w, c in (psi or {}).items()}, 1)
    basis = alg.basis(max_degree)

    # hypothesis gates, in order: hermitian, braiding-invariant, psi(1) = 0
    for w in basis:
        if psi(alg.involution_word(w)) != poly_conj(psi.on_key((w,))):
            raise SchoenbergError(
                f"psi is not hermitian at {pres.word_str(w)}", "hermitian")
    for v in basis:
        if not psi.on_key((v,)):
            continue
        for w in basis:
            if (alg.braid_coeff((w, v)) != T_ONE
                    or alg.braid_coeff((v, w)) != T_ONE):
                raise SchoenbergError(
                    f"psi is not braiding-invariant at {pres.word_str(v)}",
                    "braiding-invariant")
    if psi.on_key(((),)):
        raise SchoenbergError("psi(1) must vanish", "unit")

    # G(t) as its nonzero entries (i, j, coefficient triples)
    defm = Deformation(alg)
    G = [(i, j, p) for i, row in enumerate(state_gram(defm, psi, basis))
         for j, p in enumerate(row) if p]

    # (a) conditional positivity of (psi.mul + L)~ over ker delta, the t^1
    # coefficients of G(t) on the nonempty words (basis is shortlex, so
    # basis[0] is the unit)
    kerdelta = basis[1:]
    rows = _matrix(len(kerdelta), [(i - 1, j - 1, c[1]) for i, j, c in G
                                   if i and j and len(c) > 1])

    def blame(exc):
        # psi passed its hermitian gate, so blame L where its own form is
        # not hermitian at the offending pair
        i, j = _non_hermitian_at(rows)
        a, b = kerdelta[i], kerdelta[j]
        L_form = sesquilinearize(defm.L)
        if L_form.on_key((a, b)) != poly_conj(L_form.on_key((b, a))):
            return SchoenbergError(
                f"the generator L is not hermitian at ({pres.word_str(a)}, "
                f"{pres.word_str(b)})", "generator-hermitian")
        return SchoenbergError(
            f"conditional Gram matrix is not hermitian ({exc})", "hermitian")

    conditional = _psd_report("schoenberg-conditional", rows, alg, kerdelta,
                              max_degree, blame)

    # (b) the state property at each sample of G(t)
    states = []
    for t0 in t_samples:
        r = as_abd(t0)
        states.append(_psd_report(
            "schoenberg-state",
            _matrix(len(basis), [(i, j, poly_eval(c, r)) for i, j, c in G]),
            alg, basis, max_degree,
            lambda exc: SchoenbergError(
                f"state Gram matrix is not hermitian ({exc})", "hermitian"),
            {"t": str(t0)}))

    nonneg = [r for t0, r in zip(t_samples, states) if t0 >= 0]
    equivalence = conditional.ok() == all(r.ok() for r in nonneg)
    return SchoenbergResult(conditional, states, equivalence)


def _matrix(n, cells):
    """The n x n rows of triples that are zero but at the cells (i, j, x)."""
    rows = [[ABD_ZERO] * n for _ in range(n)]
    for i, j, x in cells:
        rows[i][j] = x
    return rows


def _psd_report(cid, rows, alg, labels, max_degree, not_hermitian,
                info=None) -> Report:
    """psd_exact on the hermitian matrix of the rows of triples as a pass
    or fail Report with the details info; a failure adds the witness, as
    an element over the words labels, and the form's value there.  A
    matrix that is not hermitian raises the SchoenbergError
    not_hermitian(exc)."""
    try:
        gram = HermitianMatrix(rows)
    except ValueError as exc:
        raise not_hermitian(exc) from None
    verdict, wit = psd_exact(gram)
    if verdict == "psd":
        return Report(cid, "pass", max_degree, info)
    return Report(cid, "fail", max_degree,
                  {**(info or {}),
                   "witness": alg.format(alg.element(dict(zip(labels, wit)))),
                   "form-value": str(gram.quadratic_form(wit))})


# ---------------------------------------------------------------------------
# the diagonal-braiding obstruction


def q_presentation(q: Scalar) -> AlgebraPresentation:
    """The one-parameter diagonal-braiding presentation at a concrete q,
    with the cocycle that realizes mu_t(x (x) xs - q xs (x) x) = t 1."""
    q = as_scalar(q)
    if not q:
        raise ValueError("q must be nonzero")
    qinv = q.inv()
    return AlgebraPresentation(
        name="q-family",
        generators=("x", "xs"),
        grades=(1, 1),
        star=(1, 0),
        braiding_kind="diagonal",
        braiding_table=((q, q), (qinv, qinv)),
        rules=(Rule(lhs=(1, 0), rhs=(((0, 1), qinv),)),),
        cocycle=(((0,), (1,), Scalar(1)),),
        antipode=((((0,), Scalar(-1)),), (((1,), Scalar(-1)),)),
    )


def qnogo_eval(q):
    """Both sides of the module-map obstruction for the braiding at q:
    (mu_t (x) id).(id (x) b).(b (x) id) versus b.(id (x) mu_t), applied to
    x (x) (x (x) xs - q xs (x) x), formal in t.  They are q^2 t (1 (x) x)
    and t (1 (x) x), equal exactly when q^2 = 1."""
    alg = Algebra(q_presentation(q))
    q = as_scalar(q)
    defm = Deformation(alg)

    expr = Tensor(3, {((0,), (0,), (1,)): 1, ((0,), (1,), (0,)): -q})

    def mu_t(x, y):
        return defm.mu_t_key((x, y))

    lhs = slot_map(braid_at(alg, braid_at(alg, expr, 0, 1, 1), 1, 1, 1),
                   0, 2, mu_t, 1)
    rhs = braid_at(alg, slot_map(expr, 1, 2, mu_t, 1), 0, 1, 1)
    return lhs, rhs
