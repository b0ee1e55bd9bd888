"""Deformed products from convolution exponentials of a generating cocycle.

A generator L (an arity-2 functional) deforms the product of a presented
algebra through

    mu_t = (mul (x) e*^{tL}) . Lambda_2,

with t kept as a formal polynomial variable throughout.  The module also
builds sigma = L . (S (x) id) . comul, an arity-1 Functional that computes
and memoizes its value on each word itself, the deformed antipode
S_t = S * e*^{-t sigma}, and the sesquilinear forms used by the
positivity checks (arity-2 functionals keyed on word pairs).  Everything
evaluates to exact TPoly values, summed as coefficient tuples; the
convolution exponential truncates by the total-degree bound (the k-th
convolution power kills tuples of total degree < k once the functional
vanishes on the unit tuple, which is enforced).

A Functional may record its support, the length tuples where it may be
nonzero, where that support also bounds its convolution powers: the k-th
power then vanishes off the k-fold sums of the support, and e*^{tF} off
the monoid M(S) those sums make up.  Tables (L, psi and the counit among
them) and sigma record one on a length-homogeneous algebra
(Algebra.homogeneous), an empty table on any algebra.  A convolution or a
functional built from a bare function carries None.  Only the supports of
L, sigma and psi are read: conv_exp_key returns zero off M(S) without
building a power, and mu_t visits only the splits of Lambda_2 whose right
pair has its lengths in M(S), or every split where the support is None.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import factorial
from operator import add

from .algebra import Algebra, Tensor, memoized, scalar_map, slot_map
from .braidtensor import comul_word, lambda2_walk, lambda_n_key
from .scalars import (Scalar, TPoly, T_ZERO, as_tpoly, from_abds, poly_add,
                      poly_conj, poly_mul, poly_neg)


# ---------------------------------------------------------------------------
# functionals


class Functional:
    """Linear functional on rank-n tensors, memoized on basis slot-tuples;
    fn maps a basis slot-tuple to its TPoly value.

    support is a frozenset of length tuples (|w_1|, ..., |w_n|) off which
    the functional vanishes on basis slot-tuples, given only where it also
    bounds the convolution powers (see the module docstring); else None.
    """

    __slots__ = ("alg", "arity", "support", "_fn", "memo")

    def __init__(self, alg: Algebra, arity: int, fn,
                 support: frozenset | None = None):
        self.alg = alg
        self.arity = arity
        self.support = support
        self._fn = fn
        self.memo = defaultdict(dict)

    @memoized
    def on_key(self, key) -> TPoly:
        return self._fn(key)

    def __call__(self, u: Tensor) -> TPoly:
        return _extend(self.arity, self.on_key, u)


def _extend(arity: int, fn, u: Tensor) -> TPoly:
    """The linear extension of a basis-key map fn to a rank-arity tensor."""
    if u.rank != arity:
        raise ValueError(
            f"arity mismatch: functional takes rank {arity}, got {u.rank}")
    tot = ()
    for key, c in u.terms.items():
        v = fn(key).abds
        if v:
            tot = poly_add(tot, poly_mul(v, c))
    return from_abds(tot)


def table_functional(alg: Algebra, table: dict, arity: int) -> Functional:
    """Finite-support functional; keys are tuples of normal words.  It
    records its support where that bounds the convolution powers: on a
    length-homogeneous algebra, or for an all-zero table."""
    tab = {}
    for key, val in table.items():
        key = tuple(tuple(w) for w in key)
        if len(key) != arity:
            raise ValueError(f"table key {key!r} does not have arity {arity}")
        val = as_tpoly(val)
        if val:
            tab[key] = val
    support = frozenset(tuple(map(len, k)) for k in tab)
    return Functional(alg, arity, lambda k: tab.get(k, T_ZERO),
                      support=support if alg.homogeneous or not tab else None)


def convolve_fn(F: Functional, G: Functional) -> Functional:
    """Convolution w.r.t. the rank-n comultiplication Lambda_n."""
    if F.alg is not G.alg:
        raise ValueError("functionals live over different algebras")
    if F.arity != G.arity:
        raise ValueError("convolution needs equal arities")
    n = F.arity
    alg = F.alg

    def conv(key):
        tot = ()
        for k2, v in lambda_n_key(alg, key).terms.items():
            a = F.on_key(k2[:n]).abds
            if not a:
                continue
            b = G.on_key(k2[n:]).abds
            if b:
                tot = poly_add(tot, poly_mul(poly_mul(v, a), b))
        return from_abds(tot)

    return Functional(alg, n, conv)


@memoized
def support_monoid(F: Functional, box) -> frozenset:
    """The elements of the monoid M(S) generated by S = F.support (sums of
    any number of its elements, the zero tuple included) that fit in box,
    slot by slot: where a convolution power of F can be nonzero.  Only
    meaningful where F.support is not None."""
    reach = {(0,) * len(box)}
    todo = list(reach)
    while todo:
        p = todo.pop()
        for s in F.support:
            q = tuple(map(add, p, s))
            if q not in reach and all(x <= y for x, y in zip(q, box)):
                reach.add(q)
                todo.append(q)
    return frozenset(reach)


@memoized
def conv_power(F: Functional, k: int) -> Functional:
    """The k-th convolution power of F (k = 0 is the rank-n counit)."""
    if k == 0:
        return table_functional(F.alg, {((),) * F.arity: 1}, F.arity)
    if k == 1:
        return F
    return convolve_fn(F, conv_power(F, k - 1))


@memoized
def conv_exp_key(F: Functional, key) -> TPoly:
    """e*^{tF} on a basis slot-tuple, formal in t; zero off M(F.support)."""
    if F.on_key(((),) * F.arity):
        raise ValueError(
            "convolution exponential requires the functional to vanish on "
            "the unit tuple")
    lengths = tuple(map(len, key))
    if F.support is not None and lengths not in support_monoid(F, lengths):
        return T_ZERO
    d = sum(lengths)
    tot = ()
    for k in range(d + 1):
        pk = conv_power(F, k).on_key(key).abds
        if pk:
            tot = poly_add(tot, poly_mul(
                TPoly.term(Scalar(Fraction(1, factorial(k))), k).abds, pk))
    return from_abds(tot)


def conv_exp(F: Functional, u: Tensor) -> TPoly:
    """e*^{tF}(u), exact in t."""
    return _extend(F.arity, lambda key: conv_exp_key(F, key), u)


# ---------------------------------------------------------------------------
# the deformation context


class Deformation:
    """All structure derived from one generator L over one algebra.

    Values are memoized per basis input with t formal; negative time and
    rational time points come from sign-flipping resp. substituting the
    memoized polynomials, so each basis computation happens once.
    """

    def __init__(self, alg: Algebra, L: Functional | None = None):
        self.alg = alg
        self.L = L if L is not None else table_functional(
            alg, {(l, r): c for l, r, c in alg.pres.cocycle}, 2)
        if self.L.arity != 2:
            raise ValueError("the generator must have arity 2")
        self.memo = defaultdict(dict)
        # sigma = L . (S (x) id) . comul as an arity-1 functional; S keeps
        # lengths where L's support bounds its powers
        S = self.L.support
        self.sigma = Functional(
            alg, 1, lambda key: self.L(slot_map(
                comul_word(alg, key[0]), 0, 1, alg.antipode_word, 1)),
            support=None if S is None else frozenset((p + q,) for p, q in S))

    # -- the deformed product ---------------------------------------------

    @memoized
    def mu_t_key(self, key) -> Tensor:
        """mu_t on a basis pair, formal in t: the splits of Lambda_2 whose
        right pair has its lengths in M(L.support)."""
        lengths = None
        if self.L.support is not None:
            lengths = support_monoid(self.L, (len(key[0]), len(key[1])))
        out = Tensor(1)
        for a1, b1, _, _, v in lambda2_walk(
                self.alg, key, lengths, lambda k: conv_exp_key(self.L, k).abds):
            for (pw,), pc in self.alg.mul_words(a1, b1).terms.items():
                out.add_term((pw,), poly_mul(pc, v))
        return out

    def mu_t(self, u: Tensor) -> Tensor:
        """mu_t of a rank-2 tensor."""
        if u.rank != 2:
            raise ValueError("mu_t consumes rank-2 tensors")
        return slot_map(u, 0, 2, lambda a, b: self.mu_t_key((a, b)), 1)

    # -- the deformed antipode ------------------------------------------------

    @memoized
    def st_word(self, w) -> Tensor:
        """S_t = S * e*^{-t sigma} on a basis word, formal in t."""
        f_neg_t = scalar_map(lambda k: conv_exp_key(self.sigma, k).flip_sign())
        return slot_map(slot_map(comul_word(self.alg, w), 1, 1, f_neg_t, 0),
                        0, 1, self.alg.antipode_word, 1)

    def st(self, u: Tensor) -> Tensor:
        """S_t extended linearly."""
        if u.rank != 1:
            raise ValueError("the deformed antipode acts on rank-1 tensors")
        return slot_map(u, 0, 1, self.st_word, 1)


# ---------------------------------------------------------------------------
# sesquilinear forms


def sesquilinearize(K: Functional) -> Functional:
    """K-tilde with K-tilde(a-bar, b) = K(a* (x) b), keyed on word pairs
    (a, b); it is antilinear in a and linear in b."""
    if K.arity != 2:
        raise ValueError("sesquilinearize takes an arity-2 functional")
    alg = K.alg
    return Functional(alg, 2, lambda key: _extend(
        1, lambda k: K.on_key((k[0], key[1])), alg.involution_word(key[0])))


def conv_sesqui(P: Functional, Q: Functional) -> Functional:
    """Convolution of two sesquilinear forms w.r.t. (id (x) flip (x) id) .
    (conjugated comul (x) comul); the conjugated comultiplication conjugates
    the splitting coefficients."""
    if P.alg is not Q.alg:
        raise ValueError("forms live over different algebras")
    alg = P.alg

    def fn(key):
        tot = ()
        for (a0, a1), va in comul_word(alg, key[0]).terms.items():
            vac = poly_conj(va)
            for (b0, b1), vb in comul_word(alg, key[1]).terms.items():
                p = P.on_key((a0, b0)).abds
                if not p:
                    continue
                q = Q.on_key((a1, b1)).abds
                if q:
                    tot = poly_add(tot, poly_mul(
                        poly_mul(poly_mul(vac, vb), p), q))
        return from_abds(tot)

    return Functional(alg, 2, fn)


# ---------------------------------------------------------------------------
# the coboundary


def cocycle_defect(L: Functional, a, b, c) -> TPoly:
    """The coboundary (delta (x) L) - L.(mul (x) id) + L.(id (x) mul)
    - (L (x) delta) evaluated at the basis words a (x) b (x) c."""
    alg = L.alg
    tot = L.on_key((b, c)).abds if a == () else ()
    for (mw,), mc in alg.mul_words(a, b).terms.items():
        v = L.on_key((mw, c)).abds
        if v:
            tot = poly_add(tot, poly_neg(poly_mul(mc, v)))
    for (mw,), mc in alg.mul_words(b, c).terms.items():
        v = L.on_key((a, mw)).abds
        if v:
            tot = poly_add(tot, poly_mul(mc, v))
    if c == ():
        tot = poly_add(tot, poly_neg(L.on_key((a, b)).abds))
    return from_abds(tot)
