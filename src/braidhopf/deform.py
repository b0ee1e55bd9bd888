"""Deformed products from convolution exponentials of a generating cocycle.

A generator L (an arity-2 functional) deforms the product of a presented
algebra through

    mu_t = (mul (x) e*^{tL}) . Lambda_2,

with t kept as a formal polynomial variable throughout.  The module also
builds sigma = L . (S (x) id) . comul, an arity-1 Functional that computes
and memoizes its value on each word itself, the deformed antipode
S_t = S * e*^{-t sigma}, and the sesquilinear forms used by the
positivity checks (arity-2 functionals keyed on word pairs).  Every
functional value is an exact coefficient tuple in t (see scalars).  The
convolution exponential E = e*^{tF} is the one solution of the generator
equation dE/dt = F * E with E = counit at t = 0: on each key it is the
counit plus the integral of (F * E)(key), memoized key by key.  F must
vanish on the unit tuple (this is enforced), so every split read has a
right part with fewer letters than the key, and the recursion ends.  The
k-th convolution power is memoized key by key too: conv_power(F, (k, key))
is a coefficient tuple in F's table, and no memoized value reads F back.

A Functional may record its support S, the grade tuples where it may be
nonzero, where S also bounds its convolution powers: the k-th power then
vanishes off the k-fold sums of S, and e*^{tF} off the monoid M(S) those
sums make up.  The grade of a slot-tuple is the grades (Algebra.grade) of
its words concatenated: their letter counts where the relations and the
antipode keep them, else their lengths.  Tables (L and psi among them) and
sigma record one on a length-homogeneous algebra (Algebra.homogeneous), an
empty table on any algebra.  A convolution or a functional built from a
bare function carries None.  Every convolution reads the support of its
left factor and walks only the splits whose left part has its grades in S;
conv_exp_key returns zero off M(S) without a convolution, and mu_t visits
only the splits of Lambda_2 whose right pair has its grades in M(S).
Where the support is None each walks every split.
"""

from __future__ import annotations

from collections import defaultdict
from operator import add, sub

from .algebra import Algebra, Tensor, memoized, scalar_map, slot_map
from .braidtensor import comul_buckets, comul_word, lambda2_walk
from .presentation import is_normal_word
from .scalars import (T_ONE, as_poly, poly_add, poly_conj, poly_flip,
                      poly_integrate, poly_mul, poly_neg)


# ---------------------------------------------------------------------------
# functionals


class Functional:
    """Linear functional on rank-n tensors, memoized on basis slot-tuples;
    fn maps a basis slot-tuple to its value, a coefficient tuple.

    support is a frozenset of grade tuples, grade(w_1) + ... + grade(w_n)
    concatenated (Algebra.grade), off which the functional vanishes on
    basis slot-tuples, given only where it also bounds the convolution
    powers (see the module docstring); else None.
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
    def on_key(self, key) -> tuple:
        return self._fn(key)

    def __call__(self, u: Tensor) -> tuple:
        return _extend(self.arity, self.on_key, u)


def _extend(arity: int, fn, u: Tensor) -> tuple:
    """The linear extension of a basis-key map fn to a rank-arity tensor."""
    if u.rank != arity:
        raise ValueError(
            f"arity mismatch: functional takes rank {arity}, got {u.rank}")
    tot = ()
    for key, c in u.terms.items():
        v = fn(key)
        if v:
            tot = poly_add(tot, poly_mul(v, c))
    return tot


def table_functional(alg: Algebra, table: dict, arity: int) -> Functional:
    """Finite-support functional; keys are tuples of normal words, and any
    other key is refused.  It records the grades of its keys as its support
    where that bounds the convolution powers: on a length-homogeneous
    algebra, or for an all-zero table."""
    n, rules = len(alg.pres.generators), alg.pres.rules
    tab = {}
    for key, val in table.items():
        key = tuple(tuple(w) for w in key)
        if len(key) != arity:
            raise ValueError(f"table key {key!r} does not have arity {arity}")
        if not all(is_normal_word(w, n, rules) for w in key):
            raise ValueError(f"table key {key!r} is not a tuple of normal "
                             "words")
        val = as_poly(val)
        if val:
            tab[key] = val
    support = frozenset(sum(map(alg.grade, k), ()) for k in tab)
    return Functional(alg, arity, lambda k: tab.get(k, ()),
                      support=support if alg.homogeneous or not tab else None)


def _conv_key(F: Functional, g, key):
    """(F * g)(key) as a coefficient tuple, w.r.t. comul (arity 1) or
    Lambda_2 (arity 2), over the splits whose left part has its grades in
    F.support (every split where that is None); g maps a basis slot-tuple
    to its coefficient tuple and is evaluated only where F is nonzero."""
    alg, S = F.alg, F.support
    rights = None
    if S is not None:
        # the splits with right grades grade(key) - s, s in S; no bucket
        # has a negative grade
        kg = sum(map(alg.grade, key), ())
        rights = [tuple(map(sub, kg, s)) for s in S]
    if len(key) == 2:
        if rights is not None:
            rights = _split_pairs(rights, len(kg) // 2)
        splits = (((a1, b1), (a2, b2), v) for a1, b1, a2, b2, v
                  in lambda2_walk(alg, key, rights))
    else:
        buckets = comul_buckets(alg, key[0])
        splits = (((left,), (right,), v) for r in (
                      buckets if rights is None else rights)
                  for left, right, v in buckets.get(r, ()))
    tot = ()
    for left, right, v in splits:
        a = F.on_key(left)
        if not a:
            continue
        b = g(right)
        if b:
            tot = poly_add(tot, poly_mul(poly_mul(v, a), b))
    return tot


def convolve_fn(F: Functional, G: Functional) -> Functional:
    """Convolution w.r.t. comul (arity 1) or Lambda_2 (arity 2), over the
    splits whose left part has its grades in F.support (every split where
    that is None); F is evaluated before G."""
    if F.alg is not G.alg:
        raise ValueError("functionals live over different algebras")
    if F.arity != G.arity:
        raise ValueError("convolution needs equal arities")
    if F.arity not in (1, 2):
        raise ValueError("convolution takes arity 1 or 2")
    return Functional(F.alg, F.arity, lambda key: _conv_key(F, G.on_key, key))


def _split_pairs(grades, h: int) -> dict:
    """Flat tuples of two slot grades, h coordinates each, as a map from
    the first grade to the list of second ones: the form lambda2_walk
    reads."""
    out = {}
    for r in grades:
        out.setdefault(r[:h], []).append(r[h:])
    return out


def monoid(S, n: int, zero: tuple) -> frozenset:
    """The elements of the monoid M(S) generated by S, a support (the sums
    of any number of its elements, zero the empty sum), whose coordinates
    add up to at most n: where a convolution power of a functional with
    support S can be nonzero on a key of n letters."""
    todo = [zero]
    reach = set(todo)
    for p in todo:
        for s in S:
            q = tuple(map(add, p, s))
            if q not in reach and sum(q) <= n:
                reach.add(q)
                todo.append(q)
    return frozenset(reach)


@memoized
def support_monoid(F: Functional, n: int) -> frozenset:
    """monoid(F.support, n), memoized on F.  Only meaningful where
    F.support is not None."""
    return monoid(F.support, n, sum(map(F.alg.grade, ((),) * F.arity), ()))


@memoized
def conv_power(F: Functional, power) -> tuple:
    """F^{*k} on a basis slot-tuple, power = (k, key), as a coefficient
    tuple: the rank-n counit for k = 0, F itself for k = 1."""
    k, key = power
    if k == 0:
        return T_ONE if key == ((),) * F.arity else ()
    if k == 1:
        return F.on_key(key)
    if F.arity not in (1, 2):
        raise ValueError("convolution takes arity 1 or 2")
    return _conv_key(F, lambda r: conv_power(F, (k - 1, r)), key)


@memoized
def conv_exp_key(F: Functional, key) -> tuple:
    """e*^{tF} on a basis slot-tuple, formal in t: the solution E of
    dE/dt = F * E with E = counit at t = 0, so E(key) is the counit plus
    the integral from 0 to t of (F * E)(key); zero off M(F.support)."""
    if F.arity not in (1, 2):
        raise ValueError("convolution takes arity 1 or 2")
    unit = ((),) * F.arity
    if F.on_key(unit):
        raise ValueError(
            "convolution exponential requires the functional to vanish on "
            "the unit tuple")
    if key == unit:
        return T_ONE
    if F.support is not None and sum(map(F.alg.grade, key), ()) not in (
            support_monoid(F, sum(map(len, key)))):
        return ()
    # F vanishes on the unit tuple, so every split read has a right part
    # with fewer letters than key: the recursion ends
    return poly_integrate(_conv_key(F, lambda k: conv_exp_key(F, k), key))


def conv_exp(F: Functional, u: Tensor) -> tuple:
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
        # grades where L's support bounds its powers, so sigma's support is
        # {p + q} over L's (p, q).  Its body reads L, not self, so that no
        # reference cycle runs through self.
        L, S = self.L, self.L.support
        self.sigma = Functional(
            alg, 1, lambda key: L(slot_map(
                comul_word(alg, key[0]), 0, 1, alg.antipode_word, 1)),
            support=None if S is None else frozenset(
                tuple(map(add, s[:len(s) // 2], s[len(s) // 2:])) for s in S))

    # -- the deformed product ---------------------------------------------

    @memoized
    def mu_t_key(self, key) -> Tensor:
        """mu_t on a basis pair, formal in t: the splits of Lambda_2 whose
        right pair has its grades in M(L.support)."""
        alg = self.alg
        rights = None
        if self.L.support is not None:
            rights = self._right_grades(len(key[0]) + len(key[1]))
        out = Tensor(1)
        for a1, b1, a2, b2, v in lambda2_walk(alg, key, rights):
            e = conv_exp_key(self.L, (a2, b2))
            if e:
                v = poly_mul(v, e)
                for (pw,), pc in alg.mul_words(a1, b1).terms.items():
                    out.add_term((pw,), poly_mul(pc, v))
        return out

    @memoized
    def _right_grades(self, n: int) -> dict:
        """The elements of M(L.support) with at most n letters, as the
        pairs of grades that lambda2_walk reads."""
        return _split_pairs(support_monoid(self.L, n),
                           len(self.alg.grade(())))

    def mu_t(self, u: Tensor) -> Tensor:
        """mu_t of a rank-2 tensor."""
        if u.rank != 2:
            raise ValueError("mu_t consumes rank-2 tensors")
        return slot_map(u, 0, 2, lambda a, b: self.mu_t_key((a, b)), 1)

    # -- the deformed antipode ------------------------------------------------

    @memoized
    def st_word(self, w) -> Tensor:
        """S_t = S * e*^{-t sigma} on a basis word, formal in t."""
        f_neg_t = scalar_map(lambda k: poly_flip(conv_exp_key(self.sigma, k)))
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
                p = P.on_key((a0, b0))
                if not p:
                    continue
                q = Q.on_key((a1, b1))
                if q:
                    tot = poly_add(tot, poly_mul(
                        poly_mul(poly_mul(vac, vb), p), q))
        return tot

    return Functional(alg, 2, fn)


# ---------------------------------------------------------------------------
# the coboundary


def cocycle_defect(L: Functional, a, b, c) -> tuple:
    """The coboundary (delta (x) L) - L.(mul (x) id) + L.(id (x) mul)
    - (L (x) delta) evaluated at the basis words a (x) b (x) c."""
    alg = L.alg
    tot = L.on_key((b, c)) if a == () else ()
    for (mw,), mc in alg.mul_words(a, b).terms.items():
        v = L.on_key((mw, c))
        if v:
            tot = poly_add(tot, poly_neg(poly_mul(mc, v)))
    for (mw,), mc in alg.mul_words(b, c).terms.items():
        v = L.on_key((a, mw))
        if v:
            tot = poly_add(tot, poly_mul(mc, v))
    if c == ():
        tot = poly_add(tot, poly_neg(L.on_key((a, b))))
    return tot
