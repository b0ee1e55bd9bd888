"""Independent reference implementations the suite checks the engine
against.  Everything here is deliberately written the slow, obvious way,
composing primitives differently from the library paths under test."""

from dataclasses import replace
from fractions import Fraction
from math import comb, factorial

from braidhopf.algebra import Algebra, Tensor, slot_map, tensor_product
from braidhopf.braidtensor import (braid_at, comul, comul_word,
                                   lambda_n_key)
from braidhopf.deform import conv_exp_key
from braidhopf.presentation import Report
from braidhopf.scalars import (Scalar, TPoly, T_ONE, T_ZERO, as_abd,
                               as_poly, from_abd, poly_add, poly_conj,
                               poly_eval, poly_flip, poly_mul, poly_str)
from braidhopf.verify import HermitianMatrix


# -- Gaussian rationals as Fraction pairs -----------------------------------
#
# The coefficient arithmetic as it was before the int-triple kernel: a pair
# of reduced Fractions per scalar and a tuple of such scalars per polynomial.


class RefScalar:
    """a + b*i with a and b Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return RefScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return RefScalar(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return RefScalar(self.re * other.re - self.im * other.im,
                         self.re * other.im + self.im * other.re)

    def __neg__(self):
        return RefScalar(-self.re, -self.im)

    def conj(self):
        return RefScalar(self.re, -self.im)

    def inv(self):
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero scalar")
        return RefScalar(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * other.inv()

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __str__(self):
        if not self:
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            if self.im == 1:
                im = "i"
            elif self.im == -1:
                im = "-i"
            else:
                im = f"{self.im} i"
            if parts:
                if self.im > 0:
                    parts.append(f"+ {im}")
                else:
                    parts.append(f"- {im.lstrip('-')}")
            else:
                parts.append(im)
        return " ".join(parts)


class RefTPoly:
    """Polynomial in t over RefScalar, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        self.coeffs = coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        pad = (RefScalar(),) * n
        return RefTPoly(x + y for x, y in zip((a + pad)[:n], (b + pad)[:n]))

    def __neg__(self):
        return RefTPoly(-c for c in self.coeffs)

    def conj(self):
        return RefTPoly(c.conj() for c in self.coeffs)

    def flip(self):
        """t -> -t."""
        return RefTPoly(-c if k % 2 else c for k, c in enumerate(self.coeffs))

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RefTPoly()
        out = [RefScalar()] * (len(a) + len(b) - 1)
        for j, cj in enumerate(a):
            for k, ck in enumerate(b):
                out[j + k] = out[j + k] + cj * ck
        return RefTPoly(out)

    def eval(self, r):
        acc = RefScalar()
        for c in reversed(self.coeffs):
            acc = acc * r + c
        return acc

    def shift(self, j):
        return RefTPoly(c * RefScalar(comb(i + j, j))
                        for i, c in enumerate(self.coeffs[j:]))

    def integrate(self):
        """The antiderivative vanishing at t = 0."""
        return RefTPoly([RefScalar()] + [c / RefScalar(k) for k, c in
                                         enumerate(self.coeffs, 1)])


# -- coefficient tuples ------------------------------------------------------


def mul(*factors):
    """The product of coefficient tuples, Scalars, ints and TPolys, as a
    coefficient tuple."""
    out = T_ONE
    for f in factors:
        out = poly_mul(out, as_poly(f))
    return out


def exp_term(n, v):
    """t^n / n! times the coefficient tuple v."""
    return mul(TPoly((0,) * n + (Fraction(1, factorial(n)),)), v)


# -- exhaustive rewriting ---------------------------------------------------
#
# A state is a whole linear combination; one step rewrites one redex in one
# word of the support.  The rewrite system is unambiguous iff from every
# start the set of reachable irreducible combinations is a single point.


def rule_map(pres):
    return {r.lhs: r.rhs for r in pres.rules}


def one_steps(combo, rules):
    out = []
    for w, c in combo.items():
        for pos in range(len(w) - 1):
            rhs = rules.get((w[pos], w[pos + 1]))
            if rhs is None:
                continue
            nxt = dict(combo)
            nxt[w] = nxt[w] + -c
            if not nxt[w]:
                del nxt[w]
            for rw, rc in rhs:
                nw = w[:pos] + rw + w[pos + 2:]
                nxt[nw] = nxt.get(nw, Scalar(0)) + c * rc
                if not nxt[nw]:
                    del nxt[nw]
            out.append(nxt)
    return out


def exhaustive_normal_forms(word, pres):
    """Frozen set of every irreducible combination reachable from word."""
    rules = rule_map(pres)
    seen = set()
    finals = set()
    stack = [{word: Scalar(1)}]
    while stack:
        combo = stack.pop()
        key = tuple(sorted(combo.items()))
        if key in seen:
            continue
        seen.add(key)
        steps = one_steps(combo, rules)
        if not steps:
            finals.add(key)
        else:
            stack.extend(steps)
    return finals


def all_words(n_gens, length):
    if length == 0:
        return [()]
    shorter = all_words(n_gens, length - 1)
    return [w + (g,) for w in shorter for g in range(n_gens)]


def words_up_to(n_gens, length):
    out = []
    for n in range(length + 1):
        out.extend(all_words(n_gens, n))
    return out


# -- braiding coefficients by closed form -----------------------------------


def sign_braid_coeff(grades, u, v):
    gu = sum(grades[k] for k in u)
    gv = sum(grades[k] for k in v)
    return Scalar(-1) if (gu * gv) % 2 else Scalar(1)


def diagonal_braid_coeff(table, u, v):
    c = Scalar(1)
    for a in u:
        for b in v:
            c = c * table[a][b]
    return c


def closed_form_braid_coeff(pres, u, v):
    """The crossing coefficient of u over v by the closed form of the
    presentation's braiding kind."""
    if pres.braiding_kind == "graded-sign":
        return sign_braid_coeff(pres.grades, u, v)
    return diagonal_braid_coeff(pres.braiding_table, u, v)


def braid_key(pres, key, m, n):
    """b_{m,n} on the first m+n slots of a slot-tuple, composed crossing by
    crossing from the two-slot braiding:

        b_{0,n} = b_{n,0} = id
        b_{1,n+1} = (id (x) b_{1,n}) . (b (x) id)
        b_{m+1,n} = (b_{m,n} (x) id) . (id^m (x) b_{1,n})

    Returns (coefficient, rearranged tuple of the first m+n slots)."""
    if m == 0 or n == 0:
        return Scalar(1), key[:m + n]
    if m == 1:
        c = closed_form_braid_coeff(pres, key[0], key[1])
        c2, tail = braid_key(pres, (key[0],) + key[2:], 1, n - 1)
        return c * c2, (key[1],) + tail
    head, rest = key[:m - 1], key[m - 1:]
    c1, rest = braid_key(pres, rest, 1, n)
    c2, moved = braid_key(pres, head + rest[:n], m - 1, n)
    return c1 * c2, moved + rest[n:]


# -- naive convolution ------------------------------------------------------
#
# Convolution powers of an arity-2 functional assembled directly from the
# split Lambda_2 = (id (x) braid (x) id).(comul (x) comul), braided by the
# closed-form coefficient rather than the engine's, with the power
# recursion and the exponential series summed term by term.  No caching,
# no truncation cleverness beyond the series cutoff handed in.


def lambda2_splits(alg, a, b):
    out = []
    for (a1, a2), ca in comul_word(alg, a).terms.items():
        for (b1, b2), cb in comul_word(alg, b).terms.items():
            out.append(((a1, b1, a2, b2),
                        mul(ca, cb, closed_form_braid_coeff(alg.pres, a2, b1))))
    return out


def naive_conv2(alg, F, G):
    def h(a, b):
        tot = ()
        for (a1, b1, a2, b2), c in lambda2_splits(alg, a, b):
            tot = poly_add(tot, mul(c, F(a1, b1), G(a2, b2)))
        return tot
    return h


def naive_power2(alg, F, k):
    def delta2(a, b):
        return T_ONE if (a, b) == ((), ()) else T_ZERO
    out = delta2
    for _ in range(k):
        out = naive_conv2(alg, F, out)
    return out


def naive_exp2(alg, F, a, b, cutoff):
    tot = ()
    for n in range(cutoff + 1):
        v = naive_power2(alg, F, n)(a, b)
        if v:
            tot = poly_add(tot, exp_term(n, v))
    return tot


# -- the deformed product over every split -----------------------------------
#
# Convolutions, mu_t, e*^{tF} and the state Gram matrix as they were before
# support pruning: every split of the full Lambda_n is walked, whatever the
# lengths of its factors, and every convolution power up to the total
# length is summed split by split.  Rank-2 splits come from lambda2_splits
# above, not from the engine's Lambda_2 walk.  powers is a plain dict the
# caller may share between calls on one functional.


def splits(alg, key):
    """(slot-tuple, coefficient) for every term of Lambda_n on key."""
    if len(key) == 2:
        return lambda2_splits(alg, *key)
    return lambda_n_key(alg, key).terms.items()


def unpruned_convolve(alg, f, g, key):
    """(f * g)(key) over every split of Lambda_n; f and g map basis
    slot-tuples to coefficient tuples."""
    n = len(key)
    tot = ()
    for k2, v in splits(alg, key):
        a = f(k2[:n])
        if a:
            b = g(k2[n:])
            if b:
                tot = poly_add(tot, mul(v, a, b))
    return tot


def unpruned_conv_power(F, k, key, powers):
    """F^{*k} on a basis slot-tuple, F^{*0} being the counit."""
    n = len(key)
    if k == 0:
        return T_ONE if key == ((),) * n else T_ZERO
    if (k, key) not in powers:
        powers[(k, key)] = unpruned_convolve(
            F.alg, F.on_key,
            lambda k2: unpruned_conv_power(F, k - 1, k2, powers), key)
    return powers[(k, key)]


def unpruned_conv_exp_key(F, key, powers):
    tot = ()
    for k in range(sum(len(w) for w in key) + 1):
        v = unpruned_conv_power(F, k, key, powers)
        if v:
            tot = poly_add(tot, exp_term(k, v))
    return tot


def unpruned_mu_t_key(L, key, powers):
    """mu_t = (mul (x) e*^{tL}) . Lambda_2 on a basis pair."""
    alg = L.alg
    out = Tensor(1)
    for k2, v in lambda2_splits(alg, *key):
        e = unpruned_conv_exp_key(L, k2[2:], powers)
        if e:
            for (pw,), pc in alg.mul_words(k2[0], k2[1]).terms.items():
                out.add_term((pw,), mul(pc, v, e))
    return out


def unpruned_state_gram(L, psi, labels):
    """phi_t(mu_t(a* (x) b)) in Q(i)[t] for the words a, b of labels, with
    phi_t = e*^{t psi} and mu_t deformed by L, over every split."""
    alg = L.alg
    L_powers, psi_powers = {}, {}

    def entry(a, b):
        tot = ()
        for (w,), c in alg.involution_word(a).terms.items():
            for (p,), pc in unpruned_mu_t_key(L, (w, b),
                                              L_powers).terms.items():
                e = unpruned_conv_exp_key(psi, (p,), psi_powers)
                if e:
                    tot = poly_add(tot, mul(c, pc, e))
        return tot

    return [[entry(a, b) for b in labels] for a in labels]


def unpruned_conditional_gram(L, psi, labels):
    """psi(a* b) + L(a* (x) b) in Q(i)[t] for the words a, b of labels,
    with psi read on every word of every product."""
    alg = L.alg

    def entry(a, b):
        tot = ()
        for (w,), c in alg.involution_word(a).terms.items():
            tot = poly_add(tot, mul(c, L.on_key((w, b))))
            for (p,), pc in alg.mul_words(w, b).terms.items():
                tot = poly_add(tot, mul(c, pc, psi.on_key((p,))))
        return tot

    return [[entry(a, b) for b in labels] for a in labels]


# -- the ideal checks in the rule-free twin ----------------------------------
#
# quotient-compat as it was computed before it ran on the quotient itself:
# lhs - rhs is expanded in the free algebra on the same alphabet and
# braiding, and every slot of each image is normal-formed afterwards.


def twin_quotient_compat(alg, max_degree):
    """The quotient-compat Report of alg, with the comultiplication and
    the antipode of each relation taken in the rule-free twin."""
    pres = alg.pres
    free = Algebra(replace(pres, rules=()))

    def nf_slots(tensor):
        for i in range(tensor.rank):
            tensor = slot_map(tensor, i, 1, alg.normal_form_word, 1)
        return tensor

    def defect(subcheck, rhs, where):
        return Report("quotient-compat", "fail", max_degree, {
            "input": where, "subcheck": subcheck, "lhs": "0", "rhs": rhs})

    for rule in pres.rules:
        rel = free.element({rule.lhs: Scalar(1)})
        for w, coeff in rule.rhs:
            rel = rel + free.element({w: -coeff})
        where = pres.word_str(rule.lhs)

        eps = rel.coefficient(((),))
        if eps:
            return defect("b", poly_str(eps), where)
        out = nf_slots(comul(free, rel))
        if out.terms:
            return defect("a", alg.format(out), where)
        for m in alg.basis(max_degree):
            m1 = Tensor.basis((m,))
            for u in (tensor_product(m1, rel), tensor_product(rel, m1)):
                out = nf_slots(braid_at(alg, u, 0, 1, 1))
                if out.terms:
                    return defect("c", alg.format(out),
                                  f"{pres.word_str(m)} across {where}")
        out = nf_slots(free.antipode(rel))
        if out.terms:
            return defect("d", alg.format(out), where)
    return Report("quotient-compat", "pass", max_degree)


# -- negative time word by word ---------------------------------------------
#
# S_{-t} extended linearly as the engine did before it flipped whole
# tensors: each word's S_t with t -> -t in its values, times the word's
# coefficient.


def neg_time_st(defm, u):
    """sum of c flip(S_t(w)) over the terms c w of u."""
    out = Tensor(1)
    for (w,), c in u.terms.items():
        for key, v in defm.st_word(w).terms.items():
            out.add_term(key, mul(c, poly_flip(v)))
    return out


# -- sigma one split at a time ----------------------------------------------
#
# sigma = L . (S (x) id) . comul on a basis word as a hand loop over the
# splits of the comultiplication and the antipode of each left factor, with
# no linear extension through tensors.


def hand_sigma_word(L, w):
    alg = L.alg
    tot = ()
    for (k0, k1), v in comul_word(alg, w).terms.items():
        for (sk,), sc in alg.antipode_word(k0).terms.items():
            lv = L.on_key((sk, k1))
            if lv:
                tot = poly_add(tot, mul(v, sc, lv))
    return tot


# -- the conjugation paths, one term at a time ------------------------------
#
# The convolution of two sesquilinear forms and the involution of the tensor
# square as sums over basis terms in coefficient tuples, braided by the
# closed-form coefficient.  The bundled fixtures have real coefficients, so
# these matter only on presentations with non-real ones.


def hand_conv_sesqui(P, Q, a, b):
    """sum of conj(v') v'' P(a', b') Q(a'', b'') over the terms
    v' a' (x) a'' of comul(a) and v'' b' (x) b'' of comul(b)."""
    tot = ()
    for (a1, a2), va in comul_word(P.alg, a).terms.items():
        for (b1, b2), vb in comul_word(P.alg, b).terms.items():
            tot = poly_add(tot, mul(poly_conj(va), vb, P.on_key((a1, b1)),
                                    Q.on_key((a2, b2))))
    return tot


def hand_star_tensor(alg, u):
    """braid . (* (x) *) . swap on a rank-2 tensor: m (x) n goes to
    n* (x) m*, then each term a (x) b of it to c(a, b) b (x) a."""
    out = Tensor(2)
    for (m, n), c in u.terms.items():
        for (a,), ca in alg.involution_word(n).terms.items():
            for (b,), cb in alg.involution_word(m).terms.items():
                k = closed_form_braid_coeff(alg.pres, a, b)
                out.add_term((b, a), mul(poly_conj(c), ca, cb, k))
    return out


# -- the state Gram matrix, one sample point at a time ----------------------
#
# mu_t is evaluated at t0 first and phi_t0 = e*^{t0 psi} is then applied word
# by word, in scalars, instead of building the Gram matrix in Q(i)[t] and
# evaluating it afterwards.


def state_gram_at(defm, psi, labels, t0):
    """phi_t0(mu_t0(a* (x) b)) for the words a, b of labels."""
    alg = defm.alg
    phi_vals = {}

    def phi(word):
        if word not in phi_vals:
            phi_vals[word] = from_abd(poly_eval(conv_exp_key(psi, (word,)),
                                                as_abd(t0)))
        return phi_vals[word]

    rows = []
    for a in labels:
        istar = alg.involution_word(a)
        row = []
        for b in labels:
            tot = Scalar(0)
            for (iw,), ic in istar.terms.items():
                prod = defm.mu_t_key((iw, b)).substitute(t0)
                # both coefficients are nonzero constants
                for (pw,), pc in prod.terms.items():
                    tot = tot + from_abd(ic[0]) * from_abd(pc[0]) * phi(pw)
            row.append(tot)
        rows.append(row)
    return rows


# -- positive semidefiniteness by principal minors --------------------------


def hermitian(rows):
    """The HermitianMatrix of rows of Scalars, ints or Fractions."""
    return HermitianMatrix([list(map(as_abd, row)) for row in rows])


def det(m):
    n = len(m)
    if n == 0:
        return Scalar(1)
    if n == 1:
        return m[0][0]
    tot = Scalar(0)
    sign = Scalar(1)
    for j in range(n):
        if m[0][j]:
            sub = [[row[k] for k in range(n) if k != j] for row in m[1:]]
            tot = tot + sign * m[0][j] * det(sub)
        sign = -sign
    return tot


def psd_by_minors(entries):
    """Hermitian matrix is PSD iff every principal minor is >= 0."""
    n = len(entries)
    for mask in range(1, 1 << n):
        idx = [k for k in range(n) if mask >> k & 1]
        sub = [[entries[i][j] for j in idx] for i in idx]
        d = det(sub)
        assert not d.im, "principal minor of a hermitian matrix must be real"
        if d.re < 0:
            return False
    return True


# -- positive semidefiniteness by recursive pivoting -------------------------
#
# psd_exact as it was before it pivoted in place on triples: one recursion
# level per pivot, each building the Schur complement of its pivot as a new
# matrix of Scalars, and the witness extended on the way back up.


def recursive_psd(m):
    """('psd', None) or ('not-psd', witness) for the hermitian matrix m,
    rows of Scalars."""
    n = len(m)
    if n == 0:
        return ("psd", None)
    a = m[0][0]
    zero, one = Scalar(0), Scalar(1)
    if a.re < 0:
        return ("not-psd", (one,) + (zero,) * (n - 1))
    if not a:
        j = next((k for k in range(1, n) if m[0][k]), None)
        if j is None:
            verdict, wit = recursive_psd([row[1:] for row in m[1:]])
            if wit is None:
                return (verdict, None)
            return ("not-psd", (zero,) + wit)
        d = m[j][j].re
        wit = [zero] * n
        wit[0] = one
        wit[j] = m[0][j].conj() * Scalar(-1 if d <= 0 else -1 / d)
        return ("not-psd", tuple(wit))
    inv = a.inv()
    pivot_row = [x * inv for x in m[0][1:]]
    sub = [[x + -(row[0] * y) for x, y in zip(row[1:], pivot_row)]
           for row in m[1:]]
    verdict, wit = recursive_psd(sub)
    if wit is None:
        return ("psd", None)
    r_dot_y = zero
    for k, yk in enumerate(wit):
        r_dot_y = r_dot_y + m[0][k + 1] * yk
    return ("not-psd", (-(r_dot_y * inv),) + wit)
