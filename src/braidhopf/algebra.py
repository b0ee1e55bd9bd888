"""Quotient algebra arithmetic over a presentation.

Monomials are index words (tuples of generator indices); a word is normal
when no adjacent pair matches a rule left side, and the normal words form
the linear basis of the quotient.  Tensor holds a finite linear
combination of slot-tuples of words over Q(i)[t]; rank 1 plays the role of
an algebra element, rank 0 of a bare coefficient.

A Tensor coefficient is a coefficient tuple (see scalars), combined by the
scalars.poly_* kernel here, in braidtensor, deform and the check bodies of
verify: most products there multiply by exactly 1, so a wrapper per
operation costs more than the arithmetic.  Tensor.scale takes such a
tuple, and Tensor.coefficient and Algebra.braid_coeff give one.
Tensor(rank, terms) and the relations take numbers through
scalars.as_poly; a coefficient becomes text only in Algebra.format.

Algebra bundles a presentation with memoized normal forms, word
products, involutions, antipodes and braiding coefficients; the product of
elements is braidtensor.braided_product at rank 1.

Three helpers serve every layer above: slot_map applies a word map to a
run of slots, linearly; scalar_map turns a map from word tuples to
coefficient tuples into a word map into rank-0 tensors; memoized keeps an
owner's per-basis-input caches (an algebra, a functional, a deformation)
in its one memo table.
Maps run once per word or element go through slot_map.  The per-input
loops of the checks (braided_product, conv_sesqui, cocycle_defect,
convolve_fn, mu_t_key) stay written out:
through slot_map's intermediate tensors a catalog run measured about 5 %
slower, and cocycle_defect alone four to five times slower.
"""

from __future__ import annotations

from collections import defaultdict
from functools import wraps

from .presentation import AlgebraPresentation, parse_element_terms
from .scalars import (T_MINUS_ONE, T_ONE, abd_mul, as_abd, as_poly, poly_add,
                      poly_conj, poly_eval, poly_mul, poly_part, poly_str,
                      signed_sum)


class Tensor:
    """Rank-n tensor: dict mapping n-tuples of words to coefficient tuples.

    Zero coefficients are dropped on the fly, so equal tensors compare
    equal as dicts.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        self.rank = rank
        self.terms = {}
        if terms:
            for key, c in terms.items():
                self.add_term(key, as_poly(c))

    @classmethod
    def basis(cls, key) -> "Tensor":
        t = cls(len(key))
        t.terms[key] = T_ONE
        return t

    def add_term(self, key, abds):
        if not abds:
            return
        cur = self.terms.get(key)
        if cur is None:
            self.terms[key] = abds
        else:
            s = poly_add(cur, abds)
            if s:
                self.terms[key] = s
            else:
                del self.terms[key]

    def __add__(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch in tensor sum")
        out = Tensor(self.rank)
        out.terms = dict(self.terms)
        for key, c in other.terms.items():
            out.add_term(key, c)
        return out

    def scale(self, c) -> "Tensor":
        """Multiply every coefficient by the coefficient tuple c."""
        return self.map_coeffs(lambda v: poly_mul(v, c))

    def substitute(self, r) -> "Tensor":
        """Evaluate every coefficient at the rational point r, each value
        a constant polynomial."""
        r = as_abd(r)
        return self.map_coeffs(lambda v: poly_part((poly_eval(v, r),), 0))

    def map_coeffs(self, fn) -> "Tensor":
        """Apply fn, a map of coefficient tuples, to every coefficient,
        dropping the zeros it yields."""
        out = Tensor(self.rank)
        for key, v in self.terms.items():
            c = fn(v)
            if c:
                out.terms[key] = c
        return out

    def coefficient(self, key) -> tuple:
        return self.terms.get(key, ())

    def __eq__(self, other):
        if isinstance(other, Tensor):
            return self.rank == other.rank and self.terms == other.terms
        return NotImplemented

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"Tensor(rank={self.rank}, {len(self.terms)} terms)"


def tensor_product(u: Tensor, v: Tensor) -> Tensor:
    out = Tensor(u.rank + v.rank)
    for ku, cu in u.terms.items():    # distinct keys, nonzero products
        for kv, cv in v.terms.items():
            out.terms[ku + kv] = poly_mul(cu, cv)
    return out


def slot_map(u: Tensor, i: int, k: int, fn, rank: int) -> Tensor:
    """Replace slots [i, i+k) of every key of u by the slots of fn(*words),
    linearly.  fn takes the k words and returns a Tensor of the given rank;
    rank 0 covers counits and functionals."""
    out = Tensor(u.rank - k + rank)
    for key, c in u.terms.items():
        head, tail = key[:i], key[i + k:]
        for mid, v in fn(*key[i:i + k]).terms.items():
            out.add_term(head + mid + tail, poly_mul(c, v))
    return out


def scalar_map(f):
    """The map f from word tuples to coefficient tuples as a word map into
    rank-0 tensors, for slot_map."""
    return lambda *words: Tensor(0, {(): f(words)})


def memoized(fn):
    """Memoize fn(owner, key) in owner.memo, the one table an owner keeps
    for all its memoized functions: a defaultdict(dict) from the function
    name to its entries.  The table lives on the owner, so nothing outlives
    it."""
    name = fn.__name__

    @wraps(fn)
    def cached(owner, key):
        table = owner.memo[name]
        v = table.get(key)
        if v is None:
            v = table[key] = fn(owner, key)
        return v

    return cached


class Algebra:
    """A presented algebra with memoized quotient arithmetic."""

    def __init__(self, pres: AlgebraPresentation):
        self.pres = pres
        # inconsistent duplicate left sides fail confluence
        self._rules = {rule.lhs: tuple((w, as_poly(c)) for w, c in rule.rhs)
                       for rule in pres.rules}
        # rewriting, the comultiplication and the antipode preserve word
        # length: every rule rewrites to two-letter words (a unit term fails
        # quotient-compat) and every generator's antipode is letters
        self.homogeneous = (
            all(len(w) == 2 for rhs in self._rules.values() for w, _ in rhs)
            and all(len(w) == 1 for img in pres.antipode for w, _ in img))
        # they keep each letter's count too when every rule reorders its
        # letters and every generator's antipode is a multiple of itself
        self._counts = self.homogeneous and all(
            sorted(w) == sorted(lhs)
            for lhs, rhs in self._rules.items() for w, _ in rhs) and all(
            w == (g,) for g, img in enumerate(pres.antipode) for w, _ in img)
        self.memo = defaultdict(dict)

    # -- construction -----------------------------------------------------

    def one(self) -> Tensor:
        return Tensor.basis(((),))

    def element(self, terms: dict) -> Tensor:
        return Tensor(1, {(tuple(w),): c for w, c in terms.items()})

    def parse_element(self, text: str) -> Tensor:
        names = {g: k for k, g in enumerate(self.pres.generators)}
        terms = parse_element_terms(text, names)
        return slot_map(self.element(terms), 0, 1, self.normal_form_word, 1)

    # -- braiding ---------------------------------------------------------

    @memoized
    def braid_coeff(self, pair) -> tuple:
        """Coefficient tuple of the constant picked up when the word u
        crosses over the word v, pair = (u, v).  It is a bicharacter on
        letter counts, so it is also the coefficient of a block of slots
        crossing another, taken on the concatenated words."""
        u, v = pair
        if self.pres.braiding_kind == "graded-sign":
            g = self.pres.grades
            if (sum(g[k] for k in u) * sum(g[k] for k in v)) & 1:
                return T_MINUS_ONE
            return T_ONE
        table = self.pres.braiding_table
        c = (1, 0, 1)
        for a in u:
            row = table[a]
            for b in v:
                c = abd_mul(c, row[b].abd)
        return (c,)               # braid entries are nonzero

    # -- normal forms and products ---------------------------------------

    def normal_form_word(self, w) -> Tensor:
        """Canonical representative of a word as a combination of normal
        monomials.  Rewrites the leftmost ill-ordered pair first; any order
        agrees once confluence holds.  A worklist instead of recursion keeps
        long words off the call stack; every word passed through gets an
        entry in the memo table, as under memoized."""
        w = tuple(w)
        memo = self.memo["normal_form_word"]
        done = memo.get(w)
        if done is not None:
            return done
        rules = self._rules
        todo = [w]
        while todo:
            cur = todo[-1]
            if cur in memo:
                todo.pop()
                continue
            pos = next((p for p in range(len(cur) - 1)
                        if (cur[p], cur[p + 1]) in rules), None)
            if pos is None:
                memo[cur] = Tensor.basis((cur,))
                continue
            subs = [(cur[:pos] + rw + cur[pos + 2:], coeff)
                    for rw, coeff in rules[(cur[pos], cur[pos + 1])]]
            missing = [sub for sub, _ in subs if sub not in memo]
            if missing:
                todo.extend(missing)
                continue
            result = Tensor(1)
            for sub, coeff in subs:
                for key, c in memo[sub].terms.items():
                    result.add_term(key, poly_mul(c, coeff))
            memo[cur] = result
        return memo[w]

    def mul_words(self, w1, w2) -> Tensor:
        return self.normal_form_word(w1 + w2)

    @memoized
    def grade(self, w) -> tuple:
        """The grade of w that rewriting, the comultiplication and the
        antipode keep, as fine as the presentation allows: the count of
        each generator in w on a length-homogeneous algebra whose rules
        reorder their letters and whose antipodes take each generator to a
        multiple of itself, else the length (|w|,)."""
        if self._counts:
            return tuple(map(w.count, range(len(self.pres.generators))))
        return (len(w),)

    # -- involution -------------------------------------------------------

    @memoized
    def involution_word(self, w) -> Tensor:
        star = self.pres.star
        return self.normal_form_word(tuple(star[k] for k in reversed(w)))

    def involution(self, a: Tensor) -> Tensor:
        """The *-operation: antilinear, word-reversing."""
        return slot_map(a.map_coeffs(poly_conj), 0, 1, self.involution_word,
                        1)

    # -- antipode ---------------------------------------------------------

    @memoized
    def antipode_word(self, w) -> Tensor:
        """S on a basis word via S(g v) = mul(braid(S(g) (x) S(v))).  A new
        long word memoizes its suffixes shortest first, so the recursion
        stays one level deep."""
        if not w:
            return self.one()
        if len(w) > 2 and w[1:] not in self.memo["antipode_word"]:
            for k in range(len(w) - 2, 0, -1):
                self.antipode_word(w[k:])
        sg = self.element(dict(self.pres.antipode[w[0]]))
        return slot_map(
            tensor_product(sg, self.antipode_word(w[1:])), 0, 2,
            lambda u, v: self.mul_words(v, u).scale(self.braid_coeff((u, v))),
            1)

    def antipode(self, a: Tensor) -> Tensor:
        return slot_map(a, 0, 1, self.antipode_word, 1)

    # -- basis enumeration -------------------------------------------------

    @memoized
    def basis(self, max_degree: int):
        """All normal monomials of length <= max_degree, shortlex order."""
        rules = self._rules
        out = [()]
        layer = [()]
        n = len(self.pres.generators)
        for _ in range(max_degree):
            nxt = []
            for w in layer:
                for g in range(n):
                    if w and (w[-1], g) in rules:
                        continue
                    nxt.append(w + (g,))
            layer = nxt
            out.extend(layer)
        return out

    # -- formatting --------------------------------------------------------

    def format_poly_coeff(self, p) -> str:
        """The coefficient tuple p, parenthesized when it has two nonzero
        coefficients or one with both a real and an imaginary part."""
        nonzero = [(a, b) for a, b, _ in p if a or b]
        if len(nonzero) > 1 or any(a and b for a, b in nonzero):
            return f"({poly_str(p)})"
        return poly_str(p)

    def format(self, t: Tensor) -> str:
        """Human-readable rendering; slots joined with a tensor sign."""
        bodies = []
        for key, c in sorted(t.terms.items(), key=lambda kv: (
                -sum(len(w) for w in kv[0]), kv[0])):
            word = " (x) ".join(self.pres.word_str(w) for w in key)
            if t.rank == 0:
                bodies.append(poly_str(c))
            elif c == T_ONE:
                bodies.append(word)
            elif c == T_MINUS_ONE:
                bodies.append(f"- {word}")
            elif key == ((),):
                bodies.append(poly_str(c))
            elif t.rank > 1:
                bodies.append(f"{self.format_poly_coeff(c)} ({word})")
            else:
                bodies.append(f"{self.format_poly_coeff(c)} {word}")
        return signed_sum(bodies)
