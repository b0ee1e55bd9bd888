"""Braidings on tensor powers and the braided (co)multiplications.

Both braiding kinds are diagonal, with a coefficient c(u, v) for the word u
crossing over the word v (Algebra.braid_coeff) that is a bicharacter on
letter counts:

    graded-sign: c(u, v) = (-1)^(grade(u) grade(v))
    diagonal:    c(u, v) = prod of q_ab over the letters a of u, b of v

So the block braiding b_{m,n} swaps m slots with the next n and multiplies
by c of the two blocks' concatenated words:

    b_{m,n}(u_1 (x) .. (x) u_m (x) v_1 (x) .. (x) v_n)
        = c(u_1 .. u_m, v_1 .. v_n) v_1 (x) .. (x) v_n (x) u_1 (x) .. (x) u_m

Products of tensor powers and the comultiplications on them are built
inductively, and everything here stays basis-to-basis:

    M_1 = mul,   M_n = (mul (x) M_{n-1}) . (id (x) b_{n-1,1} (x) id^{n-1})
    L_1 = comul, L_n = (id (x) b_{1,n-1} (x) id^{n-1}) . (comul (x) L_{n-1})

except that L_2 = Lambda_2 has one closed form, the bicharacter walk
lambda2_walk: the split a' (x) a'' of a and b' (x) b'' of b gives the term
a' (x) b' (x) a'' (x) b'' with coefficient c(a'', b').  The walk yields each
split's coefficient and visits only the right grades it is given; its
callers evaluate their own factor on it: the memoized rank-2 lambda_n_key
(every split), the deformed product mu_t and the arity-2 convolutions of
deform (the splits a support allows).  L_n is inductive for n >= 3 only.

braid_at, tensor_product, _product_keys and _lambda_pair write each term
once: their key maps are injective, and a product of nonzero coefficients
is nonzero (the parser and q_presentation refuse a zero braid entry).
"""

from __future__ import annotations

from .algebra import Algebra, Tensor, memoized, slot_map, tensor_product
from .scalars import T_ONE, poly_conj, poly_mul


def braid_at(alg: Algebra, u: Tensor, start: int, m: int, n: int) -> Tensor:
    """b_{m,n} acting on slots [start, start + m + n)."""
    mid, end = start + m, start + m + n
    if start < 0 or m < 0 or n < 0 or end > u.rank:
        raise ValueError("braid blocks exceed tensor rank")
    coeff = alg.braid_coeff
    out = Tensor(u.rank)
    for key, c in u.terms.items():
        left, right = key[start:mid], key[mid:end]
        out.terms[key[:start] + right + left + key[end:]] = poly_mul(
            c, coeff((sum(left, ()), sum(right, ()))))
    return out


def _product_keys(alg, akey, bkey) -> Tensor:
    """The rank-n braided product applied to two basis slot-tuples."""
    n = len(akey)
    if n == 1:
        return alg.mul_words(akey[0], bkey[0])
    # braid b's first slot leftward past a's tail, then multiply slotwise
    b0 = bkey[0]
    coeff = alg.braid_coeff((sum(akey[1:], ()), b0))
    head = alg.mul_words(akey[0], b0)
    tail = _product_keys(alg, akey[1:], bkey[1:])
    out = Tensor(n)
    for (hw,), hc in head.terms.items():
        hc = poly_mul(hc, coeff)
        for tkey, tc in tail.terms.items():
            out.terms[(hw,) + tkey] = poly_mul(hc, tc)
    return out


def braided_product(alg: Algebra, u: Tensor, v: Tensor) -> Tensor:
    """The algebra structure on the n-th tensor power of the quotient."""
    if u.rank != v.rank or u.rank < 1:
        raise ValueError("braided product needs two tensors of equal rank >= 1")
    out = Tensor(u.rank)
    for akey, ca in u.terms.items():
        for bkey, cb in v.terms.items():
            c = poly_mul(ca, cb)
            for key, val in _product_keys(alg, akey, bkey).terms.items():
                out.add_term(key, poly_mul(val, c))
    return out


@memoized
def comul_word(alg: Algebra, w) -> Tensor:
    """Comultiplication of a basis word, memoized on the algebra; a new long
    word memoizes its suffixes shortest first, as antipode_word does."""
    if not w:
        return Tensor.basis(((), ()))
    if len(w) == 1:
        return Tensor(2, {(w, ()): T_ONE, ((), w): T_ONE})
    if len(w) > 2 and w[1:] not in alg.memo["comul_word"]:
        for k in range(len(w) - 2, 0, -1):
            comul_word(alg, w[k:])
    return braided_product(alg, comul_word(alg, w[:1]), comul_word(alg, w[1:]))


@memoized
def comul_buckets(alg: Algebra, w) -> dict:
    """The terms (w', w'', c) of comul(w), c a coefficient tuple, grouped
    by the grade (Algebra.grade) of the right factor w''."""
    out = {}
    for (left, right), c in comul_word(alg, w).terms.items():
        out.setdefault(alg.grade(right), []).append((left, right, c))
    return out


def comul(alg: Algebra, a: Tensor) -> Tensor:
    """Comultiplication, extended linearly over rank-1 tensors."""
    if a.rank != 1:
        raise ValueError("comul acts on rank-1 tensors")
    return slot_map(a, 0, 1, lambda w: comul_word(alg, w), 2)


def counit(a: Tensor) -> tuple:
    """Coefficient tuple of the all-units slot-tuple."""
    return a.coefficient(((),) * a.rank)


def counit_word(w) -> Tensor:
    """The counit of a basis word as a rank-0 tensor, for slot_map."""
    return Tensor.basis(()) if w == () else Tensor(0)


def star_tensor(alg: Algebra, u: Tensor) -> Tensor:
    """The involution on the tensor square, braid_at . (* (x) *) . swap."""
    if u.rank != 2:
        raise ValueError("star_tensor acts on rank-2 tensors")
    star = alg.involution_word
    return braid_at(alg, slot_map(
        u.map_coeffs(poly_conj), 0, 2,
        lambda m, n: tensor_product(star(n), star(m)), 2), 0, 1, 1)


def lambda_n_key(alg: Algebra, key) -> Tensor:
    """Comultiplication of the rank-n tensor power on a basis slot-tuple;
    the 2n result slots interleave as (a', a'', b', b'', ...) regrouped to
    (a', b', ..., a'', b'', ...) by the inductive braids.  Rank 2 is
    lambda2_walk's full walk, memoized on the algebra."""
    if len(key) == 1:
        return comul_word(alg, key[0])
    if len(key) == 2:
        return _lambda_pair(alg, tuple(key))
    combined = tensor_product(comul_word(alg, key[0]),
                              lambda_n_key(alg, key[1:]))
    return braid_at(alg, combined, 1, 1, len(key) - 1)


@memoized
def _lambda_pair(alg: Algebra, key) -> Tensor:
    out = Tensor(4)
    for a1, b1, a2, b2, v in lambda2_walk(alg, key, None):
        out.terms[(a1, b1, a2, b2)] = v
    return out


def lambda2_walk(alg: Algebra, key, rights):
    """Walk the splits of Lambda_2(a (x) b), key = (a, b), whose right pair
    (a'', b'') has grades (j, k) with k in rights[j], rights a dict (every
    split when rights is None), and yield (a', b', a'', b'', v), v the
    split's coefficient tuple: the comultiplication coefficients of a and
    b times the braid coefficient c(a'', b').  The caller evaluates its own
    factor."""
    ba, bb = comul_buckets(alg, key[0]), comul_buckets(alg, key[1])
    coeff = alg.braid_coeff
    for j, ta in ba.items():
        for k in bb if rights is None else rights.get(j, ()):
            tb = bb.get(k)
            if tb:
                for a1, a2, ca in ta:
                    for b1, b2, cb in tb:
                        yield a1, b1, a2, b2, poly_mul(
                            poly_mul(ca, cb), coeff((a2, b1)))
