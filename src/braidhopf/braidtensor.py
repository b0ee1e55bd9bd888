"""Braidings on tensor powers and the braided (co)multiplications.

The braid family is built inductively from the two-slot braiding exactly as
the maps compose:

    b_{0,n} = b_{n,0} = id
    b_{1,n+1} = (id (x) b_{1,n}) . (b (x) id)
    b_{m+1,n} = (b_{m,n} (x) id) . (id^m (x) b_{1,n})

and the inverse family inverts the pair map slotwise.  Products of tensor
powers and the comultiplications on them follow the same inductive shape:

    M_1 = mul,   M_n = (mul (x) M_{n-1}) . (id (x) b_{n-1,1} (x) id^{n-1})
    L_1 = comul, L_n = (id (x) b_{1,n-1} (x) id^{n-1}) . (comul (x) L_{n-1})

Both braiding kinds send a slot-tuple of words to a slot-tuple with a scalar
coefficient, so everything here stays basis-to-basis.
"""

from __future__ import annotations

from .algebra import Algebra, Tensor, memoized, slot_map, tensor_product
from .scalars import S_ONE, TPoly, T_ONE, T_ZERO


def braid_pair(alg: Algebra, m, n, inverse: bool = False) -> Tensor:
    """Braiding of two monomial slots; returns a rank-2 tensor."""
    m, n = tuple(m), tuple(n)
    out = Tensor(2)
    out.add_term((n, m), alg.braid_coeff(m, n, inverse))
    return out


def _braid_key(alg, key, m, n, inverse):
    """Braid the first m slots of a slot-tuple past the next n; returns
    (coefficient, rearranged tuple of the first m+n slots)."""
    if m == 0 or n == 0:
        return S_ONE, key[:m + n]
    if m == 1:
        c = alg.braid_coeff(key[0], key[1], inverse)
        c2, tail = _braid_key(alg, (key[0],) + key[2:], 1, n - 1, inverse)
        return c * c2, (key[1],) + tail
    head, rest = key[:m - 1], key[m - 1:]
    c1, rest = _braid_key(alg, rest, 1, n, inverse)
    c2, moved = _braid_key(alg, head + rest[:n], m - 1, n, inverse)
    return c1 * c2, moved + rest[n:]


def braid_mn(alg: Algebra, u: Tensor, m: int, n: int,
             inverse: bool = False) -> Tensor:
    """b_{m,n} on the first m+n slots of u.  With inverse set, the map that
    undoes b_{m,n}, so the input is expected to carry the n-block first."""
    if m < 0 or n < 0 or m + n > u.rank:
        raise ValueError("block sizes exceed tensor rank")
    return braid_at(alg, u, 0, m, n, inverse)


def braid_at(alg: Algebra, u: Tensor, start: int, m: int, n: int,
             inverse: bool = False) -> Tensor:
    """b_{m,n} (or its inverse) acting on slots [start, start + m + n)."""
    out = Tensor(u.rank)
    for key, c in u.terms.items():
        mid = key[start:start + m + n]
        if inverse:
            k, mid = _braid_key(alg, mid, n, m, True)
        else:
            k, mid = _braid_key(alg, mid, m, n, False)
        out.add_term(key[:start] + mid + key[start + m + n:], c * k)
    return out


def _product_keys(alg, akey, bkey) -> Tensor:
    """The rank-n braided product applied to two basis slot-tuples."""
    n = len(akey)
    if n == 1:
        return alg.mul_words(akey[0], bkey[0])
    # braid b's first slot leftward past a's tail, then multiply slotwise
    coeff = S_ONE
    b0 = bkey[0]
    for w in akey[1:]:
        coeff = coeff * alg.braid_coeff(w, b0)
    head = alg.mul_words(akey[0], b0)
    tail = _product_keys(alg, akey[1:], bkey[1:])
    out = Tensor(n)
    for (hw,), hc in head.terms.items():
        for tkey, tc in tail.terms.items():
            out.add_term((hw,) + tkey, hc * tc * coeff)
    return out


def braided_product(alg: Algebra, u: Tensor, v: Tensor) -> Tensor:
    """The algebra structure on the n-th tensor power of the quotient."""
    if u.rank != v.rank or u.rank < 1:
        raise ValueError("braided product needs two tensors of equal rank >= 1")
    out = Tensor(u.rank)
    for akey, ca in u.terms.items():
        for bkey, cb in v.terms.items():
            c = ca * cb
            for key, val in _product_keys(alg, akey, bkey).terms.items():
                out.add_term(key, val * c)
    return out


@memoized
def comul_word(alg: Algebra, w) -> Tensor:
    """Comultiplication of a basis word, memoized on the algebra."""
    if not w:
        return alg.unit_tensor(2)
    if len(w) == 1:
        return Tensor(2, {(w, ()): T_ONE, ((), w): T_ONE})
    return braided_product(alg, comul_word(alg, w[:1]), comul_word(alg, w[1:]))


def comul(alg: Algebra, a: Tensor) -> Tensor:
    """Comultiplication, extended linearly over rank-1 tensors."""
    if a.rank != 1:
        raise ValueError("comul acts on rank-1 tensors")
    return slot_map(a, 0, 1, lambda w: comul_word(alg, w), 2)


def comul_iter(alg: Algebra, a: Tensor, n: int) -> Tensor:
    """Iterated comultiplication of a rank-1 tensor into n slots (n >= 1)."""
    if n < 1:
        raise ValueError("comul_iter needs n >= 1")
    if a.rank != 1:
        raise ValueError("comul_iter acts on rank-1 tensors")
    for _ in range(n - 1):
        a = slot_map(a, 0, 1, lambda w: comul_word(alg, w), 2)
    return a


def counit(a: Tensor) -> TPoly:
    """Coefficient of the all-units slot-tuple."""
    return a.terms.get(((),) * a.rank, T_ZERO)


def counit_word(w) -> Tensor:
    """The counit of a basis word as a rank-0 tensor, for slot_map."""
    return Tensor.basis(()) if w == () else Tensor(0)


def star_tensor(alg: Algebra, u: Tensor) -> Tensor:
    """The involution on the tensor square: braid . (* (x) *) . swap."""
    if u.rank != 2:
        raise ValueError("star_tensor acts on rank-2 tensors")
    out = Tensor(2)
    for (m, n), c in u.terms.items():
        cc = c.conj()
        left = alg.involution_word(n)
        right = alg.involution_word(m)
        for (a,), ca in left.terms.items():
            for (b,), cb in right.terms.items():
                k = alg.braid_coeff(a, b)
                out.add_term((b, a), cc * ca * cb * k)
    return out


def lambda_n_key(alg: Algebra, key) -> Tensor:
    """Comultiplication of the rank-n tensor power on a basis slot-tuple;
    the 2n result slots interleave as (a', a'', b', b'', ...) regrouped to
    (a', b', ..., a'', b'', ...) by the inductive braids.  Rank 2 is
    memoized on the algebra."""
    if len(key) == 1:
        return comul_word(alg, key[0])
    if len(key) == 2:
        return _lambda_pair(alg, tuple(key))
    return _lambda_split(alg, key)


@memoized
def _lambda_pair(alg: Algebra, key) -> Tensor:
    return _lambda_split(alg, key)


def _lambda_split(alg: Algebra, key) -> Tensor:
    combined = tensor_product(comul_word(alg, key[0]),
                              lambda_n_key(alg, key[1:]))
    return braid_at(alg, combined, 1, 1, len(key) - 1)


def lambda_n(alg: Algebra, u: Tensor) -> Tensor:
    """Comultiplication on the rank-n tensor power, linear extension."""
    return slot_map(u, 0, u.rank, lambda *key: lambda_n_key(alg, key),
                    2 * u.rank)
