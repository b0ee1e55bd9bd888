"""Exact coefficient arithmetic.

One kernel of Python ints carries every value: a Gaussian rational
a + b*i is the canonical triple (a, b, d), meaning (a + b*i)/d with
gcd(a, b, d) == 1 and d > 0.  The form is unique, so equal values have
equal triples, and the functions abd_add, abd_mul and abd_inv keep every
result canonical.  A polynomial in the formal deformation parameter t is
the coefficient tuple of its coefficients' triples with no trailing zero,
kept so by the poly_* functions.  Tensor coefficients (see algebra),
functional values (see deform) and the entries of a hermitian matrix (see
verify) are such bare tuples and triples.  No floats anywhere.

A number enters the engine through as_poly, the one coercion of a
Scalar, int or Fraction to a coefficient tuple.  Two value types remain at
the boundary: Scalar, the parsed scalar and the printed Gram witness, and
TPoly, built only by poly_str to print a coefficient tuple.  Each carries
only the operators its readers use.

The module is arithmetic and its printing.  Scalar values are read by
presentation.parse_scalar, the element grammar without generators.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd


def signed_sum(bodies) -> str:
    """The terms bodies written as one sum: after the first, a body with a
    leading '-' or '- ' is subtracted as '- rest' and any other is added as
    '+ body'; no bodies give '0'."""
    parts = []
    for body in bodies:
        if parts:
            if body.startswith("-"):
                body = "- " + body[2 if body.startswith("- ") else 1:]
            else:
                body = "+ " + body
        parts.append(body)
    return " ".join(parts) or "0"


# -- the int-triple kernel ---------------------------------------------------

ABD_ZERO = (0, 0, 1)    # the triple of zero

# the coefficient tuples of 0, 1, -1 and t
T_ZERO = ()
T_ONE = ((1, 0, 1),)
T_MINUS_ONE = ((-1, 0, 1),)
T_T = (ABD_ZERO, (1, 0, 1))


def abd_add(x, y):
    a, b, d = x
    c, e, f = y
    if d == f:
        a += c
        b += e
        if d == 1:
            return (a, b, 1)
        g = gcd(a, b, d)
    else:
        g = gcd(d, f)
        if g == 1:
            return (a * f + c * d, b * f + e * d, d * f)
        # a prime of the lcm dividing both parts must divide g
        s, f = d // g, f // g
        a, b, d = a * f + c * s, b * f + e * s, s * f * g
        g = gcd(a, b, g)
    if g == 1:
        return (a, b, d)
    return (a // g, b // g, d // g)


def abd_mul(x, y):
    a, b, d = x
    c, e, f = y
    if b or e:
        a, b = a * c - b * e, a * e + b * c
    else:
        a *= c
    d *= f
    if d == 1:
        return (a, b, 1)
    g = gcd(a, b, d)
    if g == 1:
        return (a, b, d)
    return (a // g, b // g, d // g)


def abd_inv(x):
    a, b, d = x
    if not b:
        if not a:
            raise ZeroDivisionError("inverse of zero scalar")
        return (d, 0, a) if a > 0 else (-d, 0, -a)
    n = a * a + b * b
    a, b = d * a, -d * b
    g = gcd(a, b, n)
    return (a // g, b // g, n // g)


def _abd(x):
    """The triple of a Scalar, an int or a Fraction; None for any other
    type."""
    if type(x) is Scalar:
        return x.abd
    if isinstance(x, (int, Fraction)):
        return (x.numerator, 0, x.denominator)
    return None


# -- polynomials as tuples of canonical triples ------------------------------


def poly_add(a, b):
    """The sum of two coefficient tuples, trailing zeros trimmed."""
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    if len(a) == 1:
        c = abd_add(a[0], b[0])
        return () if c == ABD_ZERO else (c,)
    out = list(a)
    for k, c in enumerate(b):
        out[k] = abd_add(out[k], c)
    while out and out[-1] == ABD_ZERO:
        out.pop()
    return tuple(out)


def poly_mul(a, b):
    """The product of two coefficient tuples; over a field the product of
    the leading coefficients is nonzero, so nothing needs trimming."""
    if b == T_ONE:                    # most factors are exactly 1
        return a
    if a == T_ONE:
        return b
    if not a or not b:
        return ()
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        x = a[0]
        return tuple([abd_mul(x, y) for y in b])
    out = [ABD_ZERO] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        if x != ABD_ZERO:
            for k, y in enumerate(b, j):
                if y != ABD_ZERO:
                    out[k] = abd_add(out[k], abd_mul(x, y))
    return tuple(out)


def poly_neg(a):
    return tuple([(-x, -y, d) for x, y, d in a])


def poly_conj(a):
    """Conjugate every coefficient; t is real."""
    return tuple([(x, -y, d) for x, y, d in a])


def poly_flip(a):
    """Substitute t -> -t."""
    return tuple([(-c[0], -c[1], c[2]) if k & 1 else c
                  for k, c in enumerate(a)])


def poly_shift(a, j: int):
    """The s^j coefficient of p(t + s): sum_i C(i + j, j) p_{i+j} t^i."""
    return tuple([abd_mul(c, (comb(i + j, j), 0, 1))
                  for i, c in enumerate(a[j:])])


def poly_integrate(a):
    """The antiderivative vanishing at t = 0: sum_k p_k t^{k+1}/(k+1)."""
    if not a:
        return ()
    return (ABD_ZERO,) + tuple([abd_mul(c, (1, 0, k))
                                for k, c in enumerate(a, 1)])


def poly_eval(a, r):
    """The value at the triple r, by Horner's rule."""
    if not a:
        return ABD_ZERO
    acc = a[-1]
    for c in a[-2::-1]:
        acc = abd_add(abd_mul(acc, r), c)
    return acc


def poly_part(a, j: int):
    """The coefficient of t^j as a constant polynomial."""
    c = a[j:j + 1]
    return () if c == (ABD_ZERO,) else c


_new = object.__new__


class Scalar:
    """Element of Q(i), immutable, held as its canonical triple abd =
    (a, b, d) for (a + b*i)/d; equal scalars have equal triples."""

    __slots__ = ("abd",)

    def __init__(self, re=0, im=0):
        if not (isinstance(re, (int, Fraction))
                and isinstance(im, (int, Fraction))):
            raise TypeError(
                f"Scalar parts must be int or Fraction, got "
                f"{type(re).__name__} and {type(im).__name__}")
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        if q != s:
            # over the lcm of two reduced denominators the triple is
            # already canonical
            g = gcd(q, s)
            p, r, q = p * (s // g), r * (q // g), q // g * s
        _set_abd(self, (p, r, q))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return from_abd, (self.abd,)

    @property
    def re(self) -> Fraction:
        a, _, d = self.abd
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self.abd
        return Fraction(b, d)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        y = other.abd if type(other) is Scalar else _abd(other)
        if y is None:
            return NotImplemented
        return from_abd(abd_add(self.abd, y))

    def __mul__(self, other):
        y = other.abd if type(other) is Scalar else _abd(other)
        if y is None:
            return NotImplemented
        return from_abd(abd_mul(self.abd, y))

    __rmul__ = __mul__

    def __neg__(self):
        a, b, d = self.abd
        return from_abd((-a, -b, d))

    def conj(self) -> Scalar:
        a, b, d = self.abd
        return from_abd((a, -b, d))

    def inv(self) -> Scalar:
        return from_abd(abd_inv(self.abd))

    # -- predicates -------------------------------------------------------

    def __bool__(self):
        return self.abd != ABD_ZERO

    def __eq__(self, other):
        y = other.abd if type(other) is Scalar else _abd(other)
        if y is None:
            return NotImplemented
        return self.abd == y

    def __hash__(self):
        """Equal to the hash of the int or Fraction of the same value when
        the value is real, as it compares equal to it."""
        a, b, d = self.abd
        if b:
            return hash(self.abd)
        return hash(a) if d == 1 else hash(Fraction(a, d))

    # -- text -------------------------------------------------------------

    def __str__(self):
        re_part, im_part = self.re, self.im
        bodies = [str(re_part)] if re_part else []
        if im_part:
            bodies.append("i" if im_part == 1 else "-i" if im_part == -1
                          else f"{im_part} i")
        return signed_sum(bodies)


_set_abd = Scalar.__dict__["abd"].__set__


def from_abd(x) -> Scalar:
    """The Scalar of a canonical triple."""
    s = _new(Scalar)
    _set_abd(s, x)
    return s


def as_scalar(x) -> Scalar:
    if type(x) is Scalar:
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")


def as_abd(x):
    """The triple of a Scalar, an int or a Fraction."""
    y = _abd(x)
    if y is None:
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")
    return y


def as_poly(x):
    """The coefficient tuple of x: a coefficient tuple or a TPoly as it
    is, a Scalar, an int or a Fraction as a constant polynomial."""
    if type(x) is tuple:
        return x
    if type(x) is TPoly:
        return x.abds
    x = as_abd(x)
    return () if x == ABD_ZERO else (x,)


S_ZERO = Scalar(0)


class TPoly:
    """Polynomial in t over Scalar, built to print a coefficient tuple:
    coeffs[k] is the coefficient of t^k.

    Canonical form has no trailing zero coefficients; the zero polynomial
    has no coefficients.  The polynomial holds the triples of its
    coefficients; coeffs builds their Scalars.  A constant compares equal
    to its Scalar, int or Fraction; a TPoly is not hashable.
    """

    __slots__ = ("abds",)

    def __init__(self, coeffs=()):
        abds = tuple(as_scalar(c).abd for c in coeffs)
        while abds and abds[-1] == ABD_ZERO:
            abds = abds[:-1]
        _set_abds(self, abds)

    def __setattr__(self, name, value):
        raise AttributeError("TPoly is immutable")

    def __reduce__(self):
        return from_abds, (self.abds,)

    @property
    def coeffs(self) -> tuple:
        return tuple(map(from_abd, self.abds))

    def __mul__(self, other):
        return from_abds(poly_mul(self.abds, as_poly(other)))

    def __bool__(self):
        return bool(self.abds)

    def __eq__(self, other):
        try:
            return self.abds == as_poly(other)
        except TypeError:
            return NotImplemented

    def __str__(self):
        return signed_sum([_format_coeff_power(c, k)
                           for k, c in enumerate(self.coeffs) if c])


_set_abds = TPoly.__dict__["abds"].__set__


def from_abds(abds) -> TPoly:
    """The TPoly of a canonical coefficient tuple: canonical triples and no
    trailing zero, as the poly_* functions return."""
    p = _new(TPoly)
    _set_abds(p, abds)
    return p


def poly_str(a) -> str:
    """The text of the coefficient tuple a, written by its TPoly."""
    return str(from_abds(a))


def _format_coeff_power(c: Scalar, k: int) -> str:
    tpart = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
    cs = str(c)
    if not tpart:
        return cs
    if c == 1:
        return tpart
    if c == -1:
        return f"- {tpart}"
    if c.re and c.im:
        cs = f"({cs})"
    return f"{cs} {tpart}"
