"""Exact coefficient arithmetic.

Two types live here: Scalar, a Gaussian rational a + b*i with both parts kept
as reduced Fractions, and TPoly, a polynomial in the formal deformation
parameter t with Scalar coefficients.  Everything downstream (elements,
tensors, functionals, Gram matrices) carries these; no floats anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

_ZERO_F = Fraction(0)
_ONE_F = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse 'a' or 'a/b' (optionally signed) into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


class Scalar:
    """Element of Q(i).  Immutable; Fraction keeps components reduced with
    positive denominators, so equal scalars compare and hash equal."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = as_scalar(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_scalar(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_scalar(other) - self

    def __mul__(self, other):
        other = as_scalar(other)
        if not self.im and not other.im:
            return Scalar(self.re * other.re)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def conj(self) -> Scalar:
        return Scalar(self.re, -self.im)

    def inv(self) -> Scalar:
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * as_scalar(other).inv()

    def __rtruediv__(self, other):
        return as_scalar(other) * self.inv()

    # -- predicates -------------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return not self.im

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.re == other and not self.im
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    # -- text -------------------------------------------------------------

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

    _PATTERN = re.compile(
        r"""^
        (?P<re>[+-]?\d+(?:/\d+)?)?
        (?:
            (?P<sep>[+-])?
            (?P<im>\d+(?:/\d+)?)?
            i
        )?
        $""",
        re.X,
    )

    @classmethod
    def parse(cls, text: str) -> Scalar:
        """Parse 'a/b', 'a/b + c/d i', 'c/d i', 'i', '-i' (whitespace-insensitive).
        Malformed text, a zero denominator included, raises ValueError."""
        squeezed = re.sub(r"\s+", "", text)
        m = cls._PATTERN.match(squeezed)
        if not m or not squeezed or squeezed in "+-":
            raise ValueError(f"malformed scalar {text!r}")
        re_part, sep, im_part = m.group("re"), m.group("sep"), m.group("im")
        has_i = squeezed.endswith("i")
        if not has_i:
            if re_part is None:
                raise ValueError(f"malformed scalar {text!r}")
            return cls(parse_rational(re_part))
        if re_part is not None and sep is None:
            # '3/4i' means (3/4)i, not 3/4 + i; composite forms need a sign.
            if im_part is not None:
                raise ValueError(f"malformed scalar {text!r}")
            return cls(0, parse_rational(re_part))
        im = parse_rational(im_part) if im_part is not None else _ONE_F
        if sep == "-":
            im = -im
        return cls(parse_rational(re_part) if re_part is not None else 0, im)


def as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")


S_ZERO = Scalar(0)
S_ONE = Scalar(1)
S_I = Scalar(0, 1)


class TPoly:
    """Polynomial in t over Scalar: coeffs[k] is the coefficient of t^k.

    Canonical form has no trailing zero coefficients; the zero polynomial is
    the empty tuple.  t is a formal *real* parameter, so conj acts on
    coefficients only.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(as_scalar(c) for c in coeffs)
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TPoly is immutable")

    @classmethod
    def const(cls, c) -> TPoly:
        return cls((as_scalar(c),))

    @classmethod
    def term(cls, c, power: int) -> TPoly:
        c = as_scalar(c)
        if not c:
            return T_ZERO
        return cls((S_ZERO,) * power + (c,))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = as_tpoly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return TPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-as_tpoly(other))

    def __rsub__(self, other):
        return as_tpoly(other) + (-self)

    def __neg__(self):
        return TPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = as_tpoly(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return T_ZERO
        if len(a) == 1:
            return TPoly(tuple(a[0] * c for c in b))
        if len(b) == 1:
            return TPoly(tuple(c * b[0] for c in a))
        out = [S_ZERO] * (len(a) + len(b) - 1)
        for j, cj in enumerate(a):
            if not cj:
                continue
            for k, ck in enumerate(b):
                if ck:
                    out[j + k] = out[j + k] + cj * ck
        return TPoly(out)

    __rmul__ = __mul__

    # -- queries ----------------------------------------------------------

    def degree(self) -> int:
        """Degree in t; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def constant_term(self) -> Scalar:
        return self.coeffs[0] if self.coeffs else S_ZERO

    def __call__(self, r) -> Scalar:
        return self.eval(r)

    def eval(self, r) -> Scalar:
        """Exact value at a rational (or Gaussian-rational) point."""
        r = as_scalar(r)
        acc = S_ZERO
        for c in reversed(self.coeffs):
            acc = acc * r + c
        return acc

    def conj(self) -> TPoly:
        return TPoly(tuple(c.conj() for c in self.coeffs))

    def shift(self, j: int) -> TPoly:
        """The coefficient of s^j in p(t + s), a polynomial in t:
        sum_i C(i + j, j) p_{i+j} t^i."""
        return TPoly(tuple(c * comb(i + j, j)
                           for i, c in enumerate(self.coeffs[j:])))

    def flip_sign(self) -> TPoly:
        """Substitute t -> -t."""
        return TPoly(tuple(-c if k & 1 else c for k, c in enumerate(self.coeffs)))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = as_tpoly(other)
        if isinstance(other, TPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TPoly({self.coeffs!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            body = _format_coeff_power(c, k)
            if not parts:
                parts.append(body)
            else:
                sign, mag = _split_sign(body)
                parts.append(("- " if sign < 0 else "+ ") + mag)
        return " ".join(parts)


def _split_sign(body: str):
    if body.startswith("- "):
        return -1, body[2:]
    if body.startswith("-"):
        return -1, body[1:]
    return 1, body


def _format_coeff_power(c: Scalar, k: int) -> str:
    tpart = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
    cs = str(c)
    if not tpart:
        return cs
    if c == 1:
        return tpart
    if c == Scalar(-1):
        return f"- {tpart}"
    if c.re and c.im:
        cs = f"({cs})"
    return f"{cs} {tpart}"


def as_tpoly(x) -> TPoly:
    if isinstance(x, TPoly):
        return x
    if isinstance(x, (int, Fraction, Scalar)):
        return TPoly((as_scalar(x),))
    raise TypeError(f"cannot coerce {type(x).__name__} to TPoly")


T_ZERO = TPoly(())
T_ONE = TPoly((S_ONE,))
T_T = TPoly((S_ZERO, S_ONE))

