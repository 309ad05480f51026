"""Gaussian rationals: complex numbers with exact rational real/imaginary parts.

Every central charge in the toolkit takes values here, so that phase
comparisons, wall equations and definiteness tests stay exact.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

Rational = Union[int, Fraction, str]


def as_fraction(x: Rational) -> Fraction:
    """Coerce ints, strings like ``"3/2"`` or ``"0.1"``, and Fractions. A
    string with a zero denominator raises ``ValueError``."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r} (floats are rejected)")


def as_int(x: Rational) -> int:
    """Coerce an exact integer: an int, a string ``int()`` reads such as
    ``"-3"``, or an integral rational such as ``"4/2"``. A float, a bool or
    a non-integral value raises ``ValueError`` instead of being truncated."""
    if type(x) is int:
        return x
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            pass
    try:
        q = as_fraction(x)
    except TypeError:
        raise ValueError(f"expected an integer, got {x!r}") from None
    if q.denominator != 1:
        raise ValueError(f"expected an integer, got {x!r}")
    return q.numerator


def _unsupported(self, other):  # a tuple operator a value type must not inherit
    return NotImplemented


class _GaussianRational(NamedTuple):
    re: Fraction
    im: Fraction


class GaussianRational(_GaussianRational):
    __slots__ = ()
    def __new__(cls, re: Rational, im: Rational) -> "GaussianRational":
        return tuple.__new__(cls, (as_fraction(re), as_fraction(im)))

    __lt__ = __le__ = __gt__ = __ge__ = _unsupported

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        return _coerce(other) - self

    def __mul__(self, other) -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        n2 = other.norm2()
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n2,
            (self.im * other.re - self.re * other.im) / n2,
        )

    def __rtruediv__(self, other) -> "GaussianRational":
        return _coerce(other) / self

    # -- structure ----------------------------------------------------------

    def norm2(self) -> Fraction:
        """|z|^2 = re^2 + im^2, an exact rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(as_fraction(x), Fraction(0))


def gaussian(re: Rational, im: Rational = 0) -> GaussianRational:
    return GaussianRational(as_fraction(re), as_fraction(im))
