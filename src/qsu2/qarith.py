"""Exact half-integer arithmetic, q-numbers and spin-1/2 q-Clebsch-Gordan coefficients.

Spin and weight labels live on the half-integer grid.  They are stored as
doubled integers so that index arithmetic never touches floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class QArithError(ValueError):
    """Invalid parameter for a q-arithmetic operation."""


@dataclass(frozen=True, order=True)
class HalfInteger:
    """A number of the form doubled/2 with doubled an exact integer."""

    doubled: int

    def __post_init__(self):
        if not isinstance(self.doubled, int):
            raise QArithError("HalfInteger stores a doubled integer, got %r" % (self.doubled,))

    @property
    def is_integral(self) -> bool:
        return self.doubled % 2 == 0

    def __add__(self, other: "HalfInteger") -> "HalfInteger":
        return HalfInteger(self.doubled + other.doubled)

    def __sub__(self, other: "HalfInteger") -> "HalfInteger":
        return HalfInteger(self.doubled - other.doubled)

    def __neg__(self) -> "HalfInteger":
        return HalfInteger(-self.doubled)

    def __abs__(self) -> "HalfInteger":
        return HalfInteger(abs(self.doubled))

    def __float__(self) -> float:
        return self.doubled / 2.0

    def __str__(self) -> str:
        if self.is_integral:
            return str(self.doubled // 2)
        return "%d/2" % self.doubled


def half(x) -> HalfInteger:
    """Coerce x (HalfInteger, int, or exact multiple of 1/2) to a HalfInteger."""
    if isinstance(x, HalfInteger):
        return x
    if isinstance(x, int):
        return HalfInteger(2 * x)
    d = 2 * x
    if not math.isfinite(d) or float(d) != int(d):
        raise QArithError("%r is not on the half-integer grid" % (x,))
    return HalfInteger(int(d))


def q_number(r, base: float) -> float:
    """The q-number (base^r - base^-r) / (base - base^-1).

    r may be a HalfInteger or a plain real.  Reduces to r as base -> 1.
    Raises QArithError where base^r or base^-r exceeds float64.
    """
    if base <= 0 or base == 1:
        raise QArithError("q-number base must be positive and != 1, got %r" % (base,))
    r = float(r)
    try:
        return (base ** r - base ** (-r)) / (base - 1.0 / base)
    except OverflowError:
        raise QArithError("q-number [%g] at base %g exceeds float64" % (r, base)) from None


def _cg_doubled(m1d: int, branch: int, ld: int, md: int, q: float) -> float:
    """C^{1/2, l, l + branch/2}_{m1, m, m+m1} on doubled indices.

    Out-of-range weights return 0 (the convention used when building
    coupled vectors at the j = +-(l+1/2) edges).
    """
    if m1d not in (1, -1):
        raise QArithError("m1 must be +1/2 or -1/2")
    if branch not in (1, -1):
        raise QArithError("branch must be +1 or -1")
    if ld < 0 or abs(md) > ld:
        return 0.0
    if branch == -1 and ld == 0:
        return 0.0
    lp = ld + branch
    if abs(md + m1d) > lp:
        return 0.0
    l = ld / 2.0
    m = md / 2.0
    den = q_number(l + l + 1, q)
    if branch == 1:
        if m1d == 1:
            return q ** ((l - m) / 2) * math.sqrt(q_number(l + m + 1, q) / den)
        return q ** (-(l + m) / 2) * math.sqrt(q_number(l - m + 1, q) / den)
    if m1d == 1:
        return q ** (-(l + m + 1) / 2) * math.sqrt(q_number(l - m, q) / den)
    return -q ** ((l - m + 1) / 2) * math.sqrt(q_number(l + m, q) / den)
