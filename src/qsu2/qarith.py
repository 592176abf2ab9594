"""Doubled-integer spin labels, q-numbers and spin-1/2 q-Clebsch-Gordan coefficients.

Spin and weight labels live on the half-integer grid.  They are passed as
doubled integers, so index arithmetic never touches floating point;
HalfInteger holds one where a type is stored (Truncation.lmax).
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class QArithError(ValueError):
    """Invalid parameter for a q-arithmetic operation."""


@dataclass(frozen=True)
class HalfInteger:
    """A number of the form doubled/2 with doubled an exact integer."""

    doubled: int

    def __post_init__(self):
        if not isinstance(self.doubled, int):
            raise QArithError("HalfInteger stores a doubled integer, got %r" % (self.doubled,))

    def __str__(self) -> str:
        if self.doubled % 2 == 0:
            return str(self.doubled // 2)
        return "%d/2" % self.doubled


def q_number(r: float, base: float) -> float:
    """The q-number (base^r - base^-r) / (base - base^-1); reduces to r as base -> 1.

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
