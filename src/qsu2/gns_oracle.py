"""Independent Haar-state oracle through the standard ladder representation.

The generators act on ladder states (k, winding) by

    alpha:  k -> k+1 with amplitude sqrt(1 - q^{-2(k+1)})
    gamma:  diagonal, q^{-(k+1)} times the circle variable u

The circle average is taken symbolically: only winding-0 contributions
survive.  The state weight (1 - q^{-2}) q^{-2k} is the unique geometric
weight normalizing the constant; it earns trust through the agreement
battery against the Peter-Weyl route in the tests.

The amplitudes are real only for q > 1.  For 0 < q < 1 the oracle goes
through SU_q(2) = SU_{1/q}(2): when (alpha, gamma) satisfies the
relations at 1/q, (alpha*, gamma/q) satisfies them at q.

Each pass of LADDER_LEVELS levels forms its own table of the powers q^{-k}
and q^{-2k} and drops it when it ends: nothing is kept between calls.
"""
from __future__ import annotations

import math

import numpy as np

from .algebra import NCPolynomial
from .qarith import QArithError

_SWAP_ALPHA = str.maketrans("aA", "Aa")

LADDER_LEVELS = 1 << 14  # ladder levels per pass: whole passes, the running sum carried between


def _powers(q: float, lo: int, hi: int) -> np.ndarray:
    """q ** -k (row 0) and q ** (-2 k) (row 1) for the levels lo <= k < hi.

    Each entry is one scalar Python power, whose bits np.power does not
    always have.
    """
    return np.array([[q ** -k for k in range(lo, hi)], [q ** (-2 * k) for k in range(lo, hi)]])


def _ladder_sums(words, K: int, q: float) -> dict:
    """{w: sum_k q^{-2k} amp_k over the levels k = 0..K} for the balanced words w, at q > 1.

    amp_k brings level k back to itself, the letters applied rightmost
    first (see the module docstring).  Each pass over the levels
    k0 <= k < k1, LADDER_LEVELS of them, forms one power table for the
    levels k0 - reach .. k1 + reach, its own widened by the longest word's
    length on each side, runs every word on it, one numpy pass per letter,
    and drops it.  alpha* at level 0 multiplies by sqrt(1 - q^0) = 0 and
    keeps the level at 0, so an annihilated level stays exactly 0 (no
    factor exceeds 1).  Each word's terms are summed in level order from
    0.0, its sum carried from pass to pass: the bits of the scalar ladder,
    level by level.  A word with #a != #A or #g != #G adds exactly 0.0 at
    every level and is left out.
    """
    totals = {w: 0.0 for w in words
              if w.count("a") == w.count("A") and w.count("g") == w.count("G")}
    reach = max(map(len, totals), default=0)
    for k0 in range(0, K + 1, LADDER_LEVELS) if totals else ():
        k1 = min(k0 + LADDER_LEVELS, K + 1)
        lo = max(k0 - reach, 0)
        p1, p2 = _powers(q, lo, k1 + reach + 1)
        for word, total in totals.items():
            level = np.arange(k0 - lo, k1 - lo)  # less lo
            amp = np.ones(k1 - k0)
            for ch in reversed(word):
                if ch == "a":
                    amp *= np.sqrt(1.0 - p2[level + 1])
                    level += 1
                elif ch == "A":
                    amp *= np.sqrt(1.0 - p2[level])
                    np.maximum(level - 1, 0, out=level)
                else:
                    amp *= p1[level + 1]
            terms = p2[k0 - lo:k1 - lo] * amp
            terms[0] += total
            totals[word] = float(np.cumsum(terms)[-1])
    return totals


def _weighted_sums(terms, K: int, q: float) -> list:
    """coeff * (1 - q^-2) * the ladder sum of each (word, coeff) pair, at q or, below 1, at 1/q."""
    if not (q > 0 and q != 1):
        raise QArithError("the ladder oracle needs q > 0 and q != 1, got q = %g" % q)
    if q < 1:  # SU_q(2) = SU_{1/q}(2): a and A swapped, each g or G scaled by 1/q
        terms, q = [(w.translate(_SWAP_ALPHA), c * (1.0 / q) ** (w.count("g") + w.count("G")))
                    for w, c in terms], 1.0 / q
    sums = _ladder_sums([w for w, _ in terms], K, q)
    return [coeff * (1.0 - q ** -2) * sums.get(word, 0.0) for word, coeff in terms]


def ladder_cut(q: float) -> int:
    """validate's levels K = max(80, ceil(ln(2e12) / (2 ln b))), b = max(q, 1/q): a truncation
    error b^{-2(K+1)} below 5e-13, half of 1e-12, leaves the rest for the rounding of K terms."""
    return max(80, math.ceil(math.log(2e12) / (2 * math.log(max(q, 1.0 / q)))))


def oracle_haar(p: NCPolynomial, K: int, q: float) -> complex:
    """psi(p) as a weighted diagonal sum over ladder levels 0..K.

    Converges geometrically in K; the truncation error of the constant
    term is max(q, 1/q)^{-2(K+1)}.  A word whose letters do not balance
    (#a != #A or #g != #G) is exactly 0.0 and runs no ladder levels.
    For 0 < q < 1 the word with a and A swapped, each g or G scaled by
    1/q, is evaluated at 1/q with the coefficients kept.  q <= 0 and
    q = 1 raise QArithError.
    """
    total = 0.0 + 0.0j
    for term in _weighted_sums(p.terms.items(), K, q):
        total += term
    return total


def oracle_haar_words(words, K: int, q: float) -> list:
    """oracle_haar(NCPolynomial.word(w), K, q) for each word w, its bits: one ladder run for all."""
    return [0.0 + 0.0j + term for term in _weighted_sums([(w, 1.0) for w in words], K, q)]
