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
"""
from __future__ import annotations

import math

from .algebra import NCPolynomial
from .qarith import QArithError

_SWAP_ALPHA = str.maketrans("aA", "Aa")


def rep_apply(word: str, k: int, q: float):
    """Apply a generator word (rightmost letter first) to ladder level k at q > 1.

    Returns (amplitude, k', winding).  An annihilated state comes back with
    amplitude exactly 0.0.
    """
    if k < 0:
        raise ValueError("level must be nonnegative")
    amp = 1.0
    level = k
    winding = 0
    for ch in reversed(word):
        if ch == "a":
            amp *= math.sqrt(1.0 - q ** (-2 * (level + 1)))
            level += 1
        elif ch == "A":
            if level == 0:
                return 0.0, k, winding
            amp *= math.sqrt(1.0 - q ** (-2 * level))
            level -= 1
        elif ch == "g":
            amp *= q ** (-(level + 1))
            winding += 1
        elif ch == "G":
            amp *= q ** (-(level + 1))
            winding -= 1
        else:
            raise ValueError("unknown letter %r" % ch)
        if amp == 0.0:
            return 0.0, k, winding
    return amp, level, winding


def oracle_haar(p: NCPolynomial, K: int, q: float) -> complex:
    """psi(p) as a weighted diagonal sum over ladder levels 0..K.

    Converges geometrically in K; the truncation error of the constant
    term is max(q, 1/q)^{-2(K+1)}.  A word whose letters do not balance
    (#a != #A or #g != #G) is exactly 0.0 and runs no ladder levels.
    For 0 < q < 1 the word with a and A swapped, each g or G scaled by
    1/q, is evaluated at 1/q with the coefficients kept.  q <= 0 and
    q = 1 raise QArithError.
    """
    if not (q > 0 and q != 1):
        raise QArithError("the ladder oracle needs q > 0 and q != 1, got q = %g" % q)
    if q < 1:
        inv = 1.0 / q
        mirrored = {w.translate(_SWAP_ALPHA): c * inv ** (w.count("g") + w.count("G"))
                    for w, c in p.terms.items()}
        return oracle_haar(NCPolynomial(mirrored), K, inv)
    total = 0.0 + 0.0j
    for word, coeff in p.terms.items():
        acc = 0.0
        if _balanced(word):
            for k in range(K + 1):
                amp, level, winding = rep_apply(word, k, q)
                if amp != 0.0 and level == k and winding == 0:
                    acc += q ** (-2 * k) * amp
        total += coeff * (1.0 - q ** -2) * acc
    return total


def _balanced(word: str) -> bool:
    """Whether the word has as many a as A and as many g as G.

    rep_apply moves the level by #a - #A and the winding by #g - #G, so an
    unbalanced word adds exactly 0.0 at every level.
    """
    return word.count("a") == word.count("A") and word.count("g") == word.count("G")
