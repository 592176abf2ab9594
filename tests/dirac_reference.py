"""The coupled vectors one at a time, and the paper's transition coefficients.

v_vector builds a single coupled vector v^{l,sign}_{ij} at spinor length
from the scalar q-Clebsch-Gordan coefficients, label by label: the route
the program used before it read the true-D growth from D's 2x2 blocks, and
an independent check of the table-driven change of basis.  b_coefficient
is the four-CG sum for the transition coefficients b^eps_m(i, j) of
multiplication by ttilde^{1/2}_{1/2,1/2}, and b_minus_closed the printed
closed form of b^-_{l+1/2}(i, j): a route to the growth that shares no
operator code.
"""
import math
from typing import NamedTuple

import numpy as np

from qsu2.qarith import HalfInteger, QArithError, _cg_doubled, q_number


class VIndex(NamedTuple):
    """Label (l, i, j, sign) of a coupled eigenvector."""

    l: HalfInteger
    i: HalfInteger
    j: HalfInteger
    sign: int  # +1 or -1


def validate_v_index(idx: VIndex) -> None:
    ld, id_, jd = idx.l.doubled, idx.i.doubled, idx.j.doubled
    if ld < 0 or abs(id_) > ld or (ld - id_) % 2:
        raise QArithError("i out of range in %s" % (idx,))
    # j ranges to +-(l+1/2) for sign +, +-(l-1/2) for sign -; forced by the
    # dimension count 2(2l+1)^2 per level.
    jmax = ld + idx.sign
    if idx.sign not in (1, -1) or jmax < 0 or abs(jd) > jmax or (jmax - jd) % 2:
        raise QArithError("j out of range in %s" % (idx,))


def v_enumerate(trunc) -> list:
    """All VIndex labels, ordered by ascending 2l, sign (+ first), i, j."""
    out = []
    for ld in range(trunc.lmax.doubled + 1):
        for sign in (1, -1):
            jmax = ld + sign
            if jmax < 0:
                continue
            for id_ in range(-ld, ld + 1, 2):
                for jd in range(-jmax, jmax + 1, 2):
                    out.append(VIndex(HalfInteger(ld), HalfInteger(id_),
                                      HalfInteger(jd), sign))
    return out


def _v_entries(ld: int, id_: int, jd: int, sign: int, q: float) -> list:
    """((component, (n, i, j) doubled), coefficient) pairs of v^{l,sign}_{ij}."""
    out = []
    c = _cg_doubled(1, sign, ld, jd - 1, q)
    if c != 0.0 and abs(jd - 1) <= ld:
        out.append(((0, (ld, id_, jd - 1)), c))
    c = _cg_doubled(-1, sign, ld, jd + 1, q)
    if c != 0.0 and abs(jd + 1) <= ld:
        out.append(((1, (ld, id_, jd + 1)), c))
    return out


def v_vector(dctx, idx: VIndex) -> np.ndarray:
    """Spinor coefficients (complex) of the coupled vector v^{l,sign}_{ij} of a DiracContext."""
    validate_v_index(idx)
    if idx.l.doubled > dctx.trunc.lmax.doubled:
        raise QArithError("spin %s exceeds truncation" % (idx.l,))
    v = np.zeros(dctx.spinor.dim, dtype=complex)
    for (comp, key), c in _v_entries(idx.l.doubled, idx.i.doubled,
                                     idx.j.doubled, idx.sign, dctx.q):
        v[comp * dctx.basis.dim + dctx.basis.position_doubled(*key)] = c
    return v


def b_coefficient(l: HalfInteger, i: HalfInteger, j: HalfInteger, m: HalfInteger, eps: int,
                  q: float) -> float:
    """Transition coefficient b^eps_m(i, j) of multiplication by ttilde^{1/2}_{1/2,1/2}.

    Computed from the four-CG sum formula; m must be l - 1/2 or l + 1/2,
    eps = +1 or -1 selects the sign of the target coupled family.
    """
    ld, id_, jd, md = l.doubled, i.doubled, j.doubled, m.doubled
    if md not in (ld - 1, ld + 1):
        raise QArithError("m must be l +- 1/2")
    if eps not in (1, -1):
        raise QArithError("eps must be +1 or -1")
    branch = md - ld
    total = 0.0
    for m1 in (1, -1):
        total += (_cg_doubled(m1, 1, ld, jd - m1, q)
                  * _cg_doubled(1, branch, ld, id_, q)
                  * _cg_doubled(1, branch, ld, jd - m1, q)
                  * _cg_doubled(m1, eps, md, jd + 1 - m1, q))
    nu = math.sqrt(q_number(2, q) * q_number(ld + 1, q) / q_number(md + 1, q))
    return total * nu


def b_minus_closed(l: HalfInteger, i: HalfInteger, j: HalfInteger, q: float) -> float:
    """Closed form of b^-_{l+1/2}(i, j)."""
    ld, id_, jd = l.doubled, i.doubled, j.doubled
    lf, jf = ld / 2.0, jd / 2.0
    pref = (q ** ((lf - 3 * jf - 0.5) / 2)
            * math.sqrt(q_number(lf - jf + 0.5, q))
            / (q_number(2 * lf + 1, q) * math.sqrt(q_number(2 * lf + 2, q))))
    mid = q_number(lf + jf + 0.5, q) - q_number(lf + jf + 1.5, q)
    cg = _cg_doubled(1, 1, ld, id_, q)
    tail = math.sqrt(q_number(2, q) * q_number(2 * lf + 1, q) / q_number(2 * lf + 2, q))
    return pref * mid * cg * tail
