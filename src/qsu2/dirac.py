"""Spinor space, coupled eigenbasis and Dirac operators.

The spinor space is C^2 tensor h; a coefficient vector is a plain array,
the concatenation (e_+ block, e_- block) over the enumerated Peter-Weyl
basis.
The coupled vectors v^{l,+-}_{ij} diagonalize both the naive operator
(q-integer eigenvalues) and the true one (linear eigenvalues +-(l+1/2));
|D| is diagonal already in the product basis with eigenvalue n + 1/2.
D and Q act on the pair e_+ (n, i, j - 1/2), e_- (n, i, j + 1/2) as a
2x2 block, so they are stored as three bands of the product basis.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .qarith import HalfInteger, QArithError, _cg_doubled, half, q_number
from .peterweyl import DIAGONAL, Basis, BandMatrix, LabelSpace, Truncation
from .algebra import cg_table


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


class SpinorBasis(LabelSpace):
    """Product basis of C^2 tensor h: index = component * dim + pw position."""

    def __init__(self, basis: Basis):
        self.pw = basis
        self.trunc = basis.trunc
        self.dim = 2 * basis.dim

    def _rows_of(self, key) -> np.ndarray:
        """The Basis rows under (o, r, s), unmemoized there, moved into component c xor f."""
        o, r, s, f = key
        rows = self.pw._rows_of((o, r, s, 0))
        return np.concatenate([np.where(rows < 0, -1, rows + (c ^ f) * self.pw.dim)
                               for c in (0, 1)])


def v_enumerate(trunc: Truncation) -> list:
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


def _coefficient(table: np.ndarray, sign, ld, md) -> np.ndarray:
    """C(m1; l, m) on branch sign, read from a cg_table row of m1; 0 where |m| > l."""
    inside = np.abs(md) <= ld
    return np.where(inside, table[(1 - sign) // 2, ld, np.where(inside, (md + ld) // 2, 0)], 0.0)


class _CoupledLabels(LabelSpace):
    """The coupled labels (l, i, j) as the column space of the change of basis.

    Rows are spinor positions, so a band (0, 0, s, c) sends the column
    v^{l,sign}_{ij} to component c at the product label (l, i, j + s/2).
    """

    def __init__(self, dctx: "DiracContext", labels: tuple):
        self.labels = labels
        self.trunc = dctx.trunc
        self.block = dctx.basis.dim
        self.dim = dctx.spinor.dim


class DiracContext:
    """Shared immutable operators of the spinor picture on one truncation."""

    def __init__(self, q: float, trunc: Truncation, basis: Basis | None = None):
        self.q = q
        self.trunc = trunc
        self.basis = basis if basis is not None else Basis(trunc)
        self.spinor = SpinorBasis(self.basis)

    def v_vector(self, idx: VIndex) -> np.ndarray:
        """Spinor coefficients (complex) of the coupled vector v^{l,sign}_{ij}."""
        validate_v_index(idx)
        if idx.l.doubled > self.trunc.lmax.doubled:
            raise QArithError("spin %s exceeds truncation" % (idx.l,))
        v = np.zeros(self.spinor.dim, dtype=complex)
        for (comp, key), c in _v_entries(idx.l.doubled, idx.i.doubled,
                                         idx.j.doubled, idx.sign, self.q):
            v[comp * self.basis.dim + self.basis.position_doubled(*key)] = c
        return v

    @cached_property
    def v_labels(self) -> list:
        return v_enumerate(self.trunc)

    @cached_property
    def v_doubled(self) -> tuple:
        """(2l, 2i, 2j, sign) integer arrays of the coupled labels, in v_enumerate order."""
        parts = []
        for ld in range(self.trunc.lmax.doubled + 1):
            for sign in (1, -1):
                jmax = ld + sign
                if jmax < 0:
                    continue
                size = (ld + 1) * (jmax + 1)
                parts.append((np.full(size, ld), np.repeat(np.arange(-ld, ld + 1, 2), jmax + 1),
                              np.tile(np.arange(-jmax, jmax + 1, 2), ld + 1),
                              np.full(size, sign)))
        return tuple(np.concatenate(column) for column in zip(*parts))

    @cached_property
    def change_of_basis(self) -> BandMatrix:
        """Columns are the coupled vectors, in v_enumerate order (orthogonal).

        Column v^{l,sign}_{ij} holds C(1/2; l, j - 1/2) on e_+ (n, i, j - 1/2)
        and C(-1/2; l, j + 1/2) on e_- (n, i, j + 1/2), gathered from
        per-shell scalar tables; the components e_+, e_- are its two bands.
        """
        ld, id_, jd, sign = self.v_doubled
        bands = {(0, 0, -m1d, comp): _coefficient(cg_table(m1d, self.trunc.lmax.doubled, self.q),
                                                  sign, ld, jd - m1d)
                 for comp, m1d in enumerate((1, -1))}
        columns = _CoupledLabels(self, (0, ld, id_, jd))
        return BandMatrix(columns, bands)

    def _spectrum(self, kind: str, ld, sign) -> np.ndarray:
        """Eigenvalue of the coupled vectors with doubled spin ld and the given sign."""
        if kind == "true":
            return (ld / 2.0 + 0.5) * sign
        if kind == "naive":
            q2 = self.q ** 2
            shells = range(self.trunc.lmax.doubled + 1)
            plus = np.array([q_number(k / 2.0, q2) for k in shells])
            minus = np.array([-q_number(k / 2.0 + 1, q2) for k in shells])
            return np.where(sign > 0, plus[ld], minus[ld])
        raise QArithError("kind must be 'true' or 'naive'")

    def eigenvalues(self, kind: str) -> np.ndarray:
        """Eigenvalue per v_enumerate label for the true or naive operator."""
        ld, _, _, sign = self.v_doubled
        return self._spectrum(kind, ld, sign)

    def dirac_operator(self, kind: str) -> BandMatrix:
        """D (kind='true') or Q (kind='naive') as a band operator.

        D and Q are V diag(eigenvalues) V^T, formed block by block: the
        column e_+ (n, i, j) meets the coupled vectors (n, i, j + 1/2, +-),
        the column e_- (n, i, j) those of (n, i, j - 1/2, +-).  Each entry
        sums the same two products (V entry * eigenvalue) * V entry.
        """
        Ld = self.trunc.lmax.doubled
        nd, jd = self.basis.nd, self.basis.jd
        up, down = cg_table(1, Ld, self.q), cg_table(-1, Ld, self.q)
        diag_p = diag_m = to_m = to_p = 0.0
        for sign in (1, -1):
            ev = self._spectrum(kind, nd, sign)
            # e_+ (n, i, j) is the e_+ entry of the coupled vectors at j + 1/2
            exists = np.abs(jd + 1) <= nd + sign
            a = np.where(exists, _coefficient(up, sign, nd, jd), 0.0)
            b = np.where(exists, _coefficient(down, sign, nd, jd + 2), 0.0)
            diag_p = diag_p + (a * ev) * a
            to_m = to_m + (b * ev) * a
            # e_- (n, i, j) is the e_- entry of the coupled vectors at j - 1/2
            exists = np.abs(jd - 1) <= nd + sign
            a = np.where(exists, _coefficient(up, sign, nd, jd - 2), 0.0)
            b = np.where(exists, _coefficient(down, sign, nd, jd), 0.0)
            diag_m = diag_m + (b * ev) * b
            to_p = to_p + (a * ev) * b
        zero = np.zeros(self.basis.dim)
        bands = {DIAGONAL: np.concatenate([diag_p, diag_m]),
                 (0, 0, 2, 1): np.concatenate([to_m, zero]),
                 (0, 0, -2, 1): np.concatenate([zero, to_p])}
        return BandMatrix(self.spinor, bands)

    def q_relation_check(self) -> float:
        """Max residual of [D - I/2]_{q^2} = Q over the coupled eigenbasis."""
        lhs = np.array([q_number(e - 0.5, self.q ** 2)
                        for e in self.eigenvalues("true")])
        return float(np.abs(lhs - self.eigenvalues("naive")).max())


def b_coefficient(l, i, j, m, eps: int, q: float) -> float:
    """Transition coefficient b^eps_m(i, j) of multiplication by ttilde^{1/2}_{1/2,1/2}.

    Computed from the four-CG sum formula; m must be l - 1/2 or l + 1/2,
    eps = +1 or -1 selects the sign of the target coupled family.
    """
    ld, id_, jd, md = half(l).doubled, half(i).doubled, half(j).doubled, half(m).doubled
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


def b_minus_closed(l, i, j, q: float) -> float:
    """Closed form of b^-_{l+1/2}(i, j)."""
    ld, id_, jd = half(l).doubled, half(i).doubled, half(j).doubled
    lf, jf = ld / 2.0, jd / 2.0
    pref = (q ** ((lf - 3 * jf - 0.5) / 2)
            * math.sqrt(q_number(lf - jf + 0.5, q))
            / (q_number(2 * lf + 1, q) * math.sqrt(q_number(2 * lf + 2, q))))
    mid = q_number(lf + jf + 0.5, q) - q_number(lf + jf + 1.5, q)
    cg = _cg_doubled(1, 1, ld, id_, q)
    tail = math.sqrt(q_number(2, q) * q_number(2 * lf + 1, q) / q_number(2 * lf + 2, q))
    return pref * mid * cg * tail
