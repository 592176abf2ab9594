"""Spinor space, coupled eigenbasis and Dirac operators.

The spinor space is C^2 tensor h; a coefficient vector is a plain array,
the concatenation (e_+ block, e_- block) over the enumerated Peter-Weyl
basis.
The coupled vectors v^{l,+-}_{ij} diagonalize both the naive operator
(q-integer eigenvalues) and the true one (linear eigenvalues +-(l+1/2));
|D| is diagonal already in the product basis with eigenvalue n + 1/2.
D and Q act on the pair e_+ (n, i, j - 1/2), e_- (n, i, j + 1/2) as a
2x2 block: dirac_blocks gives the block entries at any labels, and
dirac_operator stores them as three bands of the product basis.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .qarith import QArithError, q_number
from .peterweyl import DIAGONAL, Basis, BandMatrix, LabelSpace, Truncation
from .algebra import generator_tables


class SpinorBasis(LabelSpace):
    """Product basis of C^2 tensor h: index = component * dim + pw position."""

    def __init__(self, basis: Basis):
        self.pw = basis
        self.trunc = basis.trunc
        self.block = basis.dim
        self.dim = 2 * basis.dim

    @property
    def labels(self) -> tuple:
        """(component, 2n, 2i, 2j) per position: the Basis labels, once per component."""
        pw = self.pw
        return (np.repeat(np.arange(2), pw.dim), np.tile(pw.nd, 2), np.tile(pw.id, 2),
                np.tile(pw.jd, 2))


def _coefficient(table: np.ndarray, sign, ld, md) -> np.ndarray:
    """C(m1; l, m) on branch sign from the padded CG table of m1: +0.0 for l < |m| <= l + 2."""
    return table[(1 - sign) // 2, ld + 1, (md + ld) // 2 + 1]


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


def _spectrum(kind: str, ld, sign, q: float, lmax_doubled: int):
    """Eigenvalue of the coupled vectors with doubled spin ld <= lmax_doubled and the given sign."""
    if kind == "true":
        return (ld / 2.0 + 0.5) * sign
    if kind == "naive":
        q2 = q ** 2
        shells = range(lmax_doubled + 1)
        plus = np.array([q_number(k / 2.0, q2) for k in shells])
        minus = np.array([-q_number(k / 2.0 + 1, q2) for k in shells])
        return np.where(sign > 0, plus[ld], minus[ld])
    raise QArithError("kind must be 'true' or 'naive'")


def dirac_blocks(kind: str, nd, jd, q: float, lmax_doubled: int) -> tuple:
    """The 2x2 blocks of D (kind='true') or Q (kind='naive') at the doubled labels (nd, jd).

    Returns (diag_p, to_m, diag_m, to_p), one value per label: the column
    e_+ (n, i, j) holds diag_p on itself and to_m on e_- (n, i, j + 1), the
    column e_- (n, i, j) holds diag_m on itself and to_p on e_+ (n, i, j - 1);
    no value depends on i.  D and Q are V diag(eigenvalues) V^T, formed
    block by block: the column e_+ (n, i, j) meets the coupled vectors
    (n, i, j + 1/2, +-), the column e_- (n, i, j) those of (n, i, j - 1/2, +-).
    Each entry sums the same two products (V entry * eigenvalue) * V entry,
    elementwise, so the values at any subset of labels have the bits of
    the whole.  Labels need 0 <= nd <= lmax_doubled and |jd| <= nd.
    """
    up, down = generator_tables(lmax_doubled, q)[0]
    diag_p = diag_m = to_m = to_p = 0.0
    for sign in (1, -1):
        ev = _spectrum(kind, nd, sign, q, lmax_doubled)
        # e_+ (n, i, j) is the e_+ entry of the coupled vectors at j + 1/2, which is a
        # zero of the table where no such vector exists (as at j - 1/2 below)
        a, b = _coefficient(up, sign, nd, jd), _coefficient(down, sign, nd, jd + 2)
        diag_p = diag_p + (a * ev) * a
        to_m = to_m + (b * ev) * a
        # e_- (n, i, j) is the e_- entry of the coupled vectors at j - 1/2
        a, b = _coefficient(up, sign, nd, jd - 2), _coefficient(down, sign, nd, jd)
        diag_m = diag_m + (b * ev) * b
        to_p = to_p + (a * ev) * b
    return diag_p, to_m, diag_m, to_p


class DiracContext:
    """Shared immutable operators of the spinor picture on one truncation."""

    def __init__(self, q: float, trunc: Truncation, basis: Basis | None = None):
        self.q = q
        self.trunc = trunc
        self.basis = basis if basis is not None else Basis(trunc)
        self.spinor = SpinorBasis(self.basis)

    @cached_property
    def v_doubled(self) -> tuple:
        """(2l, 2i, 2j, sign) integer arrays of the coupled labels.

        Ordered by ascending 2l, then sign (+ first), i and j; j runs to
        +-(l + 1/2) for sign + and to +-(l - 1/2) for sign -.
        """
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
        """Columns are the coupled vectors, in v_doubled order (orthogonal).

        Column v^{l,sign}_{ij} holds C(1/2; l, j - 1/2) on e_+ (n, i, j - 1/2)
        and C(-1/2; l, j + 1/2) on e_- (n, i, j + 1/2), gathered from
        per-shell scalar tables; the components e_+, e_- are its two bands.
        """
        ld, id_, jd, sign = self.v_doubled
        cg = generator_tables(self.trunc.lmax.doubled, self.q)[0]
        bands = {(0, 0, -m1d, comp): _coefficient(cg[comp], sign, ld, jd - m1d)
                 for comp, m1d in enumerate((1, -1))}
        columns = _CoupledLabels(self, (0, ld, id_, jd))
        return BandMatrix(columns, bands)

    def eigenvalues(self, kind: str) -> np.ndarray:
        """Eigenvalue per coupled label, in v_doubled order, for the true or naive operator."""
        ld, _, _, sign = self.v_doubled
        return _spectrum(kind, ld, sign, self.q, self.trunc.lmax.doubled)

    def dirac_operator(self, kind: str) -> BandMatrix:
        """D (kind='true') or Q (kind='naive') as three bands of the spinor basis (dirac_blocks)."""
        diag_p, to_m, diag_m, to_p = dirac_blocks(kind, self.basis.nd, self.basis.jd, self.q,
                                                  self.trunc.lmax.doubled)
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
