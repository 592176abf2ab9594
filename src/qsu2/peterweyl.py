"""Peter-Weyl basis bookkeeping for the truncated GNS space.

The orthonormal basis elements are labelled by (n, i, j) with n a
nonnegative half-integer spin and i, j in -n..n on the integer-stepped
grid.  A truncation keeps all spins n <= lmax.

Operators are stored as BandMatrix: every operator the program builds has
a fixed weight on the basis (a word in the generators shifts (n, i, j) by
at most len(word) + 1 spin offsets and one (i, j) shift), so it is kept
as a square operator on its labels, column by column, one value per
shift.  The basis is ordered by shell and row-major inside each shell,
so a shift sends each in-shell row of (2n + 1) labels, in order, to
consecutive rows: the target rows come from one target per in-shell row,
an O(lmax^2) table, run along the row, and the few labels at the ends
of a row that leave the target shell.  The largest spin shift over the
bands is the operator's shell depth: the number of top spin shells whose
image may be corrupted by the truncation.  Action on vectors supported
on spins n <= lmax - depth is exact.  Every route over bands (matvec,
product, adjoint) goes one column block of whole shells at a time and
reads the rows of that block alone, so no row index of every label is
kept beyond a basis of one block.  An operator held as per-shell factors
(the generators) forms its bands over the shells that such a block
reads: bands_over, with the block's window for the left factor of a
product.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qarith import HalfInteger, QArithError


@dataclass(frozen=True)
class Truncation:
    """Keep all Peter-Weyl spins n <= lmax."""

    lmax: HalfInteger

    def __post_init__(self):
        if self.lmax.doubled < 0:
            raise QArithError("lmax must be >= 0")


def shell_starts(lmax_doubled: int) -> np.ndarray:
    """Position of the first label of each shell 2n = 0 .. lmax_doubled + 1.

    Shell 2n holds (2n + 1)^2 labels, so the last entry is the dimension.
    """
    return np.concatenate([[0], np.cumsum(np.arange(1, lmax_doubled + 2) ** 2)])


BLOCK_LABELS = 1 << 14  # labels per column block: whole shells, more only for one shell


class ColumnBlock:
    """The columns lo .. hi of a space, with what is formed over them once per block.

    On a Basis the block holds whole spin shells, n0 <= 2n < n1 (shells),
    and its window is those shells with one more on each side, within the
    truncation: the shells that the rows of a generator, an operator of
    shell depth 1, reach from the block; inner is the block's columns
    within the labels of its window.  rows(key, lo) are the rows of its
    columns under key, less lo (the rows in an array whose first label is
    at lo; -1 stays -1), computed from the space's per-row tables once per
    key and lo.  memo holds the rest that a consumer forms once per block:
    generator bands (Generator.bands_over) and rho over the window (rho).
    What a block holds lives as long as the block: a space of one block
    keeps that block, so its rows, bands and rho are formed once; the
    blocks of a larger Basis come one at a time, and prev is the block
    before this one, with its memo but not its rows, until the next comes.
    """

    def __init__(self, space, lo: int, hi: int, shells=None):
        self.space = space
        self.lo = lo
        self.size = hi - lo
        self.cols = slice(lo, hi)
        self.shells = self.window = shells
        if shells is not None:
            self.window = (max(shells[0] - 1, 0), min(shells[1] + 1, space.trunc.lmax.doubled + 1))
            first = int(space.start[self.window[0]])
            self.inner = slice(lo - first, hi - first)
        self._rows = {}
        self.memo = {}
        self.prev = None

    def rows(self, key, lo: int = 0) -> np.ndarray:
        rows = self._rows.get((key, lo))
        if rows is None:
            rows = self._rows[key, lo] = self.space._rows_of(key, self.shells, lo)
        return rows

    def rho(self, q: float) -> np.ndarray:
        """rho_weights over the window, formed once per block."""
        if ("rho", q) not in self.memo:
            self.memo["rho", q] = rho_weights(self.space, q, self.window)
        return self.memo["rho", q]


class LabelSpace:
    """Column labels of band operators, with the row each shift key sends them to.

    A subclass sets trunc and dim.  The column labelled (c, n, i, j)
    reaches (c xor f, n + o/2, i + r/2, j + s/2) under the key (o, r, s, f),
    all doubled; its row is the position of that label in the Basis order,
    offset by the block of component c xor f, or -1 where the label leaves
    the truncation.  Basis and the spinor basis derive their rows from the
    Basis's per-row tables; the label-by-label _rows_of below serves the
    coupled labels, which set labels = (c, nd, id, jd) and block.
    """

    shells = None  # on a Basis, every spin shell: (0, lmax_doubled + 1)

    def column_blocks(self):
        """The column blocks that tile the space: here one, over every column, kept (whole)."""
        return (self.whole,)

    @cached_property
    def whole(self) -> ColumnBlock:
        """The one column block over every column (and shell), kept with the space."""
        return ColumnBlock(self, 0, self.dim, self.shells)

    def _rows_of(self, key, shells=None, lo: int = 0) -> np.ndarray:
        """Rows under key from the labels, label by label; one block: lo is 0."""
        comp, nd, id_, jd = self.labels
        o, r, s, f = key
        Ld = self.trunc.lmax.doubled
        md, mi, mj = nd + o, id_ + r, jd + s
        inside = (md >= 0) & (md <= Ld) & (np.abs(mi) <= md) & (np.abs(mj) <= md)
        md = np.where(inside, md, 0)
        position = shell_starts(Ld)[md] + (mi + md) // 2 * (md + 1) + (mj + md) // 2
        return np.where(inside, (comp ^ f) * self.block + position, -1)


class Basis(LabelSpace):
    """Deterministic enumeration of the truncated Peter-Weyl basis.

    Order: ascending 2n, then i, then j.  Shell 2n starts at start[2n]
    and is a (2n + 1) x (2n + 1) grid, row-major in the in-shell row
    a = (i + n) and column b = (j + n).  The per-row tables row_nd
    (doubled spin of each in-shell row), row_a (its row index) and
    row_start (position of its first label) have O(lmax^2) entries.  The
    doubled labels nd, id and jd are derived from them on each access, so
    the basis keeps no label-length array.  shells is every spin shell,
    (0, lmax_doubled + 1).
    """

    def __init__(self, trunc: Truncation):
        self.trunc = trunc
        nd = np.arange(trunc.lmax.doubled + 1, dtype=np.int64)
        self.start = shell_starts(trunc.lmax.doubled)
        self.dim = int(self.start[-1])
        self.shells = (0, trunc.lmax.doubled + 1)
        self.row_nd = np.repeat(nd, nd + 1)
        self.row_a = np.arange(len(self.row_nd)) - np.repeat(nd * (nd + 1) // 2, nd + 1)
        self.row_start = self.start[self.row_nd] + self.row_a * (self.row_nd + 1)

    @property
    def nd(self) -> np.ndarray:
        """Doubled spin of each label."""
        return np.repeat(self.row_nd, self.row_nd + 1)

    @property
    def id(self) -> np.ndarray:
        """Doubled i of each label, 2 a - n."""
        return np.repeat(2 * self.row_a - self.row_nd, self.row_nd + 1)

    @property
    def jd(self) -> np.ndarray:
        """Doubled j of each label, 2 b - n."""
        return self.along_rows(-self.row_nd, 2)

    def column_blocks(self, n1=None):
        """Column blocks of whole shells 2n < n1 (every shell by default), in order.

        A block holds at most BLOCK_LABELS labels, or one shell that has
        more.  A basis of at most BLOCK_LABELS labels is one block, whole,
        whatever n1: the block it keeps, so what that block holds is formed
        once per basis.  This is the one place that tells the two apart; the
        blocks of a larger basis are made one at a time.
        """
        return (self.whole,) if self.dim <= BLOCK_LABELS else self._blocks(n1)

    def _blocks(self, n1):
        n1 = self.shells[1] if n1 is None else n1
        n0, prev = 0, None
        while n0 < n1:
            n = n0 + 1
            while n < n1 and self.start[n + 1] - self.start[n0] <= BLOCK_LABELS:
                n += 1
            block = ColumnBlock(self, int(self.start[n0]), int(self.start[n]), (n0, n))
            if prev is not None:
                prev.prev = None
                prev._rows.clear()
                block.prev = prev
            yield block
            n0, prev = n, block

    def in_shell_rows(self, shells=None) -> slice:
        """The entries of the per-row tables for the shells n0 <= 2n < n1 (all by default)."""
        n0, n1 = shells or self.shells
        return slice(n0 * (n0 + 1) // 2, n1 * (n1 + 1) // 2)

    def along_rows(self, first: np.ndarray, step: int = 1, shells=None) -> np.ndarray:
        """first[r] + step * b at column b of in-shell row r, one int64 per label.

        first has one entry per in-shell row of the shells n0 <= 2n < n1
        (all shells by default), and the result one per label of those
        shells: step * p at position p, plus first[r] - step * p0 expanded
        over row r, whose first label is at p0.
        """
        rows = self.in_shell_rows(shells)
        nd, row_start = self.row_nd[rows], self.row_start[rows]
        out = np.arange(step * row_start[0], step * self.start[nd[-1] + 1], step, dtype=np.int64)
        out += np.repeat(first - step * row_start, nd + 1)
        return out

    def _row_targets(self, key) -> np.ndarray:
        """The row under key of each in-shell row's first label; below -dim where the row leaves.

        Every label of the in-shell row (n, a) moves to the row
        (n + o/2, a + (r + o)/2) of its target shell, in the same order.
        One entry per in-shell row, computed once per key and kept.
        """
        memo = self.__dict__.setdefault("_targets", {})
        if key not in memo:
            o, r, s, _ = key  # a Basis has one component
            nd, a = self.row_nd, self.row_a
            md, ma = nd + o, a + (r + o) // 2
            inside = (md >= 0) & (md <= self.trunc.lmax.doubled) & (ma >= 0) & (ma <= md)
            target = self.start[np.where(inside, md, 0)] + ma * (md + 1) + (s + o) // 2
            memo[key] = np.where(inside, target, -1 - self.dim)
        return memo[key]

    def _rows_of(self, key, shells=None, lo: int = 0) -> np.ndarray:
        """Rows under key, less lo, of the shells n0 <= 2n < n1 (all by default), per row table.

        The labels of an in-shell row run along_rows from the row of its
        first label (_row_targets); a row that lands outside starts below
        -dim and comes out as -1.  A column b moves to b + (s + o)/2, so the
        same number of labels at the start or the end of every row, at most
        the shell depth, leave the target shell.  The rows of some shells
        are the slice of the rows of all, formed from the per-row tables of
        those shells only.  lo is taken from the row of each in-shell row's
        first label; a row inside is at least lo, so only -1 is negative.
        """
        o, _, s, _ = key
        rows = self.in_shell_rows(shells)
        nd = self.row_nd[rows]
        row_start = self.row_start[rows] - self.row_start[rows.start]
        out = self.along_rows(self._row_targets(key)[rows] - lo, 1, shells)
        np.maximum(out, -1, out=out)
        for k in range(-((s + o) // 2)):  # columns b < -(s + o)/2
            out[row_start + np.minimum(k, nd)] = -1
        for k in range((s - o) // 2):  # columns b > n + (o - s)/2
            out[row_start + np.maximum(nd - k, 0)] = -1
        return out

    def position_doubled(self, nd: int, id_: int, jd: int) -> int:
        if (not 0 <= nd <= self.trunc.lmax.doubled or abs(id_) > nd or abs(jd) > nd
                or (nd - id_) % 2 or (nd - jd) % 2):
            raise QArithError("doubled label (%d, %d, %d) is not in the truncation"
                              % (nd, id_, jd))
        return int(self.start[nd]) + (id_ + nd) // 2 * (nd + 1) + (jd + nd) // 2


def rho_weights(basis: Basis, q: float, shells=None) -> np.ndarray:
    """Modular weights q^{-2i-2j} over the labels of the shells n0 <= 2n < n1 (all by default).

    2i + 2j takes the 4 lmax_doubled + 1 integer values e with
    |e| <= 2 lmax_doubled; q ** -e is evaluated once per value and
    gathered, with the bits of one power per basis label.  Along an
    in-shell row, 2i + 2j runs from 2i - 2n in steps of 2.  A consumer on
    several column blocks forms the weights of one block at a time.
    """
    top = 2 * basis.trunc.lmax.doubled
    powers = q ** -np.arange(-top, top + 1, dtype=float)
    rows = basis.in_shell_rows(shells)
    first = 2 * (basis.row_a[rows] - basis.row_nd[rows]) + top  # 2i - 2n + top at b = 0
    return powers[basis.along_rows(first, 2, shells)]


DIAGONAL = (0, 0, 0, 0)


def _in_place(ufunc, x: np.ndarray, y):
    """ufunc(x, y), written into x when x's dtype holds the result."""
    if np.result_type(x, y) != x.dtype:
        return ufunc(x, y)
    return ufunc(x, y, out=x)


class BandMatrix:
    """An operator of fixed weights, stored column by column, one value per band.

    The operator is square on the labels of space.  bands maps a shift key
    (see LabelSpace) to the values of that band, one per column; a value is
    0 wherever the shifted label leaves the truncation.  X @ Y needs no
    index arrays: it collects product_bands, the one product routine, whose
    other consumers reduce each band as it is formed.  As in CSR
    arithmetic, every sum of products starts from +0.0, so an entry that
    sums at most two nonzero terms (left-folded word products, D from its
    2x2 blocks) has the same bits as on the CSR route.
    """

    def __init__(self, space, bands: dict):
        self.space = space
        self.bands = bands

    @property
    def shape(self) -> tuple:
        return (self.space.dim, self.space.dim)

    @property
    def dtype(self):
        return np.result_type(float, *self.bands.values())

    @property
    def nnz(self) -> int:
        return sum(int(np.count_nonzero(v)) for v in self.bands.values())

    @property
    def shell_depth_doubled(self) -> int:
        """Twice the largest spin shift over the bands; 0 without bands.

        A word of length k has bands up to o = +-k, so depths add under
        composition, and a sum has the depth of its deepest term.
        """
        return max((abs(key[0]) for key in self.bands), default=0)

    @property
    def mat(self) -> "BandMatrix":
        """This operator itself.

        Read only by perfbench/worker.py, whose trace facts take op.mat.nnz;
        the in-program stage recorder of ROADMAP item 1 removes it.
        """
        return self

    def __matmul__(self, other):
        """A matvec, or the product of two operators, both through column_blocks.

        The matvec goes keys outer and blocks inner, so each entry sums its
        keys' terms in key order from +0.0; row -1 (outside the truncation)
        lands in a spare last slot.  A product's bands are written block by
        block, each entry summed as product_bands sums it.
        """
        if isinstance(other, np.ndarray):
            out = np.zeros(self.shape[0] + 1, dtype=np.result_type(self.dtype, other))
            for key, v in self.bands.items():
                for block in self.space.column_blocks():
                    out[block.rows(key)] += v[block.cols] * other[block.cols]
            return out[:-1]
        bands = {}
        for block in other.space.column_blocks():
            for key, band in self.product_bands(other, block):
                if key not in bands:
                    bands[key] = np.empty(other.space.dim, dtype=band.dtype)
                bands[key][block.cols] = band
        return BandMatrix(other.space, bands)

    def bands_over(self, block: ColumnBlock, shells) -> tuple:
        """(lo, bands): bands over a range of labels, from position lo, holding the shells n0..n1.

        The shells are n0 <= 2n < n1.  Here the bands themselves, from
        position 0; an operator held as factors forms its bands over those
        shells instead.
        """
        return 0, self.bands

    def product_bands(self, other: "BandMatrix", block: ColumnBlock, keys=None, scale=None):
        """The bands of (scale * self) @ other over a column block, a key at a time: (key, band).

        block is a ColumnBlock of other's space.  Band kx + ky collects
        self's band kx gathered at the rows of other's band ky.  A key's
        terms are summed from +0.0 with ky outer and kx inner, and keys come
        in the order they first appear in that loop.  keys, if given, limits
        the output to those keys; no other band is formed.  scale multiplies
        each gathered band (vx[src] * scale has the bits of (scale *
        vx)[src]), so no scaled copy of self is made.  The block's columns
        read only those columns of other and the rows they reach of self:
        both come from bands_over(block, block.window), and other's shell
        depth is at most 1 where self is held as factors.  Each entry has
        the bits of the whole product's: a row -1 (outside the truncation)
        reads the last entry of self's range, a finite value times a 0 of
        other, so the term is a zero that leaves the sum's bits alone.
        Each term is a fresh gather, so it is scaled, multiplied and summed
        in place wherever its dtype holds the result: the same operations
        in the same order, without a new array per operation.  A consumer
        that reduces each band as it comes never holds a whole product band.
        """
        lo, xb = self.bands_over(block, block.window)
        ly, yb = other.bands_over(block, block.window)
        cols = slice(block.lo - ly, block.lo - ly + block.size)
        terms = {}
        for ky in yb:
            for kx in xb:
                key = (kx[0] + ky[0], kx[1] + ky[1], kx[2] + ky[2], kx[3] ^ ky[3])
                if keys is None or key in keys:
                    terms.setdefault(key, []).append((kx, ky))
        for key, pairs in terms.items():
            band = None
            for kx, ky in pairs:
                # row -1 where vy is 0: any finite value times 0
                term = xb[kx][block.rows(ky, lo)]
                if scale is not None:
                    term = _in_place(np.multiply, term, scale)
                term = _in_place(np.multiply, term, yb[ky][cols])
                band = (_in_place(np.add, term, 0.0) if band is None  # 0.0 + x, as -0.0 -> +0.0
                        else _in_place(np.add, band, term))
            del term  # not held while the consumer reduces the band
            yield key, band

    @property
    def H(self) -> "BandMatrix":
        """Conjugate transpose: band (o, r, s, f) becomes (-o, -r, -s, f).

        Formed one column block of the space at a time, from the rows of
        that block, each block written into its slice of the new bands.
        """
        out = {(-o, -r, -s, f): np.empty(self.space.dim, dtype=v.dtype)
               for (o, r, s, f), v in self.bands.items()}
        for block in self.space.column_blocks():
            for (o, r, s, f), v in self.bands.items():
                key = (-o, -r, -s, f)
                src = block.rows(key)
                band = v[src]  # row -1 reads the last entry, then set to +0.0
                if band.dtype.kind == "c":
                    np.conjugate(band, out=band)
                band[src < 0] = 0.0
                out[key][block.cols] = band
        return BandMatrix(self.space, out)
