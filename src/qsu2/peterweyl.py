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
on spins n <= lmax - depth is exact.
"""
from __future__ import annotations

from dataclasses import dataclass

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

    def rows(self, key) -> np.ndarray:
        """Rows under key, one per label: computed once per key and kept."""
        memo = self.__dict__.setdefault("_rows", {})
        if key not in memo:
            memo[key] = self._rows_of(key)
        return memo[key]

    def _rows_of(self, key) -> np.ndarray:
        """Rows under key from the labels, label by label."""
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
    doubled spin nd is kept per label; the doubled weights id and jd are
    derived from the per-row tables on each access, so the basis holds one
    label-length array.
    """

    def __init__(self, trunc: Truncation):
        self.trunc = trunc
        shells = np.arange(trunc.lmax.doubled + 1, dtype=np.int64)
        self.start = shell_starts(trunc.lmax.doubled)
        self.dim = int(self.start[-1])
        self.row_nd = np.repeat(shells, shells + 1)
        self.row_a = np.arange(len(self.row_nd)) - np.repeat(shells * (shells + 1) // 2,
                                                              shells + 1)
        self.row_start = self.start[self.row_nd] + self.row_a * (self.row_nd + 1)
        self.nd = np.repeat(self.row_nd, self.row_nd + 1)

    @property
    def id(self) -> np.ndarray:
        """Doubled i of each label, 2 a - n."""
        return np.repeat(2 * self.row_a - self.row_nd, self.row_nd + 1)

    @property
    def jd(self) -> np.ndarray:
        """Doubled j of each label, 2 b - n."""
        return self.along_rows(-self.row_nd, 2)

    def along_rows(self, first: np.ndarray, step: int = 1) -> np.ndarray:
        """first[r] + step * b at column b of in-shell row r, one int64 per label.

        A running sum: steps of step along each row, with a jump to first[r]
        at the row's first label.
        """
        out = np.full(self.dim, step, dtype=np.int64)
        out[0] = first[0]
        out[self.row_start[1:]] = first[1:] - first[:-1] - step * self.row_nd[:-1]
        return np.cumsum(out, out=out)

    def _rows_of(self, key) -> np.ndarray:
        """Rows under key from the per-row tables: one target per in-shell row, then edge cuts.

        Every label of the in-shell row (n, a) moves to the row
        (n + o/2, a + (r + o)/2) of its target shell, in the same order, so
        the rows run along_rows from the target of each row's first label.
        A row that lands outside starts below -dim and comes out as -1.  A
        column b moves to b + (s + o)/2, so the same number of labels at the
        start or the end of every row, at most the shell depth, leave the
        target shell.
        """
        o, r, s, _ = key  # a Basis has one component
        nd, a = self.row_nd, self.row_a
        md, ma = nd + o, a + (r + o) // 2
        inside = (md >= 0) & (md <= self.trunc.lmax.doubled) & (ma >= 0) & (ma <= md)
        target = self.start[np.where(inside, md, 0)] + ma * (md + 1) + (s + o) // 2
        rows = self.along_rows(np.where(inside, target, -1 - self.dim))
        np.maximum(rows, -1, out=rows)
        for k in range(-((s + o) // 2)):  # columns b < -(s + o)/2
            rows[self.row_start + np.minimum(k, nd)] = -1
        for k in range((s - o) // 2):  # columns b > n + (o - s)/2
            rows[self.row_start + np.maximum(nd - k, 0)] = -1
        return rows

    def position_doubled(self, nd: int, id_: int, jd: int) -> int:
        if (not 0 <= nd <= self.trunc.lmax.doubled or abs(id_) > nd or abs(jd) > nd
                or (nd - id_) % 2 or (nd - jd) % 2):
            raise QArithError("doubled label (%d, %d, %d) is not in the truncation"
                              % (nd, id_, jd))
        return int(self.start[nd]) + (id_ + nd) // 2 * (nd + 1) + (jd + nd) // 2


def rho_weights(basis: Basis, q: float) -> np.ndarray:
    """Vector of modular weights q^{-2i-2j} over the enumerated basis.

    2i + 2j takes the 4 lmax_doubled + 1 integer values e with
    |e| <= 2 lmax_doubled; q ** -e is evaluated once per value and
    gathered, with the bits of one power per basis label.
    """
    top = 2 * basis.trunc.lmax.doubled
    powers = q ** -np.arange(-top, top + 1, dtype=float)
    return powers[basis.id + basis.jd + top]


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
        if isinstance(other, np.ndarray):  # matvec; every sum starts from +0.0
            # row -1 (outside the truncation) lands in a spare last slot
            out = np.zeros(self.shape[0] + 1, dtype=np.result_type(self.dtype, other))
            for key, v in self.bands.items():
                out[self.space.rows(key)] += v * other
            return out[:-1]
        return BandMatrix(other.space, dict(self.product_bands(other)))

    def product_bands(self, other: "BandMatrix", keys=None, scale=None):
        """The bands of (scale * self) @ other, one output key at a time, as (key, band).

        Band kx + ky collects self's band kx gathered at the rows of other's
        band ky.  A key's terms are summed from +0.0 with ky outer and kx
        inner, and keys come in the order they first appear in that loop.
        keys, if given, limits the output to those keys; no other band is
        formed.  scale multiplies each gathered band (vx[src] * scale has
        the bits of (scale * vx)[src]), so no scaled copy of self is made.
        Each term is a fresh gather, so it is scaled, multiplied and summed
        in place wherever its dtype holds the result: the same operations
        in the same order, without a new array per operation.  A consumer
        that reduces each band as it comes never holds the whole product.
        """
        terms = {}
        for ky in other.bands:
            for kx in self.bands:
                key = (kx[0] + ky[0], kx[1] + ky[1], kx[2] + ky[2], kx[3] ^ ky[3])
                if keys is None or key in keys:
                    terms.setdefault(key, []).append((kx, ky))
        for key, pairs in terms.items():
            band = None
            for kx, ky in pairs:
                # row -1 where vy is 0: any value times 0
                term = self.bands[kx][other.space.rows(ky)]
                if scale is not None:
                    term = _in_place(np.multiply, term, scale)
                term = _in_place(np.multiply, term, other.bands[ky])
                band = (_in_place(np.add, term, 0.0) if band is None  # 0.0 + x, as -0.0 -> +0.0
                        else _in_place(np.add, band, term))
            del term  # not held while the consumer reduces the band
            yield key, band

    def __add__(self, other: "BandMatrix") -> "BandMatrix":
        """Sum per entry, a band missing on one side read as 0.0 (0.0 + x, x + 0.0)."""
        keys = dict.fromkeys([*self.bands, *other.bands])
        return BandMatrix(self.space, {k: self.bands.get(k, 0.0) + other.bands.get(k, 0.0)
                                       for k in keys})

    def __mul__(self, scalar) -> "BandMatrix":
        return BandMatrix(self.space, {k: v * scalar for k, v in self.bands.items()})

    __rmul__ = __mul__

    @property
    def H(self) -> "BandMatrix":
        """Conjugate transpose: band (o, r, s, f) becomes (-o, -r, -s, f)."""
        out = {}
        for (o, r, s, f), v in self.bands.items():
            key = (-o, -r, -s, f)
            src = self.space.rows(key)
            band = v[src]  # row -1 reads the last entry, then set to +0.0
            if band.dtype.kind == "c":
                np.conjugate(band, out=band)
            band[src < 0] = 0.0
            out[key] = band
        return BandMatrix(self.space, out)
