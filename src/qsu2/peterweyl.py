"""Peter-Weyl basis bookkeeping for the truncated GNS space.

The orthonormal basis elements are labelled by (n, i, j) with n a
nonnegative half-integer spin and i, j in -n..n on the integer-stepped
grid.  A truncation keeps all spins n <= lmax.

Operators are stored as BandMatrix: every operator the program builds has
a fixed weight on the basis (a word in the generators shifts (n, i, j) by
at most len(word) + 1 spin offsets and one (i, j) shift), so it is kept
as a square operator on its labels, column by column, one value per
shift.  The largest spin shift over the bands is the operator's shell
depth: the number of top spin shells whose image may be corrupted by the
truncation.  Action on vectors supported on spins n <= lmax - depth is
exact.  The routes over bands (matvec, product, adjoint) read the row of
each column under a shift key, which a space computes once per key from
its labels in closed form (LabelSpace._rows_of).  A LabelSpace is given
its labels; a Basis derives them from their positions on first read.
The routes serve small spaces only: the leading spins that the vacuum
vectors live on and the leading shells of a shell norm.  The consumers
on a large basis read no rows and no labels: the relation battery and
the modular scaling run on a grid of whole shells (algebra.Generator.grid,
the one place a generator's entry is formed, whose cells Generator.bands
copies to the labels), and the Haar traces on per-shell sums.
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


class LabelSpace:
    """Column labels of band operators, with the row each shift key sends them to.

    labels = (c, nd, id, jd), one entry per column, all doubled: the column
    labelled (c, n, i, j) reaches (c xor f, n + o/2, i + r/2, j + s/2) under
    the key (o, r, s, f).  Its row is the position of that label in the
    Basis order of trunc, offset by block times the component c xor f, or -1
    where the label leaves the truncation.  dim is the number of rows.
    """

    def __init__(self, labels: tuple, trunc: Truncation, block: int, dim: int):
        self.labels = labels
        self.trunc = trunc
        self.block = block
        self.dim = dim

    def _rows_of(self, key) -> np.ndarray:
        """The row of every column under key, from the labels in closed form; once per key."""
        memo = self.__dict__.setdefault("_rows", {})
        if key not in memo:
            comp, nd, id_, jd = self.labels
            o, r, s, f = key
            Ld = self.trunc.lmax.doubled
            md, mi, mj = nd + o, id_ + r, jd + s
            inside = (md >= 0) & (md <= Ld) & (np.abs(mi) <= md) & (np.abs(mj) <= md)
            md = np.where(inside, md, 0)
            position = shell_starts(Ld)[md] + (mi + md) // 2 * (md + 1) + (mj + md) // 2
            memo[key] = np.where(inside, (comp ^ f) * self.block + position, -1)
        return memo[key]


class Basis(LabelSpace):
    """Deterministic enumeration of the truncated Peter-Weyl basis.

    Order: ascending 2n, then i, then j.  Shell 2n starts at start[2n]
    and is a (2n + 1) x (2n + 1) grid, row-major in the in-shell row
    a = (i + n) and column b = (j + n).  A basis is described by its
    O(lmax) shell starts.  Its labels, with one component (c = 0), are
    derived from their positions in closed form on first read and kept,
    read-only: only small spaces read them (the leading spins of the vacuum
    vectors, the leading shells of a shell norm), so a large basis holds no
    label-length array.
    """

    def __init__(self, trunc: Truncation):
        self.trunc = trunc
        self.start = shell_starts(trunc.lmax.doubled)
        self.dim = self.block = int(self.start[-1])

    @cached_property
    def labels(self) -> tuple:
        """(0, 2n, 2i, 2j) per position: 2i = 2a - 2n and 2j = 2b - 2n in its shell's grid."""
        nd = np.repeat(np.arange(self.trunc.lmax.doubled + 1), np.diff(self.start))
        a, b = np.divmod(np.arange(self.dim) - self.start[nd], nd + 1)
        labels = nd, 2 * a - nd, 2 * b - nd
        for v in labels:
            v.flags.writeable = False
        return (0,) + labels

    @property
    def nd(self) -> np.ndarray:
        """Doubled spin of each label."""
        return self.labels[1]

    @property
    def id(self) -> np.ndarray:
        """Doubled i of each label."""
        return self.labels[2]

    @property
    def jd(self) -> np.ndarray:
        """Doubled j of each label."""
        return self.labels[3]

    def position_doubled(self, nd: int, id_: int, jd: int) -> int:
        if (not 0 <= nd <= self.trunc.lmax.doubled or abs(id_) > nd or abs(jd) > nd
                or (nd - id_) % 2 or (nd - jd) % 2):
            raise QArithError("doubled label (%d, %d, %d) is not in the truncation"
                              % (nd, id_, jd))
        return int(self.start[nd]) + (id_ + nd) // 2 * (nd + 1) + (jd + nd) // 2


def rho_powers(q: float, lmax_doubled: int) -> np.ndarray:
    """q ** -e for e = -2 lmax_doubled .. 2 lmax_doubled, the values of q^{-2i-2j} there."""
    top = 2 * lmax_doubled
    return q ** -np.arange(-top, top + 1, dtype=float)


def rho_weights(basis: Basis, q: float) -> np.ndarray:
    """Modular weights q^{-2i-2j} over the labels of basis.

    2i + 2j takes the 4 lmax_doubled + 1 integer values e with
    |e| <= 2 lmax_doubled; q ** -e is evaluated once per value (rho_powers)
    and gathered at e + 2 lmax_doubled, with the bits of one power per
    basis label.
    """
    Ld = basis.trunc.lmax.doubled
    return rho_powers(q, Ld)[basis.id + basis.jd + 2 * Ld]


DIAGONAL = (0, 0, 0, 0)


class BandMatrix:
    """An operator of fixed weights, stored column by column, one value per band.

    The operator is square on the labels of space.  bands maps a shift key
    (see LabelSpace) to the values of that band, one per column; a value is
    0 wherever the shifted label leaves the truncation.  X @ Y collects
    product_bands, the one product routine, whose other consumers reduce
    each band as it is formed.  As in CSR
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
        """A matvec, or the product of two operators (product_bands).

        The matvec goes key by key, so each entry sums its keys' terms in key
        order from +0.0; row -1 (outside the truncation) lands in a spare
        last slot.  A 2-D array is a batch of vectors, its columns: each band
        multiplies every column elementwise, so each column has the bits of
        its 1-D matvec.
        """
        if isinstance(other, np.ndarray):
            out = np.zeros((self.shape[0] + 1,) + other.shape[1:],
                           dtype=np.result_type(self.dtype, other))
            for key, v in self.bands.items():
                v = v.reshape(v.shape + (1,) * (other.ndim - 1))  # one factor per row of other
                out[self.space._rows_of(key)] += v * other
            return out[:-1]
        return BandMatrix(other.space, dict(self.product_bands(other)))

    def product_bands(self, other: "BandMatrix"):
        """The bands of self @ other, a key at a time: (key, band).

        Band kx + ky collects self's band kx gathered at the rows of other's
        band ky.  A key's terms are summed from +0.0 with ky outer and kx
        inner, and keys come in the order they first appear in that loop.
        A row -1 (outside the truncation) reads the last entry of self's
        band, a finite value times a 0 of other, so the term is a zero that
        leaves the sum's bits alone.  A consumer that reduces each band as it
        comes never holds a whole product.
        """
        xb, yb = self.bands, other.bands
        terms = {}
        for ky in yb:
            for kx in xb:
                key = (kx[0] + ky[0], kx[1] + ky[1], kx[2] + ky[2], kx[3] ^ ky[3])
                terms.setdefault(key, []).append((kx, ky))
        for key, pairs in terms.items():
            band = None
            for kx, ky in pairs:
                # row -1 where vy is 0: any finite value times 0
                term = xb[kx][other.space._rows_of(ky)] * yb[ky]
                band = 0.0 + term if band is None else band + term  # 0.0 + x: -0.0 -> +0.0
            yield key, band

    @property
    def H(self) -> "BandMatrix":
        """Conjugate transpose: band (o, r, s, f) becomes (-o, -r, -s, f)."""
        out = {}
        for (o, r, s, f), v in self.bands.items():
            key = (-o, -r, -s, f)
            src = self.space._rows_of(key)
            band = v[src]  # row -1 reads the last entry, then set to +0.0
            if band.dtype.kind == "c":
                np.conjugate(band, out=band)
            band[src < 0] = 0.0
            out[key] = band
        return BandMatrix(self.space, out)
