"""Peter-Weyl basis bookkeeping for the truncated GNS space.

The orthonormal basis elements are labelled by (n, i, j) with n a
nonnegative half-integer spin and i, j in -n..n on the integer-stepped
grid.  A truncation keeps all spins n <= lmax.

Operators are stored as BandMatrix: every operator the program builds has
a fixed weight on the basis (a word in the generators shifts (n, i, j) by
at most len(word) + 1 spin offsets and one (i, j) shift), so it is kept
as a square operator on its labels, column by column, one value per
shift, and each target row is the closed form pw_position of the shifted
label.  The largest spin shift over the bands is the operator's shell
depth: the number of top spin shells whose image may be corrupted by the
truncation.  Action on vectors supported on spins n <= lmax - depth is
exact.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .qarith import HalfInteger, QArithError, q_number


class PWIndex(NamedTuple):
    """Label (n, i, j) of a Peter-Weyl basis element."""

    n: HalfInteger
    i: HalfInteger
    j: HalfInteger


def validate_pw_index(idx: PWIndex) -> None:
    nd, id_, jd = idx.n.doubled, idx.i.doubled, idx.j.doubled
    if nd < 0 or abs(id_) > nd or abs(jd) > nd:
        raise QArithError("index out of range: %s" % (idx,))
    if (nd - id_) % 2 or (nd - jd) % 2:
        raise QArithError("i, j must step by 1 from -n to n: %s" % (idx,))


@dataclass(frozen=True)
class Truncation:
    """Keep all Peter-Weyl spins n <= lmax."""

    lmax: HalfInteger

    def __post_init__(self):
        if self.lmax.doubled < 0:
            raise QArithError("lmax must be >= 0")

    @property
    def dimension(self) -> int:
        # sum over 2n = 0..2*lmax of (2n+1)^2
        return sum((nd + 1) ** 2 for nd in range(self.lmax.doubled + 1))


def pw_position(nd, id_, jd):
    """Closed-form position of (n, i, j) in the enumeration order, on doubled labels.

    Shells 2m < 2n hold sum (m+1)^2 = n(n+1)(2n+1)/6 elements (n doubled);
    inside a shell the order is row-major in ((i+n)/2, (j+n)/2).  Works
    elementwise on integer arrays; labels are not checked.
    """
    return nd * (nd + 1) * (2 * nd + 1) // 6 + (id_ + nd) // 2 * (nd + 1) + (jd + nd) // 2


class LabelSpace:
    """Column labels of band operators, with the row each shift key sends them to.

    A subclass sets labels = (c, nd, id, jd) (component and doubled spin
    label per column, or scalars), block (row offset of component 1), trunc
    and dim.  The column labelled (c, n, i, j) reaches (c xor f, n + o/2,
    i + r/2, j + s/2) under the key (o, r, s, f), all doubled; its row is
    c' * block + pw_position, or -1 where the label leaves the truncation.
    """

    def rows(self, key) -> np.ndarray:
        """Rows under key, one per label: computed once per key and kept."""
        memo = self.__dict__.setdefault("_rows", {})
        if key not in memo:
            comp, nd, id_, jd = self.labels
            o, r, s, f = key
            md, mi, mj = nd + o, id_ + r, jd + s
            inside = ((md >= 0) & (md <= self.trunc.lmax.doubled)
                      & (np.abs(mi) <= md) & (np.abs(mj) <= md))
            memo[key] = np.where(inside, (comp ^ f) * self.block + pw_position(md, mi, mj), -1)
        return memo[key]


class Basis(LabelSpace):
    """Deterministic enumeration of the truncated Peter-Weyl basis.

    Order: ascending 2n, then i, then j.  Index arrays are kept as doubled
    integers for vectorized weight computations; positions follow the
    closed form pw_position.
    """

    def __init__(self, trunc: Truncation):
        self.trunc = trunc
        shells = np.arange(trunc.lmax.doubled + 1, dtype=np.int64)
        self.nd = np.repeat(shells, (shells + 1) ** 2)
        self.dim = len(self.nd)
        # offset inside the shell = position minus that of (n, -n, -n)
        row, col = np.divmod(np.arange(self.dim, dtype=np.int64)
                             - pw_position(self.nd, -self.nd, -self.nd), self.nd + 1)
        self.id = 2 * row - self.nd
        self.jd = 2 * col - self.nd
        self.labels = (0, self.nd, self.id, self.jd)
        self.block = 0

    def position(self, idx: PWIndex) -> int:
        return self.position_doubled(idx.n.doubled, idx.i.doubled, idx.j.doubled)

    def position_doubled(self, nd: int, id_: int, jd: int) -> int:
        if (not 0 <= nd <= self.trunc.lmax.doubled or abs(id_) > nd or abs(jd) > nd
                or (nd - id_) % 2 or (nd - jd) % 2):
            raise QArithError("doubled label (%d, %d, %d) is not in the truncation"
                              % (nd, id_, jd))
        return pw_position(nd, id_, jd)

    @cached_property
    def indices(self) -> list:
        return [PWIndex(HalfInteger(int(n)), HalfInteger(int(i)), HalfInteger(int(j)))
                for n, i, j in zip(self.nd, self.id, self.jd)]


def pw_inner_unnormalized(a: PWIndex, b: PWIndex, q: float, side: str = "left") -> float:
    """<t^a, t^b> = psi((t^a)* t^b) = delta * [2n+1]_q^{-1} q^{2i}.

    side="right" gives the companion value psi(t^a (t^b)*) = delta *
    [2n+1]_q^{-1} q^{-2j}.
    """
    validate_pw_index(a)
    validate_pw_index(b)
    if a != b:
        return 0.0
    nd = a.n.doubled
    if side == "left":
        return q ** float(a.i.doubled) / q_number(nd + 1, q)
    if side == "right":
        return q ** float(-a.j.doubled) / q_number(nd + 1, q)
    raise QArithError("side must be 'left' or 'right'")


def normalization_factor(idx: PWIndex, q: float) -> float:
    """Scale turning t^n_{ij} into the unit vector: [2n+1]_q^{1/2} q^{-i}."""
    validate_pw_index(idx)
    return np.sqrt(q_number(idx.n.doubled + 1, q)) * q ** (-float(idx.i))


def rho_weights(basis: Basis, q: float) -> np.ndarray:
    """Vector of modular weights over the enumerated basis."""
    return q ** (-(basis.id + basis.jd).astype(float))


DIAGONAL = (0, 0, 0, 0)


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
        the in-program stage recorder of ROADMAP item 2 removes it.
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
        A consumer that reduces each band as it comes never holds the
        whole product.
        """
        terms = {}
        for ky in other.bands:
            for kx in self.bands:
                key = (kx[0] + ky[0], kx[1] + ky[1], kx[2] + ky[2], kx[3] ^ ky[3])
                if keys is None or key in keys:
                    terms.setdefault(key, []).append((kx, ky))
        for key, pairs in terms.items():
            band = 0.0
            for kx, ky in pairs:
                # row -1 where vy is 0: any value times 0
                vx = self.bands[kx][other.space.rows(ky)]
                if scale is not None:
                    vx = vx * scale
                band = band + vx * other.bands[ky]
            del vx  # not held while the consumer reduces the band
            yield key, band

    def _merge(self, other: "BandMatrix", op) -> "BandMatrix":
        """op per entry, a band missing on one side read as 0.0 (0 + x, x - 0, ...)."""
        keys = dict.fromkeys([*self.bands, *other.bands])
        return BandMatrix(self.space, {k: op(self.bands.get(k, 0.0), other.bands.get(k, 0.0))
                                       for k in keys})

    def __add__(self, other: "BandMatrix") -> "BandMatrix":
        return self._merge(other, operator.add)

    def __sub__(self, other: "BandMatrix") -> "BandMatrix":
        return self._merge(other, operator.sub)

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
            out[key] = np.where(src >= 0, v.conj()[src], 0.0)
        return BandMatrix(self.space, out)

    def max_abs(self) -> float:
        """Largest |entry|, 0.0 for an operator without entries."""
        return max((float(np.abs(v).max(initial=0.0)) for v in self.bands.values()), default=0.0)

    def diagonal(self) -> np.ndarray:
        return self.bands.get(DIAGONAL, np.zeros(self.space.dim, dtype=self.dtype))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.dtype)
        cols = np.arange(self.space.dim)
        for key, v in self.bands.items():
            rows = self.space.rows(key)
            inside = rows >= 0
            out[rows[inside], cols[inside]] = v[inside]
        return out

