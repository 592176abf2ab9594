"""Peter-Weyl basis bookkeeping for the truncated GNS space.

The orthonormal basis elements are labelled by (n, i, j) with n a
nonnegative half-integer spin and i, j in -n..n on the integer-stepped
grid.  A truncation keeps all spins n <= lmax.  Operators on the
truncated space carry a shell depth: the number of top spin shells whose
image may be corrupted by the truncation.  Action on vectors supported on
spins n <= lmax - depth is exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .qarith import HalfInteger, QArithError, half, q_number


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


class Basis:
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

    def spins_doubled(self) -> np.ndarray:
        return self.nd


def basis_enumerate(trunc: Truncation) -> list:
    """Ordered list of PWIndex for the truncation (ascending 2n, then i, then j)."""
    return Basis(trunc).indices


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


def rho_weight(idx: PWIndex, q: float) -> float:
    """Diagonal modular weight q^{-2i-2j}."""
    validate_pw_index(idx)
    return q ** float(-idx.i.doubled - idx.j.doubled)


def rho_weights(basis: Basis, q: float) -> np.ndarray:
    """Vector of modular weights over the enumerated basis."""
    return q ** (-(basis.id + basis.jd).astype(float))


class HilbertVector:
    """A coefficient vector over an enumerated basis (orthonormal)."""

    def __init__(self, basis: Basis, data: np.ndarray | None = None):
        self.basis = basis
        self.data = np.zeros(basis.dim, dtype=complex) if data is None else np.asarray(data, dtype=complex)
        if self.data.shape != (basis.dim,):
            raise QArithError("coefficient vector has wrong length")

    @classmethod
    def from_components(cls, basis: Basis, components: dict) -> "HilbertVector":
        v = cls(basis)
        for idx, c in components.items():
            v.data[basis.position(idx)] = c
        return v

    @classmethod
    def cyclic(cls, basis: Basis) -> "HilbertVector":
        v = cls(basis)
        v.data[0] = 1.0
        return v

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def inner(self, other: "HilbertVector") -> complex:
        return complex(np.vdot(self.data, other.data))


@dataclass
class SparseOperator:
    """A sparse operator on an enumerated basis with truncation accounting.

    shell_depth_doubled is twice the largest spin shift of the underlying
    infinite-dimensional operator; depths add under composition.
    """

    mat: sp.spmatrix
    shell_depth_doubled: int
    basis: object  # Basis or SpinorBasis: anything exposing spins_doubled()/dim

    def __post_init__(self):
        self.mat = sp.csr_matrix(self.mat)

    @property
    def shell_depth(self) -> HalfInteger:
        return HalfInteger(self.shell_depth_doubled)

    @classmethod
    def identity(cls, basis) -> "SparseOperator":
        return cls(sp.identity(basis.dim, format="csr"), 0, basis)

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        return SparseOperator(self.mat @ other.mat,
                              self.shell_depth_doubled + other.shell_depth_doubled,
                              self.basis)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        return SparseOperator(self.mat + other.mat,
                              max(self.shell_depth_doubled, other.shell_depth_doubled),
                              self.basis)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return SparseOperator(self.mat - other.mat,
                              max(self.shell_depth_doubled, other.shell_depth_doubled),
                              self.basis)

    def __mul__(self, scalar) -> "SparseOperator":
        return SparseOperator(self.mat * scalar, self.shell_depth_doubled, self.basis)

    __rmul__ = __mul__

    @property
    def H(self) -> "SparseOperator":
        return SparseOperator(self.mat.conj().T.tocsr(), self.shell_depth_doubled, self.basis)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.mat @ vec

    def safe_shell_doubled(self) -> int:
        """Largest 2n such that action on spins <= n is truncation-exact."""
        return self.basis.trunc.lmax.doubled - self.shell_depth_doubled
