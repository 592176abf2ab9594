"""Experiment layer: commutator norms, heat traces, Haar extraction, modular defect.

All heavy series are accumulated in log space (the summands of the heat
traces span hundreds of orders of magnitude at small t).  Operator norms
are exact: the Gram of a weight-homogeneous operator on h splits into
short chains along the spin, one per (i, j), and the chain blocks that
can hold the norm are diagonalized densely, one eigvalsh per block side:
a chain whose Gershgorin bound falls below the largest diagonal entry is
skipped, with the bits of diagonalizing them all.  No iteration and no
random start, so the norms do not depend on a seed.  The commutator
experiments take the multiplication operator of the witness (alpha for
q > 1, alpha* for q < 1), built once by the caller and passed to the |D|
series and the true-D growth, and cap the |D| commutator in closed form;
the true-D growth reads each witness vector's column of it and D's 2x2
blocks at the few labels those columns reach, in one dirac_blocks call,
with no spinor vector and no D matvec.  The modular defects read psi(ab)
and psi(b Psi(a)) from the vacuum vectors of one leading view, with no
operator product.  The Haar trace functionals Tr(a rho B) with B
constant on each spin shell (the heat kernel e^{-tD^2}, or any shell
multiplier) are sums over the shells of B(n) times per-shell sums of
diag(a) * rho held on the table: O(lmax) per call, with no array of
basis length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qarith import HalfInteger, QArithError, _cg_doubled
from .peterweyl import BandMatrix, Basis, Truncation, rho_powers, rho_weights
from .algebra import Generator, GeneratorTable, NCPolynomial, _grid_chunks, t_half
from .dirac import dirac_blocks


class SpectralError(RuntimeError):
    pass


class TailTooLargeError(SpectralError):
    pass


class PeakOutsideTruncationError(SpectralError):
    pass


RHO_TAIL_TOL = 1e-6  # largest share of rho_trace_functional's weight on the top shell
CHAIN_MARGIN = 1e-8  # relative gap below which shell_norms still diagonalizes a chain


@dataclass
class GrowthSeries:
    """Measured norms over a parameter sweep with an affine least-squares fit."""

    params: np.ndarray
    values: np.ndarray
    slope: float
    intercept: float
    fit_residual: float  # rms deviation from the affine fit

    @classmethod
    def fit(cls, params: Sequence[float], values: Sequence[float]) -> "GrowthSeries":
        p = np.asarray(params, dtype=float)
        v = np.asarray(values, dtype=float)
        if len(p) != len(v) or len(p) < 3:
            raise QArithError("need at least 3 points with matching lengths")
        slope, intercept = np.polyfit(p, v, 1)
        resid = v - (slope * p + intercept)
        return cls(p, v, float(slope), float(intercept),
                   float(np.sqrt(np.mean(resid ** 2))))


@dataclass
class HeatTraceReport:
    t: float
    closed_sum: float       # the printed series sum_m [m]_q^2 e^{-t((m+1)/2)^2}
    operator_trace: float   # 2 sum_l [2l+1]_q^2 e^{-t(l+1/2)^2}
    tail_bound: float
    k_exponent: float


def _chains(basis) -> tuple:
    """Chain numbering of a Basis.

    A chain is a fixed (i, j): a weight-homogeneous operator shifts i and j
    by constants, so its Gram couples only columns of one chain.  Along a
    chain the spin runs up in unit steps from its first spin
    s0 = max(|i|, |j|).  Chains are numbered by s0 first: the 4 s0 labels
    with first spin s0 (one for s0 = 0) are the border of the
    (s0 + 1) x (s0 + 1) grid of (i, j).  Returns (chain, doubled spin,
    doubled first spin) per basis position, and first[s], the first chain
    with first spin s, for s = 0 .. 2 lmax + 1.
    """
    def first_chain(s0):
        return np.where(s0 > 0, 2 * s0 * (s0 - 1) + 1, 0)

    id_, jd = basis.id, basis.jd
    s0 = np.maximum(np.abs(id_), np.abs(jd))
    a, b = (id_ + s0) // 2, (jd + s0) // 2  # grid coordinates, 0 .. s0
    border = np.where(a == 0, b, np.where(a == s0, s0 + 1 + b, 2 * s0 + 2 * a + (b == s0)))
    return (first_chain(s0) + border, basis.nd, s0,
            first_chain(np.arange(basis.trunc.lmax.doubled + 2)))


def shell_norms(op: BandMatrix, shells_d: Sequence[int]) -> np.ndarray:
    """Largest singular values of op on h restricted to vectors on doubled spins <= each shell.

    Exact, with no iteration: the Gram of op on the retained columns is
    block diagonal over the chains of _chains, and restricting to spins
    <= shell keeps the leading block of each chain, ordered by spin.  The
    spins <= top are the first P columns, and they reach only the spins
    <= top + depth: op is cut to those leading shells, a Basis of its own,
    where the Gram of the first P columns has the bits of the whole one.
    The norm is the square root of the largest eigenvalue over the chains.

    Only the chains that can hold it are diagonalized.  While the Gram is
    scattered, each row's absolute sum is kept: by Gershgorin, a chain's
    leading block at a shell has no eigenvalue above the largest full-row
    sum among its labels on spins <= shell.  Each diagonal entry is a
    Rayleigh quotient, so the largest one on spins <= shell is at most that
    shell's largest eigenvalue.  A chain is skipped only when its bound is
    below (1 - CHAIN_MARGIN) times that; eigvalsh is backward stable to a
    few n eps of a block's norm, far inside the margin, so a skipped
    chain's computed eigenvalue stays below the computed maximum and every
    norm keeps the bits of diagonalizing all chains.  A shell with a
    non-finite entry in its rows skips none.  The live leading blocks of one
    side go through one eigvalsh, gathered from the flat buffer by one
    index.  As over all chains, the eigenvalues of one first spin and
    shell count only when none is NaN.  Raises SpectralError if a nonzero
    Gram entry couples two chains, i.e. op is not weight-graded.
    """
    if not shells_d:
        raise QArithError("no shells given: a shell norm needs at least one spin shell")
    top = max(shells_d)
    lmax_d = op.space.trunc.lmax.doubled
    depth_d = op.shell_depth_doubled
    if top + depth_d > lmax_d:
        raise QArithError("shell %s + depth %s exceeds lmax %s: restriction not exact"
                          % (HalfInteger(top), HalfInteger(depth_d), HalfInteger(lmax_d)))
    lead = Basis(Truncation(HalfInteger(top + depth_d)))
    op = BandMatrix(lead, {k: np.where(lead._rows_of(k) >= 0, v[:lead.dim], 0.0)
                           for k, v in op.bands.items()})
    normed = Basis(Truncation(HalfInteger(top)))
    chain, nd, s0, first = _chains(normed)
    P = len(nd)
    # the chains of first spin s hold blocks of side length[s], stored one
    # after the other in a flat buffer from offset[s]; no padding
    length = (top - np.arange(top + 1)) // 2 + 1
    offset = np.concatenate([[0], np.cumsum(np.diff(first) * length ** 2)])
    pos = (nd - s0) // 2  # place of a column along its chain
    at = offset[s0] + ((chain - first[s0]) * length[s0] + pos) * length[s0]  # its row's start
    buf = np.zeros(offset[-1], dtype=op.dtype)
    rowsum = np.zeros(P)
    for key, v in op.H.product_bands(op):
        col = np.flatnonzero(v[:P])  # a band is 0 where its row is -1
        row = lead._rows_of(key)[col]
        col, row = col[row < P], row[row < P]
        if (chain[row] != chain[col]).any():
            raise SpectralError("Gram couples different (i, j): "
                                "operator is not weight-graded")
        buf[at[row] + pos[col]] = v[col]
        np.add.at(rowsum, row, np.abs(v[col]))  # indexed as buf is
    # the bound of each chain at each place along it, over the places up to it
    upper = np.zeros((first[-1], length[0]))
    upper[chain, pos] = rowsum
    np.maximum.accumulate(upper, axis=1, out=upper)
    lower = np.where(np.isfinite(rowsum), buf[at + pos].real, np.nan)
    lower = np.maximum.accumulate(lower)[normed.start[np.add(shells_d, 1)] - 1]
    chain_s0 = np.repeat(np.arange(top + 1), np.diff(first))
    kept = (np.asarray(shells_d) - chain_s0[:, None]) // 2 + 1  # by chain and shell
    c, k = np.nonzero(kept > 0)
    kept = kept[c, k]
    live = ~(upper[c, kept - 1] < (1 - CHAIN_MARGIN) * lower[k])  # a NaN bound is live
    order = np.flatnonzero(live)[np.argsort(kept[live])]  # the blocks of one side together
    c, k, kept = c[order], k[order], kept[order]
    rows = np.zeros((first[-1], length[0]), dtype=at.dtype)  # where each row of a chain starts
    rows[chain, pos] = at
    count = np.bincount(kept)
    end = np.cumsum(count)
    window = np.lib.stride_tricks.sliding_window_view
    tops = [np.linalg.eigvalsh(window(buf, g)[rows[c[end[g] - count[g]:end[g]], :g]])[:, -1]
            for g in np.flatnonzero(count)]
    best = np.full((top + 1, len(shells_d)), -np.inf)  # by first spin and shell
    np.maximum.at(best, (chain_s0[c], k), np.concatenate(tops))
    best = np.fmax.reduce(best)  # a first spin whose maximum is NaN is passed over
    return np.sqrt(np.where(best > 0, best, 0.0))


def shell_norm(op: BandMatrix, shell_d: int) -> float:
    """Largest singular value of op restricted to vectors on doubled spins <= shell_d.

    No program path calls it; the tests read it, and perfbench/worker.py counts it.
    """
    return float(shell_norms(op, [shell_d])[0])


def witness_polynomial(table: GeneratorTable) -> NCPolynomial:
    """The boundedness/unboundedness witness as a polynomial.

    ttilde^{1/2}_{1/2,1/2} = alpha / alpha_scalar for q > 1, and its
    adjoint alpha* / alpha_scalar for q < 1, the image of alpha under
    SU_q(2) = SU_{1/q}(2) (see trueD_growth for the witness vectors).
    """
    return NCPolynomial({"a" if table.q > 1 else "A": 1.0 / table.alpha_scalar})


def absD_commutator_series(aop: BandMatrix, shells_d: Sequence[int]) -> GrowthSeries:
    """Shell norms of [|D|, I_2 tensor a] on doubled spins <= each shell; the series plateaus.

    aop is a on h.  |D| is n + 1/2 on both spinor components, so the commutator
    is I_2 tensor [|D|_h, a] and has the norms of its one-component block.
    """
    if any(s2 <= s1 for s1, s2 in zip(shells_d, shells_d[1:])):
        raise QArithError("shells must be strictly increasing")
    # |D|_h is n + 1/2 on spin n, so [|D|_h, a] is a with each band of spin shift o scaled by o/2
    comm = BandMatrix(aop.space, {k: v * (k[0] / 2.0) for k, v in aop.bands.items()})
    return GrowthSeries.fit([s / 2.0 for s in shells_d], shell_norms(comm, shells_d))


def absD_commutator_cap(a: NCPolynomial) -> float:
    """The bound sqrt(2 n0 + 1) * n0 * ||a|| on ||[|D|, a]||, n0 = (max word length) / 2.

    ||a|| is polynomial_norm_bound(a), exact for the witness c alpha (or
    c alpha*), whose norm is |c|.  A closed form, so no operator is built;
    sqrt(2 n0 + 1) n0 times the shell norm of a on the safe shells
    approaches it from below as lmax grows.
    """
    n0 = a.degree() / 2.0  # each letter shifts spin by 1/2
    return math.sqrt(2 * n0 + 1) * n0 * polynomial_norm_bound(a)


def trueD_growth(aop: BandMatrix, l_list_d: Sequence[int], q: float) -> GrowthSeries:
    """Norms of [D, I_2 tensor a] on the witness vectors, one per doubled spin; aop is a on h.

    The witness is v^{l,+}_{l,-l-1/2} = e_-(l, l, -l) for q > 1 and
    v^{l,+}_{-l,l+1/2} = e_+(l, -l, l) for q < 1: one basis vector with
    coefficient exactly 1.0, so D v = (l + 1/2) v bit for bit, and the
    commutator is D x - (l + 1/2) x for x = (I_2 tensor a) v.  x is the
    witness's column of a, one entry per band, in the witness's component;
    D keeps each entry on its label and sends it to the label of the other
    component, so D x - (l + 1/2) x is read from D's 2x2 blocks at those
    few labels (one dirac_blocks call over every witness's labels), with
    no spinor vector and no D.  The norm
    sums the squares formed first, real parts then imaginary parts, as
    np.linalg.norm does on the spinor vector; np.linalg.norm of the few
    entries fuses the sum in BLAS and can differ in the last bit.
    """
    if not l_list_d:
        raise QArithError("no witness spins given: a commutator growth needs at least "
                          "one witness spin")
    lmax_d = aop.space.trunc.lmax.doubled
    if max(l_list_d) + aop.shell_depth_doubled > lmax_d:
        raise QArithError("largest witness spin plus word depth exceeds the truncation")
    o = np.array([key[0] for key in aop.bands])
    s = np.array([key[2] for key in aop.bands])
    side = 1 if q > 1 else -1  # the witness corner (i, j) = side * (l, -l) on h
    xs, nd, jd = [], [], []
    for ld in l_list_d:
        c = aop.space.position_doubled(ld, side * ld, -side * ld)
        x = (np.array([band[c] for band in aop.bands.values()])
             * _cg_doubled(-side, 1, ld, -side * ld, q))
        nonzero = x != 0  # a band is 0 where its target leaves the truncation
        xs.append(x[nonzero])
        nd.append(ld + o[nonzero])
        jd.append(-side * ld + s[nonzero])
    # one call for every witness's labels: a subset of labels has the bits of the whole
    diag_p, to_m, diag_m, to_p = dirac_blocks("true", np.concatenate(nd), np.concatenate(jd),
                                              q, lmax_d)
    own, other = (diag_m, to_p) if side > 0 else (diag_p, to_m)
    cuts = np.cumsum([len(x) for x in xs])[:-1]
    vals = []
    for ld, x, d, e in zip(l_list_d, xs, np.split(own, cuts), np.split(other, cuts)):
        y = np.concatenate([d * x - (ld / 2.0 + 0.5) * x, e * x])
        vals.append(math.sqrt(np.sum(y.real ** 2) + np.sum(y.imag ** 2)))
    return GrowthSeries.fit([ld / 2.0 for ld in l_list_d], vals)


def _log_qnumber(m: float, q: float) -> float:
    """log [m]_q for m > 0, stable for large m (uses base max(q, 1/q))."""
    b = max(q, 1.0 / q)
    lnb = math.log(b)
    return m * lnb + math.log1p(-b ** (-2 * m)) - math.log(b - 1.0 / b)


def _gaussian_tail(c: float, t: float, u0: float) -> float:
    """Integral over [u0, inf) of exp(c*u - t*u^2) du."""
    return 0.5 * math.sqrt(math.pi / t) * math.exp(c * c / (4 * t)) \
        * math.erfc(math.sqrt(t) * u0 - c / (2 * math.sqrt(t)))


def _logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) over a 1-d float array, evaluated as scipy.special.logsumexp does.

    The largest terms are set apart from the sum: with M the maximum and m
    the number of terms equal to it, the value is
    log1p(sum over the others of exp(x - M) / m) + log(m) + M.
    """
    top = np.max(x, keepdims=True)
    at_top = x == top
    m = np.sum(at_top.astype(x.dtype), keepdims=True, dtype=x.dtype)
    s = np.sum(np.exp(np.where(at_top, -np.inf, x) - top), keepdims=True)
    s = np.where(s == 0, s, s / m)
    return float((np.log1p(s) + np.log(m) + top)[0])


def _beyond_float64(what: str, q: float, t: float) -> SpectralError:
    """The error for a heat-trace value at (q, t) that float64 cannot hold."""
    return SpectralError("%s at q = %g, t = %g exceeds float64: its terms grow up to "
                         "the Laplace peak m* = 4 ln q / t = %.6g"
                         % (what, q, t, 4 * math.log(max(q, 1.0 / q)) / t))


def heat_trace_tail(t: float, q: float, trunc: Truncation) -> float:
    """Integral estimate of the spins dropped from Tr(R e^{-t D^2}) by the truncation.

    2 * integral over x >= 2*lmax+1 of [x+1]_q^2 e^{-t((x+1)/2)^2} dx,
    evaluated in closed form with erfc.  Not an upper bound: the integral
    from the first dropped term of a decreasing summand is below the sum,
    and it underflows to 0.0 while the tail is positive.  Raises
    SpectralError where the estimate exceeds float64 (small t, large q).
    """
    b = max(q, 1.0 / q)
    lnb = math.log(b)
    u0 = (trunc.lmax.doubled + 2) / 2.0
    pref = 4.0 / (b - 1.0 / b) ** 2
    try:
        tail = pref * (_gaussian_tail(4 * lnb, t, u0) + _gaussian_tail(-4 * lnb, t, u0)
                       - 2 * _gaussian_tail(0.0, t, u0))
    except OverflowError:
        tail = math.inf
    if not math.isfinite(tail):
        raise _beyond_float64("heat trace tail bound", q, t)
    return tail


def heat_trace(t: float, q: float, trunc: Truncation,
               precision_bits: int = 53) -> HeatTraceReport:
    """Tr(R e^{-t D^2}) over the truncation, plus the printed closed series.

    The operator-derived value is 2 sum_l [2l+1]_q^2 e^{-t(l+1/2)^2}; the
    closed_sum follows the printed series sum_m [m]_q^2 e^{-t((m+1)/2)^2},
    which differs by the spinor factor 2 and an index shift in the
    exponent (both are reported; the operator form is ground truth).
    Raises SpectralError where a trace or the tail bound exceeds float64.
    """
    if t <= 0:
        raise QArithError("t must be positive")
    ms = np.arange(1, trunc.lmax.doubled + 2, dtype=float)  # m = 2l + 1
    if precision_bits > 53:
        import mpmath
        with mpmath.workprec(precision_bits):
            qm = mpmath.mpf(q)
            op = 2 * mpmath.fsum(
                ((qm ** m - qm ** -m) / (qm - 1 / qm)) ** 2
                * mpmath.e ** (-t * (m / 2) ** 2) for m in ms)
            cl = mpmath.fsum(
                ((qm ** m - qm ** -m) / (qm - 1 / qm)) ** 2
                * mpmath.e ** (-t * ((m + 1) / 2) ** 2) for m in ms)
            op_trace, closed = float(op), float(cl)
    else:
        logs = np.array([2 * _log_qnumber(m, q) for m in ms])
        try:
            op_trace = 2.0 * math.exp(_logsumexp(logs - t * (ms / 2.0) ** 2))
            closed = math.exp(_logsumexp(logs - t * ((ms + 1) / 2.0) ** 2))
        except OverflowError:
            op_trace = closed = math.inf
    if not (math.isfinite(op_trace) and math.isfinite(closed)):  # mpmath gives inf
        raise _beyond_float64("heat trace", q, t)
    return HeatTraceReport(t=t, closed_sum=closed, operator_trace=op_trace,
                           tail_bound=heat_trace_tail(t, q, trunc),
                           k_exponent=4 * math.log(max(q, 1.0 / q)) ** 2)


def polynomial_norm_bound(a: NCPolynomial) -> float:
    """Operator-norm bound: the sum of |coeff| over the words of a.

    The relation alpha* alpha + gamma* gamma = 1 gives ||alpha x||^2 +
    ||gamma x||^2 = ||x||^2 for every vector x, so ||alpha||, ||gamma|| <= 1,
    the starred generators have the same norms, and a word has norm <= 1.
    Exact for c alpha and c alpha*: ||alpha|| = 1 in C(SU_q(2)), because the
    spectrum of gamma* gamma = 1 - alpha* alpha accumulates at 0.
    """
    return float(sum(abs(c) for c in a.terms.values()))


def _shell_trace(a: NCPolynomial, shell: np.ndarray, table: GeneratorTable):
    """Tr(a rho B) on h for B = shell[..., 2n] on spin shell 2n: sum_w coeff_w sum_n B(n) S_w[n].

    S_w are the table's per-shell sums of diag(w) * rho: O(lmax) per word and
    row of shell, each a row sum; a word without a diagonal band adds nothing.
    """
    num = np.zeros(shell.shape[:-1], dtype=complex)
    for coeff, sums in table.diagonal_shell_sums(a):
        num += coeff * np.sum(shell * sums, axis=-1)
    return num


def haar_via_heat(a: NCPolynomial, t, table: GeneratorTable):
    """The ratios Tr(a R e^{-tD^2}) / Tr(R e^{-tD^2}) and tail estimates (heat_trace_tail).

    t is a list of t, or one t (a grid of one): lists of complex and float,
    or one of each.  The ratio is psi(a) at every t > 0 in the untruncated
    model.  D^2 = (n + 1/2)^2 on both spinor components of each spin shell,
    so each trace is a row sum over h of the (t x shell) heat kernel times a
    per-shell sum of diag(a) * rho (GeneratorTable.diagonal_shell_sums), the
    denominator of rho_shell_sums, so the ratio of 1 is exactly 1.  Within
    1e-13 relative of the sum over the basis, not bit for bit.
    """
    ts = np.array(t, dtype=float).reshape(-1)
    if (ts <= 0).any():
        raise QArithError("t must be positive")
    q, Ld = table.q, table.trunc.lmax.doubled
    heat = np.exp(-ts[:, None] * ((np.arange(Ld + 1) + 1) / 2.0) ** 2)  # per t and shell 2n
    num = _shell_trace(a, heat, table)
    weights = heat * table.rho_shell_sums  # Tr(R e^{-tD^2}) per t and shell
    den = np.sum(weights, axis=1)
    if not den.all():
        raise SpectralError("Tr(R e^{-tD^2}) at q = %g, t = %g underflows to 0 in float64"
                            % (q, ts[den == 0.0][0]))
    a_bound = polynomial_norm_bound(a)
    series_tail = np.array([heat_trace_tail(x, q, table.trunc) for x in ts]) / 2.0  # a spinor
    corrupted = np.sum(weights[:, Ld - a.degree() + 1:], axis=1)  # the shells 2n > Ld - depth
    tail_bound = (2.0 * (a_bound + 1.0) * (series_tail + corrupted) / den).tolist()
    ratio = [n / d for n, d in zip(num.tolist(), den.tolist())]  # Python's complex / float
    return (ratio, tail_bound) if np.ndim(t) else (ratio[0], tail_bound[0])


def rho_trace_functional(a: NCPolynomial, multiplier: Callable[[float], float],
                         table: GeneratorTable) -> complex:
    """Tr(a rho B) on h for B diagonal across spin shells: B = multiplier(n).

    multiplier is evaluated once per retained shell, and the trace is a sum
    over the shells of B(n) times a per-shell sum of diag(a) * rho (see
    haar_via_heat): O(lmax) per call once the polynomial's sums are held.

    Raises TailTooLargeError when the top retained shell still contributes
    more than RHO_TAIL_TOL of the trace-normalizing sum (trace-class proxy).
    """
    shell = np.array([multiplier(nd / 2.0) for nd in range(table.trunc.lmax.doubled + 1)])
    shell_sums = np.abs(shell) * table.rho_shell_sums  # rho > 0: sum |rho B| per shell
    total = shell_sums.sum()
    if total > 0 and shell_sums[-1] > RHO_TAIL_TOL * total:
        raise TailTooLargeError(
            "top shell carries %.3e of the weight (tolerance %.1e); "
            "multiplier decays too slowly for this truncation"
            % (shell_sums[-1] / total, RHO_TAIL_TOL))
    return complex(_shell_trace(a, shell, table))


def modular_defects(a_list: Sequence[NCPolynomial], b_list: Sequence[NCPolynomial],
                    table: GeneratorTable) -> list:
    """|psi(ab) - psi(b Psi(a))| for each a of a_list (rows) and b of b_list (columns).

    Psi is the modular conjugation by rho: psi(b Psi(a)) = <b* e0, rho a
    e0>, as rho^{-1} e0 = e0.  The vectors come from the vacuum memo of the
    leading view that the longest ab reaches, filled for all words at once:
    rho a e0 and b* e0 once per polynomial, then per pair one np.vdot and
    psi(ab), the sum over word pairs of c_a c_b (w_a w_b e0)[0] from 0.
    """
    deg = max(a.degree() for a in a_list) + max(b.degree() for b in b_list)
    if deg > table.trunc.lmax.doubled:
        raise QArithError("combined word length exceeds the truncation")
    view = table.leading(deg)
    b_adj = [b.adjoint() for b in b_list]
    view.fill_vacuum([wa + wb for a in a_list for wa in a.terms for b in b_list for wb in b.terms]
                     + [w for p in (*a_list, *b_adj) for w in p.terms])
    rho = rho_weights(view.basis, view.q)
    rho_a = [rho * view.vacuum_of(a) for a in a_list]
    b_star = [view.vacuum_of(b) for b in b_adj]
    return [[abs(complex(sum(ca * cb * view.vacuum(wa + wb)[0] for wa, ca in a.terms.items()
                             for wb, cb in b.terms.items()))
                 - complex(np.vdot(vb, va))) for b, vb in zip(b_list, b_star)]
            for a, va in zip(a_list, rho_a)]


def modular_check(a: NCPolynomial, b: NCPolynomial, table: GeneratorTable) -> float:
    """Defect |psi(ab) - psi(b Psi(a))| of one pair: modular_defects([a], [b], table)."""
    return modular_defects([a], [b], table)[0][0]


def modular_generator_scaling(table: GeneratorTable) -> dict:
    """Residual of Psi(ttilde^{1/2}_{r,s}) = c ttilde^{1/2}_{r,s} as operators, relative to c.

    One per (rd, sd), in the order (1, 1), (1, -1), (-1, 1), (-1, -1).
    c = q^{-2r-2s}, whose size the rounding of each entry takes.  rho is
    diagonal, so rho m rho^{-1} scales each entry of m by rho at its row
    over rho at its column.  m is formed on the shell grid of the relation
    battery (Generator.grid over _grid_chunks), where the column (2n, a, b)
    has the weight e = 2i + 2j = 2a + 2b - 2n and its row e + rd + sd: both
    rho are read from one power table (rho_powers), clipped to it in the
    cells where m is 0.  The weights of a chunk serve all four generators.
    Raises SpectralError where that table is not finite and nonzero.
    """
    q, Ld = table.q, table.trunc.lmax.doubled
    with np.errstate(over="ignore"):
        powers = rho_powers(q, Ld)
    if not (np.isfinite(powers).all() and powers.all()):
        raise SpectralError("the weights q^{-2i-2j} at q = %g, lmax_doubled = %d are not "
                            "finite and nonzero in float64" % (q, Ld))
    inverse = 1.0 / powers
    # (1, 1) and (-1, 1) are alpha and gamma at scale 1: their factors are the table's
    held = {(1, 1): table.ops["a"].factors, (-1, 1): table.ops["g"].factors}
    gens = {(rd, sd): (Generator(table.basis, rd, sd, held[rd, sd], 1.0) if (rd, sd) in held
                       else t_half(rd, sd, table.basis, q), q ** float(-rd - sd))
            for rd, sd in ((1, 1), (1, -1), (-1, 1), (-1, -1))}
    worst = dict.fromkeys(gens, 0.0)
    chunks = _grid_chunks(Ld + 1)
    cells = np.empty((2, max((n1 - n0) * (n1 + 2) ** 2 for n0, n1 in chunks)))
    for n0, n1 in chunks:
        w = n1 + 2
        at = np.arange(-1, w - 1)  # the rows (columns) of a shell on the grid
        e = 2 * (at[:, None] + at - np.arange(n0, n1)[:, None, None]) + 2 * Ld  # e + 2 Ld
        inv = inverse.take(e, mode="clip")
        rho = {r: powers.take(e + r, mode="clip") for r in (2, 0, -2)}  # at the row, by rd + sd
        for (rd, sd), (m, c) in gens.items():
            m.grid((n0, n1), w, cells)
            v = cells[:, :e.size].reshape((2,) + e.shape)
            # np.maximum keeps a NaN, as the max over a whole band does
            worst[rd, sd] = np.maximum(worst[rd, sd],
                                       np.abs((rho[rd + sd] * v) * inv - v * c).max())
    return {k: float(worst[k] / c) for k, (_, c) in gens.items()}


def band_value(q: float, t: float, trunc: Truncation, operator_trace: float) -> float:
    """s(t) = sqrt(t) e^{-k/t} Tr(R e^{-tD^2}), k = 4 (ln q)^2, from a computed trace.

    k is the Laplace stationary value of the summand exponent
    2 m ln q - t (m/2)^2 (peak at m* = 4 ln q / t); raises
    PeakOutsideTruncationError unless the peak is well inside the truncation.
    """
    if t <= 0:
        raise QArithError("t must be positive")
    b = max(q, 1.0 / q)
    peak_m = 4 * math.log(b) / t
    if trunc.lmax.doubled < 2 * peak_m - 2:
        raise PeakOutsideTruncationError(
            "t = %g puts the Laplace peak at m = %.1f; need 2*lmax >= %.1f"
            % (t, peak_m, 2 * peak_m - 2))
    k = 4 * math.log(b) ** 2
    return math.sqrt(t) * math.exp(-k / t) * operator_trace


def asymptotic_band(q: float, t_grid: Sequence[float], trunc: Truncation,
                    precision_bits: int = 53):
    """(t, s(t)) over the grid, sorted by t; see band_value."""
    out = []
    for t in sorted(t_grid):
        rep = heat_trace(t, q, trunc, precision_bits=precision_bits)
        out.append((t, band_value(q, t, trunc, rep.operator_trace)))
    return out
