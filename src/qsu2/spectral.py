"""Experiment layer: commutator norms, heat traces, Haar extraction, modular defect.

All heavy series are accumulated in log space (the summands of the heat
traces span hundreds of orders of magnitude at small t).  Operator norms
are exact: the Gram of a weight-homogeneous operator on h splits into
short chains along the spin, one per (i, j), and each chain block is
diagonalized densely.  No iteration and no random start, so
the norms do not depend on a seed.  The commutator experiments take the
multiplication operator of the witness (alpha for q > 1, alpha* for
q < 1), built once by the caller and passed to the |D| series and the
true-D growth, and cap the |D| commutator in closed form; the true-D
growth reads each witness vector's column of it and D's 2x2 blocks at
the few labels that column reaches, with no spinor vector and no D
matvec.  The modular defect reads psi(b Psi(a))
from the table's vacuum vectors, with no operator product.  The Haar trace
functionals Tr(a rho B) with B constant on each spin shell (the heat
kernel e^{-tD^2}, or any shell multiplier) are sums over the shells of
B(n) times per-shell sums of diag(a) * rho held on the table: O(lmax)
per call, with no array of basis length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qarith import HalfInteger, QArithError, _cg_doubled
from .peterweyl import BandMatrix, Basis, Truncation
from .algebra import GeneratorTable, NCPolynomial, haar_state, t_half
from .dirac import dirac_blocks


class SpectralError(RuntimeError):
    pass


class TailTooLargeError(SpectralError):
    pass


class PeakOutsideTruncationError(SpectralError):
    pass


RHO_TAIL_TOL = 1e-6  # largest share of rho_trace_functional's weight on the top shell


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
    spins <= top are the first P columns, and the Gram is formed on them
    only, one column block at a time, with the bits of the whole product.
    Chains with the same first spin have the same block length, so each
    (first spin, shell) is one batched eigvalsh; the norm is the square
    root of the largest eigenvalue.  Raises SpectralError if a nonzero
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
    chain, nd, s0, first = _chains(Basis(Truncation(HalfInteger(top))))
    P = len(nd)
    # the chains of first spin s hold blocks of side length[s], stored one
    # after the other in a flat buffer from offset[s]; no padding
    length = (top - np.arange(top + 1)) // 2 + 1
    offset = np.concatenate([[0], np.cumsum(np.diff(first) * length ** 2)])
    pos = (nd - s0) // 2  # place of a column along its chain
    buf = np.zeros(offset[-1], dtype=op.dtype)
    op_h = op.H
    for block in op.space.column_blocks(top + 1):
        for key, v in op_h.product_bands(op, block):
            col = np.flatnonzero(v[:P - block.lo])  # a band is 0 where its row is -1
            row = block.rows(key)[col]
            col, row = col[row < P], row[row < P]
            v, col = v[col], col + block.lo
            if (chain[row] != chain[col]).any():
                raise SpectralError("Gram couples different (i, j): "
                                    "operator is not weight-graded")
            r = s0[row]
            buf[offset[r] + ((chain[row] - first[r]) * length[r] + pos[row]) * length[r]
                + pos[col]] = v
    best = np.zeros(len(shells_d))
    for s in range(top + 1):
        blocks = buf[offset[s]:offset[s + 1]].reshape(-1, length[s], length[s])
        for k, shell in enumerate(shells_d):
            kept = (shell - s) // 2 + 1
            if kept > 0:
                best[k] = max(best[k], np.linalg.eigvalsh(blocks[:, :kept, :kept])[:, -1].max())
    return np.sqrt(best)


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
    few labels (dirac_blocks), with no spinor vector and no D.  The norm
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
    vals = []
    for ld in l_list_d:
        c = aop.space.position_doubled(ld, side * ld, -side * ld)
        x = (np.array([band[c] for band in aop.bands.values()])
             * _cg_doubled(-side, 1, ld, -side * ld, q))
        nonzero = x != 0  # a band is 0 where its target leaves the truncation
        diag_p, to_m, diag_m, to_p = dirac_blocks("true", ld + o[nonzero],
                                                  -side * ld + s[nonzero], q, lmax_d)
        own, other = (diag_m, to_p) if side > 0 else (diag_p, to_m)
        x = x[nonzero]
        y = np.concatenate([own * x - (ld / 2.0 + 0.5) * x, other * x])
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


def _shell_trace(a: NCPolynomial, shell: np.ndarray, table: GeneratorTable) -> complex:
    """Tr(a rho B) on h for B = shell[2n] on spin shell 2n: sum_w coeff_w sum_n B(n) S_w[n].

    S_w are the table's per-shell sums of diag(w) * rho, so each call is
    O(lmax) per word; a word without a diagonal band adds nothing.
    """
    num = 0j
    for coeff, sums in table.diagonal_shell_sums(a):
        num += coeff * float(np.sum(shell * sums))
    return num


def haar_via_heat(a: NCPolynomial, t: float, table: GeneratorTable):
    """The ratio Tr(a R e^{-tD^2}) / Tr(R e^{-tD^2}) and a tail estimate (see heat_trace_tail).

    The ratio equals psi(a) exactly at every t > 0 in the untruncated model.
    No Dirac context is needed: D^2 = (n + 1/2)^2 on both spinor components
    of each spin shell, so the heat kernel is a function of the shell, the
    spinor factor cancels and both traces run over h only.  Each trace is a
    sum over the shells of the heat kernel times a per-shell sum of
    diag(a) * rho (GeneratorTable.diagonal_shell_sums), so a call costs
    O(lmax) once the polynomial's sums are held; the denominator reads
    rho_shell_sums the same way, so the ratio of 1 is exactly 1.  Not
    bitwise equal to summing over the basis; they agree to 1e-13 relative.
    """
    if t <= 0:
        raise QArithError("t must be positive")
    q = table.q
    Ld = table.trunc.lmax.doubled
    heat = np.exp(-t * ((np.arange(Ld + 1) + 1) / 2.0) ** 2)  # per shell 2n
    num = _shell_trace(a, heat, table)
    weights = heat * table.rho_shell_sums  # Tr(R e^{-tD^2}) per shell
    den = float(np.sum(weights))
    if den == 0.0:
        raise SpectralError("Tr(R e^{-tD^2}) at q = %g, t = %g underflows to 0 in float64"
                            % (q, t))
    ratio = num / den

    a_bound = polynomial_norm_bound(a)
    series_tail = heat_trace_tail(t, q, table.trunc) / 2.0  # per spinor component
    corrupted = float(np.sum(weights[Ld - a.degree() + 1:]))  # the shells 2n > Ld - depth
    tail_bound = 2.0 * (a_bound + 1.0) * (series_tail + corrupted) / den
    return ratio, tail_bound


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
    return _shell_trace(a, shell, table)


def modular_check(a: NCPolynomial, b: NCPolynomial, table: GeneratorTable) -> float:
    """Defect |psi(ab) - psi(b Psi(a))| with Psi the modular conjugation by rho.

    psi(b Psi(a)) = <b* e0, rho a e0>, because Psi(a) = rho a rho^{-1} and
    rho^{-1} e0 = e0; both vectors come from the vacuum memo of the leading
    shells that a and b reach from e0.
    """
    if a.degree() + b.degree() > table.trunc.lmax.doubled:
        raise QArithError("combined word length exceeds the truncation")
    table = table.leading(a.degree() + b.degree())
    rho = np.concatenate([block.rho(table.q)[block.inner] for block in table.basis.column_blocks()])
    psi_bPsia = complex(np.vdot(table.vacuum_of(b.adjoint()), rho * table.vacuum_of(a)))
    return abs(haar_state(a * b, table) - psi_bPsia)


def modular_generator_scaling(rd: int, sd: int, table: GeneratorTable) -> float:
    """Residual of Psi(ttilde^{1/2}_{r,s}) = c ttilde^{1/2}_{r,s} as operators, relative to c.

    c = q^{-2r-2s}, whose size the rounding of each entry takes.  rho is
    diagonal, so rho m rho^{-1} scales each entry of m by rho at its row
    over rho at its column (row -1, outside the truncation, only where the
    entry is 0).  Reduced one column block at a time: the bands of m,
    formed over the block's window and not kept, and rho over the window.
    """
    m = t_half(rd, sd, table.basis, table.q)
    c = table.q ** float(-rd - sd)
    worst = 0.0
    for block in table.basis.column_blocks():
        lo = int(table.basis.start[block.window[0]])
        rho = block.rho(table.q)
        inv = 1.0 / rho[block.inner]
        for k, v in m.form(block.window).items():
            v = v[block.inner]
            # np.maximum keeps a NaN, as the max over a whole band does
            worst = np.maximum(worst, np.abs((rho[block.rows(k, lo)] * v) * inv - v * c).max())
    return float(worst / c)


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
