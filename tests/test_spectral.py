import itertools
import math
import tracemalloc
from functools import lru_cache

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st, target
from scipy.special import logsumexp

from dirac_reference import VIndex, b_coefficient, v_vector
from sparse_reference import (all_chains_shell_norms, apply_word, full_dimension_shell_norms,
                              spinor_mult, to_csr, whole_array_scaling)
from qsu2.qarith import HalfInteger, QArithError, _cg_doubled, q_number
from qsu2.peterweyl import DIAGONAL, BandMatrix, Basis, Truncation, rho_weights
from qsu2.algebra import (GeneratorTable, NCPolynomial, haar_state,
                          is_normal_word, mult_operator, t_half)
from qsu2.dirac import DiracContext
from qsu2 import spectral
from qsu2.cli import main
from qsu2.spectral import (GrowthSeries, PeakOutsideTruncationError, SpectralError,
                           TailTooLargeError, absD_commutator_cap,
                           absD_commutator_series, asymptotic_band, band_value,
                           haar_via_heat,
                           heat_trace, heat_trace_tail, modular_check,
                           modular_generator_scaling, polynomial_norm_bound,
                           rho_trace_functional, shell_norm,
                           trueD_growth, witness_polynomial)

Q = 1.2


@pytest.fixture(scope="module")
def table():
    return GeneratorTable(Q, Truncation(HalfInteger(20)))


class TestGrowthSeries:
    def test_exact_affine_fit(self):
        p = [1.0, 2.0, 3.0, 4.0]
        v = [2.5 * x - 0.7 for x in p]
        g = GrowthSeries.fit(p, v)
        assert g.slope == pytest.approx(2.5)
        assert g.intercept == pytest.approx(-0.7)
        assert g.fit_residual < 1e-12

    def test_too_few_points(self):
        with pytest.raises(QArithError):
            GrowthSeries.fit([1.0, 2.0], [1.0, 2.0])


class TestShellNorm:
    def test_diagonal_operator(self):
        basis = Basis(Truncation(HalfInteger(4)))
        vals = (basis.nd + 1).astype(float)
        op = BandMatrix(basis, {DIAGONAL: vals})
        # restricted to spins <= 1 the largest retained value is 3
        assert shell_norm(op, 2) == 3.0
        assert shell_norm(op, 4) == 5.0

    def test_depth_guard(self):
        t = GeneratorTable(Q, Truncation(HalfInteger(4)))
        op = mult_operator(NCPolynomial.word("aG"), t)
        assert op.shell_depth_doubled == 2
        with pytest.raises(QArithError):
            shell_norm(op, 3)

    def test_empty_shell_list_raises(self):
        basis = Basis(Truncation(HalfInteger(4)))
        op = BandMatrix(basis, {DIAGONAL: np.ones(basis.dim)})
        with pytest.raises(QArithError, match="no shells"):
            spectral.shell_norms(op, [])

    def test_zero_operator(self):
        basis = Basis(Truncation(HalfInteger(2)))
        assert shell_norm(BandMatrix(basis, {}), 2) == 0.0

    def test_operator_that_is_not_graded_raises(self):
        # alpha + gamma: two weights, so its Gram couples (i, j) with (i - 2, j);
        # depth 1, so shell 3 is the largest that passes the depth guard at ld 4
        t = GeneratorTable(Q, Truncation(HalfInteger(4)))
        m = mult_operator(NCPolynomial({"a": 1.0, "g": 1.0}), t)
        assert m.shell_depth_doubled == 1
        with pytest.raises(SpectralError):
            shell_norm(m, 3)

    def test_chains_number_each_weight_once(self):
        basis = Basis(Truncation(HalfInteger(9)))
        chain, s0, first = spectral._chains(basis.id, basis.jd, 9)
        labels = {}
        for i, j, k in zip(basis.id, basis.jd, chain):
            assert labels.setdefault((i, j), k) == k  # one number per label...
        assert sorted(labels.values()) == list(range(len(labels)))  # ...and per chain
        assert (s0 == np.maximum(np.abs(basis.id), np.abs(basis.jd))).all()
        for s in range(basis.trunc.lmax.doubled + 1):
            assert first[s] == chain[s0 == s].min() and first[s + 1] == chain[s0 == s].max() + 1

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_random_graded_operator_matches_dense_svd(self, dtype):
        # random values on the sparsity of two generators: weight-graded, with
        # no symmetry between chains to hide a mixed-up block
        t = GeneratorTable(Q, Truncation(HalfInteger(8)))
        rng = np.random.default_rng(5)
        for ch in ("a", "G"):
            bands = {}
            for key, v in t.ops[ch].bands.items():
                r = rng.standard_normal(len(v)) + (1j * rng.standard_normal(len(v))
                                                   if dtype is complex else 0)
                bands[key] = np.where(v != 0, r, 0).astype(dtype)
            op = BandMatrix(t.basis, bands)
            dense, spins = to_csr(op).toarray(), t.basis.nd
            for s in range(8):
                ref = np.linalg.norm(dense[:, spins <= s], 2)
                assert shell_norm(op, s) == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("q", [1.2, 3.0, 0.7])
    @pytest.mark.parametrize("ld", [4, 8, 12])
    def test_matches_dense_svd(self, ld, q):
        t = GeneratorTable(q, Truncation(HalfInteger(ld)))
        d = DiracContext(q, t.trunc, t.basis)
        a = witness_polynomial(t)
        # reference: [|D|, I_2 tensor a] at spinor dimension, |D| = n + 1/2
        spins = np.tile(t.basis.nd, 2)
        absd_csr = sp.diags((spins + 1) / 2.0)
        a_csr = to_csr(spinor_mult(a, t, d))
        dense = (absd_csr @ a_csr - a_csr @ absd_csr).toarray()
        # the shells run_commutators picks, and the first three
        cli_shells = [2 * s for s in range(4, min(20, ld // 2 - 1) + 1)]
        shells = sorted({0, 1, 2, *cli_shells})
        series = absD_commutator_series(mult_operator(a, t), shells)
        for s, from_series in zip(shells, series.values):
            ref = np.linalg.norm(dense[:, spins <= s], 2)
            assert from_series == pytest.approx(ref, rel=1e-12, abs=0)
        # the generator at the cap shell
        op = mult_operator(a, t)
        ref = np.linalg.norm(to_csr(op).toarray()[:, t.basis.nd <= ld - 1], 2)
        assert shell_norm(op, ld - 1) == pytest.approx(ref, rel=1e-12, abs=0)
        # the cap is the closed form, and the truncated norm stays under it
        cap = absD_commutator_cap(a)
        assert cap == math.sqrt(2) / 2 * (1.0 / t.alpha_scalar)
        assert cap >= math.sqrt(2) / 2 * ref * (1 - 1e-12)

    @pytest.mark.parametrize("q", [0.7, 1.2, 3.0])
    @pytest.mark.parametrize("ld", [24, 62, 120])
    def test_series_on_the_leading_shells_matches_the_full_dimension_route_bitwise(self, ld, q):
        # the CLI's series: the commutator cut to the spins <= top + 1, against
        # its Gram over every column of the table's basis
        t = GeneratorTable(q, Truncation(HalfInteger(ld)))
        aop = mult_operator(witness_polynomial(t), t)
        shells = [2 * s for s in range(4, min(20, ld // 2 - 1) + 1)]
        series = absD_commutator_series(aop, shells)
        comm = BandMatrix(t.basis, {k: v * (k[0] / 2.0) for k, v in aop.bands.items()})
        ref = GrowthSeries.fit([s / 2.0 for s in shells], full_dimension_shell_norms(comm, shells))
        assert series.values.tobytes() == ref.values.tobytes()
        assert (series.slope, series.intercept, series.fit_residual) == \
            (ref.slope, ref.intercept, ref.fit_residual)

    @pytest.mark.parametrize("q", [0.7, 1.2, 3.0])
    @pytest.mark.parametrize("ld", [16, 40, 120])
    def test_cap_bounds_and_is_approached_by_the_truncated_norm(self, ld, q):
        # sqrt(2 n0 + 1) n0 ||a|| on the safe shells, n0 = 1/2, rises to the cap:
        # 4.5e-4 below it at (1.2, 16), 7.1e-8 at (1.2, 40)
        t = GeneratorTable(q, Truncation(HalfInteger(ld)))
        a = witness_polynomial(t)
        truncated = math.sqrt(2) / 2 * shell_norm(mult_operator(a, t), ld - 1)
        cap = absD_commutator_cap(a)
        assert truncated <= cap * (1 + 1e-14)
        if ld >= 40:
            assert cap - truncated < 1e-6 * cap


def _random_graded(space, bands, dtype, seed):
    """Random values of dtype on the nonzero entries of bands: weight-graded like them."""
    rng = np.random.default_rng(seed)
    out = {}
    for key, v in bands.items():
        r = rng.standard_normal(len(v)) + (1j * rng.standard_normal(len(v))
                                           if dtype is complex else 0)
        out[key] = np.where(v != 0, r, 0).astype(dtype)
    return BandMatrix(space, out)


def _outcome(f, *args):
    """The bytes f returns, or the type of what it raises."""
    try:
        return f(*args).tobytes()
    except Exception as exc:  # the outcome compared is the exception's type
        return type(exc)


class TestChainPruning:
    """shell_norms diagonalizes only the chains that can hold the norm, with the bits of all."""

    @pytest.mark.parametrize("q", [0.05, 0.7, 1.0001, 1.2, 3.0, 20.0])
    @pytest.mark.parametrize("ld", [24, 62, 120])
    def test_cli_shells_match_all_chains_bitwise(self, ld, q):
        # the table of run_commutators, on the spins 2n <= min(ld, 62)
        t = GeneratorTable(q, Truncation(HalfInteger(min(ld, 62))))
        aop = mult_operator(witness_polynomial(t), t)
        comm = BandMatrix(aop.space, {k: v * (k[0] / 2.0) for k, v in aop.bands.items()})
        shells = [2 * s for s in range(4, min(20, ld // 2 - 1) + 1)]
        got = spectral.shell_norms(comm, shells)
        assert got.tobytes() == all_chains_shell_norms(comm, shells).tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("ch", ["a", "G", "aG"])
    def test_random_graded_operators_match_all_chains_bitwise(self, ch, dtype):
        t = GeneratorTable(Q, Truncation(HalfInteger(14)))
        op = _random_graded(t.basis, mult_operator(NCPolynomial.word(ch), t).bands, dtype, 7)
        shells = list(range(0, 15 - op.shell_depth_doubled))
        got = spectral.shell_norms(op, shells)
        assert got.tobytes() == all_chains_shell_norms(op, shells).tobytes()

    def test_spinor_operator_matches_all_chains_bitwise(self):
        t = GeneratorTable(Q, Truncation(HalfInteger(12)))
        d = DiracContext(Q, t.trunc, t.basis)
        m = spinor_mult(witness_polynomial(t), t, d)
        op = _random_graded(d.spinor, m.bands, complex, 11)
        shells = [0, 3, 6, 9, 11]
        got = spectral.shell_norms(op, shells)
        assert got.tobytes() == all_chains_shell_norms(op, shells).tobytes()

    def test_chain_with_small_diagonal_and_large_off_diagonal(self):
        # on alpha's two bands every Gram chain is tridiagonal; with all entries 1
        # a long chain has diagonal <= 2 and an eigenvalue near 4, so its diagonal
        # lies below the single label of the top shell's corner chain, set to 3:
        # only the row sums bound the long chain above that
        t = GeneratorTable(Q, Truncation(HalfInteger(14)))
        top = 13
        bands = {k: (v != 0).astype(float) for k, v in t.ops["a"].bands.items()}
        corner = t.basis.position_doubled(top, top, top)
        for v in bands.values():
            if v[corner]:
                v[corner] = math.sqrt(3.0 / sum(b[corner] != 0 for b in bands.values()))
        op = BandMatrix(t.basis, bands)
        got = spectral.shell_norms(op, [top])
        assert got.tobytes() == all_chains_shell_norms(op, [top]).tobytes()
        assert got[0] ** 2 > 3.5  # held by a chain whose diagonal is at most 2

    # the first four raise LinAlgError, (12, 12, 12) passes over a NaN batch, and
    # (13, 13, 13) is read past the truncation and raises SpectralError
    @pytest.mark.parametrize("where", [(0, 0, 0), (6, 2, -4), (9, 9, -9), (11, 1, 1),
                                       (12, 12, 12), (13, 13, 13)])
    def test_nan_entry_gives_the_outcome_of_all_chains(self, where):
        t = GeneratorTable(Q, Truncation(HalfInteger(14)))
        op = _random_graded(t.basis, t.ops["a"].bands, float, 3)
        c = t.basis.position_doubled(*where)
        next(v for v in op.bands.values() if v[c])[c] = np.nan
        shells = [0, 2, 5, 9, 12, 13]
        with np.errstate(invalid="ignore"):
            assert _outcome(spectral.shell_norms, op, shells) == \
                _outcome(all_chains_shell_norms, op, shells)

    def test_chain_inside_the_margin_is_diagonalized(self, monkeypatch):
        # a diagonal operator: each chain's bound is its own largest entry, and
        # the largest one overall, 1, is the lower bound; the chain (0, 0) at
        # 1 - 1e-9 of it is diagonalized, the chain (2, 0) at 1 - 1e-7 is not
        basis = Basis(Truncation(HalfInteger(6)))
        vals = np.where(basis.id == 0, np.where(basis.jd == 0, 1 - 1e-9, 1.0), 1.0)
        vals = np.where((basis.id == 2) & (basis.jd == 0), 1 - 1e-7, vals)
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(blocks):
            seen.extend(np.diagonal(blocks, axis1=1, axis2=2).ravel().tolist())
            return eigvalsh(blocks)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        op = BandMatrix(basis, {DIAGONAL: np.sqrt(vals)})
        assert spectral.shell_norms(op, [6]).tobytes() == np.array([1.0]).tobytes()
        assert np.sqrt(1 - 1e-9) ** 2 in seen
        assert np.sqrt(1 - 1e-7) ** 2 not in seen

    def test_cli_series_diagonalizes_a_tenth_of_the_blocks(self, monkeypatch):
        # at ld 24, q 1.2 the CLI's 8 shells hold 4 184 leading blocks, once 128 eigvalsh calls
        t = GeneratorTable(1.2, Truncation(HalfInteger(24)))
        aop = mult_operator(witness_polynomial(t), t)
        shells = [2 * s for s in range(4, 11 + 1)]
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(b):
            calls.append(b.shape)
            return eigvalsh(b)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        absD_commutator_series(aop, shells)
        assert len(calls) <= 12
        assert sum(shape[0] for shape in calls) < 0.1 * 4184


def _heat_direct_sums(q: float, ld: int, t: float) -> tuple:
    """The heat series at 200 bits, m = 1 .. ld + 1: operator_trace's and closed_sum's.

    (2 sum_m [m]_q^2 e^{-t m^2 / 4}, sum_m [m]_q^2 e^{-t (m+1)^2 / 4}).
    """
    with mpmath.workprec(200):
        qm, T = mpmath.mpf(q), mpmath.mpf(t)
        sq = [((qm ** m - qm ** -m) / (qm - 1 / qm)) ** 2 for m in range(1, ld + 2)]
        return (2 * mpmath.fsum(s * mpmath.exp(-T * m * m / 4) for m, s in enumerate(sq, 1)),
                mpmath.fsum(s * mpmath.exp(-T * (m + 1) ** 2 / 4) for m, s in enumerate(sq, 1)))


class TestHeatTrace:
    def test_rejects_nonpositive_t(self):
        with pytest.raises(QArithError):
            heat_trace(0.0, Q, Truncation(HalfInteger(10)))

    def test_matches_direct_sum(self):
        trunc = Truncation(HalfInteger(30))
        rep = heat_trace(1.0, Q, trunc)
        direct = 2 * sum(q_number(m, Q) ** 2 * math.exp(-((m / 2.0) ** 2))
                         for m in range(1, 32))
        assert rep.operator_trace == pytest.approx(direct, rel=1e-13)
        closed = sum(q_number(m, Q) ** 2 * math.exp(-(((m + 1) / 2.0) ** 2))
                     for m in range(1, 32))
        assert rep.closed_sum == pytest.approx(closed, rel=1e-13)
        assert rep.k_exponent == pytest.approx(4 * math.log(Q) ** 2)

    @pytest.mark.parametrize("ld, t, bits", [(24, 0.001, 53), (2000, 0.005, 53),
                                             (2000, 0.005, 113)])
    def test_beyond_float64_raises_typed_error(self, ld, t, bits):
        # q = 5 puts the Laplace peak m* = 4 ln q / t far out: the tail bound
        # (ld 24) or the trace itself (ld 2000) exceeds float64
        with pytest.raises(SpectralError, match="q = 5, t = %g .*Laplace peak" % t):
            heat_trace(t, 5.0, Truncation(HalfInteger(ld)), precision_bits=bits)

    def test_high_precision_path_agrees(self):
        trunc = Truncation(HalfInteger(40))
        a = heat_trace(0.3, Q, trunc, precision_bits=53)
        b = heat_trace(0.3, Q, trunc, precision_bits=120)
        assert a.operator_trace == pytest.approx(b.operator_trace, rel=1e-12)

    def test_tail_bound_dominates_dropped_terms(self):
        small = Truncation(HalfInteger(20))
        large = Truncation(HalfInteger(60))
        for t in (0.5, 1.0, 2.0):
            dropped = (heat_trace(t, Q, large).operator_trace
                       - heat_trace(t, Q, small).operator_trace)
            bound = heat_trace_tail(t, Q, small)
            assert 0 <= dropped <= bound

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the integral from the first "
                       "dropped term of a decreasing summand is below the sum it estimates")
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_tail_bound_dominates_the_exact_dropped_sum(self, t):
        # the sibling above compares with heat_trace(ld 60) - heat_trace(ld 20), which
        # is exactly 0.0 in float64 at these t; the dropped sum 2 sum_{m >= 22} [m]_q^2
        # e^{-t m^2 / 4} at 200 bits is 2.4e-22, 1.3e-48 and 3.6e-101, against a
        # bound of 4.6e-23, 1.2e-49 and 1.7e-102 (m < 400 holds every digit)
        with mpmath.workprec(200):
            q, T = mpmath.mpf(Q), mpmath.mpf(t)
            exact = 2 * mpmath.fsum(((q ** m - q ** -m) / (q - 1 / q)) ** 2
                                    * mpmath.exp(-T * m * m / 4) for m in range(22, 400))
        assert heat_trace_tail(t, Q, Truncation(HalfInteger(20))) >= exact

    @settings(deadline=None, max_examples=20)
    @given(q=st.floats(0.3, 5.0).filter(lambda q: abs(math.log(q)) >= 1e-3),
           ld=st.integers(0, 120), t=st.floats(0.02, 5.0))
    def test_traces_match_the_direct_sums_at_200_bits(self, q, ld, t):
        # operator_trace = 2 sum_{m <= ld+1} [m]_q^2 e^{-t m^2 / 4} and closed_sum =
        # sum_{m <= ld+1} [m]_q^2 e^{-t (m+1)^2 / 4}, each term at 200 bits
        ref = _heat_direct_sums(q, ld, t)
        try:
            rep = heat_trace(t, q, Truncation(HalfInteger(ld)))
        except SpectralError:
            assert max(ref) > np.finfo(float).max
            return
        for name, want in zip(("operator_trace", "closed_sum"), ref):
            gap = float(abs(getattr(rep, name) - want) / want)
            target(gap, label=name)
            assert gap <= 1e-13, name

    def test_tail_matches_mpmath_closed_form(self):
        # the same closed form at 200 bits; 1e-12 covers rounding the arguments of
        # exp and erfc (|argument| up to a few hundred) in float64
        for q in (1.2, 3.0, 0.7):
            b = max(q, 1.0 / q)
            for ld in (10, 24, 62, 400):
                for t in (0.01, 0.05, 0.2, 0.5, 1.0, 2.0):
                    with mpmath.workprec(200):
                        T, lnb = mpmath.mpf(t), mpmath.log(mpmath.mpf(b))
                        u0 = mpmath.mpf(ld + 2) / 2

                        def tail(c):
                            return (mpmath.sqrt(mpmath.pi / T) / 2 * mpmath.exp(c * c / (4 * T))
                                    * mpmath.erfc(mpmath.sqrt(T) * u0 - c / (2 * mpmath.sqrt(T))))

                        ref = (4 / (mpmath.mpf(b) - 1 / mpmath.mpf(b)) ** 2
                               * (tail(4 * lnb) + tail(-4 * lnb) - 2 * tail(0)))
                    if ref < 1e-300:  # below the normal float64 range
                        continue
                    got = heat_trace_tail(t, q, Truncation(HalfInteger(ld)))
                    assert abs(got - ref) <= 1e-12 * ref, (q, ld, t)

    def test_logsumexp_matches_scipy_bitwise(self):
        arrays = [np.array([0.5, 2.0, 2.0, -1.0]), np.array([3.0]), np.array([-700.0, 0.0])]
        for q in (1.2, 2.0, 3.0, 0.7):
            for ld in (0, 1, 2, 10, 24, 62, 400):
                ms = np.arange(1, ld + 2, dtype=float)
                logs = np.array([2 * spectral._log_qnumber(m, q) for m in ms])
                for t in np.geomspace(0.01, 5.0, 40):
                    arrays.append(logs - t * (ms / 2.0) ** 2)
                    arrays.append(logs - t * ((ms + 1) / 2.0) ** 2)
        for x in arrays:
            assert np.float64(spectral._logsumexp(x)).tobytes() \
                == np.float64(logsumexp(x)).tobytes(), x

    def test_tail_decreases_with_truncation(self):
        tails = [heat_trace_tail(0.5, Q, Truncation(HalfInteger(d)))
                 for d in (10, 20, 30)]
        assert tails[0] > tails[1] > tails[2] > 0


class TestHaarViaHeat:
    def test_ratio_matches_state(self, table):
        for w in ("", "a", "Gg", "Aa"):
            p = NCPolynomial.word(w)
            psi = haar_state(p, table)
            for t in (0.5, 1.0, 2.0):
                ratio, tail = haar_via_heat(p, t, table)
                assert abs(ratio - psi) < 1e-10, (w, t)
                assert tail >= 0

    def test_rejects_nonpositive_t(self, table):
        with pytest.raises(QArithError):
            haar_via_heat(NCPolynomial.one(), -1.0, table)

    def test_underflowing_trace_raises_typed_error(self, table):
        # e^{-t/4} is 0 in float64 at t = 1e6, so Tr(R e^{-tD^2}) is too
        with pytest.raises(SpectralError, match="t = 1e\\+06 underflows"):
            haar_via_heat(NCPolynomial.one(), 1e6, table)

    def test_norm_bound(self):
        p = NCPolynomial({"ag": 2.0, "": -1.0j})
        assert polynomial_norm_bound(p) == pytest.approx(3.0)


def full_dimension_haar_via_heat(a, t, table):
    """Reference ratio: a fresh full operator per call, heat kernel per basis element."""
    q, basis = table.q, table.basis
    op = mult_operator(a, table)
    weights = rho_weights(basis, q) * np.exp(-t * ((basis.nd + 1) / 2.0) ** 2)
    num = complex(np.sum(op.bands.get(DIAGONAL, 0.0) * weights))
    den = float(np.sum(weights))
    corrupted = weights[basis.nd > basis.trunc.lmax.doubled - op.shell_depth_doubled].sum()
    tail = 2.0 * (polynomial_norm_bound(a) + 1.0) \
        * (heat_trace_tail(t, q, table.trunc) / 2.0 + corrupted) / den
    return num / den, tail


OBSERVABLES = [NCPolynomial.word(w) for w in ("", "a", "g", "Gg", "Aa", "aG")] \
    + [NCPolynomial({"Gg": 0.5, "aA": -1.0j, "": 2.0})]


@lru_cache(maxsize=None)
def _trace_table(q, ld):
    return GeneratorTable(q, Truncation(HalfInteger(ld)))


TRACE_CASES = [(q, ld) for q in (0.7, 1.2, 3.0) for ld in (4, 16, 40)]


def _agrees(new, ref, rel=1e-13):
    return abs(new - ref) <= rel * abs(ref)


def _bits(z):
    return np.complex128(z).tobytes()


class TestTraceDiagonals:
    """The per-shell trace functionals against the sums over the basis.

    The shells are summed first, so the values are not those of the basis
    sums bit for bit; they agree to 1e-13 relative, and exactly where a
    property fixes the value.
    """

    @pytest.mark.parametrize("q,ld", TRACE_CASES)
    def test_haar_via_heat_agrees_with_full_route(self, q, ld):
        table = _trace_table(q, ld)
        for p in OBSERVABLES:
            for t in (0.5, 1.0, 1.5, 2.0):
                ratio, tail = haar_via_heat(p, t, table)
                ref_ratio, ref_tail = full_dimension_haar_via_heat(p, t, table)
                assert _agrees(ratio, ref_ratio), (p, t, ratio, ref_ratio)
                assert _agrees(tail, ref_tail), (p, t, tail, ref_tail)

    @pytest.mark.parametrize("q,ld", TRACE_CASES)
    def test_rho_trace_agrees_with_full_route(self, q, ld):
        # at ld 4 the slower multiplier leaves too much weight on the top shell
        decay = 4.0 if ld == 4 else 1.0
        lam = lambda n: math.exp(-decay * n * (n + 1))
        table = _trace_table(q, ld)
        basis = table.basis
        weights = rho_weights(basis, q) * np.array(
            [lam(nd / 2.0) for nd in range(table.trunc.lmax.doubled + 1)])[basis.nd]
        for p in OBSERVABLES:
            ref = complex(np.sum(mult_operator(p, table).bands.get(DIAGONAL, 0.0) * weights))
            new = rho_trace_functional(p, lam, table)
            assert _agrees(new, ref), (p, new, ref)

    @pytest.mark.parametrize("q,ld", TRACE_CASES)
    def test_ratio_of_one_is_exactly_one(self, q, ld):
        # the numerator and the denominator sum the same per-shell vector
        table = _trace_table(q, ld)
        one = NCPolynomial.one()
        for t in (0.5, 1.0, 1.5, 2.0):
            assert _bits(haar_via_heat(one, t, table)[0]) == _bits(1 + 0j), t
        lam = lambda n: math.exp(-4.0 * n * (n + 1))
        shell = np.array([lam(nd / 2.0) for nd in range(ld + 1)])
        phi1 = rho_trace_functional(one, lam, table)
        assert _bits(phi1) == _bits(complex(np.sum(shell * table.rho_shell_sums)))
        assert _bits(phi1 / phi1) == _bits(1 + 0j)

    @pytest.mark.parametrize("q,ld", TRACE_CASES)
    def test_words_without_a_diagonal_give_exactly_zero(self, q, ld):
        # odd words and words of nonzero weight (i, j) have no diagonal band
        table = _trace_table(q, ld)
        lam = lambda n: math.exp(-4.0 * n * (n + 1))
        for w in ("a", "G", "aAg", "aG", "ag", "Ag", "aa", "GG", "aaGG"):
            p = NCPolynomial.word(w, 2.0 - 1.0j)
            assert table.diagonal_shell_sums(p) == (), w
            for t in (0.5, 2.0):
                assert _bits(haar_via_heat(p, t, table)[0]) == _bits(0j), (w, t)
            assert _bits(rho_trace_functional(p, lam, table)) == _bits(0j), w

    def test_no_basis_length_array_per_call(self):
        # after the first call per polynomial, only per-shell arrays are formed
        table = _trace_table(Q, 40)
        lam = lambda n: math.exp(-n * (n + 1))
        for p in OBSERVABLES:
            haar_via_heat(p, 0.5, table)
            for call in (lambda: haar_via_heat(p, 1.5, table),
                         lambda: rho_trace_functional(p, lam, table)):
                tracemalloc.start()
                try:
                    call()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 8 * table.basis.dim, (p, peak)

    def test_one_diagonal_build_per_polynomial(self, monkeypatch):
        t = GeneratorTable(Q, Truncation(HalfInteger(12)))
        built = []
        shell_sums = GeneratorTable.shell_sums

        def counted(table, word):
            built.append(word)
            return shell_sums(table, word)

        monkeypatch.setattr(GeneratorTable, "shell_sums", counted)
        lam = lambda n: math.exp(-n * (n + 1))
        for p in OBSERVABLES:
            for t_ in (0.5, 1.0, 2.0):
                haar_via_heat(p, t_, t)
            rho_trace_functional(p, lam, t)
        # once per word of each polynomial, and once for rho_shell_sums (the word 1)
        words = [w for p in OBSERVABLES for w in p.terms]
        assert built == words[:1] + [""] + words[1:]


def full_operator_modular_check(a, b, table):
    """Reference defect: both operators and psi(ab) at the table's full dimension."""
    e0 = np.zeros(table.basis.dim, dtype=complex)
    e0[0] = 1.0
    psi_ab = 0.0 + 0.0j
    for word, coeff in (a * b).terms.items():
        psi_ab += coeff * apply_word(word, e0, table)[0]
    rho = rho_weights(table.basis, table.q)
    v = rho * (mult_operator(a, table) @ e0)
    psi_bPsia = complex(np.vdot(e0, mult_operator(b, table) @ v))
    return abs(psi_ab - psi_bPsia)


def uncached_modular_check(a, b, table):
    """Reference defect: fresh operators and words applied letter by letter, on a table of the
    spins 2n <= a.degree() + b.degree() (2 at least), those the vacuum vectors reach."""
    nd = min(max(a.degree() + b.degree(), 2), table.trunc.lmax.doubled)
    table = GeneratorTable(table.q, Truncation(HalfInteger(nd)))
    e0 = np.zeros(table.basis.dim, dtype=complex)
    e0[0] = 1.0
    psi_ab = 0.0 + 0.0j
    for word, coeff in (a * b).terms.items():
        psi_ab += coeff * apply_word(word, e0, table)[0]
    v = rho_weights(table.basis, table.q) * (mult_operator(a, table) @ e0)
    psi_bPsia = complex(np.vdot(e0, mult_operator(b, table) @ v))
    return abs(psi_ab - psi_bPsia)


def cli_modular_pairs():
    words = [w for n in range(3) for w in
             ("".join(x) for x in itertools.product("aAgG", repeat=n))
             if is_normal_word(w)]
    return [(NCPolynomial.word(wa), NCPolynomial.word(wb)) for wa in words for wb in words]


class TestRhoTraceFunctional:
    def test_multiplier_independence(self, table):
        lam = lambda n: math.exp(-n * (n + 1))
        den = rho_trace_functional(NCPolynomial.one(), lam, table)
        for w in ("", "a", "Gg"):
            p = NCPolynomial.word(w)
            num = rho_trace_functional(p, lam, table)
            assert abs(num / den - haar_state(p, table)) < 1e-10

    def test_multiplier_evaluated_once_per_shell(self, table):
        seen = []

        def lam(n):
            seen.append(n)
            return math.exp(-n * (n + 1))

        rho_trace_functional(NCPolynomial.word("Gg"), lam, table)
        Ld = table.trunc.lmax.doubled
        assert len(seen) == Ld + 1
        assert seen == [nd / 2.0 for nd in range(Ld + 1)]

    def test_tail_share_matches_the_per_label_sums(self, table):
        # |B(n)| times the per-shell sum of rho, against the sum of |rho B| per label
        basis = table.basis
        for lam in (lambda n: math.exp(-n * (n + 1)), lambda n: -math.exp(-n),
                    lambda n: 1.0):
            shell = np.array([lam(nd / 2.0) for nd in range(table.trunc.lmax.doubled + 1)])
            rho = rho_weights(basis, table.q)
            ref = np.bincount(basis.nd, weights=np.abs(rho * shell[basis.nd]))
            assert np.allclose(np.abs(shell) * table.rho_shell_sums, ref, rtol=1e-13, atol=0)

    def test_slow_multiplier_rejected(self, table):
        with pytest.raises(TailTooLargeError):
            rho_trace_functional(NCPolynomial.one(), lambda n: 1.0, table)


class TestModular:
    def test_generator_scaling(self, table):
        res = modular_generator_scaling(table)
        assert list(res) == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        assert max(res.values()) < 1e-12

    @pytest.mark.parametrize("q", [0.5, 0.7, 1.2, 2.0, 3.0])
    @pytest.mark.parametrize("ld", [2, 16, 24])
    def test_generator_scaling_matches_the_operator_products_bitwise(self, q, ld):
        # reference: rho m rho^{-1} as two products with diagonal operators,
        # the largest entry of |rho m rho^{-1} - c m| relative to c
        t = GeneratorTable(q, Truncation(HalfInteger(ld)))
        rho = BandMatrix(t.basis, {DIAGONAL: rho_weights(t.basis, q)})
        rho_inv = BandMatrix(t.basis, {DIAGONAL: 1.0 / rho_weights(t.basis, q)})
        res = modular_generator_scaling(t)
        for rd, sd in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            m = t_half(rd, sd, t.basis, q)
            conj = rho @ m @ rho_inv
            c = q ** float(-rd - sd)
            ref = max(float(np.abs(conj.bands[k] - v * c).max()) for k, v in m.bands.items())
            assert res[rd, sd] == ref / c, (rd, sd)

    @pytest.mark.parametrize("q", [0.05, 0.7, 1.0001, 1.2, 3.0, 20.0])
    @pytest.mark.parametrize("ld", [2, 3, 7, 16, 24, 40, 62, 120])
    def test_grid_scaling_matches_the_whole_array_route_bitwise(self, ld, q):
        # the shell grid reads rho at e + rd + sd from one power table; the
        # reference gathers rho over every label at each band's rows.  Where
        # q^{2 ld} leaves float64 (q 0.05 and 20 at ld 120) the reference is NaN,
        # and the grid route raises instead
        t = GeneratorTable(q, Truncation(HalfInteger(ld)))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            powers = q ** -np.arange(-2 * ld, 2 * ld + 1, dtype=float)
            ref = {(rd, sd): whole_array_scaling(rd, sd, t)
                   for rd, sd in ((1, 1), (1, -1), (-1, 1), (-1, -1))}
        if not (np.isfinite(powers).all() and powers.all()):
            assert any(math.isnan(x) for x in ref.values())
            with pytest.raises(SpectralError, match="q = %g, lmax_doubled = %d" % (q, ld)):
                modular_generator_scaling(t)
            return
        res = modular_generator_scaling(t)
        assert list(res) == list(ref)
        assert np.array(list(res.values())).tobytes() == np.array(list(ref.values())).tobytes()

    @pytest.mark.parametrize("q, ld, rc", [("20", "120", 1), ("0.05", "120", 1), ("300", "62", 0)])
    def test_scaling_at_the_edge_of_float64(self, tmp_path, capsys, q, ld, rc):
        # rho = q^{-2i-2j} needs q^{2 ld}: at ld 120 the table builds but the
        # weights overflow, where the four scaling rows read NaN; now the run is an
        # error with no rows.  300^124 is finite
        out = tmp_path / "modular.csv"
        assert main(["modular", "--q", q, "--lmax", ld, "--out", str(out)]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err.startswith("modular: ERROR ")
            assert "q = %s, lmax_doubled = %s" % (q, ld) in err
        assert out.exists() == (rc == 0)

    def test_defect_small(self, table):
        pairs = [("a", "A"), ("g", "G"), ("ag", "GA"), ("", "Gg")]
        for wa, wb in pairs:
            d = modular_check(NCPolynomial.word(wa), NCPolynomial.word(wb), table)
            assert d < 1e-12, (wa, wb)

    def test_noncommutativity_visible_without_conjugation(self, table):
        # psi(ab) != psi(ba) here, so the modular correction is doing work
        a, b = NCPolynomial.word("a"), NCPolynomial.word("A")
        gap = abs(haar_state(a * b, table) - haar_state(b * a, table))
        assert gap > 1e-3

    def test_cli_pairs_match_full_operators_bitwise(self):
        t = GeneratorTable(Q, Truncation(HalfInteger(24)))
        pairs = cli_modular_pairs()
        assert len(pairs) == 196
        new = np.array([modular_check(a, b, t) for a, b in pairs])
        ref = np.array([full_operator_modular_check(a, b, t) for a, b in pairs])
        assert new.tobytes() == ref.tobytes()

    def test_cli_pairs_match_uncached_operators_bitwise(self):
        cached = GeneratorTable(Q, Truncation(HalfInteger(24)))
        fresh = GeneratorTable(Q, Truncation(HalfInteger(24)))
        pairs = cli_modular_pairs()
        new = np.array([modular_check(a, b, cached) for a, b in pairs])
        ref = np.array([uncached_modular_check(a, b, fresh) for a, b in pairs])
        assert new.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("q", [0.7, 3.0])
    def test_cli_csv_matches_the_letter_by_letter_route(self, q, tmp_path, capsys):
        # a e0 and b* e0 from the vacuum memo, w e0 once per suffix: the defects keep their bits
        out = tmp_path / "modular.csv"
        assert main(["modular", "--lmax", "24", "--q", repr(q), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:197]]
        fresh = GeneratorTable(q, Truncation(HalfInteger(24)))
        pairs = cli_modular_pairs()
        ref = np.array([uncached_modular_check(a, b, fresh) for a, b in pairs])
        assert [(r[0], r[1]) for r in rows] == [
            (next(iter(a.terms)) or "1", next(iter(b.terms)) or "1") for a, b in pairs]
        assert np.array([float(r[2]) for r in rows]).tobytes() == ref.tobytes()

    def test_degree_guard(self):
        t = GeneratorTable(Q, Truncation(HalfInteger(2)))
        with pytest.raises(QArithError):
            modular_check(NCPolynomial.word("aa"), NCPolynomial.word("AA"), t)


def witness_label(ld: int, q: float) -> VIndex:
    """The witness of spin l = ld/2: v^{l,+}_{l,-l-1/2} for q > 1, v^{l,+}_{-l,l+1/2} for q < 1."""
    if q > 1:
        return VIndex(HalfInteger(ld), HalfInteger(ld), HalfInteger(-ld - 1), 1)
    return VIndex(HalfInteger(ld), HalfInteger(-ld), HalfInteger(ld + 1), 1)


class TestCommutators:
    def test_witness_is_normalized_generator(self, table):
        p = witness_polynomial(table)
        assert set(p.terms) == {"a"}
        assert p.terms["a"] == pytest.approx(math.sqrt(1 + Q * Q) / Q)

    def test_witness_below_one_is_the_adjoint(self):
        t = GeneratorTable(0.7, Truncation(HalfInteger(4)))
        assert witness_polynomial(t).terms == {"A": 1.0 / t.alpha_scalar}

    @pytest.mark.parametrize("q", [0.5, 0.7, 1.2, 3.0])
    @pytest.mark.parametrize("ld", [2, 24, 40])
    def test_witnesses_are_exact_eigenvectors_of_d(self, q, ld):
        # trueD_growth forms D x - (l + 1/2) x for x = (I_2 tensor a) v, which has
        # the bits of [D, I_2 tensor a] v only if D v = (l + 1/2) v bit for bit
        d = DiracContext(q, Truncation(HalfInteger(ld)))
        dop = d.dirac_operator("true")
        for l in range(ld + 1):
            for side in (2.0, 0.5):  # both corner witnesses
                v = v_vector(d, witness_label(l, side))
                assert np.count_nonzero(v) == 1 and v.sum() == 1.0
                assert np.array_equal((dop @ v).view(np.uint64),
                                      ((l / 2.0 + 0.5) * v).view(np.uint64)), (l, side)

    def test_absd_series_plateaus(self, table):
        a = witness_polynomial(table)
        series = absD_commutator_series(mult_operator(a, table),
                                        [2 * s for s in (4, 6, 8, 9)])
        assert (np.diff(series.values) >= -1e-4).all()
        assert abs(series.values[-1] - series.values[-2]) < 0.02 * series.values[-1]

    @settings(deadline=None, max_examples=20)
    @given(q=st.floats(0.05, 20).filter(lambda q: abs(math.log(q)) >= 1e-3),
           ld=st.sampled_from([24, 40, 62]))
    def test_absd_series_approaches_half_the_witness_norm(self, q, ld):
        # ||[|D|, a]|| = ||a|| / 2 for the witness a, ||a|| = 1 / alpha_scalar: the
        # unitary i^{2n} on spin shell n takes a to i (a_+ - a_-), while [|D|, a] is
        # (a_+ - a_-) / 2.  The shell norms of the CLI's series close in from below
        # by about b^{-4} a shell, b = max(q, 1/q): each within 8 ulps above, and the
        # top shell s within 1e-12 wherever b^{-4s} < 1e-13 (300 examples: at most
        # 4.0 ulps above, and a top-shell gap of at most 8.6e-15)
        t = GeneratorTable(q, Truncation(HalfInteger(ld)))
        half = 0.5 / t.alpha_scalar
        shells = [2 * s for s in range(4, min(20, ld // 2 - 1) + 1)]
        norms = absD_commutator_series(mult_operator(witness_polynomial(t), t), shells).values
        assert (norms <= half * (1 + 8 * np.finfo(float).eps)).all(), (norms, half)
        if max(q, 1 / q) ** (-2 * shells[-1]) < 1e-13:
            assert abs(norms[-1] - half) <= 1e-12 * half, (norms[-1], half)

    def test_shells_must_increase(self, table):
        with pytest.raises(QArithError):
            absD_commutator_series(mult_operator(witness_polynomial(table), table),
                                   [4, 4])

    def test_trued_growth_positive_slope(self, table):
        series = trueD_growth(mult_operator(witness_polynomial(table), table),
                              [2 * l for l in range(3, 9)], table.q)
        assert series.slope > 0
        assert series.fit_residual / series.values.mean() < 0.05

    def test_trued_growth_matches_full_commutator_bitwise(self):
        # reference: [D, I_2 tensor a] at spinor dimension, D = V diag V^T, applied to v
        t = GeneratorTable(Q, Truncation(HalfInteger(24)))
        d = DiracContext(Q, t.trunc, t.basis)
        a = witness_polynomial(t)
        ls = list(range(5, 12))  # the CLI's witness spins at lmax_doubled 24
        v = to_csr(d.change_of_basis)
        dmat = v @ sp.diags(d.eigenvalues("true")) @ v.T
        amat = to_csr(spinor_mult(a, t, d))
        comm = dmat @ amat - amat @ dmat
        ref = [np.linalg.norm(comm @ v_vector(d, VIndex(HalfInteger(2 * l), HalfInteger(2 * l),
                                                         HalfInteger(-2 * l - 1), 1)))
               for l in ls]
        got = trueD_growth(mult_operator(a, t), [2 * l for l in ls], Q).values
        assert got.tobytes() == np.array(ref).tobytes()

    @staticmethod
    def _unit_vector_growth(a, ls, t, d):
        """The series by the earlier route: a tiled spinor copy of a, and the
        commutator applied to each column that the witness touches."""
        dop = d.dirac_operator("true")
        aop = spinor_mult(a, t, d)
        vals = []
        for l in ls:
            v = v_vector(d, witness_label(2 * l, t.q))
            out = np.zeros(len(v), dtype=v.dtype)
            for j in np.flatnonzero(v):
                e = np.zeros(len(v))
                e[j] = 1.0
                out += (dop @ (aop @ e) - aop @ (dop @ e)) * v[j]
            vals.append(float(np.linalg.norm(out)))
        return np.array(vals)

    @pytest.mark.parametrize("ld, q", [(ld, q) for ld in (24, 40)
                                       for q in (1.2, 3.0, 0.7, 0.5, 0.99, 1.01, 2.0)]
                             + [(62, 1.2), (62, 0.7), (62, 3.0)])
    def test_trued_growth_matches_unit_vector_route_bitwise(self, ld, q):
        t = GeneratorTable(q, Truncation(HalfInteger(ld)))
        d = DiracContext(q, t.trunc, t.basis)
        a = witness_polynomial(t)
        ls = list(range(5, min(30, ld // 2 - 1) + 1))  # the CLI's witness spins
        series = trueD_growth(mult_operator(a, t), [2 * l for l in ls], q)
        assert series.values.tobytes() == self._unit_vector_growth(a, ls, t, d).tobytes()

    @pytest.mark.parametrize("q", [0.3, 0.7, 0.99, 1.01, 1.2, 3.0])
    def test_witness_coefficient_is_one(self, q):
        # trueD_growth takes the witness's column of a times this coefficient;
        # at 1.0 exactly, that column has the bits of (I_2 tensor a) v
        coeffs = np.array([_cg_doubled(-side, 1, ld, -side * ld, q)
                           for ld in range(201) for side in (1, -1)])
        assert np.array_equal(coeffs.view(np.uint64), np.ones(len(coeffs)).view(np.uint64))

    def test_trued_growth_peak_memory(self):
        # a few entries per witness, no spinor vector: was 62.3, then 54 units
        # of one float64 array of length basis.dim at ld 40
        t = GeneratorTable(Q, Truncation(HalfInteger(40)))
        aop = mult_operator(witness_polynomial(t), t)  # built by the caller, as in the CLI
        tracemalloc.start()
        try:
            trueD_growth(aop, list(range(10, 40, 2)), Q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (8 * t.basis.dim) < 1

    def test_absd_series_peak_memory(self):
        # a real witness operator, and the Gram formed on the normed shells only:
        # was complex128 and 24.9 units of one float64 array of length basis.dim
        t = GeneratorTable(Q, Truncation(HalfInteger(62)))
        aop = mult_operator(witness_polynomial(t), t)  # built by the caller, as in the CLI
        assert aop.dtype == np.float64
        tracemalloc.start()
        try:
            absD_commutator_series(aop, [2 * s for s in range(4, 21)])  # the CLI's shells
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (8 * t.basis.dim) < 16

    def test_trued_witness_guard(self, table):
        with pytest.raises(QArithError):
            trueD_growth(mult_operator(witness_polynomial(table), table), [10, 20], table.q)

    def test_trued_empty_witness_list_raises(self, table):
        with pytest.raises(QArithError, match="no witness spins"):
            trueD_growth(mult_operator(witness_polynomial(table), table), [], Q)


def b_growth(ld: int, q: float) -> float:
    """||[D, a] v^{l,+}_{l,-l-1/2}|| for a = ttilde^{1/2}_{1/2,1/2}, from the paper's b coefficients.

    a sends v^{l,+}_{ij} to the sum over m = l +- 1/2 and eps of
    b^eps_m(i, j) v^{m,eps}_{i+1/2,j+1/2}, and D is eps (m + 1/2) on v^{m,eps},
    so the commutator scales each term by eps (m + 1/2) - (l + 1/2).
    """
    l = HalfInteger(ld)
    total = 0.0
    for md in (ld - 1, ld + 1):
        if md < 0:
            continue
        for eps in (1, -1):
            b = b_coefficient(l, l, HalfInteger(-ld - 1), HalfInteger(md), eps, q)
            total += b * b * (eps * (md + 1) / 2.0 - (ld + 1) / 2.0) ** 2
    return math.sqrt(total)


@lru_cache(maxsize=None)
def _growth_context(q):
    return GeneratorTable(q, Truncation(HalfInteger(40)))


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([0.5, 0.7, 1.2, 3.0]),
       spins=st.lists(st.integers(0, 38), min_size=3, max_size=8, unique=True))
def test_trued_growth_matches_the_transition_coefficients(q, spins):
    # an independent route: the operators on one side, the four-CG formula of
    # b^eps_m on the other; witness spins l <= 19.  Below 1, SU_q(2) = SU_{1/q}(2):
    # the witness alpha* / alpha_scalar(q) grows as alpha / alpha_scalar(1/q) at
    # 1/q, scaled by alpha_scalar(1/q) / alpha_scalar(q) = 1/q
    t = _growth_context(q)
    spins = sorted(spins)
    got = trueD_growth(mult_operator(witness_polynomial(t), t), spins, q).values
    for ld, value in zip(spins, got):
        ref = b_growth(ld, q) if q > 1 else b_growth(ld, 1 / q) / q
        assert abs(value ** 2 - ref ** 2) <= 1e-14 * ref ** 2, (q, ld, value, ref)


@pytest.mark.parametrize("l, slope", [(5, 0.928), (30, 0.815), (100, 0.801), (300, 0.797),
                                      (1000, 0.796)])
def test_growth_slope_converges_at_large_spin(l, slope):
    # ||[D, a] v|| / l at q 1.2 from the b coefficients alone, far beyond any truncation
    assert b_growth(2 * l, 1.2) / l == pytest.approx(slope, abs=5e-4)


class TestAsymptoticBand:
    def test_peak_precondition(self):
        with pytest.raises(PeakOutsideTruncationError):
            asymptotic_band(Q, [0.01], Truncation(HalfInteger(10)))

    def test_band_values_positive_and_ordered(self):
        trunc = Truncation(HalfInteger(40))
        pts = asymptotic_band(Q, [0.5, 0.3, 1.0], trunc)
        assert [t for t, _ in pts] == [0.3, 0.5, 1.0]
        assert all(s > 0 for _, s in pts)

    def test_matches_heat_trace(self):
        trunc = Truncation(HalfInteger(40))
        k = 4 * math.log(Q) ** 2
        (t, s), = asymptotic_band(Q, [0.8], trunc)
        rep = heat_trace(0.8, Q, trunc)
        assert s == pytest.approx(math.sqrt(t) * math.exp(-k / t) * rep.operator_trace)
        assert s == band_value(Q, 0.8, trunc, rep.operator_trace)

    def test_band_value_guards(self):
        with pytest.raises(PeakOutsideTruncationError):
            band_value(Q, 0.01, Truncation(HalfInteger(10)), 1.0)
        with pytest.raises(QArithError):
            band_value(Q, 0.0, Truncation(HalfInteger(10)), 1.0)
