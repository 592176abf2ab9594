import math
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dirac_reference import (VIndex, _v_entries, b_coefficient, b_minus_closed, v_enumerate,
                             v_vector, validate_v_index)
from sparse_reference import pw_rows, spinor_mult, to_csr
from qsu2.qarith import HalfInteger, QArithError, q_number
from qsu2.peterweyl import DIAGONAL, Truncation
from qsu2.algebra import GeneratorTable
from qsu2.dirac import DiracContext, dirac_blocks
from qsu2.spectral import witness_polynomial

Q = 1.2


@pytest.fixture(scope="module")
def ctx():
    return DiracContext(Q, Truncation(HalfInteger(10)))


def vidx(l, i, j, sign):
    """The label of spins l, i, j, each a multiple of 1/2."""
    return VIndex(*(HalfInteger(int(2 * x)) for x in (l, i, j)), sign)


class TestLabels:
    def test_validation(self):
        validate_v_index(vidx(0.5, 0.5, 1, +1))
        validate_v_index(vidx(0.5, -0.5, 0, -1))
        with pytest.raises(QArithError):
            validate_v_index(vidx(0.5, 1.5, 1, +1))
        with pytest.raises(QArithError):
            validate_v_index(vidx(0.5, 0.5, 2, +1))  # j beyond l + 1/2
        with pytest.raises(QArithError):
            validate_v_index(vidx(0, 0, 0, -1))  # empty minus family at l = 0
        with pytest.raises(QArithError):
            validate_v_index(vidx(1, 0, 0, +1))  # parity: j must be half-integral

    def test_count_matches_spinor_dimension(self, ctx):
        labels = v_enumerate(ctx.trunc)
        assert len(labels) == ctx.spinor.dim
        for ld in range(ctx.trunc.lmax.doubled + 1):
            n_level = sum(1 for v in labels if v.l.doubled == ld)
            assert n_level == 2 * (ld + 1) ** 2

    def test_all_labels_valid(self, ctx):
        for v in v_enumerate(ctx.trunc):
            validate_v_index(v)


def scalar_loop_change_of_basis(c):
    """Reference assembly: one column per coupled label, positions from a dict."""
    basis = c.basis
    pos = {t: k for k, t in enumerate(zip(basis.nd.tolist(), basis.id.tolist(),
                                          basis.jd.tolist()))}
    rows, cols, vals = [], [], []
    for col, idx in enumerate(v_enumerate(c.trunc)):
        for (comp, key), coeff in _v_entries(idx.l.doubled, idx.i.doubled,
                                             idx.j.doubled, idx.sign, c.q):
            rows.append(comp * basis.dim + pos[key])
            cols.append(col)
            vals.append(coeff)
    return sp.csr_matrix((vals, (rows, cols)), shape=(c.spinor.dim, c.spinor.dim))


def scalar_loop_eigenvalues(c, kind):
    labels = v_enumerate(c.trunc)
    out = np.empty(len(labels))
    for k, idx in enumerate(labels):
        l = idx.l.doubled / 2.0
        if kind == "true":
            out[k] = (l + 0.5) * idx.sign
        else:
            out[k] = q_number(l, c.q ** 2) if idx.sign > 0 else -q_number(l + 1, c.q ** 2)
    return out


class TestTableDrivenAssembly:
    @pytest.mark.parametrize("q", [1.2, 3.0, 0.7])
    @pytest.mark.parametrize("lmax_d", [0, 2, 7, 16])
    def test_matches_scalar_loop_bitwise(self, lmax_d, q):
        c = DiracContext(q, Truncation(HalfInteger(lmax_d)))
        new, ref = to_csr(c.change_of_basis), scalar_loop_change_of_basis(c)
        assert np.array_equal(new.indptr, ref.indptr)
        assert np.array_equal(new.indices, ref.indices)
        assert new.data.tobytes() == ref.data.tobytes()
        for kind in ("true", "naive"):
            ev = c.eigenvalues(kind)
            assert ev.dtype == np.float64
            assert ev.tobytes() == scalar_loop_eigenvalues(c, kind).tobytes(), kind
            # D and Q from their 2x2 blocks equal the product V diag(ev) V^T
            d = to_csr(c.dirac_operator(kind))
            prod = (ref @ sp.diags(ev) @ ref.T).tocsr()
            prod.sort_indices()
            assert np.array_equal(d.indptr, prod.indptr), kind
            assert np.array_equal(d.indices, prod.indices), kind
            assert d.data.tobytes() == prod.data.tobytes(), kind
            assert c.dirac_operator(kind).nnz == prod.nnz, kind

    @pytest.mark.parametrize("lmax_d", [0, 1, 2, 24])
    def test_spinor_rows_match_the_label_by_label_route(self, lmax_d):
        # the spinor rows are the Basis rows moved into component c xor f; the
        # reference takes the Basis rows from the cubic closed form of a position
        c = DiracContext(Q, Truncation(HalfInteger(lmax_d)))
        pw = c.basis
        for key in (DIAGONAL, (0, 0, 2, 1), (0, 0, -2, 1), (1, 1, -1, 0), (-1, -1, 1, 1)):
            rows = pw_rows(pw, key)
            ref = np.concatenate([np.where(rows < 0, -1, rows + (comp ^ key[3]) * pw.dim)
                                  for comp in (0, 1)])
            assert np.array_equal(c.spinor._rows_of(key), ref), key

    def test_label_arrays_follow_v_enumerate(self, ctx):
        ld, id_, jd, sign = ctx.v_doubled
        assert list(zip(ld.tolist(), id_.tolist(), jd.tolist(), sign.tolist())) == [
            (v.l.doubled, v.i.doubled, v.j.doubled, v.sign) for v in v_enumerate(ctx.trunc)]


@lru_cache(maxsize=None)
def _operator(q, lmax_d, kind):
    c = DiracContext(q, Truncation(HalfInteger(lmax_d)))
    return c.basis, c.dirac_operator(kind)


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([0.7, 1.2, 3.0]), lmax_d=st.integers(0, 24),
       kind=st.sampled_from(["true", "naive"]), data=st.data())
def test_dirac_blocks_at_any_labels_have_the_bits_of_the_operator(q, lmax_d, kind, data):
    basis, op = _operator(q, lmax_d, kind)
    n = basis.dim
    pos = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20)))
    got = dirac_blocks(kind, basis.nd[pos], basis.jd[pos], q, lmax_d)
    ref = (op.bands[DIAGONAL][pos], op.bands[(0, 0, 2, 1)][pos],
           op.bands[DIAGONAL][n + pos], op.bands[(0, 0, -2, 1)][n + pos])
    for block, band in zip(got, ref):
        assert np.array_equal(block.view(np.uint64), band.view(np.uint64))


class TestCoupledBasis:
    def test_orthonormal_and_complete(self, ctx):
        v = to_csr(ctx.change_of_basis)
        gram = (v.T @ v).toarray()
        assert np.abs(gram - np.eye(v.shape[0])).max() < 1e-12

    def test_single_vector_norm(self, ctx):
        w = v_vector(ctx, vidx(2, 1, 0.5, -1))
        assert w.dtype == complex and w.shape == (ctx.spinor.dim,)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-14)

    def test_extremal_vector_is_pure_component(self, ctx):
        # j = l + 1/2 in the plus family has only the e_+ component
        w = v_vector(ctx, vidx(1.5, 0.5, 2, +1))
        n = ctx.basis.dim
        assert np.linalg.norm(w[n:]) == 0.0
        assert np.linalg.norm(w[:n]) == pytest.approx(1.0)

    def test_out_of_truncation(self, ctx):
        with pytest.raises(QArithError):
            v_vector(ctx, vidx(6, 0, 0.5, +1))


class TestEigenvalues:
    def test_true_eigenvalues(self, ctx):
        for k, idx in enumerate(v_enumerate(ctx.trunc)):
            expect = idx.sign * (idx.l.doubled / 2.0 + 0.5)
            assert ctx.eigenvalues("true")[k] == expect

    def test_naive_frozen_value(self):
        # minus-family eigenvalue at l = 1/2, q = sqrt(2): -[3/2]_{q^2 = 2}
        c = DiracContext(math.sqrt(2.0), Truncation(HalfInteger(2)))
        k = v_enumerate(c.trunc).index(vidx(0.5, 0.5, 0, -1))
        val = c.eigenvalues("naive")[k]
        assert val == pytest.approx(-q_number(1.5, 2.0), abs=1e-14)
        assert val == pytest.approx(-1.6499158227686108, abs=1e-12)

    def test_naive_plus_family(self, ctx):
        k = v_enumerate(ctx.trunc).index(vidx(1, 0, 0.5, +1))
        assert ctx.eigenvalues("naive")[k] == pytest.approx(q_number(1, Q * Q))

    def test_eigenvector_property(self, ctx):
        d = ctx.dirac_operator("true")
        for label in (vidx(0.5, 0.5, 1, +1), vidx(3, -2, 1.5, -1)):
            w = v_vector(ctx, label)
            lam = label.sign * (label.l.doubled / 2.0 + 0.5)
            assert np.abs(d @ w - lam * w).max() < 1e-12

    def test_absd_consistent_with_true_spectrum(self, ctx):
        v = to_csr(ctx.change_of_basis)
        rebuilt = (v @ sp.diags(np.abs(ctx.eigenvalues("true"))) @ v.T).toarray()
        # |D| = n + 1/2 on both spinor components
        absd = (np.tile(ctx.basis.nd, 2) + 1) / 2.0
        assert np.abs(rebuilt - np.diag(absd)).max() < 1e-12

    def test_q_relation(self, ctx):
        assert ctx.q_relation_check() < 1e-12

    def test_bad_kind(self, ctx):
        with pytest.raises(QArithError):
            ctx.eigenvalues("wrong")


class TestBCoefficients:
    @pytest.mark.parametrize("q", [1.2, 2.0])
    def test_sum_vs_closed(self, q):
        for ld in range(1, 13):
            for id_ in range(-ld, ld + 1, 2):
                for jd in range(-ld - 1, ld + 2, 2):
                    s = b_coefficient(HalfInteger(ld), HalfInteger(id_),
                                      HalfInteger(jd), HalfInteger(ld + 1), -1, q)
                    c = b_minus_closed(HalfInteger(ld), HalfInteger(id_),
                                       HalfInteger(jd), q)
                    assert s == pytest.approx(c, abs=1e-12)

    def test_operator_cross_check(self):
        table = GeneratorTable(Q, Truncation(HalfInteger(12)))
        dctx = DiracContext(Q, table.trunc, table.basis)
        aop = spinor_mult(witness_polynomial(table), table, dctx)
        for ld in range(1, 10):
            for id_ in range(-ld, ld + 1, 2):
                for jd in range(-ld - 1, ld + 2, 2):
                    w = aop @ v_vector(dctx, vidx(ld / 2, id_ / 2, jd / 2, +1))
                    for md in (ld - 1, ld + 1):
                        if md < 0 or abs(id_ + 1) > md:
                            continue
                        for eps in (1, -1):
                            if abs(jd + 1) > md + eps:
                                continue
                            tgt = v_vector(dctx, VIndex(HalfInteger(md),
                                                        HalfInteger(id_ + 1),
                                                        HalfInteger(jd + 1), eps))
                            got = float(np.real(tgt @ w))
                            ref = b_coefficient(HalfInteger(ld), HalfInteger(id_),
                                                HalfInteger(jd), HalfInteger(md), eps, Q)
                            assert got == pytest.approx(ref, abs=1e-10)

    def test_guards(self):
        with pytest.raises(QArithError):
            b_coefficient(HalfInteger(2), HalfInteger(0), HalfInteger(1), HalfInteger(4), 1, Q)
        with pytest.raises(QArithError):
            b_coefficient(HalfInteger(2), HalfInteger(0), HalfInteger(1), HalfInteger(3), 2, Q)

    def test_witness_entry_approaches_constant(self):
        # |b^-_{l+1/2}(l, -l-1/2)| tends to a nonzero limit: the source of
        # the linear growth of the true-Dirac commutator on witness vectors
        vals = [abs(b_minus_closed(HalfInteger(ld), HalfInteger(ld),
                                   HalfInteger(-ld - 1), Q))
                for ld in (30, 40, 50)]
        assert vals[2] > 0.1
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])
