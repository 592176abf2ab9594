import itertools
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from test_peterweyl import reachable_arrays
from sparse_reference import (apply_word, csr_fitted_scalars, csr_generators,
                              csr_mult_operator, pw_position, streamed_shell_sums, to_csr,
                              whole_array_residuals)
from qsu2 import algebra, cli, spectral
from qsu2.qarith import HalfInteger, _cg_doubled, q_number
from qsu2.peterweyl import BLOCK_LABELS, DIAGONAL, Basis, Truncation, rho_weights
from qsu2.algebra import (AlgebraError, GeneratorTable, NCPolynomial, ValidationError,
                          adjoint_word, cg_table, haar_state,
                          is_normal_word, mult_operator, t_half)
from qsu2.dirac import DiracContext
from qsu2.gns_oracle import oracle_haar

Q = 1.2


@pytest.fixture(scope="module")
def table():
    return GeneratorTable(Q, Truncation(HalfInteger(16)))


def poly_equal(p1, p2, tol=1e-12):
    words = set(p1.terms) | set(p2.terms)
    return all(abs(p1.terms.get(w, 0) - p2.terms.get(w, 0)) <= tol for w in words)


class TestNormalOrder:
    def test_normal_words_fixed(self):
        for w in ("", "a", "AAgGG", "aaagG"):
            assert is_normal_word(w)
        for w in ("ga", "Aa", "aA", "Gg", "aaGa"):  # each holds a reducible pair
            assert not is_normal_word(w)

    def test_adjoint_word(self):
        assert adjoint_word("agG") == "gGA"

    def test_arithmetic(self):
        p = NCPolynomial.word("a") * NCPolynomial.word("g") * 2.0
        assert p.terms == {"ag": 2.0}
        assert (p - p).terms == {}
        assert p.adjoint().terms == {"GA": 2.0}
        assert p.degree() == 2


class TestGeneratorTable:
    @pytest.mark.parametrize("q", [1.2, 2.0])
    def test_relation_battery(self, q):
        t = GeneratorTable(q, Truncation(HalfInteger(24)))
        for name, res in t.residuals.items():
            assert res < 1e-10, name

    def test_scalars_match_closed_form(self, table):
        assert table.alpha_scalar == Q / np.sqrt(1 + Q * Q)
        assert table.gamma_scalar == 1 / np.sqrt(1 + Q * Q)

    def test_cyclic_vector_maps_to_basis_element(self, table):
        e0 = np.zeros(table.basis.dim)
        e0[0] = 1.0
        for rd in (1, -1):
            for sd in (1, -1):
                out = t_half(rd, sd, table.basis, Q) @ e0
                k = table.basis.position_doubled(1, rd, sd)
                assert out[k] == pytest.approx(1.0, abs=1e-14)
                assert np.abs(out).sum() == pytest.approx(1.0, abs=1e-14)

    def test_unitary_row(self, table):
        a, g = to_csr(table.ops["a"]), to_csr(table.ops["g"])
        eye = sp.identity(table.basis.dim)
        resid = a.conj().T @ a + g.conj().T @ g - eye
        safe = sp.diags((table.basis.nd <= table.trunc.lmax.doubled - 2).astype(float))
        assert abs(resid @ safe).max() < 1e-12


def scalar_loop_gen_matrix(rd, sd, basis, q):
    """Reference assembly: one scalar CG evaluation per basis element and branch,
    positions from a dict over the enumeration."""
    Ld = basis.trunc.lmax.doubled
    pos = {t: k for k, t in enumerate(zip(basis.nd.tolist(), basis.id.tolist(),
                                          basis.jd.tolist()))}
    rows, cols, vals = [], [], []
    q2 = q_number(2, q)
    for k in range(basis.dim):
        ld = int(basis.nd[k])
        id_, jd = int(basis.id[k]), int(basis.jd[k])
        for branch in (1, -1):
            md = ld + branch
            if md < 0 or md > Ld or abs(id_ + rd) > md or abs(jd + sd) > md:
                continue
            c1 = _cg_doubled(rd, branch, ld, id_, q)
            c2 = _cg_doubled(sd, branch, ld, jd, q)
            if c1 == 0.0 or c2 == 0.0:
                continue
            nu = math.sqrt(q2 * q_number(ld + 1, q) / q_number(md + 1, q))
            rows.append(pos[(md, id_ + rd, jd + sd)])
            cols.append(k)
            vals.append(c1 * c2 * nu)
    return sp.csr_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim))


class CountedQ(float):
    """q that counts the scalar powers q ** x taken of it (q_number takes two)."""

    powers = 0

    def __pow__(self, x):
        self.powers += 1
        return float(self) ** x


def count_calls(monkeypatch, module, name) -> list:
    """[number of calls] of module.name from here on."""
    calls = [0]
    fn = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestAssembly:
    @pytest.mark.parametrize("q", [1.2, 3.0, 0.7])
    @pytest.mark.parametrize("lmax_d", [2, 7, 16])
    def test_table_driven_matches_scalar_loop_bitwise(self, lmax_d, q):
        basis = Basis(Truncation(HalfInteger(lmax_d)))
        for rd in (1, -1):
            for sd in (1, -1):
                new = to_csr(t_half(rd, sd, basis, q))
                ref = scalar_loop_gen_matrix(rd, sd, basis, q)
                assert np.array_equal(new.indptr, ref.indptr)
                assert np.array_equal(new.indices, ref.indices)
                assert new.data.dtype == ref.data.dtype
                assert new.data.tobytes() == ref.data.tobytes(), (rd, sd)

    @pytest.mark.parametrize("q", [0.5, 0.7, 1.2, 3.0])
    def test_cg_table_matches_scalar_cg_bitwise(self, q):
        # the closed forms combined elementwise give every bit of _cg_doubled,
        # signed zeros and the +0.0 of unused slots included
        Ld = 40
        for m1d in (1, -1):
            table = cg_table(m1d, Ld, q)
            ref = np.zeros((2, Ld + 1, Ld + 1))
            for b, branch in enumerate((1, -1)):
                for ld in range(Ld + 1):
                    for k in range(ld + 1):
                        ref[b, ld, k] = _cg_doubled(m1d, branch, ld, 2 * k - ld, q)
            assert np.array_equal(table.view(np.uint64), ref.view(np.uint64)), (m1d, q)

    @pytest.mark.parametrize("lmax_d", [24, 40])
    def test_scalar_cg_calls_grow_like_lmax_squared(self, lmax_d, monkeypatch):
        # a guard on work, not time: the per-element loop made 78 400 CG calls at
        # lmax_doubled 24 (dim 5525), per-shell tables 1300, each with two q-numbers
        # and one power; a cold build now takes O(lmax) scalar q-numbers and powers
        q = CountedQ(Q)
        numbers = count_calls(monkeypatch, algebra, "q_number")
        cg_table.cache_clear()  # count a cold build
        GeneratorTable(q, Truncation(HalfInteger(lmax_d)))
        assert 0 < numbers[0] <= 4 * (lmax_d + 3)
        assert 0 < q.powers <= 12 * (lmax_d + 3)  # two per q-number, plus q^(e/2)

    def test_cg_table_computed_once_per_arguments(self):
        # the generator matrices and the change of basis read two tables (m1 = +-1/2),
        # each built once from 18 q-numbers (two powers each) and 35 powers q^(e/2);
        # each of the two t_half calls takes 19 q-numbers for nu
        cg_table.cache_clear()
        q = CountedQ(Q)
        t = GeneratorTable(q, Truncation(HalfInteger(16)))
        DiracContext(q, t.trunc, t.basis).change_of_basis
        assert q.powers == 2 * (2 * 18 + 35) + 2 * 2 * 19
        with pytest.raises(ValueError):
            cg_table(1, 16, Q)[0, 0, 0] = 0.0

    def test_smaller_cg_table_is_a_slice_of_the_largest(self):
        # no entry depends on lmax_doubled: a leading view's table has the bits
        # of the leading slice of the full one
        full = cg_table(-1, 16, Q)
        small = cg_table(-1, 5, Q)
        assert small.tobytes() == full[:, :6, :6].tobytes()
        with pytest.raises(ValueError):
            small[0, 0, 0] = 0.0

    def test_cg_tables_kept_are_bounded(self):
        cg_table.cache_clear()
        kept = cg_table.cache_info().maxsize
        for k in range(kept + 3):
            cg_table(1, 2, 1.5 + k)
        assert cg_table.cache_info().currsize == kept
        before = cg_table.cache_info().misses
        cg_table(1, 2, 1.5)  # the least recent went first
        assert cg_table.cache_info().misses == before + 1


def full_dimension_haar_state(p, table):
    """Reference: <e0, p e0> with every word applied at the table's full dimension."""
    e0 = np.zeros(table.basis.dim, dtype=complex)
    e0[0] = 1.0
    total = 0.0 + 0.0j
    for word, coeff in p.terms.items():
        total += coeff * apply_word(word, e0, table)[0]
    return total


def full_column_residuals(table):
    """Reference battery: full products, then a diagonal projection onto the safe columns."""
    q = table.q
    a, A, g, G = (to_csr(table.ops[ch]) for ch in "aAgG")
    eye = sp.identity(table.basis.dim, format="csr")
    rel = {
        "A a + G g = 1": A @ a + G @ g - eye,
        "a A + q^2 G g = 1": a @ A + q * q * G @ g - eye,
        "G g = g G": G @ g - g @ G,
        "a g = q g a": a @ g - q * g @ a,
        "a G = q G a": a @ G - q * G @ a,
    }
    safe = table.basis.nd <= table.trunc.lmax.doubled - 2
    proj = sp.diags(safe.astype(float))
    return {name: float(abs((m @ proj)).max()) if m.nnz else 0.0
            for name, m in rel.items()}


ALL_WORDS_TO_4 = ["".join(w) for n in range(5) for w in itertools.product("aAgG", repeat=n)]


class TestLeadingShells:
    @pytest.mark.parametrize("q", [1.2, 3.0, 0.7])
    @pytest.mark.parametrize("lmax_d", [4, 7, 16, 24])
    def test_haar_state_matches_full_dimension_bitwise(self, lmax_d, q):
        t = GeneratorTable(q, Truncation(HalfInteger(lmax_d)))
        polys = [NCPolynomial.word(w) for w in ALL_WORDS_TO_4]
        polys.append(NCPolynomial({"": 0.5, "Gg": -1.0, "aAgG": 2.0j, "AAaa": 0.25}))
        new = np.array([haar_state(p, t) for p in polys])
        ref = np.array([full_dimension_haar_state(p, t) for p in polys])
        assert new.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("q", [0.7, 1.2, 3.0])
    def test_vacuum_vectors_match_letter_by_letter_bitwise(self, q):
        # w e0 = ops[w[0]] @ (w[1:] e0) from the memo, whichever words filled it
        # first, has the bits of applying w letter by letter on the same view
        for order in (ALL_WORDS_TO_4, ALL_WORDS_TO_4[::-1]):
            view = GeneratorTable(q, Truncation(HalfInteger(24))).leading(4)
            vecs = {w: view.vacuum(w) for w in order}
            e0 = np.zeros(view.basis.dim, dtype=complex)
            e0[0] = 1.0
            for w in ALL_WORDS_TO_4:
                assert vecs[w].tobytes() == apply_word(w, e0, view).tobytes(), w
        assert not view.vacuum("aG").flags.writeable

    def test_view_is_the_leading_block(self, table):
        view = table.leading(3)
        k = pw_position(4, -4, -4)
        assert view.trunc.lmax.doubled == 3 and view.basis.dim == k
        assert (view.alpha_scalar, view.gamma_scalar) == (table.alpha_scalar,
                                                          table.gamma_scalar)
        for ch, op in table.ops.items():
            assert view.ops[ch].shell_depth_doubled == op.shell_depth_doubled
            assert abs(to_csr(view.ops[ch]) - to_csr(op)[:k, :k]).nnz == 0
        assert np.array_equal(rho_weights(view.basis, Q), rho_weights(table.basis, Q)[:k])

    def test_view_memoized_without_a_table_build(self, monkeypatch):
        # a view is one table build per distinct shell; a repeated call builds nothing
        t = GeneratorTable(Q, Truncation(HalfInteger(10)))
        builds = []
        init = GeneratorTable.__init__

        def counting_init(self, q, trunc):
            builds.append(trunc.lmax.doubled)
            init(self, q, trunc)

        monkeypatch.setattr(GeneratorTable, "__init__", counting_init)
        assert t.leading(0) is t.leading(1) is t.leading(2)  # spins 2n <= 2 at least
        assert t.leading(2).trunc.lmax.doubled == 2
        assert t.leading(4) is t.leading(4) is not t.leading(2)
        assert t.leading(10) is t and t.leading(12) is t
        assert builds == [2, 4]


@lru_cache(maxsize=8)
def _full_table(q, ld):
    return GeneratorTable(q, Truncation(HalfInteger(ld)))


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([0.05, 0.7, 1.01, 1.2, 3.0, 25.0]), ld=st.integers(3, 33),
       data=st.data())
def test_smaller_table_is_the_leading_block_bitwise(q, ld, data):
    # every band entry is a closed form of its column and the scalars are
    # closed forms of q, so the table on fewer shells is the leading block
    nd = data.draw(st.integers(2, ld - 1), label="nd")
    full = _full_table(q, ld)
    view = GeneratorTable(q, Truncation(HalfInteger(nd)))
    assert (view.alpha_scalar, view.gamma_scalar) == (full.alpha_scalar, full.gamma_scalar)
    k = view.basis.dim
    for ch, op in full.ops.items():
        assert view.ops[ch].bands.keys() == op.bands.keys()
        for key, v in op.bands.items():
            block = np.where(view.basis._rows_of(key) >= 0, v[:k], 0.0)
            assert view.ops[ch].bands[key].tobytes() == block.tobytes(), (ch, key)
    # the view's safe columns are safe columns of the full table, with the same
    # entries: a view never fails a battery that the full table passes
    assert view.residuals.keys() == full.residuals.keys()
    assert all(view.residuals[name] <= full.residuals[name] for name in full.residuals)


class TestRelationBattery:
    @pytest.mark.parametrize("lmax_d", [2, 7, 24])
    def test_prefix_residuals_match_full_columns(self, lmax_d):
        # the battery streams its bands; the reference forms every product whole
        for q in (1.2, 0.7, 2.0):
            t = GeneratorTable(q, Truncation(HalfInteger(lmax_d)))
            assert t.residuals == full_column_residuals(t)

    @staticmethod
    def _perturbed(column_shell):
        """A validated ld 7 table, then one nonzero entry of alpha moved by 1e-6."""
        t = GeneratorTable(Q, Truncation(HalfInteger(7)))
        for band in t.ops["a"].bands.values():
            k = np.flatnonzero((t.basis.nd == column_shell) & (band != 0))
            if k.size:
                band[k[0]] += 1e-6
                return t

    def test_perturbed_safe_column_raises(self):
        t = self._perturbed(5)  # 2n = lmax_doubled - 2: the last safe shell
        assert max(full_column_residuals(t).values()) > GeneratorTable.RELATION_TOL
        with pytest.raises(ValidationError):
            t.validate()

    def test_perturbed_column_beyond_prefix_ignored(self):
        t = self._perturbed(7)  # the top shell is never a safe column
        assert max(full_column_residuals(t).values()) < GeneratorTable.RELATION_TOL
        t.validate()

    @pytest.mark.parametrize("band", [0, 1])
    @pytest.mark.parametrize("letter", list("aAgG"))
    def test_nan_in_a_safe_column_raises(self, letter, band):
        # nan > RELATION_TOL is False, and the max over band keys kept or dropped
        # a NaN by key order: none of the 8 generator bands raised
        t = GeneratorTable(Q, Truncation(HalfInteger(8)))
        list(t.ops[letter].bands.values())[band][3] = np.nan
        with pytest.raises(ValidationError) as info:
            t.validate()
        assert math.isnan(info.value.residual) and math.isnan(max(t.residuals.values()))

    @pytest.mark.parametrize("q", [0.7, 1.2, 3.0])
    @pytest.mark.parametrize("lmax_d", [2, 16, 40, 62])
    def test_residuals_match_the_whole_array_battery_bitwise(self, lmax_d, q):
        # ld 40 and 62 run in several column blocks, ld 2 and 16 in one
        t = GeneratorTable(q, Truncation(HalfInteger(lmax_d)))
        ref = whole_array_residuals(t)
        assert list(t.residuals) == list(ref)
        assert (np.array(list(t.residuals.values())).tobytes()
                == np.array(list(ref.values())).tobytes())

    @pytest.mark.parametrize("where", ["end of a block", "start of a block", "last safe shell"])
    def test_perturbed_column_at_a_block_edge_raises(self, where, monkeypatch):
        # one alpha entry moved by 1e-6 at the last column of the first block,
        # the first column of the second, or the last safe column: each is
        # found, with the residuals of the whole-array battery bit for bit.
        # The table holds alpha as factors, so the entry is moved in every
        # band that alpha forms, over any range of shells
        t = GeneratorTable(Q, Truncation(HalfInteger(40)))
        blocks = list(t.basis.column_blocks(39))  # the safe shells 2n <= 38
        assert len(blocks) == 2 and blocks[-1].cols.stop == t.basis.start[39]
        col = {"end of a block": blocks[0].cols.stop - 1, "start of a block": blocks[1].lo,
               "last safe shell": blocks[1].cols.stop - 1}[where]
        alpha = t.ops["a"]
        key = next(k for k, v in alpha.bands.items() if v[col] != 0)
        form = alpha.form

        def perturbed(shells, out=None):
            bands = form(shells, out)
            lo, hi = t.basis.start[shells[0]], t.basis.start[shells[1]]
            if lo <= col < hi:
                bands[key][col - lo] += 1e-6
            return bands

        monkeypatch.setattr(alpha, "form", perturbed)
        with pytest.raises(ValidationError):
            t.validate()
        assert t.residuals == whole_array_residuals(t)


class TestMultOperator:
    def test_identity(self, table):
        op = mult_operator(NCPolynomial.one(), table)
        assert op.shell_depth_doubled == 0
        assert abs(to_csr(op) - sp.identity(table.basis.dim)).nnz == 0

    def test_gamma_star_gamma_preserves_weights(self, table):
        op = mult_operator(NCPolynomial.word("Gg"), table)
        assert op.shell_depth_doubled == 2
        coo = to_csr(op).tocoo()
        b = table.basis
        for r, c in zip(coo.row, coo.col):
            assert b.id[r] == b.id[c] and b.jd[r] == b.jd[c]

    def test_adjoint_compatibility(self, table):
        # mult(p*) equals mult(p)^H on the safe shell
        p = NCPolynomial({"ag": 1.0, "G": 0.5j})  # already normal
        op = mult_operator(p, table)
        opstar = mult_operator(p.adjoint(), table)
        safe = sp.diags((table.basis.nd <= table.trunc.lmax.doubled
                         - 2 * op.shell_depth_doubled).astype(float))
        resid = safe @ (to_csr(opstar) - to_csr(op).conj().T) @ safe
        assert abs(resid).max() < 1e-12

    def test_empty_safe_shell_error(self):
        t = GeneratorTable(Q, Truncation(HalfInteger(3)))
        with pytest.raises(AlgebraError):
            mult_operator(NCPolynomial.word("aaaa"), t)

    def test_gns_low_degree_injectivity(self, table):
        words = [w for n in range(5) for w in
                 ("".join(t) for t in itertools.product("aAgG", repeat=n))
                 if is_normal_word(w)]
        e0 = np.zeros(table.basis.dim, dtype=complex)
        e0[0] = 1.0
        vecs = np.array([apply_word(w, e0, table) for w in words])
        gram = vecs.conj() @ vecs.T
        assert np.linalg.matrix_rank(gram, tol=1e-10) == len(words)


WORDS_TO_4 = st.text(alphabet="aAgG", max_size=4)


def _shell_sums_agree(new, ref, rel=1e-13):
    """Both None, or equal in length and within rel of ref on every shell (0 where ref is 0)."""
    if ref is None or new is None:
        return ref is None and new is None
    return len(new) == len(ref) and bool(np.all(np.abs(new - ref) <= rel * np.abs(ref)))


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([0.7, 1.2, 3.0]), ld=st.sampled_from([4, 7, 16, 40]), word=WORDS_TO_4)
def test_shell_sums_are_the_diagonal_of_mult_operator(q, ld, word):
    # the sums over spin paths against diag(w) * rho of the word's operator,
    # reduced per shell; odd words and words of nonzero weight have no
    # diagonal band and no path
    t = _full_table(q, ld)
    op = mult_operator(NCPolynomial.word(word), t)  # coefficient 1 + 0j
    ref = None
    if DIAGONAL in op.bands:
        assert not op.bands[DIAGONAL].imag.any()
        ref = np.bincount(t.basis.nd, weights=op.bands[DIAGONAL].real * rho_weights(t.basis, q))
    assert _shell_sums_agree(t.shell_sums(word), ref), word


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([0.5, 0.7, 1.2, 3.0]), ld=st.sampled_from([2, 4, 7, 16, 40, 62]),
       word=WORDS_TO_4)
def test_shell_sums_match_the_streamed_route(q, ld, word):
    # every shell, the corrupted top shells included, against the diagonal
    # band of the word's last product formed one column block at a time
    # (ld 40 and 62 have several) and reduced per shell with rho
    t = _full_table(q, ld)
    if len(word) <= ld:
        assert _shell_sums_agree(t.shell_sums(word), streamed_shell_sums(t, word)), word


@pytest.mark.parametrize("q", [0.05, 20.0])
def test_shell_sums_are_finite_where_the_streamed_route_is(q):
    # at ld 62 rho spans q^{+-124}; the path sums take it as q^{-2i} q^{-2j}
    t = _full_table(q, 62)
    for word in ("", "Aa", "gG", "aAgG", "AAaa"):
        ref = streamed_shell_sums(t, word)
        assert np.isfinite(ref).all() and np.isfinite(t.shell_sums(word)).all(), word


def test_diagonal_degree_beyond_truncation_raises():
    t = GeneratorTable(Q, Truncation(HalfInteger(3)))
    with pytest.raises(AlgebraError):
        t.diagonal_shell_sums(NCPolynomial.word("aaaa"))


_COMPLEX = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([0.7, 1.2, 3.0]), terms=st.dictionaries(WORDS_TO_4, _COMPLEX, max_size=4),
       ld=st.integers(2, 23), extra=st.integers(1, 22))
def test_safe_columns_are_exact_across_truncations(q, terms, ld, extra):
    # "provably exact": on the columns 2n <= ld - deg the operator at ld has the
    # entries of the operator at any larger truncation, bit for bit, and the
    # larger one has none beyond the smaller basis there
    p = NCPolynomial(terms)
    ld = max(ld, p.degree())
    small, large = _full_table(q, ld), _full_table(q, min(24, ld + extra))
    k = int(small.basis.start[ld - p.degree() + 1])  # the safe columns lead the basis
    dim = small.basis.dim
    ref = to_csr(mult_operator(p, small))[:, :k]
    big = to_csr(mult_operator(p, large))[:, :k]
    assert big[dim:].nnz == 0
    new = big[:dim]
    for m in (ref, new):
        m.sort_indices()
    assert np.array_equal(new.indptr, ref.indptr)
    assert np.array_equal(new.indices, ref.indices)
    assert new.data.tobytes() == ref.data.tobytes()


class TestTransientMemory:
    """Guards on memory, not time, on bases of several column blocks (ld 40, 62, 80).

    Measured with tracemalloc.  A table holds its generators as per-shell
    factors and keeps no array of basis length, rho included: it retains
    about 108 (lmax_doubled + 3)^2 bytes at ld 40, 62 and 80 (its factors,
    the basis's per-row tables and row targets), where it retained 8.75
    float64 arrays of basis length (its 8 generator bands) before.  Its
    build forms the bands of one column block's window at a time, with the
    rows of that block: 2.6 MB over the retained table at ld 40, 3.0 MB at
    ld 80.  `haar --lmax 62` peaks at 3.26 MiB of heap (7.24 MiB when the
    table held its bands and rho).
    """

    @staticmethod
    def _traced(fn):
        """(result, memory still held, peak) of allocations made during fn()."""
        tracemalloc.start()
        try:
            result = fn()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, current, peak

    def test_build_peak_over_the_retained_table(self):
        # the table retains its factors and the basis's per-row tables, O(lmax^2);
        # it retained 8.75 units of a basis-length float64 array with its bands
        for lmax_d in (40, 80):
            _full_table(Q, lmax_d)  # the CG tables are shared by every table: build them first
            t, current, peak = self._traced(
                lambda: GeneratorTable(Q, Truncation(HalfInteger(lmax_d))))
            assert len(list(t.basis.column_blocks())) >= 2
            assert current <= 120 * (lmax_d + 3) ** 2, lmax_d
            assert peak - current <= 8 * 18 * (BLOCK_LABELS + 2 * (lmax_d + 1) ** 2), lmax_d

    def test_build_transient_is_one_block_whatever_the_size(self):
        # the transient is per column block: the bands of the block's window (the
        # block and one shell on each side) and the rows of the block.  At ld 80
        # (dim 180 441) it is no larger in bytes than at ld 40 (dim 23 821), up
        # to 8 generator bands over the larger shells at the window's edges
        transient = {}
        for lmax_d in (40, 80):
            _, current, peak = self._traced(
                lambda: GeneratorTable(Q, Truncation(HalfInteger(lmax_d))))
            transient[lmax_d] = peak - current
        assert transient[80] <= transient[40] + 8 * 8 * 2 * (81 ** 2 - 41 ** 2)

    def test_diagonal_of_a_degree_2_word(self):
        # sums over spin paths of the padded factors, O(lmax^2): was 15 units of
        # a basis-length array with the word operator, then 2 to 3 units with
        # the whole band of the last product, then the bands of one column
        # block (8 * 8 * BLOCK_LABELS bytes)
        for lmax_d in (40, 80):
            t = _full_table(Q, lmax_d)
            for w in ("Gg", "Aa", "aG"):
                _, _, peak = self._traced(lambda: t.diagonal_shell_sums(NCPolynomial.word(w)))
                assert peak <= 16 * 8 * (lmax_d + 7) ** 2, (lmax_d, w)

    def test_no_label_length_array_is_reachable_after_the_haar_functionals(self):
        # every trace functional of `haar` on a table of two column blocks;
        # the Haar states read the leading views, which the table holds
        t = GeneratorTable(Q, Truncation(HalfInteger(40)))
        lam = lambda n: math.exp(-n * (n + 1))
        spectral.rho_trace_functional(NCPolynomial.one(), lam, t)
        for w in cli.OBSERVABLES:
            p = NCPolynomial.word(w)
            haar_state(p, t)
            for t_ in (0.5, 1.0, 2.0):
                spectral.haar_via_heat(p, t_, t)
            spectral.rho_trace_functional(p, lam, t)
        sizes = [v.size for v in reachable_arrays(t)]
        assert sizes and max(sizes) < t.basis.dim

    def test_haar_heap_peak(self, tmp_path):
        # the benchmark's haar-ld62 run, in process
        argv = ["haar", "--q", "1.2", "--lmax", "62", "--t-grid", "0.5:2:4",
                "--out", str(tmp_path / "haar.csv")]
        rc, _, peak = self._traced(lambda: cli.main(argv))
        assert rc == 0
        assert peak <= 3.5 * 2 ** 20


class TestBandProducts:
    @pytest.mark.parametrize("q", [1.2, 3.0, 0.7])
    def test_words_match_csr_products_bitwise(self, q):
        # scalars, generators and every word of length <= 4 against the CSR route
        t = GeneratorTable(q, Truncation(HalfInteger(16)))
        scalars, ops = csr_generators(q, t.basis)
        assert (t.alpha_scalar, t.gamma_scalar) == scalars
        # the fit at e0 is the independent route to the closed forms
        assert csr_fitted_scalars(q, t.basis) == pytest.approx(scalars, rel=1e-12, abs=0)
        polys = [NCPolynomial.word(w) for w in ALL_WORDS_TO_4]
        polys += [NCPolynomial({"": 0.5, "Gg": -1.0, "aAgG": 2.0j, "AAaa": 0.25}),
                  NCPolynomial({"ag": 1.0, "G": 0.5j, "gG": -3.0})]
        for p in polys:
            new = to_csr(mult_operator(p, t))
            ref = csr_mult_operator(p, ops, t.basis.dim)
            ref.sort_indices()
            assert np.array_equal(new.indptr, ref.indptr), p
            assert np.array_equal(new.indices, ref.indices), p
            assert new.data.tobytes() == ref.data.tobytes(), p
        for ch, m in ops.items():
            assert to_csr(t.ops[ch]).data.tobytes() == m.data.tobytes(), ch
            assert t.ops[ch].nnz == m.nnz, ch


class TestHaarState:
    def test_normalized(self, table):
        assert haar_state(NCPolynomial.one(), table) == pytest.approx(1.0)

    def test_alpha_vanishes(self, table):
        assert abs(haar_state(NCPolynomial.word("a"), table)) < 1e-15

    def test_gamma_star_gamma_value(self):
        t = GeneratorTable(2.0, Truncation(HalfInteger(10)))
        # oracle value 1/(1+q^2) = 0.2 at q = 2 (cross-validated ladder sum)
        p = NCPolynomial.word("Gg")
        assert haar_state(p, t) == pytest.approx(0.2, abs=1e-12)
        assert oracle_haar(p, 40, 2.0) == pytest.approx(0.2, abs=1e-12)
        # consistency: psi(a*a) = 1 - psi(g*g)
        assert haar_state(NCPolynomial.word("Aa"), t) == pytest.approx(0.8, abs=1e-12)

    def test_positive_spin_components_vanish(self, table):
        # <e0, p e0> picks exactly the spin-0 coefficient of p e0
        e0 = np.zeros(table.basis.dim, dtype=complex)
        e0[0] = 1.0
        for w in ("a", "g", "Gg", "aG"):
            vec = apply_word(w, e0, table)
            assert haar_state(NCPolynomial.word(w), table) == pytest.approx(vec[0])

    def test_degree_guard(self):
        t = GeneratorTable(Q, Truncation(HalfInteger(2)))
        with pytest.raises(AlgebraError):
            haar_state(NCPolynomial.word("aaa"), t)

    def test_zero_polynomial_is_zero(self):
        t = GeneratorTable(Q, Truncation(HalfInteger(2)))
        value = haar_state(NCPolynomial(), t)
        assert value == 0j and isinstance(value, complex)
