import itertools
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from test_peterweyl import reachable_arrays
from sparse_reference import (apply_word, csr_fitted_scalars, csr_generators,
                              csr_mult_operator, pw_position, streamed_shell_sums, to_csr,
                              whole_array_residuals)
from qsu2 import algebra, cli, dirac, spectral
from qsu2.qarith import HalfInteger, _cg_doubled, q_number
from qsu2.peterweyl import DIAGONAL, Basis, BandMatrix, Truncation, rho_weights
from qsu2.algebra import (AlgebraError, Generator, GeneratorTable, NCPolynomial,
                          ValidationError, adjoint_word, generator_tables, haar_state, haar_states,
                          is_normal_word, mult_operator, t_half)
from qsu2.dirac import DiracContext, dirac_blocks
from qsu2.gns_oracle import ladder_cut, oracle_haar, oracle_haar_words

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

    def test_equality_compares_the_terms(self):
        p = NCPolynomial({"ag": 2.0, "G": 0.5j})
        assert p == NCPolynomial({"G": 0.5j, "ag": 2.0})  # the terms, in any order
        assert p == NCPolynomial.word("ag", 2.0) + NCPolynomial.word("G", 0.5j)
        assert p != NCPolynomial({"ag": 2.0})
        assert p != NCPolynomial({"ag": 2.0, "G": -0.5j})
        assert NCPolynomial() == NCPolynomial({"a": 0.0})  # zero terms are dropped
        assert [p == other for other in (p.terms, "ag", None)] == [False] * 3

    def test_repr_shows_the_terms(self):
        assert repr(NCPolynomial({"ag": 2.0, "G": 0.5j})) == "NCPolynomial({'ag': 2.0, 'G': 0.5j})"
        assert repr(NCPolynomial()) == "NCPolynomial({})"

    def test_unhashable(self):
        # __eq__ compares the terms, a mutable dict, so no hash is defined
        with pytest.raises(TypeError):
            hash(NCPolynomial.word("a"))

    @pytest.mark.parametrize("word", ["x", "aB", "g "])
    def test_bad_letter_raises(self, word):
        with pytest.raises(AlgebraError, match="bad letter in word %r" % word):
            NCPolynomial({word: 1.0})


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
    labels = list(zip(basis.nd.tolist(), basis.id.tolist(), basis.jd.tolist()))
    pos = {t: k for k, t in enumerate(labels)}
    rows, cols, vals = [], [], []
    q2 = q_number(2, q)
    for k, (ld, id_, jd) in enumerate(labels):
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
    @pytest.mark.parametrize("lmax_d", [2, 7, 16, 41])
    def test_table_driven_matches_scalar_loop_bitwise(self, lmax_d, q):
        # ld 41 has shells of 40 labels a row and more, and several chunks of the
        # grid that the bands are read from
        basis = Basis(Truncation(HalfInteger(lmax_d)))
        cols = np.arange(basis.dim)
        for rd in (1, -1):
            for sd in (1, -1):
                gen = t_half(rd, sd, basis, q)
                new = to_csr(gen)
                ref = scalar_loop_gen_matrix(rd, sd, basis, q)
                assert np.array_equal(new.indptr, ref.indptr)
                assert np.array_equal(new.indices, ref.indices)
                assert new.data.dtype == ref.data.dtype
                assert new.data.tobytes() == ref.data.tobytes(), (rd, sd)
                # the starred bands hold the transpose's entry at each band's row,
                # every zero +0.0, at a row inside the truncation or not
                ref_t = ref.T.tocsr()
                for key, band in gen.H.bands.items():
                    rows = basis._rows_of(key)
                    expected = np.where(rows >= 0, ref_t[np.maximum(rows, 0), cols].A1, 0.0)
                    assert band.tobytes() == expected.tobytes(), (rd, sd, key)

    @pytest.mark.parametrize("q", [0.5, 0.7, 1.2, 3.0])
    def test_cg_table_matches_scalar_cg_bitwise(self, q):
        # the closed forms combined elementwise give every bit of _cg_doubled,
        # signed zeros and the +0.0 of unused slots and of the padding included;
        # nu has the bits of the scalar nu of scalar_loop_gen_matrix, and +0.0 on
        # the shells whose branch leaves the truncation
        Ld = 40
        cg, nu = generator_tables(Ld, q)
        ref = np.zeros((2, 2, Ld + 3, Ld + 3))
        for m, m1d in enumerate((1, -1)):
            for b, branch in enumerate((1, -1)):
                for ld in range(Ld + 1):
                    for k in range(ld + 1):
                        ref[m, b, ld + 1, k + 1] = _cg_doubled(m1d, branch, ld, 2 * k - ld, q)
        assert np.array_equal(cg.view(np.uint64), ref.view(np.uint64)), q
        q2 = q_number(2, q)
        ref = np.zeros((2, Ld + 3))
        for b, branch in enumerate((1, -1)):
            for ld in range(Ld + 1):
                if 0 <= ld + branch <= Ld:
                    ref[b, ld + 1] = math.sqrt(q2 * q_number(ld + 1, q)
                                               / q_number(ld + branch + 1, q))
        assert np.array_equal(nu.view(np.uint64), ref.view(np.uint64)), q

    @pytest.mark.parametrize("lmax_d", [24, 40])
    def test_scalar_cg_calls_grow_like_lmax_squared(self, lmax_d, monkeypatch):
        # a guard on work, not time: the per-element loop made 78 400 CG calls at
        # lmax_doubled 24 (dim 5525), per-shell tables 1300, each with two q-numbers
        # and one power; a cold build now takes [r]_q for r = 0 .. lmax_d + 1 once
        # each (two powers apiece) and q^(e/2) for |e| <= lmax_d + 1: was at most
        # 4 (lmax_d + 3) q-numbers, one vector for each CG table and each generator
        q = CountedQ(Q)
        numbers = count_calls(monkeypatch, algebra, "q_number")
        generator_tables.cache_clear()  # count a cold build
        GeneratorTable(q, Truncation(HalfInteger(lmax_d)))
        assert numbers[0] == lmax_d + 2
        assert q.powers == 2 * (lmax_d + 2) + 2 * lmax_d + 3

    @pytest.mark.parametrize("lmax_d", [2, 16, 62])
    def test_table_and_true_blocks_share_one_q_number_vector(self, lmax_d, monkeypatch):
        # the generator factors and D's 2x2 blocks read the same cached tables
        numbers = count_calls(monkeypatch, algebra, "q_number")
        dirac_numbers = count_calls(monkeypatch, dirac, "q_number")
        generator_tables.cache_clear()
        t = GeneratorTable(Q, Truncation(HalfInteger(lmax_d)))
        dirac_blocks("true", t.basis.nd, t.basis.jd, Q, lmax_d)
        assert 0 < numbers[0] + dirac_numbers[0] <= lmax_d + 3

    def test_cg_table_computed_once_per_arguments(self):
        # the generator factors, the change of basis and D's blocks read one set of
        # tables, built once from 18 q-numbers (two powers each) and 35 powers
        # q^(e/2): was two CG tables of that cost and 19 q-numbers per generator
        generator_tables.cache_clear()
        q = CountedQ(Q)
        t = GeneratorTable(q, Truncation(HalfInteger(16)))
        DiracContext(q, t.trunc, t.basis).change_of_basis
        dirac_blocks("true", t.basis.nd, t.basis.jd, q, 16)
        assert q.powers == 2 * 18 + 35
        cg, nu = generator_tables(16, Q)
        for op, m in ((t.ops["a"], 0), (t.ops["g"], 1)):  # shared, not copied
            c1, c2, f = op.factors
            assert c1.base is cg and c2.base is cg and f is nu
            assert c1.tobytes() == cg[m].tobytes() and c2.tobytes() == cg[0].tobytes()
        for f in (cg, nu):
            with pytest.raises(ValueError):
                f[0, 0] = 1.0

    def test_smaller_cg_table_is_a_slice_of_the_largest(self):
        # no CG entry depends on lmax_doubled: a smaller table has the bits of the
        # leading slice of the full one
        full = generator_tables(16, Q)[0]
        small = generator_tables(5, Q)[0]
        assert small[:, :, 1:-1, 1:-1].tobytes() == full[:, :, 1:7, 1:7].tobytes()

    def test_cg_tables_kept_are_bounded(self):
        generator_tables.cache_clear()
        kept = generator_tables.cache_info().maxsize
        for k in range(kept + 3):
            generator_tables(2, 1.5 + k)
        assert generator_tables.cache_info().currsize == kept
        before = generator_tables.cache_info().misses
        generator_tables(2, 1.5)  # the least recent went first
        assert generator_tables.cache_info().misses == before + 1


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
        # first, has the bits of applying w letter by letter on a table built at
        # the spins of the vacuum basis: in ascending order the memo starts again
        # at 3 and 4 letters, and each vector read has the bits of that basis
        tables = {nd: GeneratorTable(q, Truncation(HalfInteger(nd))) for nd in (2, 3, 4)}

        def letter_by_letter(w, nd):
            e0 = np.zeros(tables[nd].basis.dim, dtype=complex)
            e0[0] = 1.0
            return apply_word(w, e0, tables[nd])

        for order in (ALL_WORDS_TO_4, ALL_WORDS_TO_4[::-1]):
            t = GeneratorTable(q, Truncation(HalfInteger(24)))
            for w in order:
                vec, nd = t.vacuum(w), t.vacuum_basis.trunc.lmax.doubled
                assert vec.tobytes() == letter_by_letter(w, nd).tobytes(), w
            assert t.vacuum_basis.trunc.lmax.doubled == 4
            for w in ALL_WORDS_TO_4:
                assert t.vacuum(w).tobytes() == letter_by_letter(w, 4).tobytes(), w
        assert not t.vacuum("aG").flags.writeable

    def test_vacuum_generators_are_the_leading_block(self, monkeypatch):
        # the generators that fill the memo on the spins 2n <= 3 are the table's,
        # placed on that basis: in CSR, the leading block of each, once the
        # entries that leave the basis (row -1) are dropped
        t = GeneratorTable(Q, Truncation(HalfInteger(16)))
        used, matmul = [], BandMatrix.__matmul__
        monkeypatch.setattr(BandMatrix, "__matmul__",
                            lambda op, other: used.append(op) or matmul(op, other))
        t.fill_vacuum(["aAg", "AgG", "gGa", "Gag"])
        basis, k = t.vacuum_basis, pw_position(4, -4, -4)
        assert basis.trunc.lmax.doubled == 3 and basis.dim == k
        letters = [next(ch for ch, op in t.ops.items() if op.key(0) in m.bands) for m in used]
        assert sorted(set(letters)) == sorted("aAgG")
        for ch, m in zip(letters, used):
            full = t.ops[ch]
            assert m.space is basis and m.shell_depth_doubled == full.shell_depth_doubled
            inside = BandMatrix(basis, {key: np.where(basis._rows_of(key) >= 0, v, 0.0)
                                        for key, v in m.bands.items()})
            assert abs(to_csr(inside) - to_csr(full)[:k, :k]).nnz == 0, ch
        assert np.array_equal(rho_weights(basis, Q), rho_weights(t.basis, Q)[:k])

    def test_vacuum_basis_is_reused_and_grows_without_a_table_build(self, monkeypatch):
        # a held basis large enough serves any shorter word; a longer word starts
        # the memo again on the spins 2n <= its length (2 at least, the table's
        # own basis at most); the vacuum route builds no GeneratorTable
        t = GeneratorTable(Q, Truncation(HalfInteger(10)))
        builds = []
        init = GeneratorTable.__init__

        def counting_init(self, q, trunc):
            builds.append(trunc.lmax.doubled)
            init(self, q, trunc)

        monkeypatch.setattr(GeneratorTable, "__init__", counting_init)
        assert t.vacuum_basis is None
        bases = []
        for words in ([], ["a"], ["aA", ""], ["aAgG"], ["g"], ["aAg"], ["aAgGaA"], ["Gg"],
                      ["a" * 10], ["a" * 12], [""]):
            t.fill_vacuum(words)
            bases.append(t.vacuum_basis)
            if words == ["aAgG"]:  # started again: the words of the smaller basis are gone
                assert set(t._vacuum) == {"", "G", "gG", "AgG", "aAgG"}
        assert [b.trunc.lmax.doubled for b in bases] == [2, 2, 2, 4, 4, 4, 6, 6, 10, 10, 10]
        assert bases[0] is bases[2] and bases[3] is bases[5] and bases[6] is bases[7]
        assert bases[8] is bases[10] is t.basis
        assert builds == []


@pytest.mark.parametrize("ld", [2, 4, 16, 40])
def test_batched_matvec_columns_match_one_vector_matvecs_bitwise(ld):
    # a 2-D matvec multiplies each band into every column: each column has the
    # bits of its 1-D matvec
    t = _full_table(Q, ld)
    rng = np.random.default_rng(ld)
    vecs = rng.standard_normal((t.basis.dim, 5)) + 1j * rng.standard_normal((t.basis.dim, 5))
    vecs[:, 0] = 0.0
    vecs[0, 0] = 1.0  # e0
    ops = list(t.ops.values()) + [mult_operator(NCPolynomial({"aG": 1.5j, "Aa": -2.0}), t)]
    for op in ops:
        batch = op @ vecs
        assert batch.shape == vecs.shape
        for c in range(vecs.shape[1]):
            assert batch[:, c].tobytes() == (op @ vecs[:, c].copy()).tobytes(), c


@pytest.mark.parametrize("q", [0.7, 1.2])
def test_vacuum_fills_a_word_length_per_matvec(q, monkeypatch):
    # the 341 words of up to 4 letters: 4 matvecs per length, one per first
    # letter, and each vector read-only with the bits of the letter-by-letter
    # route on a table of the spins 2n <= 4
    t = GeneratorTable(q, Truncation(HalfInteger(24)))
    small = GeneratorTable(q, Truncation(HalfInteger(4)))
    count = [0]
    matmul = BandMatrix.__matmul__
    monkeypatch.setattr(BandMatrix, "__matmul__",
                        lambda op, other: count.__setitem__(0, count[0] + 1) or matmul(op, other))
    t.fill_vacuum(ALL_WORDS_TO_4[::-1])
    vecs = {w: t.vacuum(w) for w in ALL_WORDS_TO_4}  # memo reads
    assert count[0] == 16
    assert t.vacuum_basis.dim == small.basis.dim
    e0 = np.zeros(small.basis.dim, dtype=complex)
    e0[0] = 1.0
    for w, vec in vecs.items():
        assert vec.tobytes() == apply_word(w, e0, small).tobytes(), w
        assert not vec.flags.writeable


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
    def _perturbed(column_shell, monkeypatch):
        """A validated ld 7 table, then one nonzero entry of alpha moved by 1e-6.

        The entry is the first nonzero one in a column of the shell, and it
        is moved in every band that alpha forms and, at the transposed label,
        in alpha*'s (perturb_band).
        """
        t = GeneratorTable(Q, Truncation(HalfInteger(7)))
        key, col = next((k, int(np.flatnonzero((t.basis.nd == column_shell) & (v != 0))[0]))
                        for k, v in t.ops["a"].bands.items()
                        if ((t.basis.nd == column_shell) & (v != 0)).any())
        perturb_band(monkeypatch, t, "a", key, col, lambda v: v + 1e-6)
        return t

    def test_perturbed_safe_column_raises(self, monkeypatch):
        t = self._perturbed(5, monkeypatch)  # 2n = lmax_doubled - 2: the last safe shell
        assert max(full_column_residuals(t).values()) > GeneratorTable.RELATION_TOL
        with pytest.raises(ValidationError):
            t.validate()

    def test_perturbed_column_beyond_prefix_ignored(self, monkeypatch):
        # the top shell is never a safe column; its first column, moved in alpha,
        # is alpha*'s entry at a row of weight -lmax that no safe column reaches
        t = self._perturbed(7, monkeypatch)
        assert max(full_column_residuals(t).values()) < GeneratorTable.RELATION_TOL
        t.validate()

    @pytest.mark.parametrize("band", [0, 1])
    @pytest.mark.parametrize("letter", list("aAgG"))
    def test_nan_in_a_safe_column_raises(self, letter, band, monkeypatch):
        # nan > RELATION_TOL is False, and the max over band keys kept or dropped
        # a NaN by key order: none of the 8 generator bands raised.  The NaN is
        # at the first nonzero entry of the band in spin shell 1: in a starred
        # band, that entry is the unstarred one at the transposed label, which
        # the battery reads at the adjoint offset
        t = GeneratorTable(Q, Truncation(HalfInteger(8)))
        key, v = list(t.ops[letter].bands.items())[band]
        col = int(np.flatnonzero((t.basis.nd == 1) & (v != 0))[0])
        perturb_band(monkeypatch, t, letter, key, col, lambda v: np.nan)
        with pytest.raises(ValidationError) as info:
            t.validate()
        assert math.isnan(info.value.residual) and math.isnan(max(t.residuals.values()))

    @pytest.mark.parametrize("q", [0.05, 0.7, 1.0001, 1.2, 3.0, 20.0])
    @pytest.mark.parametrize("lmax_d", [2, 16, 40, 62, 120])
    def test_residuals_match_the_whole_array_battery_bitwise(self, lmax_d, q):
        # ld 2 and 16 run in one chunk of the battery's grid, 40, 62 and 120 in several
        t = GeneratorTable(q, Truncation(HalfInteger(lmax_d)))
        ref = whole_array_residuals(t)
        assert list(t.residuals) == list(ref)
        assert (np.array(list(t.residuals.values())).tobytes()
                == np.array(list(ref.values())).tobytes())

    @pytest.mark.parametrize("lmax_d", [2, 7, 62])
    def test_grid_windows_hold_the_bands_and_zero_elsewhere(self, lmax_d):
        # each window of the battery, its shells carried from the window before
        # or formed, holds at every label of its shells alpha's and gamma's bands,
        # which Generator.bands reads from fresh grids on a chunk plan of its own,
        # up to the sign of a zero, and 0 in every other cell, which is why the
        # battery may reduce a residual over every cell of a chunk; read at the
        # adjoint offset, it holds alpha*'s and gamma*'s bands, which
        # Generator.bands reads at that offset from a grid one shell wider
        t = GeneratorTable(Q, Truncation(HalfInteger(lmax_d)))
        start, ops = t.basis.start, t.ops
        bands = {ch: ops[ch].bands for ch in "aAgG"}
        chunks = algebra._grid_chunks(lmax_d - 1)
        for (n0, n1), grid in algebra._grid_windows((ops["a"], ops["g"]), chunks):
            w, m = n1 + 3, n1 - n0 + 4
            cells = grid[:, :m * w * w].reshape(4, m, w, w)
            for k, ch in enumerate("ag"):
                for b, band in enumerate(bands[ch].values()):
                    expected = np.zeros((m, w, w))
                    for nd in range(max(n0 - 2, 0), min(n1 + 2, lmax_d + 1)):
                        expected[nd - n0 + 2, 1:nd + 2, 1:nd + 2] = \
                            band[start[nd]:start[nd + 1]].reshape(nd + 1, nd + 1)
                    assert np.array_equal(cells[2 * k + b], expected), (ch, b, n0)
                star = ops[ch.upper()]
                for b, band in enumerate(bands[ch.upper()].values()):
                    ds, dr, dc = star.step(b)
                    for nd in range(n0, n1):
                        at = cells[2 * k + b, nd - n0 + 2 + ds]
                        read = at[1 + dr:nd + 2 + dr, 1 + dc:nd + 2 + dc].reshape(-1)
                        assert np.array_equal(read, band[start[nd]:start[nd + 1]]), (ch, b, nd)

    @pytest.mark.parametrize("lmax_d", [24, 62, 200])
    def test_battery_forms_each_shell_of_alpha_and_gamma_once(self, lmax_d, monkeypatch):
        # the grid holds alpha's and gamma's bands only; a chunk carries the four
        # shells it shares with the one before, so no shell is formed twice
        t = GeneratorTable(Q, Truncation(HalfInteger(lmax_d)))
        formed, grid = [], Generator.grid

        def counted(op, shells, w, out):
            formed.append((op, shells))
            return grid(op, shells, w, out)

        monkeypatch.setattr(Generator, "grid", counted)
        t.validate()
        assert {op for op, _ in formed} == {t.ops["a"], t.ops["g"]}
        for ch in "ag":
            shells = [nd for op, (lo, hi) in formed if op is t.ops[ch] for nd in range(lo, hi)]
            assert shells == list(range(lmax_d + 1)), ch

    def test_chunk_plan_bytes_at_most_those_of_the_battery_over_8_bands(self):
        # the window of 4 bands and the 3 product buffers of the plan, in bytes, each
        # against the battery that formed all 8 generator bands of each chunk (n0, n1)
        # on the shells n0 - 1 .. n1, at most 2^14 cells a band or one shell, into
        # buffers of (n1 - n0) (n1 + 2)^2 cells
        before = {24: (1000000, 345000), 62: (1039680, 345000), 200: (7756992, 969624),
                  400: (30873792, 3859224)}
        for lmax_d, (window, buffers) in before.items():
            chunks = algebra._grid_chunks(lmax_d - 1)
            assert [n for c in chunks for n in range(*c)] == list(range(lmax_d - 1))
            assert 8 * 4 * max((n1 - n0 + 4) * (n1 + 3) ** 2 for n0, n1 in chunks) <= window
            assert 8 * 3 * max(algebra._span(n0, n1)[2] for n0, n1 in chunks) <= buffers

    @pytest.mark.parametrize("where", ["end of a block", "start of a block", "last safe shell"])
    def test_perturbed_column_at_a_block_edge_raises(self, where, monkeypatch):
        # one alpha entry moved by 1e-6 at the last column of the first chunk of
        # the battery's grid, the first column of the second, or the last safe
        # column: each is found, with the residuals of the whole-array battery
        # bit for bit.  The entry is moved in every band that alpha forms
        t = GeneratorTable(Q, Truncation(HalfInteger(62)))
        chunks = algebra._grid_chunks(61)  # the safe shells 2n <= 60
        assert len(chunks) >= 3 and chunks[-1][1] == 61
        start = t.basis.start
        col = {"end of a block": start[chunks[0][1]] - 1, "start of a block": start[chunks[1][0]],
               "last safe shell": start[61] - 1}[where]
        key = next(k for k, v in t.ops["a"].bands.items() if v[col] != 0)
        perturb_band(monkeypatch, t, "a", key, int(col), lambda v: v + 1e-6)
        with pytest.raises(ValidationError):
            t.validate()
        assert t.residuals == whole_array_residuals(t)


def perturb_band(monkeypatch, table, letter, key, col, change):
    """Patch table's generators so that letter's band key holds change(v) in place of v at col.

    A starred band holds the unstarred generator's entries at the transposed
    labels, so the fault is one entry of alpha or gamma: the band key at the
    column col, or, for a starred letter, the band -key at the label that
    col reaches.  It is made where every entry is formed, Generator.grid of
    both letters (a starred one grids the unstarred): the relation battery's
    windows, both letters' bands and the references that read them see it.
    """
    basis = table.basis
    label = np.array([basis.nd[col], basis.id[col], basis.jd[col]])
    if letter.isupper():
        label, key = label + key[:3], tuple(-k for k in key[:3]) + (0,)
    nd, i, j = (int(x) for x in label)
    row, column = (i + nd) // 2, (j + nd) // 2  # in-shell, as on the grid
    grid = Generator.grid

    def perturbed_grid(op, shells, w, out):
        grid(op, shells, w, out)
        if shells[0] <= nd < shells[1]:
            cell = ((nd - shells[0]) * w + row + 1) * w + column + 1
            out[(1 - key[0]) // 2, cell] = change(out[(1 - key[0]) // 2, cell])

    for op in (table.ops[letter.lower()], table.ops[letter.upper()]):
        monkeypatch.setattr(op, "grid", perturbed_grid.__get__(op))


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
    # band of the word's last product, reduced per shell with rho
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
    """Guards on memory, not time, on large bases (ld 40, 62, 80).

    Measured with tracemalloc.  A table holds its generators as per-shell
    factors and keeps no array of basis length, rho included: it retains
    about 78 (lmax_doubled + 3)^2 bytes at ld 40 and 80 (its factors and
    the basis's per-row tables), where it retained 8.75 float64 arrays of
    basis length (its 8 generator bands) before.  Its build forms alpha's
    and gamma's bands on the relation battery's grid, one chunk of shells
    at a time, in one window allocated for the largest chunk: 1.3 MB over
    the retained table at ld 40, 1.7 MB at ld 80 (1.7 and 2.1 MB with all
    8 generator bands formed on each chunk, 2.6 and 3.0 MB when it went one
    column block at a time, with the rows of the block).  `haar --lmax 62`
    peaks at 2.09 MiB of heap (2.30 MiB with 8 bands a chunk, 3.26 MiB with
    the battery over column blocks, 7.24 MiB when the table held its bands
    and rho).
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
        # it retained 8.75 units of a basis-length float64 array with its bands.
        # The build's transient is the battery's: a window of 4 bands of at most
        # GRID_CELLS cells or one shell and its 4 neighbours, and 3 buffers of at
        # most SPAN_CELLS cells or one shell, twice over for a product's temporaries
        for lmax_d in (40, 80):
            _full_table(Q, lmax_d)  # the CG tables are shared by every table: build them first
            t, current, peak = self._traced(
                lambda: GeneratorTable(Q, Truncation(HalfInteger(lmax_d))))
            w2 = (lmax_d + 2) ** 2
            assert current <= 120 * (lmax_d + 3) ** 2, lmax_d
            assert peak - current <= 8 * 2 * (4 * max(algebra.GRID_CELLS, 5 * w2)
                                               + 3 * max(algebra.SPAN_CELLS, w2)), lmax_d

    def test_build_transient_is_one_block_whatever_the_size(self):
        # the transient is per chunk of the battery's grid: a window of 4 bands and
        # 3 buffers, each of at most GRID_CELLS or SPAN_CELLS cells or one shell and
        # its neighbours.  At ld 80 (dim 180 441) it is no larger in bytes than at
        # ld 40 (dim 23 821), up to 8 generator bands over the larger shells
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
        # block of 2^14 labels (8 * 8 * 2^14 bytes)
        for lmax_d in (40, 80):
            t = _full_table(Q, lmax_d)
            for w in ("Gg", "Aa", "aG"):
                _, _, peak = self._traced(lambda: t.diagonal_shell_sums(NCPolynomial.word(w)))
                assert peak <= 16 * 8 * (lmax_d + 7) ** 2, (lmax_d, w)

    def test_no_label_length_array_is_reachable_after_the_haar_functionals(self):
        # every trace functional of `haar` on a table of dim 23 821; the Haar
        # states read the vacuum memo, which the table holds on its leading spins
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


@pytest.mark.parametrize("q", [0.7, 1.2])
@pytest.mark.parametrize("lmax_d", [2, 4, 16, 24])
def test_haar_states_match_haar_state_bitwise(lmax_d, q):
    # one fill for all the words of up to 4 letters (up to 2 at ld 2), on the
    # vacuum basis of the longest, against haar_state word by word on a table
    # of its own, whose basis grows with the words: the same bits, the zeros
    # +0.0 as vacuum_of sums them
    words = ["".join(t) for n in range(min(4, lmax_d) + 1)
             for t in itertools.product("aAgG", repeat=n)]
    trunc = Truncation(HalfInteger(lmax_d))
    batch = haar_states(words, GeneratorTable(q, trunc))
    table = GeneratorTable(q, trunc)
    single = [haar_state(NCPolynomial.word(w), table) for w in words]
    assert all(isinstance(x, complex) for x in batch)
    assert np.array(batch).view(np.uint64).tolist() == np.array(single).view(np.uint64).tolist()


def test_haar_states_degree_guard():
    t = GeneratorTable(Q, Truncation(HalfInteger(2)))
    assert haar_states([], t) == []
    with pytest.raises(AlgebraError):
        haar_states(["", "aaa"], t)


def _closed_forms(q, k) -> dict:
    """psi((g* g)^k), psi(a* a) and psi(a a*) in closed form.

    (1 - q^2) / (1 - q^(2k+2)) as expm1, which keeps its digits near q = 1;
    q^2 / (1 + q^2) and 1 / (1 + q^2), not 1 - psi(g* g) and 1 - q^2 psi(g* g),
    which lose 100-600 ulps at q 0.05 and 20.
    """
    lnq = math.log(q)
    return {"Gg" * k: math.expm1(2 * lnq) / math.expm1((2 * k + 2) * lnq),
            "Aa": q * q / (1 + q * q), "aA": 1 / (1 + q * q)}


def _ladder_levels(q) -> int:
    """validate's ladder cut, gns_oracle.ladder_cut: it leaves half of 1e-12 for rounding."""
    return ladder_cut(q)


@settings(deadline=None)
@given(q=st.floats(0.05, 20).filter(lambda q: abs(math.log(q)) >= 0.05), k=st.integers(0, 6),
       extra=st.integers(0, 60), word=st.text("aAgG", max_size=6))
@example(q=1 - 1e-4, k=6, extra=0, word="aGgg")
@example(q=1 + 1e-4, k=6, extra=60, word="A")
def test_haar_state_matches_its_closed_forms(q, k, extra, word):
    # haar_states against _closed_forms, and psi = 0 exactly on a word of nonzero
    # weight (odd words among them): 32 ulps where |ln q| >= 0.05 (13 measured),
    # 2e-12 at q = 1 +- 1e-4 (1.1e-12 measured at q 0.9999, k 6: the cancellation
    # of q_number near 1).  The ladder oracle at validate's cut, to 1e-12 absolute
    # where |ln q| >= 0.05 (near q = 1 see the next test)
    ld = max(2 * k, 2) + extra % (63 - max(2 * k, 2))
    word = word[:ld]
    forms = _closed_forms(q, k)
    weight = (word.count("a") - word.count("A"), word.count("g") - word.count("G"))
    words = list(forms) + ([word] if any(weight) else [])
    psi = haar_states(words, GeneratorTable(q, Truncation(HalfInteger(ld))))
    near_1 = abs(math.log(q)) < 0.05
    ladder = [None] * len(words) if near_1 else oracle_haar_words(words, _ladder_levels(q), q)
    for w, value, oracle in zip(words, psi, ladder):
        expected = forms.get(w, 0.0)
        if w in forms:
            rel = 2e-12 if near_1 else 32 * np.finfo(float).eps
            assert abs(value - expected) <= rel * expected, (w, value, expected)
        else:
            assert value == 0.0, (w, value)
        assert near_1 or abs(oracle - expected) <= 1e-12, (w, oracle, expected)


@pytest.mark.parametrize("q", [1 - 1e-4, 1 + 1e-4])
def test_ladder_oracle_at_validates_cut_near_q_1_matches_the_closed_forms(q):
    # a cut at a truncation error of 1e-12 left psi(a* a) 1.06e-12 off its closed
    # form at q 0.9999 (0.90e-12 at 1.0001): the rounding of K terms took the rest
    forms = _closed_forms(q, 6)
    ladder = oracle_haar_words(list(forms), _ladder_levels(q), q)
    assert all(abs(v - forms[w]) <= 1e-12 for w, v in zip(forms, ladder)), ladder
