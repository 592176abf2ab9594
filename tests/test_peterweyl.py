from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparse_reference import pw_position, pw_rows, to_csr
from qsu2.qarith import HalfInteger, QArithError, q_number
from qsu2.peterweyl import BLOCK_LABELS, Basis, Truncation, rho_weights, shell_starts
from qsu2.algebra import GeneratorTable, NCPolynomial, mult_operator, t_half
from qsu2.dirac import DiracContext
from qsu2.spectral import modular_generator_scaling


def doubled_labels(basis: Basis) -> list:
    """The doubled labels (2n, 2i, 2j) of the basis, in its order."""
    return list(zip(basis.nd.tolist(), basis.id.tolist(), basis.jd.tolist()))


def rho_weight(id_: int, jd: int, q: float) -> float:
    """Scalar reference for rho_weights: the modular weight q^{-2i-2j}, on doubled i and j."""
    return q ** float(-id_ - jd)


class TestEnumeration:
    @pytest.mark.parametrize("lmax_d,dim", [(0, 1), (1, 5), (4, 55)])
    def test_dimension(self, lmax_d, dim):
        basis = Basis(Truncation(HalfInteger(lmax_d)))
        assert basis.dim == shell_starts(lmax_d)[-1] == dim
        assert len(doubled_labels(basis)) == dim

    def test_order_and_stability(self):
        trunc = Truncation(HalfInteger(2))
        a = doubled_labels(Basis(trunc))
        assert a == doubled_labels(Basis(trunc))
        assert a[0] == (0, 0, 0)
        assert a == sorted(a)

    def test_position_lookup(self):
        basis = Basis(Truncation(HalfInteger(3)))
        for k, label in enumerate(doubled_labels(basis)):
            assert basis.position_doubled(*label) == k

    @pytest.mark.parametrize("lmax_d", [0, 1, 2, 7, 24])
    def test_closed_form_position_matches_enumeration(self, lmax_d):
        basis = Basis(Truncation(HalfInteger(lmax_d)))
        labels = [(nd, id_, jd) for nd in range(lmax_d + 1)
                  for id_ in range(-nd, nd + 1, 2) for jd in range(-nd, nd + 1, 2)]
        assert basis.dim == len(labels)
        assert list(zip(basis.nd.tolist(), basis.id.tolist(), basis.jd.tolist())) == labels
        for k, label in enumerate(labels):
            assert basis.position_doubled(*label) == k
        assert np.array_equal(pw_position(basis.nd, basis.id, basis.jd), np.arange(basis.dim))

    @pytest.mark.parametrize("lmax_d", [0, 1, 2, 3, 5, 16, 40])
    def test_rows_match_the_cubic_closed_form(self, lmax_d):
        # every generator key (depth 1) and every key of a product of two
        # generators (depth 2), on the per-row route
        basis = Basis(Truncation(HalfInteger(lmax_d)))
        gens = [(o, r, s, 0) for o in (1, -1) for r in (1, -1) for s in (1, -1)]
        keys = gens + [tuple(x + y for x, y in zip(k1, k2)) for k1 in gens for k2 in gens]
        for key in dict.fromkeys(keys):
            ref = pw_rows(basis, key)
            assert np.array_equal(basis._rows_of(key), ref), key

    @pytest.mark.parametrize("lmax_d", [0, 2, 35, 36, 40, 62, 130])
    def test_column_blocks_tile_whole_shells(self, lmax_d):
        # in order, over whole shells, at most BLOCK_LABELS labels or one shell;
        # a basis of one block is one block over all columns, whatever n1
        basis = Basis(Truncation(HalfInteger(lmax_d)))
        for n1 in (None, lmax_d - 1):
            blocks = list(basis.column_blocks(n1))
            if basis.dim <= BLOCK_LABELS:
                assert [(b.lo, b.size, b.shells) for b in blocks] == [(0, basis.dim,
                                                                      (0, lmax_d + 1))]
                continue
            top = lmax_d + 1 if n1 is None else n1
            assert blocks[0].shells[0] == 0 and blocks[-1].shells[1] == top
            for b, after in zip(blocks, blocks[1:]):
                assert b.shells[1] == after.shells[0]
            for b in blocks:
                n0, n = b.shells
                assert (b.lo, b.lo + b.size) == (basis.start[n0], basis.start[n])
                assert b.size <= BLOCK_LABELS or n == n0 + 1

    def test_no_label_length_array_is_kept(self):
        # the per-row tables hold one entry per in-shell row; nd, id and jd are derived
        basis = Basis(Truncation(HalfInteger(24)))
        assert len(basis.row_nd) == len(basis.row_a) == len(basis.row_start) == 25 * 26 // 2
        assert len(basis.start) == 26 and basis.start[-1] == basis.dim
        kept = [k for k, v in vars(basis).items()
                if isinstance(v, np.ndarray) and len(v) == basis.dim]
        assert kept == []

    def test_no_label_length_array_is_kept_by_a_table_of_several_blocks(self):
        # the generators are per-shell factors, rho is formed per column block,
        # and the leading views that the Haar states read are small
        t = GeneratorTable(1.2, Truncation(HalfInteger(40)))
        assert len(list(t.basis.column_blocks())) == 2
        t.rho_shell_sums
        for w in ("", "Gg", "Aa", "aG"):
            t.diagonal_shell_sums(NCPolynomial.word(w))
        sizes = [v.size for v in reachable_arrays(t)]
        assert sizes and max(sizes) < t.basis.dim
        # the whole of alpha, and the bands and rho of the modular scaling, are
        # formed for the caller and not kept
        assert t.ops["a"].bands[(1, 1, 1, 0)].size == t.basis.dim
        assert modular_generator_scaling(1, 1, t) < 1e-12
        assert max(v.size for v in reachable_arrays(t)) < t.basis.dim

    @pytest.mark.parametrize("label", [
        (8, 0, 0),    # spin 4 beyond lmax 7/2
        (-1, 0, 0),   # negative spin
        (2, 4, 0),    # |i| > n
        (2, 0, -4),   # |j| > n
        (2, 1, 0),    # i off the grid of n
        (3, 1, 0),    # j off the grid of n
    ])
    def test_position_rejects_labels_outside(self, label):
        basis = Basis(Truncation(HalfInteger(7)))
        with pytest.raises(QArithError):
            basis.position_doubled(*label)

    def test_negative_lmax_rejected(self):
        with pytest.raises(QArithError):
            Truncation(HalfInteger(-1))


def reachable_arrays(root) -> list:
    """Every ndarray reachable from root through containers and qsu2 objects' attributes.

    A view is followed to the array it views.
    """
    seen, stack, found = set(), [root], []
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            found.append(x)
            if x.base is not None:
                stack.append(x.base)
        elif isinstance(x, dict):
            stack.extend(x.keys())
            stack.extend(x.values())
        elif isinstance(x, (list, tuple, set, frozenset)):
            stack.extend(x)
        elif type(x).__module__.startswith("qsu2") and hasattr(x, "__dict__"):
            stack.extend(vars(x).values())
    return found


_GENERATOR_KEYS = [(o, r, s, 0) for o in (1, -1) for r in (1, -1) for s in (1, -1)]


def _gram_keys():
    """The band keys of op^H op for the four generators, as shell_norms forms its Gram."""
    t = GeneratorTable(1.2, Truncation(HalfInteger(4)))
    return sorted({k for op in t.ops.values() for k in (op.H @ op).bands})


@lru_cache(maxsize=None)
def _basis(lmax_d):
    return Basis(Truncation(HalfInteger(lmax_d)))


@settings(max_examples=120, deadline=None)
@given(lmax_d=st.integers(0, 40), key=st.sampled_from(_GENERATOR_KEYS + _gram_keys()),
       data=st.data())
def test_shell_rows_are_the_slice_of_the_rows(lmax_d, key, data):
    # the rows of the shells n0 <= 2n < n1, from their per-row tables, are the
    # same integers as that slice of the rows of all labels
    basis = _basis(lmax_d)
    n0 = data.draw(st.integers(0, lmax_d), label="n0")
    n1 = data.draw(st.integers(n0 + 1, lmax_d + 1), label="n1")
    cols = slice(basis.start[n0], basis.start[n1])
    rows = basis._rows_of(key, (n0, n1))
    assert rows.dtype == np.int64
    assert np.array_equal(rows, basis._rows_of(key)[cols])
    assert np.array_equal(rows, pw_rows(basis, key)[cols])


class TestRhoWeights:
    def test_examples(self):
        assert rho_weight(2, -2, 1.7) == pytest.approx(1.0)
        for q in (1.2, 2.0):
            assert rho_weight(1, 1, q) == pytest.approx(q ** -2)

    @pytest.mark.parametrize("q", [1.2, 2.0])
    def test_shell_sum_is_qdim_squared(self, q):
        # sum over i,j of q^{-2i-2j} = [2n+1]_q^2 (product of two geometric sums)
        for nd in range(0, 21):
            s = sum(q ** float(-id_ - jd)
                    for id_ in range(-nd, nd + 1, 2)
                    for jd in range(-nd, nd + 1, 2))
            assert s == pytest.approx(q_number(nd + 1, q) ** 2, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        basis = Basis(Truncation(HalfInteger(5)))
        w = rho_weights(basis, 1.3)
        for k, (_, id_, jd) in enumerate(doubled_labels(basis)):
            assert w[k] == pytest.approx(rho_weight(id_, jd, 1.3))

    @pytest.mark.parametrize("q", [0.05, 0.7, 1.01, 1.2, 3.0, 25.0])
    def test_gathered_powers_match_one_power_per_label_bitwise(self, q):
        # one q ** -e per distinct e = 2i + 2j, gathered over the labels
        for ld in range(63):
            basis = Basis(Truncation(HalfInteger(ld)))
            ref = q ** (-(basis.id + basis.jd).astype(float))
            w = rho_weights(basis, q)
            assert w.dtype == np.float64
            assert np.array_equal(w.view(np.uint64), ref.view(np.uint64)), ld


class TestVectorsAndOperators:
    def test_identity_and_depth_addition(self):
        t = GeneratorTable(1.3, Truncation(HalfInteger(4)))
        eye = mult_operator(NCPolynomial.one(), t)
        assert eye.shell_depth_doubled == 0
        assert np.array_equal(to_csr(eye).toarray(), np.eye(t.basis.dim))
        # depths add under composition: a word's depth is its length, a sum's the largest
        assert all(op.shell_depth_doubled == 1 for op in t.ops.values())
        assert mult_operator(NCPolynomial.word("aG"), t).shell_depth_doubled == 2
        assert mult_operator(NCPolynomial.word("aGg"), t).shell_depth_doubled == 3
        assert mult_operator(NCPolynomial({"a": 1.0, "gG": 1.0}), t).shell_depth_doubled == 2

    def test_truncation_exactness_across_lmax(self):
        # a depth-1 operator applied to a vector inside the safe shell gives
        # identical coefficients when rebuilt on a larger truncation
        q = 1.3
        small = GeneratorTable(q, Truncation(HalfInteger(6)))
        large = GeneratorTable(q, Truncation(HalfInteger(10)))
        vs = np.zeros(small.basis.dim)
        vs[small.basis.position_doubled(5, 3, -1)] = 1.0  # spin 5/2 <= 3 - 1/2
        vl = np.zeros(large.basis.dim)
        vl[large.basis.position_doubled(5, 3, -1)] = 1.0
        outs = small.ops["a"] @ vs
        outl = large.ops["a"] @ vl
        for k, label in enumerate(doubled_labels(small.basis)):
            assert outs[k] == pytest.approx(outl[large.basis.position_doubled(*label)], abs=1e-15)


@lru_cache(maxsize=None)
def _table(q, ld):
    return GeneratorTable(q, Truncation(HalfInteger(ld)))


@lru_cache(maxsize=None)
def _dirac(q, ld, view_nd):
    view = _table(q, ld).leading(view_nd)
    return DiracContext(q, view.trunc, view.basis)


_WORDS = st.text(alphabet="aAgG", max_size=4)
_COEFFS = st.sampled_from([1.0, -1.0, 0.5, 2.0 - 1.0j])


def _relations(q):
    """The defining relations as polynomials: each is 0 in the algebra, of degree 2."""
    one = NCPolynomial.one()
    w = NCPolynomial.word
    return [w("Aa") + w("Gg") - one, w("aA") + q * q * w("Gg") - one, w("Gg") - w("gG"),
            w("ag") - q * w("ga"), w("aG") - q * w("Ga")]


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([1.2, 3.0, 0.7]), ld=st.sampled_from([4, 7, 16]),
       terms=st.dictionaries(_WORDS, _COEFFS, max_size=4),
       relation=st.integers(-1, 4), drop=st.booleans(), view=st.integers(0, 16))
def test_shell_depth_is_read_from_band_keys(q, ld, terms, relation, drop, view):
    # a random polynomial of degree <= 4, plus a relation whose terms cancel
    # as operators, minus (on drop) its first word: those terms cancel exactly
    p = NCPolynomial(terms)
    if relation >= 0:
        p = p + _relations(q)[relation]
    if drop and p.terms:
        w = next(iter(p.terms))
        p = p - NCPolynomial.word(w, p.terms[w])
    view_nd = max(view, p.degree())
    t = _table(q, ld).leading(view_nd)
    assert mult_operator(p, t).shell_depth_doubled == p.degree()
    assert all(op.shell_depth_doubled == 1 for op in t.ops.values())
    assert all(t_half(rd, sd, t.basis, q).shell_depth_doubled == 1
               for rd in (1, -1) for sd in (1, -1))
    d = _dirac(q, ld, view_nd)
    for kind in ("true", "naive"):
        assert d.dirac_operator(kind).shell_depth_doubled == 0
    assert d.change_of_basis.shell_depth_doubled == 0
