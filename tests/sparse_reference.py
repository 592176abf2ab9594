"""scipy references for the band operators of qsu2.

to_csr turns a BandMatrix into a canonical scipy CSR matrix, so the tests
can check the band operators against independent sparse linear algebra.
The CSR generator assembly and word products below are the routes the
program used before it stored operators as bands; tests compare against
them bit for bit.  spinor_mult is the tiled spinor copy of a
multiplication operator that the program applied before it let a act on
each spinor component.  pw_position is the cubic closed form of a label's
position that the program used before it read positions from per-shell
tables.  apply_word applies a word to a vector letter by letter, the
route haar_state took before it shared the vectors of common suffixes.
csr_fitted_scalars is the fit of the generator scalars at the cyclic
vector that the program made before it took them in closed form.
whole_array_residuals is the relation battery as the program ran it
before it ran on a shell grid: every residual band formed over all
columns by whole_product_bands, the product over all columns at once.
streamed_shell_sums is the per-shell sum of diag(w) * rho as the program
formed it before it summed over spin paths: the diagonal band of each
word's last product times rho.  whole_array_scaling is the modular
scaling residual of a generator as the program formed it before it ran
on the shell grid: rho at each band's rows over rho at its columns.
full_dimension_shell_norms are the shell norms from the Gram over every
column, as the program formed it before it cut the operator to its
leading shells.  all_chains_shell_norms are the shell norms on the
leading shells with every chain diagonalized, as the program formed them
before it skipped the chains that cannot hold the norm.
"""
import math

import numpy as np
import scipy.sparse as sp

from qsu2.algebra import generator_tables, mult_operator, t_half
from qsu2.peterweyl import DIAGONAL, BandMatrix, Basis, Truncation, rho_weights
from qsu2.qarith import HalfInteger, q_number
from qsu2.spectral import SpectralError, _chains


def pw_position(nd, id_, jd):
    """Closed-form position of (n, i, j) in the enumeration order, on doubled labels.

    Shells 2m < 2n hold sum (m+1)^2 = n(n+1)(2n+1)/6 elements (n doubled);
    inside a shell the order is row-major in ((i+n)/2, (j+n)/2).  Works
    elementwise on integer arrays; labels are not checked.
    """
    return nd * (nd + 1) * (2 * nd + 1) // 6 + (id_ + nd) // 2 * (nd + 1) + (jd + nd) // 2


def pw_rows(basis, key):
    """The rows of basis under the shift key (o, r, s, f) through pw_position; -1 outside."""
    o, r, s, _ = key
    md, mi, mj = basis.nd + o, basis.id + r, basis.jd + s
    inside = ((md >= 0) & (md <= basis.trunc.lmax.doubled)
              & (np.abs(mi) <= md) & (np.abs(mj) <= md))
    return np.where(inside, pw_position(md, mi, mj), -1)


def to_csr(m) -> sp.csr_matrix:
    """The nonzero entries of the BandMatrix m as a canonical CSR matrix."""
    rows, cols, vals = [np.zeros(0, dtype=np.int64)] * 2 + [np.zeros(0, dtype=m.dtype)]
    for key, v in m.bands.items():
        keep = v != 0
        rows = np.concatenate([rows, m.space._rows_of(key)[keep]])
        cols = np.concatenate([cols, np.flatnonzero(keep)])
        vals = np.concatenate([vals, v[keep]])
    return sp.csr_matrix((vals, (rows, cols)), shape=m.shape)


def pairs_to_csr(rows, vals, keep, shape) -> sp.csr_matrix:
    """CSR matrix from two candidate entries per column, emitted in (column, candidate) order."""
    keep = np.stack(keep, axis=1).ravel()
    rows = np.stack(rows, axis=1).ravel()[keep]
    vals = np.stack(vals, axis=1).ravel()[keep]
    cols = np.repeat(np.arange(len(keep) // 2), 2)[keep]
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def csr_gen_matrix(rd, sd, basis, q) -> sp.csr_matrix:
    """The generator matrix ttilde^{1/2}_{rd/2, sd/2} assembled through pairs_to_csr."""
    Ld = basis.trunc.lmax.doubled
    nd, id_, jd = basis.nd, basis.id, basis.jd
    cg = generator_tables(Ld, q)[0][:, :, 1:-1, 1:-1]  # the padding cut off
    cr, cs = cg[(1 - rd) // 2], cg[(1 - sd) // 2]
    q2 = q_number(2, q)
    rows, vals, keep = [], [], []
    for b, branch in enumerate((1, -1)):
        nu = np.zeros(Ld + 1)
        for ld in range(Ld + 1):
            if 0 <= ld + branch <= Ld:
                nu[ld] = math.sqrt(q2 * q_number(ld + 1, q) / q_number(ld + branch + 1, q))
        md = nd + branch
        c1 = cr[b, nd, (id_ + nd) // 2]
        c2 = cs[b, nd, (jd + nd) // 2]
        keep.append((md >= 0) & (md <= Ld) & (np.abs(id_ + rd) <= md)
                    & (np.abs(jd + sd) <= md) & (c1 != 0.0) & (c2 != 0.0))
        rows.append(pw_position(md, id_ + rd, jd + sd))
        vals.append(c1 * c2 * nu[nd])
    return pairs_to_csr(rows, vals, keep, (basis.dim, basis.dim))


def csr_fitted_scalars(q, basis) -> tuple:
    """(alpha scalar, gamma scalar) fitted at the cyclic vector e0 by the CSR route.

    With both scalars positive and the stars as adjoints, the relations
    alpha* alpha + gamma* gamma = 1 and alpha alpha* + q^2 gamma* gamma = 1
    at e0 are a 2x2 linear system in their squares.
    """
    tpp, tmp = csr_gen_matrix(1, 1, basis, q), csr_gen_matrix(-1, 1, basis, q)
    e0 = np.zeros(basis.dim)
    e0[0] = 1.0
    m = np.array([
        [np.linalg.norm(tpp @ e0) ** 2, np.linalg.norm(tmp @ e0) ** 2],
        [np.linalg.norm(tpp.conj().T @ e0) ** 2, q * q * np.linalg.norm(tmp @ e0) ** 2],
    ])
    ca, cg = np.sqrt(np.linalg.solve(m, np.ones(2)))
    return float(ca), float(cg)


def csr_generators(q, basis) -> tuple:
    """((alpha scalar, gamma scalar), {letter: CSR generator}), scaled by the closed forms."""
    ca, cg = q / math.sqrt(1.0 + q * q), 1.0 / math.sqrt(1.0 + q * q)
    a, g = ca * csr_gen_matrix(1, 1, basis, q), cg * csr_gen_matrix(-1, 1, basis, q)
    return (ca, cg), {"a": a, "A": a.conj().T.tocsr(), "g": g, "G": g.conj().T.tocsr()}


def csr_mult_operator(p, ops, dim) -> sp.csr_matrix:
    """Left multiplication by p: left-folded CSR word products, summed word by word."""
    out = sp.csr_matrix((dim, dim))
    for word, coeff in p.terms.items():
        m = ops[word[0]] if word else sp.identity(dim, format="csr")
        for ch in word[1:]:
            m = m @ ops[ch]
        out = out + coeff * m
    return out


def spinor_mult(a, table, dctx) -> BandMatrix:
    """I_2 tensor (left multiplication by a), on the spinor basis."""
    bands = {key: np.concatenate([v, v]) for key, v in mult_operator(a, table).bands.items()}
    return BandMatrix(dctx.spinor, bands)


def apply_word(word, vec, table):
    """Apply a generator word to a coefficient vector (rightmost letter first)."""
    for ch in reversed(word):
        vec = table.ops[ch] @ vec
    return vec


def whole_product_bands(x, y, keys=None, scale=None):
    """The bands of (scale * x) @ y over all columns at once, as (key, band).

    Band kx + ky collects x's band kx gathered at the rows of y's band ky,
    summed from +0.0 with ky outer and kx inner; keys limits the output.
    """
    terms = {}
    for ky in y.bands:
        for kx in x.bands:
            key = (kx[0] + ky[0], kx[1] + ky[1], kx[2] + ky[2], kx[3] ^ ky[3])
            if keys is None or key in keys:
                terms.setdefault(key, []).append((kx, ky))
    for key, pairs in terms.items():
        band = 0.0
        for kx, ky in pairs:
            term = x.bands[kx][y.space._rows_of(ky)]  # row -1 where y's band is 0
            if scale is not None:
                term = term * scale
            band = band + term * y.bands[ky]
        yield key, band


def streamed_shell_sums(table, word):
    """S_w per shell: diag(w) * rho reduced per shell; None if w has no diagonal band.

    All letters but the last form one operator X, left-folded as in
    mult_operator; the diagonal of X Y at a column sums, over Y's keys in
    order from +0.0, Y's entry times the entry of X^H's band at that key.
    """
    if len(word) % 2 or not word:
        return table.rho_shell_sums if not word else None
    x = table.ops[word[0]]
    for ch in word[1:-1]:
        x = x @ table.ops[ch]
    xb, yb = x.H.bands, table.ops[word[-1]].bands
    band = None
    for k in yb:
        if k in xb:
            term = xb[k] * yb[k]
            band = term + 0.0 if band is None else band + term
    if band is None:
        return None
    return np.add.reduceat(band * rho_weights(table.basis, table.q), table.basis.start[:-1])


def whole_array_scaling(rd, sd, table) -> float:
    """The largest |(rho[row] m) / rho[col] - c m| over the bands of m = ttilde^{1/2}_{r,s}, over c.

    c = q^{-2r-2s}; rho at the row of each entry is gathered from rho over
    every label at the band's rows, read at the last label where the row
    leaves the truncation (there m is 0).
    """
    m = t_half(rd, sd, table.basis, table.q)
    c = table.q ** float(-rd - sd)
    rho = rho_weights(table.basis, table.q)
    inv = 1.0 / rho
    worst = 0.0
    for k, v in m.bands.items():
        worst = np.maximum(worst, np.abs((rho[m.space._rows_of(k)] * v) * inv - v * c).max())
    return float(worst / c)


def full_dimension_shell_norms(op, shells_d):
    """shell_norms(op, shells_d) from the Gram of op over every column of its space.

    The Gram's bands are whole_product_bands(op.H, op); the block of the
    chain (i, j) holds, at (p, p'), the entry from its p'-th spin to its
    p-th, read from the band of spin shift 2 (p - p') at the column of
    spin p'.  Each block is kept to the spins <= shell, and chains of one
    first spin go through one batched eigvalsh.
    """
    basis = op.space
    gram = dict(whole_product_bands(op.H, op))
    assert all(k[1:] == (0, 0, 0) for k in gram), "the operator is not weight-graded"
    top = max(shells_d)
    best = np.zeros(len(shells_d))
    for s0 in range(top + 1):  # chains of first doubled spin s0: |2i|, |2j| <= s0, one of them = s0
        ij = [(i, j) for i in range(-s0, s0 + 1, 2) for j in range(-s0, s0 + 1, 2)
              if max(abs(i), abs(j)) == s0]
        spins = np.arange(s0, top + 1, 2)
        at = np.array([[basis.position_doubled(n, i, j) for n in spins] for i, j in ij])
        blocks = np.zeros((len(ij), len(spins), len(spins)), dtype=op.dtype)
        for (o, _, _, _), band in gram.items():
            d = o // 2
            for p in range(max(0, -d), min(len(spins), len(spins) - d)):
                blocks[:, p + d, p] = band[at[:, p]] + 0.0
        for k, shell in enumerate(shells_d):
            kept = (shell - s0) // 2 + 1
            if kept > 0:
                best[k] = max(best[k], np.linalg.eigvalsh(blocks[:, :kept, :kept])[:, -1].max())
    return np.sqrt(best)


def all_chains_shell_norms(op, shells_d):
    """shell_norms(op, shells_d) with the leading block of every chain diagonalized.

    The operator is cut to the shells up to the top one plus its depth,
    and its Gram on the first P columns is scattered into the flat buffer
    of chain blocks; then each (first spin, shell) is one batched eigvalsh
    over all chains of that first spin, and a batch's maximum counts when
    it exceeds the running one (so a NaN batch is passed over).
    """
    top = max(shells_d)
    depth_d = op.shell_depth_doubled
    lead = Basis(Truncation(HalfInteger(top + depth_d)))
    op = BandMatrix(lead, {k: np.where(lead._rows_of(k) >= 0, v[:lead.dim], 0.0)
                           for k, v in op.bands.items()})
    chain, nd, s0, first = _chains(Basis(Truncation(HalfInteger(top))))
    P = len(nd)
    length = (top - np.arange(top + 1)) // 2 + 1
    offset = np.concatenate([[0], np.cumsum(np.diff(first) * length ** 2)])
    pos = (nd - s0) // 2
    buf = np.zeros(offset[-1], dtype=op.dtype)
    for key, v in op.H.product_bands(op):
        col = np.flatnonzero(v[:P])
        row = lead._rows_of(key)[col]
        col, row = col[row < P], row[row < P]
        if (chain[row] != chain[col]).any():
            raise SpectralError("Gram couples different (i, j): "
                                "operator is not weight-graded")
        r = s0[row]
        buf[offset[r] + ((chain[row] - first[r]) * length[r] + pos[row]) * length[r]
            + pos[col]] = v[col]
    best = np.zeros(len(shells_d))
    for s in range(top + 1):
        blocks = buf[offset[s]:offset[s + 1]].reshape(-1, length[s], length[s])
        for k, shell in enumerate(shells_d):
            kept = (shell - s) // 2 + 1
            if kept > 0:
                best[k] = max(best[k], np.linalg.eigvalsh(blocks[:, :kept, :kept])[:, -1].max())
    return np.sqrt(best)


def whole_array_residuals(table) -> dict:
    """The largest residual of each defining relation on the safe columns, from whole bands.

    Each residual band is formed over all columns, from the rows memo, and
    reduced on the safe prefix [0, s) of the spins 2n <= 2 lmax - 2.
    """
    q = table.q
    Ld = table.trunc.lmax.doubled
    s = table.basis.start[Ld - 1]
    a, A, g, G = (table.ops[ch] for ch in "aAgG")

    def band(x, y, key, scale=None):
        return next((v for _, v in whole_product_bands(x, y, (key,), scale)), 0.0)

    def one(key):
        return 1.0 if key == DIAGONAL else 0.0

    rel = {
        "A a + G g = 1": ((A, a), lambda k, v: v + band(G, g, k) - one(k)),
        "a A + q^2 G g = 1": ((a, A), lambda k, v: v + band(G, g, k, q * q) - one(k)),
        "G g = g G": ((G, g), lambda k, v: v - band(g, G, k)),
        "a g = q g a": ((a, g), lambda k, v: v - band(g, a, k, q)),
        "a G = q G a": ((a, G), lambda k, v: v - band(G, a, k, q)),
    }
    return {name: max((float(np.abs(residual(k, v)[:s]).max(initial=0.0))
                       for k, v in whole_product_bands(x, y)), default=0.0)
            for name, ((x, y), residual) in rel.items()}
