"""The polynomial *-algebra of SU_q(2) and its GNS action on the truncated basis.

Generators are written with single letters throughout this module:

    a = alpha,  A = alpha*,  g = gamma,  G = gamma*

A word is a string of letters, read left to right as an operator product
(so the rightmost letter acts first on a vector).  Normal form puts the
alpha-letters first, then gammas, then gamma-stars, and eliminates mixed
alpha/alpha* words through the defining relations.
"""
from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .qarith import HalfInteger, q_number
from .peterweyl import DIAGONAL, Basis, BandMatrix, Truncation, rho_weights

LETTERS = "aAgG"
_ADJOINT = {"a": "A", "A": "a", "g": "G", "G": "g"}


class AlgebraError(ValueError):
    """Malformed polynomial or empty safe shell."""


class ValidationError(RuntimeError):
    """The generator operators failed the defining-relation battery."""

    def __init__(self, identity: str, residual: float):
        super().__init__("relation %r violated with residual %.3e" % (identity, residual))
        self.identity = identity
        self.residual = residual


def adjoint_word(word: str) -> str:
    return "".join(_ADJOINT[c] for c in reversed(word))


class NCPolynomial:
    """A finite combination of words in the four generators; a real coefficient stays real."""

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if any(ch not in LETTERS for ch in w):
                    raise AlgebraError("bad letter in word %r" % w)
                if c != 0:
                    self.terms[w] = self.terms.get(w, 0) + c
        self.terms = {w: c for w, c in self.terms.items() if c != 0}

    @classmethod
    def word(cls, w: str, coeff=1.0) -> "NCPolynomial":
        return cls({w: coeff})

    @classmethod
    def one(cls) -> "NCPolynomial":
        return cls({"": 1.0})

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return NCPolynomial(out)

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + (-1) * other

    def __mul__(self, other) -> "NCPolynomial":
        if isinstance(other, NCPolynomial):
            out = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    w = w1 + w2
                    out[w] = out.get(w, 0) + c1 * c2
            return NCPolynomial(out)
        return NCPolynomial({w: c * other for w, c in self.terms.items()})

    __rmul__ = __mul__

    def adjoint(self) -> "NCPolynomial":
        return NCPolynomial({adjoint_word(w): c.conjugate() for w, c in self.terms.items()})

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPolynomial) and self.terms == other.terms

    def __repr__(self) -> str:
        return "NCPolynomial(%r)" % (self.terms,)


# The reducible 2-letter factors: each one rewrites toward normal form
# through a defining relation, so a normal word contains none of them.
_RULES = frozenset(("Aa", "aA", "ga", "Ga", "gA", "GA", "Gg"))


def is_normal_word(word: str) -> bool:
    return not any(word[k:k + 2] in _RULES for k in range(len(word) - 1))


def _q_numbers(count: int, q: float) -> np.ndarray:
    """[r]_q for r = 0 .. count - 1, one scalar q_number each, in ascending r.

    An overflow raises at the smallest r that overflows, as it did when
    every entry called q_number itself.
    """
    return np.array([q_number(float(r), q) for r in range(count)])


@lru_cache(maxsize=16)
def cg_table(m1d: int, lmax_doubled: int, q: float) -> np.ndarray:
    """_cg_doubled(m1d, branch, ld, md, q) stored at [(1 - branch) // 2, ld, (md + ld) // 2].

    Built from the closed forms of _cg_doubled: with k = (ld + md) / 2,
    every entry is +-q^(e/2) sqrt([r]_q / [ld + 1]_q) for integers
    |e| <= ld + 1 and 0 <= r <= ld + 1.  Those O(lmax) scalars are
    evaluated once each ([r]_q in ascending r, then q ** (e / 2.0)) and
    combined with numpy's *, /, sqrt and where, which round as the scalar
    route does: every entry has the bits of _cg_doubled, signed zeros
    included.  Unused slots (md > ld) and weights outside the target spin
    hold +0.0.  No entry depends on lmax_doubled, so a smaller table has
    the bits of the leading slice of a larger one.  The 16 most recent
    tables are kept and shared, so the array is read-only.
    """
    top = lmax_doubled + 1
    qn = _q_numbers(top + 1, q)
    half_powers = np.array([q ** (e / 2.0) for e in range(-top, top + 1)])

    def power(e):  # q ** (e / 2.0)
        return half_powers[e + top]

    ld = np.arange(top)[:, None]
    k = np.arange(top)
    slot = k <= ld
    k = np.minimum(k, ld)  # a valid index in the unused slots
    den = qn[ld + 1]
    if m1d == 1:  # branch +1, then -1 (which needs k <= ld - 1)
        up = power(ld - k) * np.sqrt(qn[k + 1] / den)
        down = np.where(k < ld, power(-k - 1) * np.sqrt(qn[ld - k] / den), 0.0)
    else:  # branch -1 needs k >= 1
        up = power(-k) * np.sqrt(qn[ld - k + 1] / den)
        down = np.where(k >= 1, -power(ld - k + 1) * np.sqrt(qn[k] / den), 0.0)
    table = np.where(slot, np.stack([up, down]), 0.0)
    table.setflags(write=False)
    return table


def t_half(rd: int, sd: int, basis: Basis, q: float) -> BandMatrix:
    """Left multiplication by the spin-1/2 element ttilde^{1/2}_{rd/2, sd/2} on basis.

    The entry taking (n, i, j) to (n + branch/2, i + rd/2, j + sd/2) is
    (C(rd, i) C(sd, j)) nu(n); the branches +1, -1 are the two bands.  Each
    factor is read once per shell or in-shell row and expanded: nu(n)
    with np.repeat over the shells, C(rd, i) over the in-shell rows of
    basis (i is constant along a row), and C(sd, j) gathered from its
    cg_table row.  A CG coefficient is 0 exactly where its
    target weight leaves the target spin, so an entry is kept where both
    are nonzero and the target shell is retained; elsewhere it is +0.0.
    Each entry is a closed form of its column, so on a smaller truncation
    it keeps its bits.  The bands are formed one column block of the basis
    at a time, from the per-row tables of its shells.
    """
    Ld = basis.trunc.lmax.doubled
    cr = cg_table(rd, Ld, q)
    cs = cr if sd == rd else cg_table(sd, Ld, q)
    qn = _q_numbers(Ld + 2, q)
    q2 = q_number(2, q)
    shell_sizes = np.diff(basis.start)
    bands = {}
    for b, branch in enumerate((1, -1)):
        lo, hi = (0, Ld) if branch == 1 else (1, Ld + 1)  # shells with 0 <= 2n + branch <= Ld
        nu = np.zeros(Ld + 1)
        nu[lo:hi] = np.sqrt(q2 * qn[lo + 1:hi + 1] / qn[lo + 1 + branch:hi + 1 + branch])
        out = np.empty(basis.dim)
        for block in basis.column_blocks():
            n0, n1 = block.shells
            rows = basis.in_shell_rows(block.shells)
            row_nd = basis.row_nd[rows]
            kept = (row_nd >= lo) & (row_nd < hi)
            band = np.repeat(np.where(kept, cr[b][row_nd, basis.row_a[rows]], 0.0), row_nd + 1)
            # C(sd, j) at the flat index of (2n, b) into cs[b]
            c2 = np.take(cs[b], basis.along_rows(row_nd * (Ld + 1), 1, block.shells))
            zero = band == 0.0
            zero |= c2 == 0.0
            band *= c2
            band *= np.repeat(nu[n0:n1], shell_sizes[n0:n1])
            band[zero] = 0.0
            out[block.cols] = band
        bands[(branch, rd, sd, 0)] = out
    return BandMatrix(basis, bands)


class GeneratorTable:
    """The four generator operators on a truncation, in closed form.

    alpha and gamma are fixed multiples of the normalized spin-1/2 basis
    elements, and the starred generators are the matrix adjoints:

        alpha  = q (1+q^2)^{-1/2} * ttilde^{1/2}_{+1/2,+1/2}
        gamma  =   (1+q^2)^{-1/2} * ttilde^{1/2}_{-1/2,+1/2}

    This differs from the textbook corepresentation matrix only by the
    sign automorphism gamma -> -gamma.  The scalars are the positive
    solution of alpha* alpha + gamma* gamma = 1 and alpha alpha* +
    q^2 gamma* gamma = 1 at the cyclic vector.  The full relation battery
    is run on construction and its residuals are kept; a failure raises
    ValidationError.
    """

    RELATION_TOL = 1e-10

    def __init__(self, q: float, trunc: Truncation):
        if trunc.lmax.doubled < 2:
            raise AlgebraError("need lmax >= 1 for the relation battery's safe columns")
        self.q = q
        self.trunc = trunc
        self.basis = Basis(trunc)
        tpp, tmp = t_half(1, 1, self.basis, q), t_half(-1, 1, self.basis, q)
        tpp_h = tpp.H
        self.alpha_scalar = q / math.sqrt(1.0 + q * q)
        self.gamma_scalar = 1.0 / math.sqrt(1.0 + q * q)

        # scaled in place, with the bits of c * T; (c T)^H = c T^H entry for
        # entry, so alpha* is the adjoint taken above, scaled
        for op, c in ((tpp, self.alpha_scalar), (tpp_h, self.alpha_scalar),
                      (tmp, self.gamma_scalar)):
            for band in op.bands.values():
                band *= c
        self.ops = {"a": tpp, "A": tpp_h, "g": tmp, "G": tmp.H}
        self._leading = {}
        self._shell_sums = {}
        self._vacuum = {}
        self.validate()

    @cached_property
    def rho(self) -> np.ndarray:
        """The modular weights q^{-2i-2j} over the basis."""
        return rho_weights(self.basis, self.q)

    @cached_property
    def rho_shell_sums(self) -> np.ndarray:
        """The sum of rho over each spin shell 2n = 0 .. lmax_doubled."""
        return np.add.reduceat(self.rho, self.basis.start[:-1])

    def leading(self, deg: int) -> "GeneratorTable":
        """The table on the spins 2n <= max(deg, 2), memoized per shell.

        A word of length <= deg moves e0 only within those spins, so every
        matrix element <e0, w e0> computed on the smaller table takes the
        same terms, in the same order, as on this one.  The smaller table is
        an ordinary GeneratorTable: its generators are the leading blocks
        of these, bit for bit, and its scalars are these.
        """
        nd = max(deg, 2)
        if nd >= self.trunc.lmax.doubled:
            return self
        if nd not in self._leading:
            self._leading[nd] = GeneratorTable(self.q, Truncation(HalfInteger(nd)))
        return self._leading[nd]

    def diagonal_shell_sums(self, p: "NCPolynomial") -> tuple:
        """The pairs (coeff_w, S_w) for the words w of p that have a diagonal band.

        S_w[n] is the sum over spin shell 2n = 0 .. lmax_doubled of
        diag(w) * rho, the real per-shell vector that a trace
        Tr(p rho B) with B constant on each shell reads:
        sum_w coeff_w sum_n B(n) S_w[n].  A word without a diagonal band
        (odd length or nonzero weight) has none and adds nothing; the word
        1 has the bits of rho_shell_sums.  Each block of the diagonal is
        reduced per shell as it is formed, so no whole band is held.  A
        one-entry memo keyed by the polynomial's terms: the trace
        functionals read one polynomial at several t before moving on.
        """
        key = tuple(p.terms.items())
        if key not in self._shell_sums:
            _check_degree(p, self)
            self._shell_sums.clear()
            sums = []
            for word, coeff in p.terms.items():
                parts = []
                for block, band in self._word_diagonal(word):  # fresh arrays
                    band *= self.rho[block.cols]
                    n0, n1 = block.shells
                    parts.append(np.add.reduceat(band, self.basis.start[n0:n1] - block.lo))
                if parts:
                    sums.append((coeff, np.concatenate(parts)))
            self._shell_sums[key] = tuple(sums)
        return self._shell_sums[key]

    def _word_diagonal(self, word: str):
        """The DIAGONAL band of the word's operator, as (block, band) per column block.

        Yields nothing if the word has none: each letter shifts the spin by
        1/2 up or down, so a word of odd length has none.  All letters but
        the last form one operator, left-folded as in mult_operator; only
        the last product is formed block by block.
        """
        if len(word) % 2:
            return
        blocks = self.basis.column_blocks()
        if not word:
            yield from ((block, np.ones(block.size)) for block in blocks)
            return
        m = self.ops[word[0]]
        for ch in word[1:-1]:
            m = m @ self.ops[ch]
        for block in blocks:
            for _, band in m.product_bands(self.ops[word[-1]], (DIAGONAL,), block=block):
                yield block, band

    def vacuum(self, word: str) -> np.ndarray:
        """The complex vector word e0, memoized per word and read-only.

        Formed as ops[word[0]] @ vacuum(word[1:]), from the longest suffix
        already held: the matvecs of applying the word to e0 letter by
        letter, rightmost first, in the same order, so each vector has the
        bits of that route.  Words that share a suffix share its vector,
        so all words of length <= k cost one matvec per distinct suffix.
        """
        if not self._vacuum:
            e0 = np.zeros(self.basis.dim, dtype=complex)
            e0[0] = 1.0
            e0.setflags(write=False)
            self._vacuum[""] = e0
        k = 0
        while word[k:] not in self._vacuum:
            k += 1
        vec = self._vacuum[word[k:]]
        for i in range(k - 1, -1, -1):
            vec = self.ops[word[i]] @ vec
            vec.setflags(write=False)
            self._vacuum[word[i:]] = vec
        return vec

    def vacuum_of(self, p: "NCPolynomial") -> np.ndarray:
        """p e0: the sum over p's terms of coeff * vacuum(word), from a complex zero vector."""
        out = np.zeros(self.basis.dim, dtype=complex)
        for word, coeff in p.terms.items():
            out += coeff * self.vacuum(word)
        return out

    def validate(self) -> None:
        """Run the relation battery; raise ValidationError unless each residual is <= RELATION_TOL.

        residuals keeps the largest residual of each defining relation on
        the safe columns.  A relation is a word of length 2 (depth 1), exact
        on the spins 2n <= 2 lmax - 2: the column prefix [0, s).  The
        battery runs one column block of those shells at a time (a basis of
        one block runs on all of its columns and reads the prefix); each
        residual band is formed in place over the block's columns and
        reduced as it is formed, a running maximum per band key, so no
        product, residual or scaled generator is held whole, and the rows
        of a block are computed once for all five relations.  A product
        band at column c reads only column c of its right factor.  Both
        sides of a relation are words of length 2 and one weight, so they
        share their band keys: the left product streams them and the right
        one is formed at the same key.  A scaled side, q^2 G g or q g a,
        scales its gathered bands, with the bits of scaling G or g first.
        """
        q = self.q
        Ld = self.trunc.lmax.doubled
        s = self.basis.start[Ld - 1]
        a, A, g, G = (self.ops[ch] for ch in "aAgG")

        # relation -> (left product, (add or subtract, right product, its scale), constant)
        rel = {
            "A a + G g = 1": ((A, a), (np.add, G, g, None), 1.0),
            "a A + q^2 G g = 1": ((a, A), (np.add, G, g, q * q), 1.0),
            "G g = g G": ((G, g), (np.subtract, g, G, None), 0.0),
            "a g = q g a": ((a, g), (np.subtract, g, a, q), 0.0),
            "a G = q G a": ((a, G), (np.subtract, G, a, q), 0.0),
        }
        largest = {name: {} for name in rel}  # relation -> band key -> largest residual
        for block in self.basis.column_blocks(Ld - 1):
            for name, ((x, y), (side, rx, ry, scale), constant) in rel.items():
                for k, v in x.product_bands(y, block=block):  # v is fresh: the residual in place
                    side(v, next((u for _, u in rx.product_bands(ry, (k,), scale, block)), 0.0),
                         out=v)
                    if k == DIAGONAL:
                        v -= constant
                    r = np.abs(v, out=v)[:s - block.lo].max(initial=0.0)
                    # np.maximum keeps a NaN, as the max over a whole band does
                    largest[name][k] = np.maximum(largest[name].get(k, 0.0), r)
        self.residuals = {name: float(np.max(list(per_key.values()), initial=0.0))
                          for name, per_key in largest.items()}  # np.max keeps a NaN
        # a NaN residual ranks as the worst, and fails
        worst = max(self.residuals, key=lambda k: np.nan_to_num(self.residuals[k], nan=np.inf))
        if not self.residuals[worst] <= self.RELATION_TOL:
            raise ValidationError(worst, self.residuals[worst])


def _check_degree(p: NCPolynomial, table: GeneratorTable) -> None:
    if p.degree() > table.trunc.lmax.doubled:
        raise AlgebraError("word length %d leaves no safe shell at lmax = %s"
                           % (p.degree(), table.trunc.lmax))


def mult_operator(p: NCPolynomial, table: GeneratorTable) -> BandMatrix:
    """The left-multiplication operator of p on the truncated GNS space; real for real p."""
    _check_degree(p, table)
    basis = table.basis
    bands = {}
    for word, coeff in p.terms.items():
        m = table.ops[word[0]] if word else BandMatrix(basis, {DIAGONAL: np.ones(basis.dim)})
        for ch in word[1:]:  # left fold: each entry sums at most two products
            m = m @ table.ops[ch]
        for k, v in m.bands.items():  # each sum starts from +0.0, as in CSR arithmetic
            bands[k] = bands.get(k, 0.0) + coeff * v
    return BandMatrix(basis, bands)


def haar_state(p: NCPolynomial, table: GeneratorTable) -> complex:
    """psi(p) = <e0, p e0>, the GNS matrix element at the cyclic vector.

    Truncation-exact whenever the word length fits inside the truncation;
    evaluated on the leading shells that the words reach, where each word
    reads its vector w e0 from the table's vacuum memo.
    """
    _check_degree(p, table)
    return complex(table.leading(p.degree()).vacuum_of(p)[0])
