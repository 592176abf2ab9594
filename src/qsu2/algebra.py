"""The polynomial *-algebra of SU_q(2) and its GNS action on the truncated basis.

Generators are written with single letters throughout this module:

    a = alpha,  A = alpha*,  g = gamma,  G = gamma*

A word is a string of letters, read left to right as an operator product
(so the rightmost letter acts first on a vector).  Normal form puts the
alpha-letters first, then gammas, then gamma-stars, and eliminates mixed
alpha/alpha* words through the defining relations.
"""
from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache

import numpy as np

from .qarith import HalfInteger, q_number
from .peterweyl import DIAGONAL, Basis, BandMatrix, Truncation

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


class Generator(BandMatrix):
    """ttilde^{1/2}_{rd/2, sd/2} times scale on a Basis, or its adjoint, as per-shell factors.

    The entry taking (n, i, j) to (n + branch/2, i + rd/2, j + sd/2) is
    ((C(rd, i) C(sd, j)) nu(n)) scale, one band per branch +1, -1, so the
    band over spin shell n is an outer product of a row factor and a column
    factor, times nu(n), times scale.  factors are (c1, c2, nu), indexed by
    branch and 1 + shell: c1 the cg_table rows of rd, +0.0 on the shells
    whose branch leaves the truncation, c2 those of sd, and nu; each padded
    with +0.0 on every side.  O(lmax^2) numbers in all.  The adjoint (H)
    holds the same factors read at the transposed label: its column
    (n, i, j) holds the entry of the column (n - branch/2, i - rd/2,
    j - sd/2), with the band keys negated.  A CG coefficient is 0 exactly
    where its target weight leaves the target spin, so an entry is +0.0
    where either factor is 0 (a label outside the truncation reads the
    padding), and ((c1 c2) nu) scale elsewhere.

    form(shells) is the one band former.  bands_over(block, shells) forms
    the bands over some shells around a column block once per block, in
    the block's memo, copying the shells shared with the range formed on
    the block before; bands, the whole operator, are those over every
    shell on the first block: kept on a basis of one block, formed for each
    caller on any other.  The memo is keyed by the Generator, so a
    throwaway one forms its bands with form.
    """

    dtype = np.dtype(float)
    shell_depth_doubled = 1
    WIDE = 40  # labels a row from which form takes a shell on its own

    def __init__(self, basis: Basis, rd: int, sd: int, factors: tuple, scale: float,
                 adjoint: bool = False):
        self.space = basis
        self.rd, self.sd = rd, sd
        self.factors = factors
        self.scale = scale
        self.adjoint = adjoint

    @property
    def H(self) -> "Generator":
        return Generator(self.space, self.rd, self.sd, self.factors, self.scale, not self.adjoint)

    @property
    def bands(self) -> dict:
        block = next(iter(self.space.column_blocks()))
        return self.bands_over(block, self.space.shells)[1]

    def bands_over(self, block, shells) -> tuple:
        lo_bands = block.memo.get((self, shells))
        if lo_bands is None:
            lo_bands = block.memo[self, shells] = (int(self.space.start[shells[0]]),
                                                   self._form_after(block.prev, shells))
        return lo_bands

    def step(self, b: int) -> tuple:
        """The shift (2n, a, b) of a label under the band of branch index b (branch +1, -1).

        a = i + n is the in-shell row and b = j + n the column.  The factors
        of the entry are read at the column's label, or, on the adjoint, at
        the label it reaches.
        """
        o = (1, -1)[b]
        shift = (o, (self.rd + o) // 2, (self.sd + o) // 2)
        return tuple(-x for x in shift) if self.adjoint else shift

    def _form_after(self, prev, shells) -> dict:
        """form(shells), with the shells shared with the range formed on the block prev copied.

        Consecutive windows share the shells at the edge between their
        blocks: two of the three when a block is one shell.  The range
        formed on prev is released once copied.
        """
        n0, n1 = shells
        old = next((k for k in (prev.memo if prev else ()) if k[0] is self
                    and k[1][0] <= n0 < k[1][1] <= n1), None)
        if old is None:
            return self.form(shells)
        (p0, p1), (_, old) = old[1], prev.memo.pop(old)
        start = self.space.start
        shared = start[p1] - start[n0]
        bands = {key: np.empty(start[n1] - start[n0]) for key in old}
        for key, band in bands.items():
            band[:shared] = old[key][start[n0] - start[p0]:]
        if p1 < n1:
            self.form((p1, n1), [band[shared:] for band in bands.values()])
        return bands

    def form(self, shells, out=None) -> dict:
        """The bands over the labels of the shells n0 <= 2n < n1, in the order of the branches.

        out, if given, holds the two arrays to write them into.

        A shell narrower than WIDE labels a row goes with the other narrow
        ones, label by label: the row factor repeated along each in-shell
        row times the column factor gathered along it, times nu repeated
        over the shell, with +0.0 wherever a factor is 0.  A wider shell
        goes on its own: the outer product of its row and column factors,
        times nu, then +0.0 in the rows and columns whose factor is 0.  Both
        take ((c1 c2) nu) and then, over the whole range, scale: the same
        operations in the same order.
        """
        basis = self.space
        start = basis.start
        n0, n1 = shells
        m = min(max(n0, self.WIDE - 1), n1)  # the narrow shells are n0 <= 2n < m
        lo = int(start[n0])
        pos = (start[n0:n1 + 1] - lo).tolist()  # each shell's first label in the range
        c1, c2, nu = self.factors
        slots = c1.shape[2]
        rows = basis.in_shell_rows((n0, m))
        nd, a = basis.row_nd[rows], basis.row_a[rows]
        at = np.arange(slots) - 1  # the row (column) that each padded slot holds
        width = np.arange(m + 1, n1 + 1)[:, None]
        bands = {}
        for b, o in enumerate((1, -1)):
            # the column (n, i, j) holds the entry of the column (n, i, j) - (d, 2 da, 2 db)/2
            d, da, db = (o, (self.rd + o) // 2, (self.sd + o) // 2) if self.adjoint else (0, 0, 0)
            band = np.empty(pos[-1]) if out is None else out[b]
            if m > n0:
                narrow = np.repeat(c1[b][nd - d + 1, a + 1 - da], nd + 1)
                col = np.take(c2[b], basis.along_rows((nd - d + 1) * slots + 1 - db, 1, (n0, m)))
                zero = narrow == 0.0
                zero |= col == 0.0
                narrow *= col
                narrow *= np.repeat(nu[b, n0 - d + 1:m - d + 1], np.diff(start[n0:m + 1]))
                narrow[zero] = 0.0
                band[:pos[m - n0]] = narrow
            if n1 > m:
                src = slice(m - d + 1, n1 - d + 1)  # the padded factors of the wide shells
                r1, r2, nub = c1[b, src], c2[b, src], nu[b, src].tolist()
                pw = pos[m - n0:]
                for k, w in enumerate(range(m + 1, n1 + 1)):
                    shell = band[pw[k]:pw[k + 1]].reshape(w, w)
                    np.multiply.outer(r1[k, 1 - da:w + 1 - da], r2[k, 1 - db:w + 1 - db],
                                      out=shell)
                    np.multiply(shell, nub[k], out=shell)
                # the (shell, row) and (shell, column) of each 0 factor
                for k, r in zip(*np.nonzero((r1 == 0.0) & (at >= -da) & (at < width - da))):
                    w = m + k + 1
                    band[pw[k] + (r - 1 + da) * w:pw[k] + (r + da) * w] = 0.0
                for k, c in zip(*np.nonzero((r2 == 0.0) & (at >= -db) & (at < width - db))):
                    band[pw[k] + c - 1 + db:pw[k + 1]:m + k + 1] = 0.0
            band *= self.scale
            key = (-o, -self.rd, -self.sd, 0) if self.adjoint else (o, self.rd, self.sd, 0)
            bands[key] = band
        return bands


def t_half(rd: int, sd: int, basis: Basis, q: float, scale: float = 1.0) -> Generator:
    """Left multiplication by scale times the spin-1/2 element ttilde^{1/2}_{rd/2, sd/2} on basis.

    The entry taking (n, i, j) to (n + branch/2, i + rd/2, j + sd/2) is
    ((C(rd, i) C(sd, j)) nu(n)) scale; the branches +1, -1 are the two
    bands.  Returned as its per-shell factors (see Generator), which form
    the bands over any range of shells.  Each entry is a closed form of its
    column, so on a smaller truncation it keeps its bits.
    """
    Ld = basis.trunc.lmax.doubled
    cr = cg_table(rd, Ld, q)
    cs = cr if sd == rd else cg_table(sd, Ld, q)
    qn = _q_numbers(Ld + 2, q)
    q2 = q_number(2, q)
    (c1, c2), nu = np.zeros((2, 2, Ld + 3, Ld + 3)), np.zeros((2, Ld + 3))
    c1[:, 1:-1, 1:-1], c2[:, 1:-1, 1:-1] = cr, cs
    for b, branch in enumerate((1, -1)):
        lo, hi = (0, Ld) if branch == 1 else (1, Ld + 1)  # shells with 0 <= 2n + branch <= Ld
        c1[b, 1 + (Ld if branch == 1 else 0)] = 0.0
        nu[b, lo + 1:hi + 1] = np.sqrt(q2 * qn[lo + 1:hi + 1]
                                       / qn[lo + 1 + branch:hi + 1 + branch])
    return Generator(basis, rd, sd, (c1, c2, nu), scale)


class GeneratorTable:
    """The four generator operators on a truncation, in closed form.

    alpha and gamma are fixed multiples of the normalized spin-1/2 basis
    elements, and the starred generators are the matrix adjoints:

        alpha  = q (1+q^2)^{-1/2} * ttilde^{1/2}_{+1/2,+1/2}
        gamma  =   (1+q^2)^{-1/2} * ttilde^{1/2}_{-1/2,+1/2}

    This differs from the textbook corepresentation matrix only by the
    sign automorphism gamma -> -gamma.  The scalars are the positive
    solution of alpha* alpha + gamma* gamma = 1 and alpha alpha* +
    q^2 gamma* gamma = 1 at the cyclic vector.  Each generator is held as
    its per-shell factors (Generator): the two cg_table rows, nu per shell
    and its scalar, O(lmax^2) numbers.  The relation battery forms the
    bands it reads one column block at a time, so on a basis of several
    blocks the table holds no array of basis length; a basis of one block
    keeps them on its block.  The trace diagonals are sums over spin paths
    of the factors themselves (shell_sums), O(lmax^2) numbers per path.
    The full relation battery is run on construction and its residuals
    are kept; a failure raises ValidationError.
    """

    RELATION_TOL = 1e-10

    def __init__(self, q: float, trunc: Truncation):
        if trunc.lmax.doubled < 2:
            raise AlgebraError("need lmax >= 1 for the relation battery's safe columns")
        self.q = q
        self.trunc = trunc
        self.basis = Basis(trunc)
        self.alpha_scalar = q / math.sqrt(1.0 + q * q)
        self.gamma_scalar = 1.0 / math.sqrt(1.0 + q * q)
        a = t_half(1, 1, self.basis, q, self.alpha_scalar)
        g = t_half(-1, 1, self.basis, q, self.gamma_scalar)
        self.ops = {"a": a, "A": a.H, "g": g, "G": g.H}
        self._leading = {}
        self._shell_sums = {}
        self._vacuum = {}
        self.validate()

    @cached_property
    def rho_shell_sums(self) -> np.ndarray:
        """The sum of rho over each spin shell 2n = 0 .. lmax_doubled: shell_sums of the word 1."""
        return self.shell_sums("")

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
        (odd length or nonzero weight) has none and adds nothing.  Each S_w
        is shell_sums(w), O(lmax^2) numbers per spin path.  A one-entry memo
        keyed by the polynomial's terms: the trace functionals read one
        polynomial at several t before moving on.
        """
        key = tuple(p.terms.items())
        if key not in self._shell_sums:
            _check_degree(p, self)
            sums = ((coeff, self.shell_sums(word)) for word, coeff in p.terms.items())
            self._shell_sums.clear()
            self._shell_sums[key] = tuple((c, v) for c, v in sums if v is not None)
        return self._shell_sums[key]

    def shell_sums(self, word: str):
        """S_w per shell (see diagonal_shell_sums), summed over the word's spin paths; or None.

        A path is one branch per letter that brings every label back to
        itself; a word has a diagonal band only if some path does.  Along a
        branch a label's entry is ((c1 c2) nu) scale, c1 read at its row, c2
        at its column and nu at its shell (Generator.step), and rho is
        q^{-2i} q^{-2j}, so a path adds prod(nu) prod(scale) (sum_i q^{-2i}
        prod c1) (sum_j q^{-2j} prod c2) per shell, for every shell at once
        from slices of the factors padded with len(word) zeros: O(lmax^2).
        A label that leaves the truncation reads a 0 factor where it leaves,
        so the corrupted top shells are those of the truncated product.  Not
        the bits of diag(w) * rho reduced per shell; within 1e-13 relative.
        """
        Ld, k = self.trunc.lmax.doubled, len(word)
        ops = [self.ops[ch] for ch in reversed(word)]  # the rightmost letter acts first
        paths = []  # the branch sequences that bring each label back to itself
        for path in itertools.product((0, 1), repeat=k):
            steps = [op.step(b) for op, b in zip(ops, path)]
            if not any(map(sum, zip(*steps))):
                paths.append((path, steps))
        if not paths:
            return None
        n = np.arange(Ld + 1)
        powers = self.q ** -np.arange(-Ld, Ld + 1, dtype=float)
        # q^{-2i} at the shell 2n (axis 0) and row a = i + n (axis 1), 0 beyond the shell
        weight = np.where(n <= n[:, None], powers[np.minimum(2 * n - n[:, None], Ld) + Ld], 0.0)
        padded = {op: [_pad(f, k) for f in op.factors] for op in set(ops)}
        sums = None
        for path, steps in paths:
            at, c1, c2, nu, scale = (0, 0, 0), 1.0, 1.0, 1.0, 1.0  # at: the label's shift
            for op, b, step in zip(ops, path, steps):
                moved = tuple(x + d for x, d in zip(at, step))
                # the padded slots of the shells (rows, columns) 0 .. Ld shifted by the read's
                shell, row, col = (slice(k + 1 + x, k + 2 + x + Ld)
                                   for x in (moved if op.adjoint else at))
                f1, f2, fnu = padded[op]
                c1 = c1 * f1[b, shell, row]
                c2 = c2 * f2[b, shell, col]
                nu = nu * fnu[b, shell]
                scale *= op.scale
                at = moved
            term = nu * scale * np.sum(weight * c1, axis=1) * np.sum(weight * c2, axis=1)
            sums = term if sums is None else sums + term
        return sums

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
                for k, v in x.product_bands(y, block):  # v is fresh: the residual in place
                    side(v, next((u for _, u in rx.product_bands(ry, block, (k,), scale)), 0.0),
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


def _pad(f: np.ndarray, k: int) -> np.ndarray:
    """f with k more zeros on each side of every axis but the first (the branch)."""
    out = np.zeros(f.shape[:1] + tuple(d + 2 * k for d in f.shape[1:]))
    out[(slice(None),) + tuple(slice(k, k + d) for d in f.shape[1:])] = f
    return out


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
