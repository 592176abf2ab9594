"""The polynomial *-algebra of SU_q(2) and its GNS action on the truncated basis.

Generators are written with single letters throughout this module:

    a = alpha,  A = alpha*,  g = gamma,  G = gamma*

A word is a string of letters, read left to right as an operator product
(so the rightmost letter acts first on a vector).  Normal form puts the
alpha-letters first, then gammas, then gamma-stars, and eliminates mixed
alpha/alpha* words through the defining relations.

A generator is held as its per-shell factors, C(i) C(j) nu(n): the CG
tables and nu of one cached builder per truncation (generator_tables),
which every generator and the Dirac blocks of that truncation read in place.
A table runs one relation battery, and keeps the vacuum vectors w e0 that
the Haar states read on a Basis of the leading spins its words reach, the
table's own generators placed there.
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


@lru_cache(maxsize=8)
def generator_tables(lmax_doubled: int, q: float) -> tuple:
    """(cg, nu): the per-shell factors of the generators on the spins 2n <= lmax_doubled.

    cg[(1 - m1d) // 2, (1 - branch) // 2, ld + 1, (md + ld) // 2 + 1] is
    _cg_doubled(m1d, branch, ld, md, q), between +0.0 slots before and after
    each spin and weight (the layout Generator.grid reads); nu[(1 - branch)
    // 2, 2n + 1] is sqrt([2]_q [2n + 1]_q / [2n + 1 + branch]_q), +0.0 where
    2n + branch leaves the truncation.  [r]_q, r <= max(ld + 1, 2), in
    ascending r (an overflow raises at the smallest), and q ** (e / 2.0),
    |e| <= ld + 1, are evaluated once each and combined with numpy's *, /,
    sqrt and where, which round as the scalar route does: the bits of
    _cg_doubled, signed zeros included.  Unused slots (md > ld) hold +0.0,
    so no CG entry depends on lmax_doubled.  The 8 most recent are kept.
    """
    top = lmax_doubled + 1
    qn = np.array([q_number(float(r), q) for r in range(max(top + 1, 3))])  # [2]_q for nu
    half_powers = np.array([q ** (e / 2.0) for e in range(-top, top + 1)])

    def power(e):  # q ** (e / 2.0)
        return half_powers[e + top]

    ld = np.arange(top)[:, None]
    k = np.arange(top)
    slot = k <= ld
    k = np.minimum(k, ld)  # a valid index in the unused slots
    den = qn[ld + 1]
    cg, nu = np.zeros((2, 2, top + 2, top + 2)), np.zeros((2, top + 2))
    # branch +1, then -1, which needs k <= ld - 1 for m1 = 1/2 and k >= 1 for m1 = -1/2
    cg[0, :, 1:-1, 1:-1] = np.where(slot, np.stack([
        power(ld - k) * np.sqrt(qn[k + 1] / den),
        np.where(k < ld, power(-k - 1) * np.sqrt(qn[ld - k] / den), 0.0)]), 0.0)
    cg[1, :, 1:-1, 1:-1] = np.where(slot, np.stack([
        power(-k) * np.sqrt(qn[ld - k + 1] / den),
        np.where(k >= 1, -power(ld - k + 1) * np.sqrt(qn[k] / den), 0.0)]), 0.0)
    nu[0, 1:top] = np.sqrt(qn[2] * qn[1:top] / qn[2:top + 1])
    nu[1, 2:top + 1] = np.sqrt(qn[2] * qn[2:top + 1] / qn[1:top])
    cg.setflags(write=False)
    nu.setflags(write=False)
    return cg, nu


class Generator(BandMatrix):
    """ttilde^{1/2}_{rd/2, sd/2} times scale on a Basis, or its adjoint, as per-shell factors.

    The entry taking (n, i, j) to (n + branch/2, i + rd/2, j + sd/2) is
    ((C(rd, i) C(sd, j)) nu(n)) scale, one band per branch +1, -1: over a
    shell, an outer product of a row and a column factor, times nu, times
    scale.  factors are (c1, c2, nu), indexed by branch and 1 + shell: the
    CG tables of rd and sd and nu (+0.0 on the shells whose branch leaves
    the truncation), each padded with +0.0: O(lmax^2) numbers, the
    generator_tables that every generator of the truncation shares.
    The adjoint (H) reads the same factors at the transposed label, the
    column (n - branch/2, i - rd/2, j - sd/2) (step), its keys negated.  A CG
    coefficient is 0 exactly where its target weight leaves the target
    spin, so an entry is +0.0 where a factor is 0 (a label outside the
    truncation reads the padding), and ((c1 c2) nu) scale elsewhere.

    grid is the one place an entry is formed: the unstarred generator's
    bands over a grid of whole shells, where a label shift is a flat
    offset, as the relation battery and the modular scaling read them.
    bands reads its labels from that grid, for each caller, kept by none.
    """

    dtype = np.dtype(float)
    shell_depth_doubled = 1

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
        """The bands over every label, in the order of the branches, read from grid.

        Shells go a chunk n0 <= 2n < n1 at a time (_grid_chunks), gridded at
        w = n1 + 2: shell 2n's labels are its cells [1:n+2, 1:n+2].  A starred
        band reads them at its step (the transposed label, as the battery
        does), from a grid one shell wider on each side.  Each value is
        copied as cells + 0.0, so a zero is +0.0 whatever its factors' signs.
        """
        start = self.space.start
        chunks = _grid_chunks(self.space.trunc.lmax.doubled + 1)
        pad = int(self.adjoint)  # the shells a starred read reaches beyond its chunk
        cells = np.empty((2, max((n1 - n0 + 2 * pad) * (n1 + 2) ** 2 for n0, n1 in chunks)))
        bands = {self.key(b): np.empty(self.space.dim) for b in (0, 1)}
        for n0, n1 in chunks:
            w, lo = n1 + 2, n0 - pad
            self.grid((lo, n1 + pad), w, cells)
            grid = cells[:, :(n1 + pad - lo) * w * w].reshape(2, -1, w, w)
            for b, band in enumerate(bands.values()):
                ds, dr, dc = self.step(b) if self.adjoint else (0, 0, 0)
                for n in range(n0, n1):
                    shell = grid[b, n - lo + ds, 1 + dr:n + 2 + dr, 1 + dc:n + 2 + dc]
                    np.add(shell, 0.0, out=band[start[n]:start[n + 1]].reshape(n + 1, n + 1))
        return bands

    def key(self, b: int) -> tuple:
        """The band key (o, rd, sd, 0) of branch index b (o = +1, -1), negated on the adjoint."""
        o = (1, -1)[b]
        return (-o, -self.rd, -self.sd, 0) if self.adjoint else (o, self.rd, self.sd, 0)

    def step(self, b: int) -> tuple:
        """The shift (2n, a, b), a = i + n, b = j + n, of a label under the band of branch index b.

        The entry's factors are at the column's label, or, on the adjoint, at
        the label it reaches: where the battery reads a starred band.
        """
        o = (1, -1)[b]
        shift = (o, (self.rd + o) // 2, (self.sd + o) // 2)
        return tuple(-x for x in shift) if self.adjoint else shift

    def grid(self, shells, w: int, out) -> None:
        """The unstarred bands of these factors on the shells n0 <= 2n < n1, into out[0], out[1].

        The cell (2n, a, b) is at ((2n - n0) w + a + 1) w + b + 1: w x w
        cells a shell, its rows and columns -1 .. w - 2.  Each cell is
        ((c1 c2) nu) scale, the factors read at its label, and 0 outside the
        shell (row or column -1, a weight beyond the shell, or a shell -1 or
        beyond the truncation, whose padded factors are 0).  A starred
        generator grids the unstarred one it is the adjoint of.
        """
        n0, n1 = shells
        c1, c2, nu = self.factors
        s = slice(n0 + 1, n1 + 1)  # the padded slots of the shells
        cells = out[:, :(n1 - n0) * w * w].reshape(2, n1 - n0, w, w)
        np.multiply(c1[:, s, :w, None], c2[:, s, None, :w], out=cells)
        flat = cells.reshape(2, n1 - n0, w * w)
        flat *= nu[:, s, None]
        flat *= self.scale


def t_half(rd: int, sd: int, basis: Basis, q: float, scale: float = 1.0) -> Generator:
    """Left multiplication by scale times the spin-1/2 element ttilde^{1/2}_{rd/2, sd/2} on basis.

    The entry taking (n, i, j) to (n + branch/2, i + rd/2, j + sd/2) is
    ((C(rd, i) C(sd, j)) nu(n)) scale; the branches +1, -1 are the two
    bands.  Returned as its per-shell factors (see Generator), the shared
    generator_tables of the truncation, from which Generator.grid forms the
    bands over any range of shells.  Each entry is a closed form of its
    column, so on a smaller truncation it keeps its bits.
    """
    cg, nu = generator_tables(basis.trunc.lmax.doubled, q)
    return Generator(basis, rd, sd, (cg[(1 - rd) // 2], cg[(1 - sd) // 2], nu), scale)


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
    its per-shell factors (Generator): the truncation's generator_tables and
    its scalar, O(lmax^2) numbers.  The relation battery, run on
    construction (validate), forms only alpha's and gamma's bands, each
    shell once, on a grid of a few shells at a time, and keeps none: the
    table holds no array of basis length.  The trace diagonals are sums
    over spin paths of the factors (shell_sums).
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
        self._shell_sums = {}
        self.vacuum_basis, self._vacuum = None, {}  # the memo's leading spins, from the first fill
        self.validate()

    @cached_property
    def rho_shell_sums(self) -> np.ndarray:
        """The sum of rho over each spin shell 2n = 0 .. lmax_doubled: shell_sums of the word 1."""
        return self.shell_sums("")

    def diagonal_shell_sums(self, p: "NCPolynomial") -> tuple:
        """The pairs (coeff_w, S_w) for the words w of p that have a diagonal band.

        S_w[n], the sum over spin shell 2n of diag(w) * rho (shell_sums(w)),
        is what a trace Tr(p rho B) with B constant on each shell reads:
        sum_w coeff_w sum_n B(n) S_w[n].  A word without a diagonal band (odd
        length or nonzero weight) adds nothing.  A one-entry memo keyed by the
        polynomial's terms: the trace functionals read one polynomial at
        several t before moving on.
        """
        key = tuple(p.terms.items())
        if key not in self._shell_sums:
            _check_degree(p.degree(), self)
            sums = ((coeff, self.shell_sums(word)) for word, coeff in p.terms.items())
            self._shell_sums.clear()
            self._shell_sums[key] = tuple((c, v) for c, v in sums if v is not None)
        return self._shell_sums[key]

    def shell_sums(self, word: str):
        """S_w per shell (see diagonal_shell_sums), summed over the word's spin paths; or None.

        A path is one branch per letter that brings every label back to
        itself; a word has a diagonal band only if some path does.  Along a
        branch a label's entry is ((c1 c2) nu) scale, c1 at its row, c2 at
        its column, nu at its shell (Generator.step), and rho is q^{-2i}
        q^{-2j}: a path adds prod(nu) prod(scale) (sum_i q^{-2i} prod c1)
        (sum_j q^{-2j} prod c2) per shell, all shells at once from the factors
        padded with len(word) zeros, O(lmax^2).  A label leaving the truncation
        reads a 0 factor there: the corrupted top shells are the truncated
        product's.  Within 1e-13 relative of diag(w) * rho reduced per shell.
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
        """The complex vector word e0, read-only, from the memo that fill_vacuum fills."""
        if word not in self._vacuum:
            self.fill_vacuum((word,))
        return self._vacuum[word]

    def fill_vacuum(self, words) -> None:
        """Memoize w e0 for each word and each of its suffixes, one word length at a time.

        A word of length <= nd never takes e0 beyond the spins 2n <= nd, so the
        memo lives on vacuum_basis, those spins for nd = min(max(2, longest
        word), lmax_doubled): a shorter word reads the held basis, a longer
        one starts the memo again on its own.  There the generators are the
        table's factors, and an entry that leaves the basis (row -1) is
        dropped by the matvec.  The suffixes not yet held are formed shortest
        first, those of one length and first letter by one 2-D matvec (the
        vectors one letter shorter as columns): each has the bits of applying
        its word to e0 letter by letter on a table of the spins 2n <= nd,
        whichever words filled the memo; all words of length <= k cost 4 k
        matvecs.
        """
        Ld = self.trunc.lmax.doubled
        nd = min(max(2, max(map(len, words), default=0)), Ld)
        if self.vacuum_basis is None or self.vacuum_basis.trunc.lmax.doubled < nd:
            basis = self.basis if nd == Ld else Basis(Truncation(HalfInteger(nd)))
            e0 = np.zeros(basis.dim, dtype=complex)
            e0[0] = 1.0
            e0.setflags(write=False)
            self.vacuum_basis, self._vacuum = basis, {"": e0}
        basis, held = self.vacuum_basis, self._vacuum
        todo = {w[k:] for w in words if w not in held for k in range(len(w))} - held.keys()
        ops = {}
        for ch in {w[0] for w in todo}:
            op = self.ops[ch]
            gen = Generator(basis, op.rd, op.sd, op.factors, op.scale, op.adjoint)
            ops[ch] = BandMatrix(basis, gen.bands)
        for n in sorted({len(w) for w in todo}):
            layer = sorted(w for w in todo if len(w) == n)
            for ch, group in itertools.groupby(layer, key=lambda w: w[0]):
                group = list(group)
                vecs = ops[ch] @ np.stack([held[w[1:]] for w in group], axis=1)
                vecs.setflags(write=False)
                held.update(zip(group, vecs.T))

    def vacuum_of(self, p: "NCPolynomial") -> np.ndarray:
        """p e0: the sum over p's terms of coeff * vacuum(word), from a complex zero vector."""
        self.fill_vacuum(p.terms)
        out = np.zeros(self.vacuum_basis.dim, dtype=complex)
        for word, coeff in p.terms.items():
            out += coeff * self._vacuum[word]
        return out

    def validate(self) -> None:
        """Run the relation battery; raise ValidationError unless each residual is <= RELATION_TOL.

        residuals keeps each relation's largest residual on the safe spins
        2n <= 2 lmax - 2, over chunks of shells (_grid_chunks) on a grid of
        alpha's and gamma's bands only, each shell formed once (_grid_windows),
        by the term plan of _battery_plan.  "A a + G g = 1" and "G g = g G" (as
        |g G - G g|, its bits) read one G g band per key and skip the o < 0
        off-diagonal key: unscaled and self-adjoint, each safe cell of it holds
        the products of one of the o > 0 key, factors swapped.  "a A + q^2 G g
        = 1" keeps both: (q^2 u) v and (q^2 v) u can differ in the last bit.
        """
        names, plan = _battery_plan()
        scales = (None, self.q, self.q * self.q)  # by the power of q that scales a right product
        chunks = _grid_chunks(self.trunc.lmax.doubled - 1)
        buffers = np.empty((3, max(_span(n0, n1)[2] for n0, n1 in chunks)))
        worst = {name: [0.0] for name in names}
        for (n0, n1), grid in _grid_windows((self.ops["a"], self.ops["g"]), chunks):
            w, start, n = _span(n0, n1)
            left, right, term = buffers[:, :n]
            at = np.arange(-1, w - 1)  # the rows of each shell, then the cells from (n0, 0, 0)
            rows = (at >= 0) & (at <= np.arange(n0, n1)[:, None])
            inside = (rows[:, :, None] & rows[:, None, :]).reshape(-1)[w + 1:w + 1 + n]
            read = lambda band, s: grid[band, start + (s[0] * w + s[1]) * w + s[2]:][:n]

            def product(terms, band, scale=None):  # ky outer, kx inner: the first term is the band
                for k, (xb, sx, yb, sy) in enumerate(terms):
                    out = term if k else band
                    np.multiply(read(xb, sx), read(yb, sy) if scale is None else scale, out=out)
                    if scale is not None:  # the bits of scaling x first
                        out *= read(yb, sy)
                    if k:
                        band += term
                return band

            for (_, _, power), keys in plan.items():
                for key, (terms, members) in keys.items():
                    u = product(terms, right, scales[power])
                    for name, lterms, side, one in members:
                        v = side(product(lterms, left), u, out=left)
                        if key == DIAGONAL and one:  # v - 1 in the shells, v - 0 (its bits) outside
                            np.subtract(v, inside, out=v)
                        worst[name].append(np.abs(v, out=v).max())
        # np.max keeps a NaN, as the max over a whole band does; a NaN ranks as the worst, and fails
        res = self.residuals = {name: float(np.max(r)) for name, r in worst.items()}
        worst = max(res, key=lambda k: (math.isnan(res[k]), res[k]))
        if not res[worst] <= self.RELATION_TOL:
            raise ValidationError(worst, res[worst])


# a chunk: at most GRID_CELLS cells a band, SPAN_CELLS product cells (1.2 MiB in all), or one
# shell; its cost: CHUNK_COST product cells, and CARRY_COST shells for each shell it carries
GRID_CELLS, SPAN_CELLS, CHUNK_COST, CARRY_COST = 7 << 12, 7 << 11, 4000, 0.1


def _span(n0: int, n1: int) -> tuple:
    """(w, start, n): a chunk's grid width and its cells (n0, 0, 0) .. (n1 - 1, n1 - 1, n1 - 1)."""
    w = n1 + 3
    return w, (2 * w + 1) * w + 1, ((n1 - n0 - 1) * w + n1 - 1) * w + n1


@lru_cache(maxsize=8)
def _grid_chunks(n: int) -> tuple:
    """The chunks (n0, n1) of whole shells 2n < n, in order, of the least cost in all: a chunk
    costs CHUNK_COST + (n1 - n0 + 4 CARRY_COST) w^2, w = n1 + 3 (its shells, w x w cells each,
    formed and multiplied, and the 4 it carries on).  The 8 most recent plans are kept."""
    best, start = [0.0], [0]  # the least cost of the shells below each 2n, and its last chunk
    for n1 in range(1, n + 1):
        w2 = (n1 + 3) ** 2  # a chunk ending at n1 takes k shells at most, one at least
        k = max(min(GRID_CELLS // w2 - 4, (SPAN_CELLS - _span(n1 - 1, n1)[2]) // w2 + 1, n1), 1)
        costs = [best[n1 - j] + j * w2 for j in range(1, k + 1)]
        j = costs.index(min(costs))
        best.append(costs[j] + CHUNK_COST + 4 * CARRY_COST * w2)
        start.append(n1 - j - 1)
    chunks = [(start[n], n)]
    while chunks[0][0]:
        chunks.insert(0, (start[chunks[0][0]], chunks[0][0]))
    return tuple(chunks)


def _grid_windows(gens, chunks):
    """Yield (chunk, grid) per chunk: grid[2 k + b] the band of branch index b of gens[k].

    A grid, at the end of one window, holds the shells n0 - 2 .. n1 + 1 of
    Generator.grid (zero below shell 0) at w = n1 + 3, the cell (2n, a, b) at
    ((2n - n0 + 2) w + a + 1) w + b + 1.  A chunk copies the 4 shells it shares
    with the last into its wider rows (0 in the new cells) and forms the rest.
    """
    size = max((n1 - n0 + 4) * (n1 + 3) ** 2 for n0, n1 in chunks)
    window, width = np.zeros((2 * len(gens), size)), 0
    for n0, n1 in chunks:
        w, m = n1 + 3, n1 - n0 + 4
        grid = window[:, size - m * w * w:]
        for band in window if width else ():
            new = band[size - m * w * w:size - (m - 4) * w * w].reshape(4, w, w)
            old = band[size - 4 * width * width:].reshape(4, width, width)
            for i in range(4):  # lowest first: no shell lands on one not yet copied
                new[i, :width, :width] = old[i]
            new[:, width:] = new[:, :width, width:] = 0.0
        lo = n0 + 2 if width else 0
        for k, op in enumerate(gens):
            op.grid((lo, n1 + 2), w, grid[2 * k:2 * k + 2, (lo - n0 + 2) * w * w:])
        width = w
        yield (n0, n1), grid


def _battery_plan() -> tuple:
    """(relations, plan): right product -> key -> (its terms, [(relation, left terms, side, = 1)]).

    A term of x @ y is (x's band, shift, y's band, shift) on the grids of
    _grid_windows((alpha, gamma), ...): band kx + ky reads x's band kx at
    the row that y's band ky reaches, y's Generator.step; a starred band,
    its unstarred one at its own step from there (the transposed label).
    Terms go ky outer, kx inner, as in BandMatrix.product_bands.  Built once
    per battery from stand-in generators (no space, no factors), whose band
    keys and steps are every table's; a right product carries the power of
    q that scales it (0: unscaled).
    """
    a, g = Generator(None, 1, 1, None, 1.0), Generator(None, -1, 1, None, 1.0)
    A, G, band = a.H, g.H, {a.rd: 0, g.rd: 2}  # alpha's two branch bands, then gamma's

    def product(x, y):
        terms = {}
        for by, bx in itertools.product((0, 1), repeat=2):
            sy = y.step(by)
            sx = tuple(map(sum, zip(sy, x.step(bx)))) if x.adjoint else sy
            terms.setdefault(tuple(map(sum, zip(x.key(bx), y.key(by)))), []).append(
                (band[x.rd] + bx, sx, band[y.rd] + by, sy if y.adjoint else (0,) * 3))
        return terms

    # relation -> (left product, add or subtract, right product and its power of q, = 1 (not 0))
    rel = {
        "A a + G g = 1": ((A, a), np.add, (G, g, 0), True),
        "a A + q^2 G g = 1": ((a, A), np.add, (G, g, 2), True),
        "G g = g G": ((g, G), np.subtract, (G, g, 0), False),
        "a g = q g a": ((a, g), np.subtract, (g, a, 1), False),
        "a G = q G a": ((a, G), np.subtract, (G, a, 1), False),
    }
    starred = lambda x, y: x.rd == y.rd and x.adjoint != y.adjoint  # x = y*
    plan = {}
    for name, ((x, y), side, (rx, ry, power), one) in rel.items():
        mirrored = not power and starred(x, y) and starred(rx, ry)
        left = product(x, y)  # both sides are words of length 2 and one weight: the same keys
        for key, terms in product(rx, ry).items():
            if not (mirrored and key[0] < 0):
                plan.setdefault((rx, ry, power), {}).setdefault(key, (terms, []))[1].append(
                    (name, left[key], side, one))
    return tuple(rel), plan


def _pad(f: np.ndarray, k: int) -> np.ndarray:
    """f with k more zeros on each side of every axis but the first (the branch)."""
    out = np.zeros(f.shape[:1] + tuple(d + 2 * k for d in f.shape[1:]))
    out[(slice(None),) + tuple(slice(k, k + d) for d in f.shape[1:])] = f
    return out


def _check_degree(degree: int, table: GeneratorTable) -> None:
    if degree > table.trunc.lmax.doubled:
        raise AlgebraError("word length %d leaves no safe shell at lmax = %s"
                           % (degree, table.trunc.lmax))


def mult_operator(p: NCPolynomial, table: GeneratorTable) -> BandMatrix:
    """The left-multiplication operator of p on the truncated GNS space; real for real p."""
    _check_degree(p.degree(), table)
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
    each word reads its vector w e0 from the table's vacuum memo, on the
    leading spins that the words reach.
    """
    _check_degree(p.degree(), table)
    return complex(table.vacuum_of(p)[0])


def haar_states(words, table: GeneratorTable) -> list:
    """haar_state(NCPolynomial.word(w), table) for each word w, its bits: one fill for all.

    Each psi(w) is vacuum(w)[0] added to +0.0, as vacuum_of sums from a zero vector.
    """
    _check_degree(max(map(len, words), default=0), table)
    table.fill_vacuum(words)
    return (np.array([table.vacuum(w)[0] for w in words], dtype=complex) + 0.0).tolist()
