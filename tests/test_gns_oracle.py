import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsu2.qarith import HalfInteger, QArithError
from qsu2.peterweyl import Truncation
from qsu2.algebra import GeneratorTable, NCPolynomial, haar_state, is_normal_word
from qsu2 import gns_oracle
from qsu2.gns_oracle import _SWAP_ALPHA, oracle_haar

Q = 1.3


def rep_apply(word: str, k: int, q: float):
    """Reference: apply a generator word (rightmost letter first) to ladder level k at q > 1.

    Returns (amplitude, k', winding).  An annihilated state comes back with
    amplitude exactly 0.0.  One level at a time, each power a scalar
    Python power: the route that oracle_haar's passes over all levels
    keep the bits of.
    """
    if k < 0:
        raise ValueError("level must be nonnegative")
    amp = 1.0
    level = k
    winding = 0
    for ch in reversed(word):
        if ch == "a":
            amp *= math.sqrt(1.0 - q ** (-2 * (level + 1)))
            level += 1
        elif ch == "A":
            if level == 0:
                return 0.0, k, winding
            amp *= math.sqrt(1.0 - q ** (-2 * level))
            level -= 1
        elif ch == "g":
            amp *= q ** (-(level + 1))
            winding += 1
        elif ch == "G":
            amp *= q ** (-(level + 1))
            winding -= 1
        else:
            raise ValueError("unknown letter %r" % ch)
        if amp == 0.0:
            return 0.0, k, winding
    return amp, level, winding


def uncut_oracle_haar(p, K, q):
    """Reference: oracle_haar with every word run through all K + 1 ladder levels."""
    if q < 1:
        inv = 1.0 / q
        mirrored = {w.translate(_SWAP_ALPHA): c * inv ** (w.count("g") + w.count("G"))
                    for w, c in p.terms.items()}
        return uncut_oracle_haar(NCPolynomial(mirrored), K, inv)
    total = 0.0 + 0.0j
    for word, coeff in p.terms.items():
        acc = 0.0
        for k in range(K + 1):
            amp, level, winding = rep_apply(word, k, q)
            if amp != 0.0 and level == k and winding == 0:
                acc += q ** (-2 * k) * amp
        total += coeff * (1.0 - q ** -2) * acc
    return total


class TestRepApply:
    def test_raising(self):
        amp, level, winding = rep_apply("a", 3, Q)
        assert level == 4 and winding == 0
        assert amp == pytest.approx(math.sqrt(1 - Q ** -8))

    def test_lowering_annihilates_ground(self):
        amp, level, winding = rep_apply("A", 0, Q)
        assert amp == 0.0

    def test_round_trip(self):
        amp, level, winding = rep_apply("Aa", 2, Q)
        assert level == 2 and winding == 0
        assert amp == pytest.approx(1 - Q ** -6)

    def test_circle_letters_diagonal(self):
        amp, level, winding = rep_apply("g", 5, Q)
        assert (level, winding) == (5, 1)
        assert amp == pytest.approx(Q ** -6)
        amp, level, winding = rep_apply("G", 5, Q)
        assert (level, winding) == (5, -1)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            rep_apply("a", -1, Q)
        with pytest.raises(ValueError):
            rep_apply("x", 0, Q)


class TestOracleHaar:
    def test_constant(self):
        assert oracle_haar(NCPolynomial.one(), 80, Q) == pytest.approx(1.0, abs=1e-12)

    def test_winding_selection(self):
        # any word with nonzero net winding averages to zero over the circle
        for w in ("g", "G", "ag", "Ggg"):
            assert oracle_haar(NCPolynomial.word(w), 40, Q) == 0.0

    def test_geometric_truncation_error(self):
        p = NCPolynomial.one()
        coarse = oracle_haar(p, 10, Q)
        fine = oracle_haar(p, 60, Q)
        assert abs(fine - coarse) == pytest.approx(Q ** -22, rel=1e-10)

    def test_gamma_pair_value(self):
        val = oracle_haar(NCPolynomial.word("Gg"), 80, Q)
        assert val == pytest.approx(1.0 / (1.0 + Q * Q), abs=1e-12)

    def test_linearity(self):
        p = NCPolynomial({"": 2.0, "Gg": -3.0j})
        expect = 2.0 - 3.0j / (1.0 + Q * Q)
        assert oracle_haar(p, 80, Q) == pytest.approx(expect, abs=1e-10)

    @pytest.mark.parametrize("q", [1.0, 0.0, -1.5])
    def test_rejects_q_one_and_nonpositive(self, q):
        with pytest.raises(QArithError, match="q > 0 and q != 1"):
            oracle_haar(NCPolynomial.word("Aa"), 10, q)

    @pytest.mark.parametrize("q", [0.7, 0.5])
    def test_below_one_through_the_inverse_q(self, q):
        # SU_q(2) = SU_{1/q}(2); the ladder amplitudes are real only for q > 1,
        # so every word of degree <= 4 is checked against the GNS route at q
        table = GeneratorTable(q, Truncation(HalfInteger(8)))
        for n in range(5):
            for w in ("".join(t) for t in itertools.product("aAgG", repeat=n)):
                p = NCPolynomial.word(w)
                assert abs(haar_state(p, table) - oracle_haar(p, 80, q)) < 1e-14, w
        p = NCPolynomial({"": 2.0, "Gg": -3.0j})
        assert oracle_haar(p, 80, q) == pytest.approx(2.0 - 3.0j / (1.0 + q * q), abs=1e-12)

    def test_agreement_with_gns_route(self):
        table = GeneratorTable(Q, Truncation(HalfInteger(12)))
        words = [w for n in range(5) for w in
                 ("".join(t) for t in itertools.product("aAgG", repeat=n))
                 if is_normal_word(w)]
        for w in words:
            p = NCPolynomial.word(w)
            assert abs(haar_state(p, table) - oracle_haar(p, 80, Q)) < 1e-10, w


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from([0.5, 0.7, 1.2, 3.0]), K=st.sampled_from([0, 1, 10, 80]),
       terms=st.dictionaries(st.text(alphabet="aAgG", max_size=6),
                             st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                                allow_infinity=False), max_size=5))
def test_weight_cut_matches_the_uncut_ladder_bitwise(q, K, terms):
    # an unbalanced word skips its levels but still adds coeff * (1 - q^-2) * 0.0
    p = NCPolynomial(terms)
    cut = np.array([oracle_haar(p, K, q)])
    ref = np.array([uncut_oracle_haar(p, K, q)])
    assert cut.view(np.uint64).tolist() == ref.view(np.uint64).tolist()



def _bits(x: complex) -> list:
    return np.array([x]).view(np.uint64).tolist()


@settings(max_examples=300, deadline=None)
@given(word=st.text(alphabet="aAgG", max_size=6),
       q=st.sampled_from([0.05, 0.5, 0.7, 1.01, 1.0001, 1.2, 1.3, 3.0, 25.0]),
       K=st.sampled_from([0, 1, 10, 80]))
def test_ladder_passes_match_the_scalar_ladder_bitwise(word, q, K):
    # every level of a word in numpy passes, powers from a table of scalar
    # powers and the levels summed in order: the bits of rep_apply level by level
    p = NCPolynomial.word(word)
    assert _bits(oracle_haar(p, K, q)) == _bits(uncut_oracle_haar(p, K, q))


@pytest.mark.parametrize("q", [0.7, 1.2])
@pytest.mark.parametrize("K", [0, 1, 10, 80])
def test_ladder_of_a_complex_polynomial_matches_the_scalar_ladder_bitwise(q, K):
    p = NCPolynomial({"": 0.5 - 1.5j, "Gg": 2.0 + 0.25j, "aAgG": -1.0j, "AAaa": 0.75,
                      "gAaG": 1.0 + 1.0j, "ag": 3.0})
    assert _bits(oracle_haar(p, K, q)) == _bits(uncut_oracle_haar(p, K, q))


def test_passes_carry_the_running_sum_bitwise(monkeypatch):
    # passes of 7 levels (K = 100 takes 15, the last of 3 levels) give the bits
    # of one pass over every level: the running sum is carried, not restarted
    words = ["", "Aa", "aA", "Gg", "aAgG", "AAaa", "gAaG", "AgaG", "aaAA"]
    cases = [(w, K, q) for w in words for K in (0, 6, 7, 8, 100) for q in (0.7, 1.01, 1.2)]
    one = [_bits(oracle_haar(NCPolynomial.word(w), K, q)) for w, K, q in cases]
    monkeypatch.setattr(gns_oracle, "LADDER_LEVELS", 7)
    assert [_bits(oracle_haar(NCPolynomial.word(w), K, q)) for w, K, q in cases] == one


def test_near_one_cut_matches_the_scalar_ladder_bitwise():
    # q = 1.0001 runs validate's cut K = 138 163 in 9 passes: the bits of the scalar ladder
    q = 1.0001
    K = max(80, math.ceil(math.log(1e12) / (2 * math.log(q))))
    assert K == 138163
    for w in ("Gg", "aAgG"):
        p = NCPolynomial.word(w)
        assert _bits(oracle_haar(p, K, q)) == _bits(uncut_oracle_haar(p, K, q)), w


WORDS_UP_TO_6 = ["".join(t) for n in range(7) for t in itertools.product("aAgG", repeat=n)]


@pytest.mark.parametrize("q", [0.3, 0.7, 0.99, 1.0001, 1.2, 3.0, 17.0])
@pytest.mark.parametrize("K", [0, 1, 10, 80, 20000])
def test_words_share_the_ladder_run_bitwise(q, K):
    # every word of up to 6 letters in one run over the levels, each with its
    # own running total: the bits of oracle_haar word by word (K = 20 000
    # takes two passes, whose power table reaches the longest word's levels)
    batch = gns_oracle.oracle_haar_words(WORDS_UP_TO_6, K, q)
    single = [oracle_haar(NCPolynomial.word(w), K, q) for w in WORDS_UP_TO_6]
    assert [_bits(x) for x in batch] == [_bits(x) for x in single]


def _counted_powers(monkeypatch) -> list:
    """The (lo, hi) of each power table the oracle forms from now on."""
    ranges, powers = [], gns_oracle._powers
    monkeypatch.setattr(gns_oracle, "_powers",
                        lambda q, lo, hi: ranges.append((lo, hi)) or powers(q, lo, hi))
    return ranges


@pytest.mark.parametrize("words", [["Aa"], WORDS_UP_TO_6[:341]])
def test_each_pass_reads_one_power_table(words, monkeypatch):
    # K + 1 = 3 LADDER_LEVELS levels: three passes, one table each, whatever the
    # words, over the pass's levels widened by the longest word on each side
    ranges = _counted_powers(monkeypatch)
    gns_oracle.oracle_haar_words(words, 3 * gns_oracle.LADDER_LEVELS - 1, 1.2)
    n, reach = gns_oracle.LADDER_LEVELS, max(map(len, words))
    assert ranges == [(max(k0 - reach, 0), k0 + n + reach + 1) for k0 in (0, n, 2 * n)]


def test_unbalanced_words_read_no_power_table(monkeypatch):
    ranges = _counted_powers(monkeypatch)
    assert gns_oracle.oracle_haar_words(["a", "gA", "ggG"], 80, 1.2) == [0j, 0j, 0j]
    assert ranges == []


def test_no_power_table_outlives_a_call():
    # three passes of 341 words form three tables of about 256 KiB each; what
    # is left after the call is its list of results, not the tables
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        psi = gns_oracle.oracle_haar_words(WORDS_UP_TO_6[:341], 3 * gns_oracle.LADDER_LEVELS - 1,
                                           1.37)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(psi) == 341 and grown < 64 * 1024
