import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsu2.qarith import HalfInteger, QArithError
from qsu2.peterweyl import Truncation
from qsu2.algebra import GeneratorTable, NCPolynomial, haar_state, is_normal_word
from qsu2.gns_oracle import _SWAP_ALPHA, oracle_haar, rep_apply

Q = 1.3


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

