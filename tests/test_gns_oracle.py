import itertools
import math

import pytest

from qsu2.qarith import HalfInteger, QArithError
from qsu2.peterweyl import Truncation
from qsu2.algebra import GeneratorTable, NCPolynomial, haar_state, is_normal_word
from qsu2.gns_oracle import oracle_haar, rep_apply

Q = 1.3


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
