import math

import pytest
from hypothesis import given, strategies as st

from qsu2.qarith import HalfInteger, QArithError, _cg_doubled, q_number


class TestHalfInteger:
    def test_str(self):
        assert str(HalfInteger(3)) == "3/2"
        assert str(HalfInteger(4)) == "2"

    def test_stores_a_doubled_integer(self):
        with pytest.raises(QArithError):
            HalfInteger(1.0)


class TestQNumber:
    def test_zero_and_one(self):
        for q in (1.2, 2.0, 7.5):
            assert q_number(0, q) == 0.0
            assert q_number(1, q) == pytest.approx(1.0, abs=1e-15)

    def test_direct_value(self):
        assert q_number(2, 2) == pytest.approx(2.5, abs=1e-15)

    @pytest.mark.parametrize("base", [1e10, 1e-10])
    def test_overflow_is_typed(self, base):
        # base^r (or base^-r) beyond float64 was a bare OverflowError
        with pytest.raises(QArithError, match=r"q-number \[31\] at base .* exceeds float64"):
            q_number(31, base)
        assert math.isfinite(q_number(30, base))

    def test_invalid_base(self):
        with pytest.raises(QArithError):
            q_number(2, 1.0)
        with pytest.raises(QArithError):
            q_number(2, -1.0)

    @given(st.floats(-20, 20), st.floats(1.05, 4.0))
    def test_antisymmetry(self, r, q):
        assert q_number(-r, q) == pytest.approx(-q_number(r, q), abs=1e-9, rel=1e-9)

    @given(st.floats(-20, 20), st.floats(1.05, 4.0))
    def test_base_inversion(self, r, q):
        assert q_number(r, q) == pytest.approx(q_number(r, 1.0 / q), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("q", [1.2, 2.0])
    def test_geometric_sum_identity(self, q):
        # sum over j = -n..n of q^{-2j} equals [2n+1]_q, half-integer grid n <= 20
        for nd in range(0, 41):
            s = sum(q ** (-jd) for jd in range(-nd, nd + 1, 2))
            assert s == pytest.approx(q_number(nd + 1, q), rel=1e-12)


class TestCgHalf:
    def test_highest_weight_is_one(self):
        for q in (1.2, 2.0):
            for ld in range(0, 9):
                assert _cg_doubled(1, 1, ld, ld, q) == pytest.approx(1.0, abs=1e-14)

    def test_frozen_value(self):
        # q^{-(l+m)/2} sqrt([l-m+1]_q / [2l+1]_q) at l = m = 1/2, q = 2
        expect = 2 ** -0.5 * math.sqrt(q_number(1, 2) / q_number(2, 2))
        assert expect == pytest.approx(0.4472135954999579, abs=1e-12)
        assert _cg_doubled(-1, 1, 1, 1, 2) == pytest.approx(expect)

    def test_out_of_range_is_zero(self):
        assert _cg_doubled(1, 1, 2, 4, 1.5) == 0.0
        assert _cg_doubled(1, -1, 0, 0, 1.5) == 0.0

    def test_bad_m1(self):
        with pytest.raises(QArithError):
            _cg_doubled(2, 1, 2, 0, 1.5)

    @pytest.mark.parametrize("branch", [0, 2, -3])
    def test_bad_branch(self, branch):
        with pytest.raises(QArithError, match="branch must be"):
            _cg_doubled(1, branch, 2, 0, 1.5)

    @pytest.mark.parametrize("q", [1.2, 2.0])
    def test_column_normalization(self, q):
        # brute-force check of q^{l-j+1/2}[l+j+1/2] + q^{-(l+j+1/2)}[l-j+1/2] = [2l+1]
        # through the squared coefficients, over l <= 20 on the half-integer grid
        for ld in range(0, 41):
            for branch in (1, -1):
                jmax = ld + branch
                for jd in range(-jmax, jmax + 1, 2):
                    up = _cg_doubled(1, branch, ld, jd - 1, q)
                    dn = _cg_doubled(-1, branch, ld, jd + 1, q)
                    assert up * up + dn * dn == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q", [1.2, 2.0])
    def test_branch_orthogonality(self, q):
        for ld in range(1, 41):
            for jd in range(-(ld - 1), ld, 2):
                dot = sum(_cg_doubled(m1, 1, ld, jd - m1, q) * _cg_doubled(m1, -1, ld, jd - m1, q)
                          for m1 in (1, -1))
                assert dot == pytest.approx(0.0, abs=1e-12)
