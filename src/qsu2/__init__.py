"""Numerical spectral geometry of the compact quantum group SU_q(2), q > 1.

Finite-truncation realization of the Peter-Weyl GNS space, the naive and
true Dirac operators, the modular operator, and the heat-trace experiments
that extract the Haar state from spectral data.
"""

__version__ = "0.1.0"

from .qarith import HalfInteger, QArithError, q_number
from .peterweyl import Basis, Truncation
from .algebra import GeneratorTable, NCPolynomial, ValidationError, haar_state, mult_operator
from .gns_oracle import oracle_haar
from .dirac import DiracContext
from .spectral import (GrowthSeries, HeatTraceReport, absD_commutator_series,
                       asymptotic_band, haar_via_heat, heat_trace, modular_check,
                       rho_trace_functional, shell_norm, trueD_growth)
