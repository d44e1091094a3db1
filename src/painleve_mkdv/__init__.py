"""Real Ablowitz-Segur solutions of the inhomogeneous Painleve II equation,
their connection formulas and total integral, the induced self-similar
solutions of the defocusing mKdV equation, and numerical verification of the
Riemann-Hilbert parametrix identities behind them.
"""

from .asymptotics import psi_tilde, v_neg_asym, v_pos_asym
from .integrals import TailPolicy, pv_total_integral, total_integral_formula, v_hat
from .mkdv import InitialDataCoefficients, SelfSimilarField, ab_to_params, u_hat
from .pii import (fit_oscillation, solve_left_launch,
                  solve_right_launch_homogeneous, tuned_solution)
from .stokes import (ASParams, ConnectionConstants, RHConstants,
                     connection_constants, make_params, rh_constants,
                     stokes_triple)

__version__ = "0.1.0"

__all__ = [
    "ASParams",
    "ConnectionConstants",
    "RHConstants",
    "InitialDataCoefficients",
    "SelfSimilarField",
    "TailPolicy",
    "make_params",
    "stokes_triple",
    "connection_constants",
    "rh_constants",
    "psi_tilde",
    "v_neg_asym",
    "v_pos_asym",
    "solve_left_launch",
    "solve_right_launch_homogeneous",
    "fit_oscillation",
    "tuned_solution",
    "total_integral_formula",
    "pv_total_integral",
    "v_hat",
    "ab_to_params",
    "u_hat",
    "__version__",
]
