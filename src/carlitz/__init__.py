"""Exact arithmetic for Carlitz-module special functions over F_q[theta].

Layers, bottom up: finite-field towers and polynomial quotients (fields),
ramified Laurent arithmetic in the completed algebraic closure (laurent),
Tate-algebra series with certified tails (tate), the special functions
themselves (functions), exact torsion-field and Gauss-sum machinery
(cyclotomic), and the identity-check registry plus CLI (verify, cli).
"""

from .errors import CarlitzError, ConfigError, UnknownCheckError
from .fields import GFPoly, enumerate_A, make_field, roots_in_ext
from .laurent import Completion, RamLaurent, sample_z
from .tate import EvalSpec, TateElem, tate_const, tate_t_minus_theta, tate_zero
from .functions import (
    L_multi,
    SeriesBudget,
    agf_f,
    carlitz_e,
    carlitz_exp,
    chi_t,
    default_budget,
    omega,
    omega_inv,
    papanikolas_L,
    pi_tilde,
    psi,
    u_m_val,
    u_val,
)
from .cyclotomic import (
    CycField,
    M_from_gauss,
    basis_E,
    carlitz_poly,
    embed,
    gauss_sum,
    gauss_sum_inv,
    interpolation_M,
    telescope_pair,
)
from .verify import CheckConfig, CheckReport, REGISTRY, run_all, run_check

__version__ = "0.1.0"

__all__ = [
    "CarlitzError", "ConfigError", "UnknownCheckError",
    "GFPoly", "enumerate_A", "make_field", "roots_in_ext",
    "Completion", "RamLaurent", "sample_z",
    "EvalSpec", "TateElem", "tate_const", "tate_t_minus_theta", "tate_zero",
    "L_multi", "SeriesBudget", "agf_f", "carlitz_e", "carlitz_exp", "chi_t",
    "default_budget", "omega", "omega_inv", "papanikolas_L", "pi_tilde",
    "psi", "u_m_val", "u_val",
    "CycField", "M_from_gauss", "basis_E", "carlitz_poly", "embed", "gauss_sum",
    "gauss_sum_inv", "interpolation_M", "telescope_pair",
    "CheckConfig", "CheckReport", "REGISTRY", "run_all", "run_check",
    "__version__",
]
