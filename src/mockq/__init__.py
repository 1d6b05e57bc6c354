"""mockq: exact q-series kernel and complex-numeric engine for third-order
mock theta function identities.

The package has two halves.  The exact half works over Q(zeta_24) on the
1/24 exponent grid: `Cyc24` coefficients, `QSeries` truncated Laurent series,
eta/theta/pochhammer constructors, bilateral Appell-Lerch expansion, the
mock theta functions f, omega, phi, 3-dissection machinery and a registry of
coefficient-exact identities.  The numeric half evaluates the transcendental
counterparts (eta, vartheta, mu, R, mu-tilde, g_{a,b}, Eichler and Mordell
integrals, the vectors F, G, H) in double precision and checks every stated
transformation law.
"""

from .cyclotomic import Cyc24, exp_pi_i, zeta_pow
from .errors import (
    ConvergenceError,
    GridError,
    MockqError,
    NonInvertibleError,
    PoleError,
    PrecisionError,
    ThetaVanishesError,
)
from .etatheta import (
    EtaQuotientSpec,
    Monomial,
    eta_quotient,
    euler_E,
    euler_E_inv,
    jtp_product,
    pochhammer_fin,
    pochhammer_inf,
    theta3,
    theta_Theta,
)
from .lerch import LerchSpec, crank_pair, lerch_expand, mu_formal, thetaid_pair
from .mocktheta import (
    f_eulerian,
    f_watson,
    omega_eulerian,
    omega_watson,
    phi_eulerian,
)
from .numeric import (
    CheckResult,
    NumericScene,
    SCENES,
    eta_num,
    mu_num,
    mu_tilde_num,
    qseries_eval,
    run_check,
)
from .qseries import QSeries
from .registry import IdentityRecord, VerifyReport, registry_catalog, verify, verify_all

__version__ = "1.0.0"

__all__ = [
    "Cyc24",
    "zeta_pow",
    "exp_pi_i",
    "QSeries",
    "Monomial",
    "EtaQuotientSpec",
    "euler_E",
    "euler_E_inv",
    "eta_quotient",
    "pochhammer_inf",
    "pochhammer_fin",
    "jtp_product",
    "theta_Theta",
    "theta3",
    "LerchSpec",
    "lerch_expand",
    "crank_pair",
    "thetaid_pair",
    "mu_formal",
    "f_eulerian",
    "omega_eulerian",
    "phi_eulerian",
    "f_watson",
    "omega_watson",
    "IdentityRecord",
    "VerifyReport",
    "registry_catalog",
    "verify",
    "verify_all",
    "NumericScene",
    "SCENES",
    "CheckResult",
    "qseries_eval",
    "eta_num",
    "mu_num",
    "mu_tilde_num",
    "run_check",
    "MockqError",
    "GridError",
    "PoleError",
    "NonInvertibleError",
    "PrecisionError",
    "ThetaVanishesError",
    "ConvergenceError",
]
