"""Numerically certified integral representation of the Liouville Dirichlet
series, with the sieve, special-function, kernel and quadrature layers it
rests on.

Layer map:
    arith        sieve tables of lambda, mu, d, beta, nu and partial sums
    special      complex Gamma, accelerated alternating zeta, continuation
    zeta_family  derived Dirichlet quotients and functional equations
    kernels      the two meromorphic kernel sums (partial-fraction / exponential)
    quadrature   power-series head plus geometric Gauss panels on (0, inf)
    verify       machine-checkable certificates for every analytic claim
    cli          command-line front end over all of the above
"""

__version__ = "0.1.0"

from .arith import (ArithTable, beta_value, build_table, divisor_count,
                    liouville, load_table, mobius, nu_partial_sum, nu_value,
                    save_table, sqfree_square_split)
from .errors import (CacheFormatError, DomainError, InvalidArgumentError,
                     LiouvilleMellinError, NearZeroDenominatorError,
                     NonConvergenceError, PoleError, RangeError,
                     TruncationBudgetError)
from .kernels import (fermi, fermi_deficit, kernel_M, kernel_M_prime, kernel_N,
                      kernel_N_series, residue_estimate)
from .quadrature import IntegralResult, integrate_gamma_zeta_a, integrate_mellin
from .special import DEFAULT_EVAL_CONFIG, EvalConfig, gamma, zeta, zeta_alternating
from .verify import (VerificationReport, probe_decay, run_group,
                     verify_bounds, verify_functional_equations,
                     verify_identity_MN, verify_theorem1, verify_theorem2)
from .zeta_family import (functional_eq_rhs_zeta_a, functional_eq_rhs_zeta_alpha,
                          mellin_prefactor, zeta_alpha, zeta_beta, zeta_imp,
                          zeta_lambda, zeta_mu, zeta_nu)

__all__ = [name for name in dir() if not name.startswith("_")]
