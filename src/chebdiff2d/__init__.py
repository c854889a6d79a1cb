"""Stable numerical differentiation of noisy bivariate functions on
[-1, 1]^2 via truncated Chebyshev expansions on hyperbolic-cross index sets,
with a-priori parameter-choice rules and a convergence-rate experiment
harness.
"""

from .basis import basis_matrix, gauss_chebyshev_nodes
from .diffop import ZETA_0, differentiate_coeffs, truncated_derivative
from .harness import (ANALYTIC_FUNCTIONS, CheckResult, ExperimentConfig,
                      ExperimentResult, RateFit, RateReport, RateRow,
                      TestFunctionSpec, TrialRecord, config_from_dict,
                      fit_rate, recurrence_partial_t, run_convergence,
                      validate_suite)
from .hypercross import CrossIndexSet, build_cross, cardinality
from .model import (NOISE_MODES, NOISE_SINGLE, NOISE_TOPWEIGHT, NOISE_UNIFORM,
                    SEED_INDEPENDENT_MODES, NoiseSpec, WienerSpec, lp_norm,
                    make_class_member, perturb, wiener_norm)
from .norms import (MetricSpec, cosine_grid, evaluate_metric, l2_omega_norm,
                    lq_coefficient_bound, lq_omega_norm,
                    nikolskii_explicit_bound, parse_metric, sup_norm)
from .transform import (CoeffFileError, CoeffGrid, analyze, grid_synthesize,
                        read_coeff_csv, read_coeff_file, read_coeff_json,
                        synthesize, write_coeff_csv, write_coeff_json)
from .tuning import ProblemSpec, choose_n, gamma_range, theoretical_rate

__version__ = "0.1.0"
