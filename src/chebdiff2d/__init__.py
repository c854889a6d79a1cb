"""Stable numerical differentiation of noisy bivariate functions on
[-1, 1]^2 via truncated Chebyshev expansions on hyperbolic-cross index sets,
with a-priori parameter-choice rules and a convergence-rate experiment
harness.
"""

from .basis import (basis_matrix, eval_orthonormal, gauss_chebyshev_nodes,
                    peak_value)
from .diffop import ZETA_0, differentiate_coeffs, truncated_derivative
from .harness import (ANALYTIC_FUNCTIONS, CheckResult, ExperimentConfig,
                      ExperimentResult, RateFit, RateReport, RateRow,
                      TestFunctionSpec, TrialRecord, config_from_dict,
                      fd_partial_t, fit_rate, load_config, run_convergence,
                      run_single, validate_suite)
from .hypercross import CrossIndexSet, build_cross, cardinality
from .model import (NOISE_MODES, NOISE_SINGLE, NOISE_TOPWEIGHT, NOISE_UNIFORM,
                    SEED_INDEPENDENT_MODES, NoiseSpec, WienerSpec, keyed_signs,
                    keyed_uniform, lp_norm, make_class_member, perturb,
                    wiener_norm)
from .norms import (MetricSpec, cosine_grid, evaluate_metric, l2_omega_norm,
                    lq_coefficient_bound, lq_omega_norm,
                    nikolskii_explicit_bound, parse_metric, sup_norm)
from .transform import (CoeffFileError, CoeffGrid, analyze, grid_synthesize,
                        read_coeff_csv, read_coeff_file, read_coeff_json,
                        synthesize, write_coeff_csv, write_coeff_json)
from .tuning import (ProblemSpec, choose_n, expected_cardinality,
                     gamma_admissible, gamma_range, theoretical_rate,
                     validate_spec, with_metric)

__version__ = "0.1.0"
