"""Optimal exponential-moving-average trading strategies and their backtests.

Closed-form log-utility and long-run-growth optimizers for weights of the
form f(t, X_t - Y_t), the log price minus its ExpMA, under an OU or a
two-state Markov-chain drift, plus a seeded Monte Carlo engine with
proportional transaction costs and a CLI that reproduces the benchmark
experiment tables.
"""

__version__ = "0.1.0"

from .ctmc import (CTMCLimits, CTMCMomentSet, CTMCStationary, ctmc_abcd,
                   ctmc_growth_value, ctmc_limits, ctmc_moments,
                   ctmc_stationary, finite_horizon_affine,
                   optimal_growth_affine)
from .errors import (ConfigError, DegenerateZProcessError, ExpmaError,
                     LeverageCostSingularityError, NumericError,
                     OutsideSupportError, QuadratureError,
                     ResourceLimitError, SchemeInstabilityError,
                     ValidationError)
from .experiments import (ExperimentConfig, ReportRow, ReportSet,
                          build_strategies, emit, run_experiment)
from .metrics import MetricsReport, compute_metrics
from .models import (BuyAndHold, ConstantAffine, CTMC2Drift, ModelParams,
                     NonlinearFilter, OUDrift, SimConfig, Strategy,
                     TimeVaryingAffine, period_to_lambda, validate,
                     validate_sim)
from .ou import (ABCD, A2_CONVERGENCE_RTOL, B2_CONVERGENCE_RTOL,
                 OUCoefficients, OUMomentSet, ValueFunctions,
                 affine_objective, convergence_day, eta, eta_upper_bound,
                 full_information_rate, growth_limit_affine, hat_lambda,
                 optimal_affine_from_abcd, optimal_c2_coefficients,
                 optimal_utility_affine, ou_abcd, ou_moments, value_functions)
from .regime_filter import (QDecomposition, StationaryLaw, UVGrid,
                            conditional_densities, filter_expectation,
                            filter_strategy, g_infinity,
                            long_run_growth_ctmc, p_q_infinity,
                            solve_uv_pde, stationary_law)
from .simulate import (PathBundle, WealthLedger, rebalance_delta,
                       run_strategy, self_financing_residuals, simulate_paths)
