"""Conditional density forecasting of return series with a recurrent
mixture density network and its nested AR(1)-GARCH(1,1) baseline."""

from .data import (ParseError, ReturnSeries, TwoRegimeSpec, load_csv,
                   sample_seeds, simulate_mixture_process, write_csv)
from .garch import (GarchFitError, GarchParams, fit_garch, garch_filter,
                    garch_nll, simulate_garch)
from .gradients import (FiniteDiffReport, apply_mask, finite_diff_check,
                        flatten_params, gradient, n_trainable,
                        nonlinear_node_mask, unflatten_params)
from .harness import (BenchmarkReport, ModelFileError, RunRecord, load_model,
                      render_report, run_benchmark, save_model)
from .mixture import MixturePath, MixtureStep, log_density, logsumexp, nll
from .network import (RecurrentState, RmdnConfig, RmdnParams, init_params,
                      initial_state, params_from_garch, positive_elu, unroll)
from .optim import (CONVERGED, NOT_CONVERGED, AdamState, TrainReport,
                    TrainSchedule, adam_step, classify_convergence, train)

__version__ = "0.1.0"
