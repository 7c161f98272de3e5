"""Quickest change detection under communication-rate constraints.

CuSum and adaptive-censoring CuSum detectors for rate-constrained sensor
networks, with the censoring-strategy optimizer, a replicated Monte Carlo
harness, renewal-cycle estimators and calibration search, plus a CLI for
declarative experiments.
"""

__version__ = "0.1.0"

from .censoring import CensoringStrategy, full_rate_strategy, optimize
from .detectors import (
    CusumAcConfig,
    CusumSpec,
    DetectorState,
    RandomTxSpec,
    cusum_ac_multi_step,
    cusum_ac_step,
    cusum_step,
    initial_state,
    random_tx_cusum_step,
    simulate_trace,
    two_level,
)
from .model import GaussianPair, KlReport, gaussian_mean_shift, kl_divergence
from .montecarlo import (
    InfeasibleError,
    McEstimate,
    PerfReport,
    estimate_arlfa,
    estimate_comm_rate,
    estimate_delay,
    measure_performance,
    pre_change_run,
)

__all__ = [
    "__version__",
    "CensoringStrategy",
    "CusumAcConfig",
    "CusumSpec",
    "DetectorState",
    "GaussianPair",
    "InfeasibleError",
    "KlReport",
    "McEstimate",
    "PerfReport",
    "RandomTxSpec",
    "cusum_ac_multi_step",
    "cusum_ac_step",
    "cusum_step",
    "estimate_arlfa",
    "estimate_comm_rate",
    "estimate_delay",
    "full_rate_strategy",
    "gaussian_mean_shift",
    "initial_state",
    "kl_divergence",
    "measure_performance",
    "optimize",
    "pre_change_run",
    "random_tx_cusum_step",
    "simulate_trace",
    "two_level",
]
