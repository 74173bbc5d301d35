"""Covert-communication detection under a disco reconfigurable surface.

Monte-Carlo channel simulation, an unsupervised Neyman-Pearson detector
built on a self-contained masked autoregressive flow, and the closed-form
statistics (Gamma null, cascaded-channel variance, asymptotic SJNR)
used to validate both.
"""

from .channel import (DrisProfile, Geometry, LinkFading, PathLoss, Scenario,
                      cascaded_mc, dbm_to_watts, gen_bob_signals,
                      gen_willie_statistics, path_loss_linear)
from .config import (DEFAULT_CONFIG, ConfigError, ScenarioConfig, dump_config,
                     parse_config, parse_config_text)
from .detector import (DetectionReport, FittedDetector, ObservationBatch,
                       calibrate, classify, evaluate, llr, prefilter)
from .flow import FlowModel, TrainConfig, load_flow, save_flow, train
from .statkit import SeedStream, binomial_ci, empirical_quantile, sample_gamma
from .sweeps import SweepResult, emit_csv, run_sweep, run_validation
from .theory import (GammaNull, alpha_bar, gamma_cdf, gamma_h0_logpdf, gamma_sf,
                     prop_variance, radiometer_threshold, sjnr_empirical,
                     sjnr_theory)

__version__ = "1.0.0"

__all__ = [
    "DrisProfile", "Geometry", "LinkFading", "PathLoss", "Scenario",
    "cascaded_mc", "dbm_to_watts", "gen_bob_signals", "gen_willie_statistics",
    "path_loss_linear",
    "DEFAULT_CONFIG", "ConfigError", "ScenarioConfig", "dump_config",
    "parse_config", "parse_config_text",
    "DetectionReport", "FittedDetector", "ObservationBatch",
    "calibrate", "classify", "evaluate", "llr", "prefilter",
    "FlowModel", "TrainConfig", "load_flow", "save_flow", "train",
    "SeedStream", "binomial_ci", "empirical_quantile", "sample_gamma",
    "SweepResult", "emit_csv", "run_sweep", "run_validation",
    "GammaNull", "alpha_bar", "gamma_cdf", "gamma_h0_logpdf", "gamma_sf",
    "prop_variance", "radiometer_threshold", "sjnr_empirical", "sjnr_theory",
    "__version__",
]
