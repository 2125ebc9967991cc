"""Freshness metrics and joint sampling/offloading optimization for
multimodal edge computing.

The package models devices that sense image, audio, and signal data,
process updates locally or at an edge server behind an interference-limited
uplink, and tracks a modality-weighted age of information.  A block
coordinate solver jointly picks sampling intervals and offload decisions
under per-device energy budgets; a Monte-Carlo oracle validates the
closed-form average age, and an experiment harness reproduces the
comparative trends against baseline policies.
"""

from .baselines import ALGORITHMS, solve
from .metric import OBJECTIVE_AOI, OBJECTIVE_MAOI, avg_maoi_modality
from .optimizer import Decision, ScenarioEvaluator, SolveTrace, solve_jso
from .oracle import TrajectoryStats, simulate_avg_maoi, simulate_avg_maoi_device
from .scenario import Scenario, generate_scenario
from .system_model import (
    DeviceProfile,
    ModalityKind,
    SystemConfig,
    load_config_document,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "solve", "OBJECTIVE_AOI", "OBJECTIVE_MAOI", "avg_maoi_modality",
    "Decision", "ScenarioEvaluator", "SolveTrace", "solve_jso",
    "TrajectoryStats", "simulate_avg_maoi", "simulate_avg_maoi_device",
    "Scenario", "generate_scenario", "DeviceProfile", "ModalityKind",
    "SystemConfig", "load_config_document", "__version__",
]
