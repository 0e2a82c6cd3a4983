"""Stochastic wave-function trajectories of a central spin in a spin bath."""

from .core import (
    EnvironmentTooLarge,
    FlipPattern,
    ModelParams,
    SpinSpectral,
    SystemAmplitudes,
    dispersed_couplings,
    log_branch_weight,
    spin_amplitude,
    spin_spectral,
)
from .engine import (
    DegenerateOutcomeError,
    ProjectionDistribution,
    binomial_outcomes,
    enumerate_outcomes,
    merge_by_u,
    pattern_projection,
    sample_outcomes,
    wavefunction_of_pattern,
)
from .observables import (
    ObservableSeries,
    class_probabilities,
    classify,
    first_collapse_time,
    histogram,
    revival_times,
    time_series,
)
from .universe import (
    ThermalEnsemble,
    TrajectoryOutcome,
    TrajectoryOutcomes,
    build_hamiltonian,
    phase_distance,
    reduced_density_check,
    thermal_ensemble,
    trajectory_ensemble,
)

__all__ = [
    "DegenerateOutcomeError",
    "EnvironmentTooLarge",
    "FlipPattern",
    "ModelParams",
    "ObservableSeries",
    "ProjectionDistribution",
    "SpinSpectral",
    "SystemAmplitudes",
    "ThermalEnsemble",
    "TrajectoryOutcome",
    "TrajectoryOutcomes",
    "binomial_outcomes",
    "build_hamiltonian",
    "class_probabilities",
    "classify",
    "dispersed_couplings",
    "enumerate_outcomes",
    "first_collapse_time",
    "histogram",
    "log_branch_weight",
    "merge_by_u",
    "pattern_projection",
    "phase_distance",
    "reduced_density_check",
    "revival_times",
    "sample_outcomes",
    "spin_amplitude",
    "spin_spectral",
    "thermal_ensemble",
    "time_series",
    "trajectory_ensemble",
    "wavefunction_of_pattern",
]

__version__ = "0.1.0"
