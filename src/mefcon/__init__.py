"""Consensus filtering on directed networks with disturbed measurements.

Simulation, spectral analysis, ISS envelopes and coherence statistics for
a distributed estimation scheme where every node fuses its own and its
neighbors' noisy measurements through a minimum-energy criterion.
"""

__version__ = "0.1.0"

from .analysis import (Certificate, ComparisonResult, CoherenceReport,
                       EnvelopeCheck, EquilibriumPrediction, GlobalSystem,
                       SpectralReport, analytical_coherence, assemble_global,
                       certify, check_envelope, deviation_series,
                       disagreement_norms, disagreement_state, empirical_deviation,
                       exp_bound_constants, iss_envelope, left_null_vector_of,
                       phi_max, phi_projected, predict_equilibrium,
                       run_comparison, spectral_report)
from .disturbances import DisturbanceProfile, DisturbanceRealization, sample_disturbances
from .errors import (BoundViolationError, ConfigError, MefconError,
                     SimulationError, SolverError)
from .filtering import (EnergyBudget, FilterParams, control_input,
                        eta_star, evaluate_energy, integrate_riccati,
                        neighbor_estimate, observer_rhs, reduced_energy,
                        riccati_rhs, steady_state_gain, steady_gains,
                        uniform_params)
from .graphs import (NetworkTopology, adjacency, degree_matrix, is_balanced,
                     is_strongly_connected, laplacian, left_null_vector,
                     make_graph, standard_laplacian)
from .simulate import (ClosedLoop, ScenarioConfig, Trajectory, basic_scenario,
                       measurements, rk4_step, simulate_classical, simulate_mef)
from .config import build_scenario, load_config

__all__ = [
    "BoundViolationError", "Certificate", "ClosedLoop", "CoherenceReport",
    "ComparisonResult", "ConfigError", "DisturbanceProfile",
    "DisturbanceRealization", "EnergyBudget", "EnvelopeCheck",
    "EquilibriumPrediction", "FilterParams", "GlobalSystem", "MefconError",
    "NetworkTopology", "ScenarioConfig", "SimulationError", "SolverError",
    "SpectralReport", "Trajectory", "adjacency", "analytical_coherence",
    "assemble_global", "basic_scenario", "build_scenario", "certify",
    "check_envelope", "control_input", "degree_matrix", "deviation_series",
    "disagreement_norms", "disagreement_state", "empirical_deviation",
    "eta_star", "evaluate_energy", "exp_bound_constants", "integrate_riccati",
    "is_balanced", "is_strongly_connected", "iss_envelope", "laplacian",
    "left_null_vector", "left_null_vector_of", "load_config", "make_graph",
    "measurements", "neighbor_estimate", "observer_rhs", "phi_max",
    "phi_projected", "predict_equilibrium", "reduced_energy", "riccati_rhs",
    "rk4_step", "run_comparison", "sample_disturbances", "simulate_classical",
    "simulate_mef", "spectral_report", "standard_laplacian", "steady_gains",
    "steady_state_gain", "uniform_params",
]
