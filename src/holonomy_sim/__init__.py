"""Holonomic-gate simulator with control-accelerated adiabaticity.

Numerical playground for Berry-phase quantum gates driven inside a
decoherence-free subspace: gate generators with a constant spectral gap,
time-ordered propagation under pulse-train controls [1 + c(t)] H(t), the
adiabatic-frame cross-check, and sweep experiments with seeded,
reproducible noise.
"""
from ._version import __version__
from .control import (ControlKind, PulseTrain, Segments, generate_segments, integral_C,
                      mean_control, net_area, resonance_condition)
from .experiments import (ExperimentConfig, KickEquivalenceReport,
                          RealizationRecord, SweepResult, SweepRow,
                          compare_positive_vs_zero_energy, config_from_dict,
                          config_to_dict, control_from_dict, realization_seed,
                          sweep, write_csv, write_json_bundle)
from .hamiltonians import (GateKind, GateSpec, Schedule, dark_states, exchange_hamiltonian,
                           gate_generators, gate_hamiltonian, project_dfs, total_z)
from .holonomy import (HolonomyResult, PhaseUndefinedError, bessel_j0,
                       berry_closed_form, berry_numeric, evaluate_holonomy,
                       extract_phase, gate_matrix, quality_factor, wrap_angle)
from .propagation import (PropagationResult, StepPolicy, adiabatic_hamiltonian,
                          propagate_adiabatic, propagate_lab, propagate_lab_batch)
from .qcore import (hermiticity_defect, matexp_hermitian_stack, matexp_lambda_stack,
                    ordered_product, unitarity_defect)

__all__ = [
    "__version__",
    # qcore
    "matexp_hermitian_stack", "matexp_lambda_stack",
    "ordered_product", "hermiticity_defect", "unitarity_defect",
    # hamiltonians
    "GateKind", "GateSpec", "Schedule", "project_dfs", "dark_states",
    "exchange_hamiltonian", "gate_generators", "gate_hamiltonian", "total_z",
    # control
    "ControlKind", "PulseTrain", "Segments", "generate_segments",
    "integral_C", "mean_control", "net_area", "resonance_condition",
    # propagation
    "StepPolicy", "PropagationResult", "propagate_lab", "propagate_lab_batch",
    "propagate_adiabatic", "adiabatic_hamiltonian",
    # holonomy
    "bessel_j0", "berry_closed_form", "berry_numeric", "extract_phase",
    "quality_factor", "gate_matrix", "wrap_angle",
    "evaluate_holonomy", "HolonomyResult", "PhaseUndefinedError",
    # experiments
    "ExperimentConfig", "SweepRow", "SweepResult", "RealizationRecord",
    "KickEquivalenceReport", "sweep", "compare_positive_vs_zero_energy",
    "write_csv", "write_json_bundle", "config_from_dict", "config_to_dict",
    "control_from_dict", "realization_seed",
]
