"""Phase-gate replication toolkit.

Exact simulation of the N -> M phase-gate replication protocol, a
noise-modeled linear-optics realization of its two-copy instance, and a
simulated process-tomography pipeline with maximum-likelihood
reconstruction.  Conventions (most-significant qubit first, unit-trace
process matrices) are documented in :mod:`phaserep.qmat` and
:mod:`phaserep.choi`.
"""

from .choi import (
    ProcessMatrix,
    apply_channel,
    choi_from_kraus,
    choi_vector,
    gate_fidelity,
    process_fidelity,
    process_matrix_from_json,
    process_matrix_to_json,
)
from .gates import (
    baseline_measure_prepare,
    baseline_single_copy,
    controlled_z,
    cu_phase,
    fidelity_replicas,
    optimal_cloner,
    optimal_cloner_fidelity,
    phase_gate,
    replicate_measured_form,
    toffoli,
    twirled_mean_fidelity,
)
from .optics import (
    OpticsParams,
    dephase_spatial,
    effective_toffoli,
    replication_experiment_channel,
    sector_operators,
)
from .qmat import (
    kron,
    normalize_phase,
)
from .superrep import (
    ReplicationSpec,
    SweepRow,
    ancilla_imprint,
    asymptotic_sweep,
    build_V,
    default_phi_grid,
    effective_alpha,
    phase_profile,
    replicated_map,
    replication_fidelity,
    sandwich_diagonal,
    worst_case_fidelity,
)
from .tomo import (
    FidelityStats,
    FitResult,
    MleOptions,
    MleResult,
    PhaseReport,
    PipelineReport,
    TomographyDataset,
    TomographyDesign,
    default_design,
    expected_counts,
    experiment_pipeline,
    fit_cosine,
    mle_reconstruct,
    monte_carlo_errors,
    read_datasets_csv,
    simulate_counts,
    standard_phases,
    write_datasets_csv,
)

__version__ = "0.1.0"

__all__ = [
    "FidelityStats",
    "FitResult",
    "MleOptions",
    "MleResult",
    "OpticsParams",
    "PhaseReport",
    "PipelineReport",
    "ProcessMatrix",
    "ReplicationSpec",
    "SweepRow",
    "TomographyDataset",
    "TomographyDesign",
    "ancilla_imprint",
    "apply_channel",
    "asymptotic_sweep",
    "baseline_measure_prepare",
    "baseline_single_copy",
    "build_V",
    "choi_from_kraus",
    "choi_vector",
    "controlled_z",
    "cu_phase",
    "default_design",
    "default_phi_grid",
    "dephase_spatial",
    "effective_alpha",
    "effective_toffoli",
    "expected_counts",
    "experiment_pipeline",
    "fidelity_replicas",
    "fit_cosine",
    "gate_fidelity",
    "kron",
    "mle_reconstruct",
    "monte_carlo_errors",
    "normalize_phase",
    "optimal_cloner",
    "optimal_cloner_fidelity",
    "phase_gate",
    "phase_profile",
    "process_fidelity",
    "process_matrix_from_json",
    "process_matrix_to_json",
    "read_datasets_csv",
    "replicate_measured_form",
    "replicated_map",
    "replication_experiment_channel",
    "replication_fidelity",
    "sandwich_diagonal",
    "sector_operators",
    "simulate_counts",
    "standard_phases",
    "toffoli",
    "twirled_mean_fidelity",
    "worst_case_fidelity",
    "write_datasets_csv",
]
