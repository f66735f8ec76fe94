"""Phase-gate replication toolkit.

Exact simulation of the N -> M phase-gate replication protocol, a
noise-modeled linear-optics realization of its two-copy instance, and a
simulated process-tomography pipeline with maximum-likelihood
reconstruction.  Conventions (most-significant qubit first, unit-trace
process matrices) are documented in :mod:`phaserep.qmat` and
:mod:`phaserep.choi`.

``import phaserep`` loads none of the modules in the table below; each
is imported when one of its names, or the module itself, is first read.
"""

__version__ = "0.1.0"

# each module's public names, the one list of the package's exports
_EXPORTS = {
    "choi": ("ProcessMatrix", "choi_from_kraus", "process_fidelity",
             "process_matrix_from_json", "process_matrix_to_json"),
    "gates": ("baseline_measure_prepare", "baseline_single_copy",
              "controlled_z", "cu_phase", "fidelity_replicas",
              "optimal_cloner", "optimal_cloner_fidelity", "phase_gate",
              "replicate_measured_form", "standard_phases", "toffoli",
              "twirled_mean_fidelity"),
    "optics": ("OpticsParams", "effective_toffoli",
               "replication_experiment_channel"),
    "qmat": ("kron", "normalize_phase"),
    "superrep": ("ReplicationSpec", "SweepRow", "ancilla_imprint",
                 "asymptotic_sweep", "build_V", "phase_profile",
                 "replicated_map", "replication_fidelity",
                 "worst_case_fidelity"),
    "tomo": ("FidelityStats", "FitResult", "MleResult", "PhaseReport",
             "PipelineReport", "TomographyDataset", "TomographyDesign",
             "default_design", "experiment_pipeline", "fit_cosine",
             "mle_reconstruct", "monte_carlo_errors", "read_datasets_csv",
             "simulate_counts", "write_datasets_csv"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    # PEP 562: called only for a name not yet in the package namespace.
    # __import__ binds the module it loads as a package attribute, and
    # unlike importlib.import_module it takes the path -X importtime logs
    for module, names in _EXPORTS.items():
        if name == module or name in names:
            __import__(f"{__name__}.{module}")
            if name != module:
                globals()[name] = getattr(globals()[module], name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
