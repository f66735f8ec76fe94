"""Command-line runner: sweeps, result emission, and figure regeneration.

Subcommands
    replicate    phase sweep of replication fidelities and baselines
    superrep     worst-case fidelity of the N -> M protocol vs N
    tomo         simulated tomography pipeline with MLE reconstruction
    optics-scan  single-parameter imperfection sweep of the optical gate

Configuration comes from an optional JSON file (--config) overridden by
command-line flags; unknown config keys are rejected.  Every output file
carries a metadata header (artifact version, seed, config hash) and all
floats are written with 17 significant digits, so reruns with the same
seed and config are byte-identical and values round-trip exactly.

Exit codes: 0 success, 1 invalid configuration or unusable paths,
2 runtime or numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tomo
from .choi import choi_from_kraus, process_fidelity, process_matrix_to_json
from .gates import baseline_measure_prepare, baseline_single_copy, \
    cu_phase, fidelity_replicas, optimal_cloner_fidelity, phase_gate, \
    toffoli, twirled_mean_fidelity
from .optics import OpticsParams, effective_toffoli, \
    replication_experiment_channel
from .qmat import kron, set_register_cap
from .superrep import asymptotic_sweep
from .svgplot import Series, heatmap_grid, line_plot

ARTIFACT_VERSION = 1
OUT_DIR_ENV = "PHASEREP_OUT_DIR"

_OPTICS_KEYS = ("r_v", "r_h", "visibility", "phase_jitter_sigma")

# config keys accepted per command (shared keys first)
_COMMON_KEYS = ("out_dir", "seed", "phases", "rate", "trials", "preset",
                "svg", "optics", "register_cap")
_COMMAND_KEYS = {
    "replicate": _COMMON_KEYS,
    "superrep": _COMMON_KEYS + ("alpha", "n_list", "m_list",
                                "phi_grid_size"),
    "tomo": _COMMON_KEYS,
    "optics-scan": _COMMON_KEYS + ("parameter", "values", "phi"),
}


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through
    # the validation path (exit 1) instead
    def error(self, message):
        raise ConfigError(message)


@dataclass(frozen=True)
class RunConfig:
    command: str
    out_dir: Path
    seed: int
    phases: tuple[float, ...]
    rate: float
    trials: int
    preset: str
    svg: bool
    optics: OpticsParams
    register_cap: int | None
    alpha: float
    n_list: tuple[int, ...]
    m_list: tuple[int, ...] | None
    phi_grid_size: int
    scan_parameter: str
    scan_values: tuple[float, ...]
    scan_phi: float


def _schema_hint(command: str) -> str:
    return (
        "expected a JSON object; accepted keys for "
        f"'{command}': {', '.join(_COMMAND_KEYS[command])}"
    )


def _parse_phases(raw) -> tuple[float, ...]:
    if isinstance(raw, str):
        if raw.strip() == "standard":
            return tomo.standard_phases()
        parts = [p for p in raw.split(",") if p.strip()]
        try:
            return tuple(float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"cannot parse phase list: {raw!r}") from None
    if isinstance(raw, (list, tuple)) and raw:
        try:
            return tuple(float(p) for p in raw)
        except (TypeError, ValueError):
            raise ConfigError("phases must be numbers") from None
    raise ConfigError("phases must be 'standard' or a non-empty list")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _load_config_file(path: str, command: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(
            f"config file not found: {p}\n{_schema_hint(command)}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(_schema_hint(command))
    for key in doc:
        if key not in _COMMAND_KEYS[command]:
            raise ConfigError(
                f"unknown config key {key!r} for command '{command}'; "
                + _schema_hint(command)
            )
    return doc


def _resolve_optics(preset: str, overrides: dict | None) -> OpticsParams:
    _require(preset in ("ideal", "measured"),
             f"preset must be 'ideal' or 'measured', got {preset!r}")
    params = OpticsParams.ideal() if preset == "ideal" \
        else OpticsParams.measured()
    if overrides:
        _require(isinstance(overrides, dict), "optics must be an object")
        for key in overrides:
            _require(key in _OPTICS_KEYS,
                     f"unknown optics key {key!r}; accepted: "
                     + ", ".join(_OPTICS_KEYS))
        try:
            params = dataclasses.replace(
                params, **{k: float(v) for k, v in overrides.items()})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid optics parameters: {exc}") from None
    return params


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config-file values, and flag overrides (flags win)."""
    command = args.command
    file_values = _load_config_file(args.config, command) \
        if args.config else {}

    def pick(key, flag_value, default):
        if flag_value is not None:
            return flag_value
        return file_values.get(key, default)

    out_dir = pick("out_dir", args.out_dir,
                   os.environ.get(OUT_DIR_ENV, "phaserep-out"))
    seed = pick("seed", args.seed, 0)
    _require(isinstance(seed, int) and seed >= 0,
             "seed must be a non-negative integer")
    rate = pick("rate", args.rate, 1e4)
    try:
        rate = float(rate)
    except (TypeError, ValueError):
        raise ConfigError("rate must be a number") from None
    _require(math.isfinite(rate) and rate > 0.0,
             "rate must be a positive finite number")
    trials = pick("trials", args.trials, 0)
    _require(isinstance(trials, int) and trials >= 0,
             "trials must be a non-negative integer")
    _require(trials != 1, "trials must be 0 (no error bars) or at least 2")
    preset = pick("preset", args.preset, "ideal")
    svg = bool(args.svg or file_values.get("svg", False))
    phases = _parse_phases(pick("phases", args.phases, "standard"))
    _require(all(math.isfinite(p) for p in phases),
             "phases must be finite numbers")
    optics = _resolve_optics(preset, file_values.get("optics"))
    register_cap = file_values.get("register_cap")
    if register_cap is not None:
        _require(isinstance(register_cap, int),
                 "register_cap must be an integer")

    alpha = file_values.get("alpha", 0.5)
    _require(isinstance(alpha, (int, float)) and alpha > 0.0,
             "alpha must be a positive number")
    n_list = file_values.get("n_list", [4, 9, 16, 25])
    _require(isinstance(n_list, list) and n_list
             and all(isinstance(n, int) and n >= 1 for n in n_list),
             "n_list must be a non-empty list of positive integers")
    m_list = file_values.get("m_list")
    if m_list is not None:
        _require(isinstance(m_list, list)
                 and all(isinstance(m, int) and m >= 1 for m in m_list)
                 and len(m_list) == len(n_list),
                 "m_list must be positive integers paired with n_list")
    phi_grid_size = file_values.get("phi_grid_size", 513)
    _require(isinstance(phi_grid_size, int) and phi_grid_size >= 2,
             "phi_grid_size must be an integer >= 2")

    parameter = file_values.get("parameter", "visibility")
    _require(parameter in _OPTICS_KEYS,
             "parameter must be one of: " + ", ".join(_OPTICS_KEYS))
    values = file_values.get("values", [1.0, 0.95, 0.9, 0.85, 0.8])
    _require(isinstance(values, list) and values
             and all(isinstance(v, (int, float)) for v in values),
             "values must be a non-empty list of numbers")
    phi = file_values.get("phi", math.pi / 2.0)
    _require(isinstance(phi, (int, float)) and math.isfinite(phi),
             "phi must be a finite number")

    return RunConfig(
        command=command,
        out_dir=Path(out_dir),
        seed=int(seed),
        phases=phases,
        rate=rate,
        trials=int(trials),
        preset=preset,
        svg=svg,
        optics=optics,
        register_cap=register_cap,
        alpha=float(alpha),
        n_list=tuple(n_list),
        m_list=tuple(m_list) if m_list is not None else None,
        phi_grid_size=phi_grid_size,
        scan_parameter=parameter,
        scan_values=tuple(float(v) for v in values),
        scan_phi=float(phi),
    )


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _config_digest(config: RunConfig) -> str:
    # hash only result-affecting parameters so runs into different
    # directories stay byte-identical
    doc = {
        "command": config.command,
        "seed": config.seed,
        "phases": [_f17(p) for p in config.phases],
        "rate": _f17(config.rate),
        "trials": config.trials,
        "optics": {k: _f17(getattr(config.optics, k))
                   for k in _OPTICS_KEYS},
        "register_cap": config.register_cap,
        "alpha": _f17(config.alpha),
        "n_list": list(config.n_list),
        "m_list": list(config.m_list) if config.m_list is not None else None,
        "phi_grid_size": config.phi_grid_size,
        "parameter": config.scan_parameter,
        "values": [_f17(v) for v in config.scan_values],
        "phi": _f17(config.scan_phi),
    }
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _metadata(config: RunConfig) -> dict:
    return {
        "artifact_version": ARTIFACT_VERSION,
        "command": config.command,
        "seed": config.seed,
        "config_sha256": _config_digest(config),
    }


def _metadata_lines(meta: dict) -> list[str]:
    return [f"# {key}: {value}" for key, value in meta.items()]


def _write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_text(meta: dict, columns: Sequence[str],
              rows: Sequence[Sequence]) -> str:
    lines = _metadata_lines(meta)
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append(str(int(cell)))
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            elif isinstance(cell, str):
                cells.append(cell)
            else:
                cells.append(_f17(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _prepare_out_dir(config: RunConfig) -> Path:
    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {config.out_dir}: {exc}"
        ) from None
    return config.out_dir


def cmd_replicate(config: RunConfig) -> int:
    """Phase sweep: ideal and noisy replication fidelities vs baselines."""
    out = _prepare_out_dir(config)
    meta = _metadata(config)
    mp = baseline_measure_prepare()
    twirl = twirled_mean_fidelity(64)
    rows = []
    for phi in config.phases:
        u = phase_gate(phi)
        channel = replication_experiment_channel(phi, config.optics)
        rows.append([
            phi,
            fidelity_replicas(phi),
            process_fidelity(channel, kron(u, u)),
            process_fidelity(channel, cu_phase(phi)),
            baseline_single_copy(phi),
            mp,
            twirl,
            optimal_cloner_fidelity(phi),
        ])
    columns = ["phi", "f_uu_ideal", "f_uu_noisy", "f_cu_noisy",
               "baseline_single_copy", "baseline_measure_prepare",
               "twirled_mean", "optimal_cloner"]
    _write_text(out / "replicate.csv", _csv_text(meta, columns, rows))
    if config.svg:
        phis = [r[0] for r in rows]
        svg = line_plot(
            [
                Series("two-copy ideal", phis, [r[1] for r in rows]),
                Series("two-copy noisy", phis, [r[2] for r in rows]),
                Series("controlled-U noisy", phis, [r[3] for r in rows]),
                Series("optimal cloner", phis, [r[7] for r in rows]),
            ],
            title="replication fidelity vs phase",
            xlabel="phase (rad)", ylabel="process fidelity",
        )
        _write_text(out / "replicate.svg", svg)
    return 0


def cmd_superrep(config: RunConfig) -> int:
    """Worst-case replication fidelity along an N -> M = N^(2-alpha) law."""
    out = _prepare_out_dir(config)
    meta = _metadata(config)
    grid = np.linspace(0.0, math.pi, config.phi_grid_size)
    sweep = asymptotic_sweep(config.alpha, list(config.n_list),
                             phi_grid=grid,
                             m_list=list(config.m_list)
                             if config.m_list is not None else None)
    rows = [[r.copies, r.replicas, r.alpha, r.worst_phi, r.worst_fidelity]
            for r in sweep]
    columns = ["n", "m", "alpha", "phi", "fidelity"]
    _write_text(out / "superrep.csv", _csv_text(meta, columns, rows))
    if config.svg:
        svg = line_plot(
            [Series("worst-case fidelity", [r[0] for r in rows],
                    [r[4] for r in rows])],
            title="superreplication worst-case fidelity",
            xlabel="input copies N", ylabel="fidelity",
        )
        _write_text(out / "superrep.svg", svg)
    return 0


def cmd_tomo(config: RunConfig) -> int:
    """Simulated counts -> MLE reconstruction -> fidelities and fit."""
    out = _prepare_out_dir(config)
    design = tomo.default_design()
    report = tomo.experiment_pipeline(
        config.optics, config.phases, config.rate, config.trials,
        config.seed, design=design,
    )
    meta = _metadata(config)

    counts_tmp = out / "counts.csv.tmp"
    tomo.write_datasets_csv(counts_tmp, [r.dataset for r in report.rows],
                            design, header_lines=_metadata_lines(meta))
    os.replace(counts_tmp, out / "counts.csv")

    columns = ["phi", "f_cu", "f_cu_std", "f_uu", "f_uu_std",
               "iterations", "converged"]
    rows = [[r.phi, r.f_cu, r.f_cu_std, r.f_uu, r.f_uu_std, r.iterations,
             r.converged] for r in report.rows]
    _write_text(out / "fidelities.csv", _csv_text(meta, columns, rows))

    for k, row in enumerate(report.rows):
        doc = {
            "metadata": meta,
            "phi": _f17(row.phi),
            "reconstructed": process_matrix_to_json(row.chi),
            "ideal": process_matrix_to_json(row.chi_ideal),
        }
        _write_text(out / f"chi_{k:02d}.json", _json_text(doc))
        if config.svg:
            svg = heatmap_grid(
                [row.chi.matrix, row.chi_ideal.matrix],
                ["reconstructed |chi|", "ideal |chi|"],
                title=f"process matrix, phase {row.phi:.4f}",
            )
            _write_text(out / f"chi_{k:02d}.svg", svg)

    def _std(value):
        return None if not np.isfinite(value) else _f17(value)

    report_doc = {
        "metadata": meta,
        "rate": _f17(report.rate),
        "trials": report.trials,
        "phases": [_f17(p) for p in report.phases],
        "rows": [
            {
                "phi": _f17(r.phi),
                "f_cu": _f17(r.f_cu),
                "f_cu_std": _std(r.f_cu_std),
                "f_uu": _f17(r.f_uu),
                "f_uu_std": _std(r.f_uu_std),
                "iterations": r.iterations,
                "converged": r.converged,
            }
            for r in report.rows
        ],
        "mean_f_cu": _f17(float(np.mean([r.f_cu for r in report.rows]))),
        "mean_f_uu": _f17(float(np.mean([r.f_uu for r in report.rows]))),
        "fit": None if report.fit is None else {
            "offset": _f17(report.fit.offset),
            "amplitude": _f17(report.fit.amplitude),
            "residual_rms": _f17(report.fit.residual_rms),
        },
    }
    _write_text(out / "report.json", _json_text(report_doc))

    if config.svg:
        phis = [r.phi for r in report.rows]
        svg = line_plot(
            [
                Series("F_CU", phis, [r.f_cu for r in report.rows],
                       [r.f_cu_std for r in report.rows]),
                Series("F_UU", phis, [r.f_uu for r in report.rows],
                       [r.f_uu_std for r in report.rows]),
            ],
            title="reconstructed process fidelities",
            xlabel="phase (rad)", ylabel="process fidelity",
        )
        _write_text(out / "fidelities.svg", svg)
    return 0


def cmd_optics_scan(config: RunConfig) -> int:
    """Sweep one imperfection parameter and record gate fidelities."""
    out = _prepare_out_dir(config)
    meta = _metadata(config)
    rows = []
    for value in config.scan_values:
        try:
            params = dataclasses.replace(
                config.optics, **{config.scan_parameter: value})
        except ValueError as exc:
            raise ConfigError(
                f"scan value {value!r} rejected: {exc}") from None
        kraus, success = effective_toffoli(params)
        f_toffoli = process_fidelity(choi_from_kraus(kraus), toffoli())
        channel = replication_experiment_channel(config.scan_phi, params)
        f_cu = process_fidelity(channel, cu_phase(config.scan_phi))
        rows.append([config.scan_parameter, value, f_toffoli, f_cu,
                     success])
    columns = ["parameter", "value", "f_toffoli", "f_cu", "success"]
    _write_text(out / "optics_scan.csv", _csv_text(meta, columns, rows))
    if config.svg:
        values = [r[1] for r in rows]
        svg = line_plot(
            [
                Series("Toffoli fidelity", values, [r[2] for r in rows]),
                Series("controlled-U fidelity", values,
                       [r[3] for r in rows]),
                Series("success probability", values,
                       [r[4] for r in rows]),
            ],
            title=f"imperfection sweep: {config.scan_parameter}",
            xlabel=config.scan_parameter, ylabel="value",
        )
        _write_text(out / "optics_scan.svg", svg)
    return 0


_COMMANDS = {
    "replicate": cmd_replicate,
    "superrep": cmd_superrep,
    "tomo": cmd_tomo,
    "optics-scan": cmd_optics_scan,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phaserep",
                     description="phase-gate replication simulator")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)
    sub.required = True
    descriptions = {
        "replicate": "phase sweep of replication fidelities and baselines",
        "superrep": "worst-case fidelity of the N -> M protocol",
        "tomo": "simulated tomography pipeline",
        "optics-scan": "single-parameter optical imperfection sweep",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out-dir", dest="out_dir",
                       help=f"output directory (default ${OUT_DIR_ENV} "
                            "or ./phaserep-out)")
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("--phases",
                       help="comma-separated radians, or 'standard' for "
                            "the eight k*pi/8 settings")
        p.add_argument("--rate", type=float,
                       help="expected counts per input/setting pair")
        p.add_argument("--trials", type=int,
                       help="Monte Carlo trials for error bars (0 = off)")
        p.add_argument("--preset", choices=("ideal", "measured"),
                       help="optics parameter preset")
        p.add_argument("--svg", action="store_true", default=None,
                       help="also emit SVG figures")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = resolve_config(args)
        if config.register_cap is not None:
            set_register_cap(config.register_cap)
        return _COMMANDS[config.command](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
