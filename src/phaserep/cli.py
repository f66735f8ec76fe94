"""Command-line runner: sweeps, result emission, and figure regeneration.

Subcommands
    replicate    phase sweep of replication fidelities and baselines
    superrep     worst-case fidelity of the N -> M protocol vs N
    tomo         simulated tomography pipeline with MLE reconstruction
    optics-scan  single-parameter imperfection sweep of the optical gate

Configuration comes from an optional JSON file (--config) overridden by
command-line flags.  Each command accepts only the keys it reads (plus
out_dir and svg) and rejects any other.  Every CSV and JSON artifact
carries the run's metadata (artifact version, command, the tomo seed, a
hash of the command's keys) as ``# key: value`` lines or a ``metadata``
object.  CSV tables and ``report.json`` write floats as ``%.17g``
strings, ``chi_NN.json`` matrices and non-integral counts as the
shortest ``repr``: reruns are byte-identical and values round-trip.

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
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import tomo
from .choi import process_fidelity, process_matrix_to_json
from .gates import baseline_measure_prepare, baseline_single_copy, \
    cu_phase, fidelity_replicas, optimal_cloner_fidelity, phase_gate, \
    toffoli, twirled_mean_fidelity
from .optics import OpticsParams, effective_toffoli, \
    replication_experiment_channel
from .qmat import _integer, _real, _reals, _sizes, kron
from .superrep import asymptotic_sweep
from .svgplot import Series, heatmap_grid, line_plot

ARTIFACT_VERSION = 2
OUT_DIR_ENV = "PHASEREP_OUT_DIR"

_OPTICS_KEYS = tuple(f.name for f in dataclasses.fields(OpticsParams))
_PRESETS = {"ideal": OpticsParams.ideal, "measured": OpticsParams.measured}

# where and what to write; accepted by every command, hashed by none
_OUTPUT_KEYS = ("out_dir", "svg")

_DEFAULTS = {
    "seed": 0, "phases": "standard", "rate": 1e4, "trials": 0,
    "preset": "ideal", "optics": None,
    "alpha": 0.5, "n_list": [4, 9, 16, 25], "m_list": None,
    "phi_grid_size": 513,
    "parameter": "visibility", "values": [1.0, 0.95, 0.9, 0.85, 0.8],
    "phi": math.pi / 2.0,
}

# the keys that also have a command-line flag, as add_argument options
_FLAGS = {
    "seed": {"type": int, "help": "master RNG seed"},
    "phases": {"help": "comma-separated radians, or 'standard' (k*pi/8)"},
    "rate": {"type": float, "help": "expected counts per input/setting"},
    "trials": {"type": int, "help": "Monte Carlo trials (0 = no error bars)"},
    "preset": {"choices": tuple(_PRESETS), "help": "optics preset"},
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through
    # the validation path (exit 1) instead
    def error(self, message):
        raise ValueError(message)


def _schema_hint(command: str) -> str:
    keys = ", ".join(_OUTPUT_KEYS + _COMMANDS[command].keys)
    return f"expected a JSON object; accepted keys for '{command}': {keys}"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _parse_phases(raw) -> tuple[float, ...]:
    if isinstance(raw, str):
        if raw.strip() == "standard":
            return tomo.standard_phases()
        try:
            raw = [float(p) for p in raw.split(",") if p.strip()]
        except ValueError:
            raise ValueError(f"cannot parse phase list: {raw!r}") from None
    _require(isinstance(raw, (list, tuple)) and len(raw) > 0,
             "phases must be 'standard' or a non-empty list")
    return tuple(_real(p, "phases") for p in raw)


def _load_config_file(path: str, command: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        # any readable UTF-8 path will do, /dev/stdin too
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ValueError(f"cannot read config file {path}: {reason}"
                         ) from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(_schema_hint(command))
    for key in doc:
        if key not in _OUTPUT_KEYS + _COMMANDS[command].keys:
            raise ValueError(
                f"unknown config key {key!r} for command '{command}'; "
                + _schema_hint(command)
            )
    return doc


def _resolve_optics(preset: str, overrides: dict | None) -> OpticsParams:
    _require(preset in _PRESETS,
             f"preset must be {' or '.join(map(repr, _PRESETS))}, "
             f"got {preset!r}")
    params = _PRESETS[preset]()
    if overrides is not None:
        _require(isinstance(overrides, dict),
                 f"optics must be an object, got {overrides!r}")
        for key in overrides:
            _require(key in _OPTICS_KEYS,
                     f"unknown optics key {key!r}; accepted: "
                     + ", ".join(_OPTICS_KEYS))
        params = dataclasses.replace(params, **overrides)
    return params


def _resolve(key: str, value, params: dict):
    """Check one key's merged value and return its resolved form;
    ``params`` holds the keys before it in the command's table.  A key
    not checked here (seed, trials, an m_list's pairing, a scan value's
    range) is checked by the library call it feeds, before that call
    builds anything."""
    if key == "phases":
        value = _parse_phases(value)
    elif key in ("rate", "alpha"):
        value = _real(value, key, positive=True)
    elif key == "optics":  # also checks the preset, which precedes it
        value = _resolve_optics(params["preset"], value)
    elif key == "n_list":
        value = _sizes(value, key)
        _require(value,
                 "n_list must be a non-empty list of positive integers")
    elif key == "m_list" and value is not None:
        value = _sizes(value, key)
    elif key == "phi_grid_size":
        value = _integer(value, key, 2)
    elif key == "parameter":
        _require(value in _OPTICS_KEYS,
                 "parameter must be one of: " + ", ".join(_OPTICS_KEYS))
    elif key == "values":
        value = _reals(value, key).tolist()
        _require(value, "values must be a non-empty list of numbers")
    elif key == "phi":
        value = _real(value, key)
    return value


def resolve_config(args: argparse.Namespace) -> SimpleNamespace:
    """Merge defaults, config-file values, and flag overrides (flags win)
    for the keys the command reads, and check each.  The result has
    ``command``, ``out_dir``, ``svg`` and the command's keys."""
    command = args.command
    file_values = _load_config_file(args.config, command) \
        if args.config else {}

    def pick(key, default):
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            return flag_value
        return file_values.get(key, default)

    params: dict = {}
    for key in _COMMANDS[command].keys:
        params[key] = _resolve(key, pick(key, _DEFAULTS[key]), params)
    out_dir = pick("out_dir", os.environ.get(OUT_DIR_ENV, "phaserep-out"))
    _require(isinstance(out_dir, str) and out_dir != "",
             f"out_dir must be a non-empty string, got {out_dir!r}")
    svg = args.svg or file_values.get("svg", False)
    _require(isinstance(svg, bool), f"svg must be true or false, got {svg!r}")
    return SimpleNamespace(command=command, out_dir=Path(out_dir), svg=svg,
                           **params)


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _canonical(value):
    # floats as 17-digit strings and a NaN, which no config value can
    # be, as null; a dataclass (the optics, the fit) as its fields
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, float):
        return None if math.isnan(value) else _f17(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    return value


def _config_digest(config: SimpleNamespace) -> str:
    # hash exactly the command's result-affecting keys, so runs into
    # different directories, with or without figures, stay byte-identical
    doc = {"command": config.command}
    doc.update((k, _canonical(getattr(config, k)))
               for k in _COMMANDS[config.command].keys)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _metadata(config: SimpleNamespace) -> dict:
    meta = {"artifact_version": ARTIFACT_VERSION,
            "command": config.command}
    if hasattr(config, "seed"):
        meta["seed"] = config.seed
    meta["config_sha256"] = _config_digest(config)
    return meta


def _metadata_lines(meta: dict) -> list[str]:
    return [f"# {key}: {value}" for key, value in meta.items()]


def _write_text(path: Path, text: str) -> None:
    # the directory is made by the first write, so a run that fails
    # before it has results leaves none
    path.parent.mkdir(parents=True, exist_ok=True)
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
            if isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            elif isinstance(cell, str):
                cells.append(cell)
            else:
                cells.append(_f17(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write_table(config: SimpleNamespace, out: Path, meta: dict, stem: str,
                 columns: Sequence[str], rows: Sequence[Sequence],
                 plot: tuple) -> None:
    """Write ``<stem>.csv`` and, when figures are on, ``<stem>.svg``.

    ``plot`` is (title, x column, xlabel, ylabel, series), each series a
    (label, y column, error column or None) drawn against the x column.
    """
    _write_text(out / f"{stem}.csv", _csv_text(meta, columns, rows))
    if config.svg:
        title, x, xlabel, ylabel, series = plot
        col = {name: [row[k] for row in rows]
               for k, name in enumerate(columns)}
        svg = line_plot(
            [Series(label, col[x], col[y], None if err is None else col[err])
             for label, y, err in series],
            title=title, xlabel=xlabel, ylabel=ylabel)
        _write_text(out / f"{stem}.svg", svg)


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, indent=1, sort_keys=True) + "\\n"``, byte for
    byte.  With an indent, json encodes in pure Python, one call per
    value; here a list of finite floats is joined in one pass of
    ``float.__repr__``, which is what json writes for each, and every
    other value goes to ``json.dumps`` itself."""
    return _json_value(doc, "\n") + "\n"


def _json_value(value, newline: str) -> str:
    # ``newline`` is a line break and the indent of the line that
    # holds ``value``; json.dumps' own output is re-indented by it,
    # since a JSON string cannot hold a raw line break
    inner = newline + " "
    if isinstance(value, dict) and value \
            and all(isinstance(key, str) for key in value):
        return "{" + inner + ("," + inner).join(
            json.dumps(key) + ": " + _json_value(value[key], inner)
            for key in sorted(value)) + newline + "}"
    if isinstance(value, (list, tuple)) and value:
        try:
            text = ("," + inner).join(map(float.__repr__, value))
        except TypeError:  # not all floats
            return "[" + inner + ("," + inner).join(
                _json_value(v, inner) for v in value) + newline + "]"
        # json writes NaN and Infinity where repr gives nan and inf
        if "n" not in text:
            return "[" + inner + text + newline + "]"
    return json.dumps(value, indent=1, sort_keys=True).replace(
        "\n", newline)


def cmd_replicate(config: SimpleNamespace, out: Path, meta: dict) -> None:
    """Phase sweep: ideal and noisy replication fidelities vs baselines."""
    phases = np.array(config.phases)
    u = phase_gate(phases)
    channel = replication_experiment_channel(phases, config.optics)
    rows = np.column_stack([
        phases,
        fidelity_replicas(phases),
        process_fidelity(channel, kron(u, u)),
        process_fidelity(channel, cu_phase(phases)),
        baseline_single_copy(phases),
        np.full(len(phases), baseline_measure_prepare()),
        np.full(len(phases), twirled_mean_fidelity(64)),
        optimal_cloner_fidelity(phases),
    ]).tolist()
    columns = ["phi", "f_uu_ideal", "f_uu_noisy", "f_cu_noisy",
               "baseline_single_copy", "baseline_measure_prepare",
               "twirled_mean", "optimal_cloner"]
    _write_table(config, out, meta, "replicate", columns, rows, (
        "replication fidelity vs phase", "phi", "phase (rad)",
        "process fidelity",
        [("two-copy ideal", "f_uu_ideal", None),
         ("two-copy noisy", "f_uu_noisy", None),
         ("controlled-U noisy", "f_cu_noisy", None),
         ("optimal cloner", "optimal_cloner", None)]))


def cmd_superrep(config: SimpleNamespace, out: Path, meta: dict) -> None:
    """Worst-case replication fidelity along an N -> M = N^(2-alpha) law."""
    grid = np.linspace(0.0, math.pi, config.phi_grid_size)
    sweep = asymptotic_sweep(config.alpha, list(config.n_list),
                             phi_grid=grid,
                             m_list=list(config.m_list)
                             if config.m_list is not None else None)
    rows = [[r.copies, r.replicas, r.alpha, r.worst_phi, r.worst_fidelity]
            for r in sweep]
    columns = ["n", "m", "alpha", "phi", "fidelity"]
    _write_table(config, out, meta, "superrep", columns, rows, (
        "superreplication worst-case fidelity", "n", "input copies N",
        "fidelity", [("worst-case fidelity", "fidelity", None)]))


def cmd_tomo(config: SimpleNamespace, out: Path, meta: dict) -> None:
    """Simulated counts -> MLE reconstruction -> fidelities and fit."""
    report = tomo.experiment_pipeline(config.optics, config.phases,
                                      config.rate, config.trials, config.seed)

    columns = ["phi", "f_cu", "f_cu_std", "f_uu", "f_uu_std",
               "iterations", "converged", "optimality_gap"]
    rows = [[getattr(r, c) for c in columns] for r in report.rows]
    _write_table(config, out, meta, "fidelities", columns, rows, (
        "reconstructed process fidelities", "phi", "phase (rad)",
        "process fidelity",
        [("F_CU", "f_cu", "f_cu_std"), ("F_UU", "f_uu", "f_uu_std")]))

    # after fidelities.csv, whose write made the directory
    counts_tmp = out / "counts.csv.tmp"
    tomo.write_datasets_csv(counts_tmp, [r.dataset for r in report.rows],
                            tomo.default_design(),
                            header_lines=_metadata_lines(meta))
    os.replace(counts_tmp, out / "counts.csv")

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

    report_doc = _canonical({
        "metadata": meta,
        "rate": report.rate,
        "trials": report.trials,
        "phases": report.phases,
        "rows": [dict(zip(columns, row)) for row in rows],
        "mean_f_cu": np.mean([r.f_cu for r in report.rows]),
        "mean_f_uu": np.mean([r.f_uu for r in report.rows]),
        "fit": report.fit,
    })
    _write_text(out / "report.json", _json_text(report_doc))


def cmd_optics_scan(config: SimpleNamespace, out: Path, meta: dict) -> None:
    """Sweep one imperfection parameter and record gate fidelities.

    The values form one params stack, whose build checks each against
    its optics field before anything is computed.  The scan makes two
    optical builds whatever its length: one ``effective_toffoli`` for
    the Toffoli fidelity and success probability, one
    ``replication_experiment_channel`` for the controlled-U fidelity.
    Rows at visibility 1 or 0, or at zero jitter, carry zero-weight
    Kraus operators, which the fidelities ignore.
    """
    stack = [dataclasses.replace(config.optics, **{config.parameter: value})
             for value in config.values]
    kraus, success = effective_toffoli(stack)
    f_toffoli = process_fidelity(kraus, toffoli())
    f_cu = process_fidelity(replication_experiment_channel(config.phi, stack),
                            cu_phase(config.phi))
    rows = [[config.parameter, *cells] for cells in zip(
        config.values, f_toffoli.tolist(), f_cu.tolist(), success.tolist())]
    columns = ["parameter", "value", "f_toffoli", "f_cu", "success"]
    _write_table(config, out, meta, "optics_scan", columns, rows, (
        f"imperfection sweep: {config.parameter}", "value", config.parameter,
        "value", [("Toffoli fidelity", "f_toffoli", None),
                  ("controlled-U fidelity", "f_cu", None),
                  ("success probability", "success", None)]))


class _Command(NamedTuple):
    run: Callable[[SimpleNamespace, Path, dict], None]
    help: str
    # the result-affecting config keys the command reads; these and only
    # these go into its config hash
    keys: tuple[str, ...]


_COMMANDS = {
    "replicate": _Command(
        cmd_replicate, "phase sweep of replication fidelities and baselines",
        ("phases", "preset", "optics")),
    "superrep": _Command(
        cmd_superrep, "worst-case fidelity of the N -> M protocol",
        ("alpha", "n_list", "m_list", "phi_grid_size")),
    "tomo": _Command(
        cmd_tomo, "simulated tomography pipeline",
        ("seed", "phases", "rate", "trials", "preset", "optics")),
    "optics-scan": _Command(
        cmd_optics_scan, "single-parameter optical imperfection sweep",
        ("preset", "optics", "parameter", "values", "phi")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phaserep",
                     description="phase-gate replication simulator")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)
    sub.required = True
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help,
                           description=command.help)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out-dir", dest="out_dir",
                       help=f"output directory (default ${OUT_DIR_ENV} "
                            "or ./phaserep-out)")
        for key in command.keys:
            if key in _FLAGS:
                p.add_argument(f"--{key}", **_FLAGS[key])
        p.add_argument("--svg", action="store_true", default=None,
                       help="also emit SVG figures")
    return parser


# built by the first main call, not at import so that importing stays
# cheap, and reused by later calls
_parser: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        config = resolve_config(args)
        _COMMANDS[config.command].run(config, config.out_dir,
                                      _metadata(config))
        return 0
    # before the ValueError clause: LinAlgError subclasses ValueError
    except (RuntimeError, ArithmeticError, MemoryError,
            np.linalg.LinAlgError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
