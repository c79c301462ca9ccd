"""Batch command-line front end.

Six subcommands (state, box, certify, rac, sweep, bb84) that parse state or
box specs, dispatch the library analyses, and emit deterministic reports:
identical inputs produce byte-identical output.  JSON uses sorted keys and
17-significant-digit floats; CSV follows the sweep schema; text is a short
human summary with 4-significant-digit floats.  A successful command writes
nothing to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, fields
from json.encoder import encode_basestring

import numpy as np

from .boxes import (
    Box,
    _json_floats,
    box_from_json_dict,
    box_from_state,
    box_to_json_dict,
    correlator_matrix,
    estimate_params_from_box,
    pauli_axes,
    steering_functional,
    white_noise_bb84,
)
from .decompose import (
    ATOL_CANONICAL,
    DEFAULT_TOL,
    _check_tol,
    canonical_split_2set,
    canonical_split_3set,
    certify_quantumness,
    schrodinger_strength_bb84,
    schrodinger_strength_bd,
    steering_cost_bb84,
)
from .errors import DegenerateAxis, OutOfRange, ParseError, UnsteerError
from .rac import (
    MIN_STEP,
    optimal_rac_spec,
    rac_classical_bound,
    rac_efficiency_bd,
    simulate_rac,
    sweep_csv_lines,
    sweep_separable_max,
)
from .states import (
    BellDiagonalParams,
    bd_eigenvalues,
    bell_diagonal,
    canonical_form,
    geometric_discord,
    is_separable_bd,
)
from .version import __version__

BB84_CSV_HEADER = "v,functional,cost,strength,verdict"


@dataclass(frozen=True)
class CommandSpec:
    """Resolved invocation: one command, one input source, bounded options."""

    command: str
    c: str | None = None
    state: str | None = None
    box: str | None = None
    n: int = 2
    dim: int = 2
    tol: float = DEFAULT_TOL
    step: float = 0.01
    v: float | None = None
    out: str | None = None
    fmt: str | None = None  # the parser sets the command's default format

    def __post_init__(self):
        # Reports echo tol, so a NaN would also make the JSON invalid.
        _check_tol(self.tol)


@dataclass(frozen=True)
class Report:
    """Deterministically serializable result envelope."""

    command: str
    inputs: dict
    results: dict

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "version": __version__,
        }


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """17-significant-digit decimal, -0.0 normalized, round-trip exact."""
    return format(float(x) + 0.0, ".17g")


def _to_plain(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def dumps_deterministic(obj) -> str:
    """Compact JSON with sorted keys and fixed float formatting, so equal
    inputs serialize to equal bytes on every run and platform.  Strings are
    quoted as json.dumps(..., ensure_ascii=False) quotes them."""
    obj = _to_plain(obj)
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ",".join(
            f"{encode_basestring(str(k))}:{dumps_deterministic(v)}" for k, v in items
        )
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(dumps_deterministic, obj)) + "]"
    # None, bools and ints; anything else is a TypeError.
    return json.dumps(obj)


def _text_value(value) -> str:
    value = _to_plain(value)
    if isinstance(value, float):
        return format(value + 0.0, ".4g")
    if isinstance(value, (list, tuple)):
        flat = [_to_plain(v) for v in value]
        if all(isinstance(v, (int, float, str, bool)) for v in flat) and len(flat) <= 12:
            return "[" + ", ".join(_text_value(v) for v in flat) + "]"
        return f"<{len(flat)} items>"
    if value is None:
        return "null"
    return str(value)


def render_text(report: Report) -> str:
    """Flat human summary: dotted keys, 4-significant-digit floats."""
    lines = [f"command: {report.command}"]

    def walk(prefix: str, value):
        value = _to_plain(value)
        if isinstance(value, dict):
            for k in sorted(value, key=str):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        else:
            lines.append(f"{prefix}: {_text_value(value)}")

    walk("", report.results)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------


def _read_json(source: str, what: str):
    """Inline JSON (text starting with "{") or the path of a JSON file."""
    text = source.strip()
    if text.startswith("{"):
        origin, body = f"inline {what} JSON", text
    else:
        origin = f"{what} file {text!r}"
        try:
            with open(text, encoding="utf-8") as fh:
                body = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {origin}: {exc}") from exc
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{origin}: invalid JSON ({exc})") from exc


def _parse_triple(source: str) -> BellDiagonalParams:
    """The validated params of an inline triple "c1,c2,c3"."""
    try:
        values = [float(t) for t in source.strip().split(",")]
    except ValueError as exc:
        raise ParseError(f"inline triple {source!r} has a non-numeric component") from exc
    if len(values) != 3:
        raise ParseError(f"inline triple {source!r} has {len(values)} components, expected 3")
    return BellDiagonalParams(*values).validate()


def _parse_state_json(source: str) -> BellDiagonalParams:
    """The validated params of inline state JSON or of a state JSON file,
    {"c": [c1, c2, c3]}."""
    data = _read_json(source, "state")
    try:
        values = _json_floats(data.get("c") if isinstance(data, dict) else None)
    except (ValueError, OverflowError):
        values = None
    if values is None or values.shape != (3,):
        raise ParseError('state JSON must be an object whose "c" is a list of three numbers')
    return BellDiagonalParams(*values.tolist()).validate()


# The reader of each input source, keyed by its CommandSpec field.
_SOURCES = {
    "c": _parse_triple,
    "state": _parse_state_json,
    "box": lambda source: box_from_json_dict(_read_json(source, "box")),
}


def _load_input(spec: CommandSpec) -> BellDiagonalParams | Box:
    """The one input source the spec names: a Box for --box, else params."""
    allowed = [name for name in _COMMANDS[spec.command].flags if name in _SOURCES]
    present = [name for name in _SOURCES if getattr(spec, name)]
    if len(present) != 1:
        raise ParseError(
            f"{spec.command} needs exactly one input source "
            f"({' or '.join('--' + a for a in allowed)})"
        )
    if present[0] not in allowed:
        raise ParseError(f"{spec.command} does not accept --{present[0]}")
    return _SOURCES[present[0]](getattr(spec, present[0]))


def _params_triple(params: BellDiagonalParams) -> list[float]:
    return [params.c1, params.c2, params.c3]


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _pauli_box(params: BellDiagonalParams, n: int) -> Box:
    """The box of the canonical state, Pauli settings on both sides."""
    axes = pauli_axes(n)
    return box_from_state(bell_diagonal(canonical_form(params).canonical), axes, axes)


def _split_dict(split) -> dict:
    return {
        "weight": float(split.weight),
        "steerable_params": _params_triple(split.steerable_params),
        "unsteerable_params": _params_triple(split.unsteerable_params),
    }


def _run_state(spec: CommandSpec) -> Report:
    params = _load_input(spec)
    record = canonical_form(params)
    canon = record.canonical
    results: dict = {
        "eigenvalues": [float(v) for v in bd_eigenvalues(params)],
        "separable": bool(is_separable_bd(params)),
        "discord": float(geometric_discord(params)),
        "canonical": {
            "params": _params_triple(canon),
            "transform": [[kind, list(data)] for kind, data in record.transform],
        },
        "strength": {
            "n2": float(schrodinger_strength_bd(params, 2)),
            "n3": float(schrodinger_strength_bd(params, 3)),
        },
        "splits": {
            "n2": _split_dict(canonical_split_2set(canon)),
            "n3": (
                _split_dict(canonical_split_3set(canon))
                if canon.c3 <= ATOL_CANONICAL
                else None
            ),
        },
        "rac": {
            "classical_bound_n2": rac_classical_bound(2),
            "classical_bound_n3": rac_classical_bound(3),
            "efficiency_n2": float(rac_efficiency_bd(params, 2)),
            "efficiency_n3": float(rac_efficiency_bd(params, 3)),
        },
        "certificate": certify_quantumness(
            _pauli_box(params, spec.n), spec.n, d_A=spec.dim, tol=spec.tol
        ).to_json_dict(),
    }
    if results["splits"]["n3"] is None:
        results["splits"]["n3_skipped_reason"] = (
            "canonical c3 > 0: three-setting split undefined"
        )
    inputs = {
        "params": _params_triple(params),
        "n": spec.n,
        "dim": spec.dim,
        "tol": spec.tol,
    }
    return Report("state", inputs, results)


def _run_box(spec: CommandSpec) -> Report:
    box = _load_input(spec)
    est = estimate_params_from_box(box)
    results = {
        "n": box.n,
        "p": box.p.tolist(),
        "correlators": correlator_matrix(box).tolist(),
        "functional": float(steering_functional(box, box.n)),
        "estimated_params": _params_triple(est),
    }
    return Report("box", {"box": box_to_json_dict(box)}, results)


def _run_certify(spec: CommandSpec) -> Report:
    source = _load_input(spec)
    if isinstance(source, Box):
        box = source
        inputs: dict = {"box": box_to_json_dict(box)}
    else:
        box = _pauli_box(source, spec.n)
        inputs = {"params": _params_triple(source)}
    inputs.update({"n": spec.n, "dim": spec.dim, "tol": spec.tol})
    cert = certify_quantumness(box, spec.n, d_A=spec.dim, tol=spec.tol)
    return Report("certify", inputs, cert.to_json_dict())


def _run_rac(spec: CommandSpec) -> Report:
    params = _load_input(spec)
    efficiency = float(rac_efficiency_bd(params, spec.n))
    results: dict = {
        "n": spec.n,
        "classical_bound": rac_classical_bound(spec.n),
        "efficiency": efficiency,
        "beats_classical": bool(efficiency > rac_classical_bound(spec.n) + 1e-12),
    }
    try:
        rac_spec = optimal_rac_spec(params, spec.n)
    except DegenerateAxis:
        results["simulation"] = None
        results["simulation_skipped_reason"] = (
            "a relevant canonical axis vanishes; closed form extends by continuity"
        )
    else:
        sim = simulate_rac(rac_spec)
        results["simulation"] = {
            "p_min": float(sim.p_min),
            "table": sim.table.tolist(),
            "encodings": rac_spec.encodings.tolist(),
            "deviation_from_closed_form": abs(float(sim.p_min) - efficiency),
        }
    inputs = {"params": _params_triple(params), "n": spec.n}
    return Report("rac", inputs, results)


def _run_sweep(spec: CommandSpec) -> Report:
    sweep = sweep_separable_max(spec.n, spec.step)
    rows = [[*row[:3], True, *row[3:]] for row in sweep.columns.tolist()]
    results = {
        "n": sweep.n,
        "step": sweep.step,
        "count": len(rows),
        "strength_max": {
            "params": _params_triple(sweep.strength_argmax),
            "value": sweep.strength_max,
        },
        "efficiency_max": {
            "params": _params_triple(sweep.efficiency_argmax),
            "value": sweep.efficiency_max,
        },
        "witness_pair": (
            list(sweep.witness_pair) if sweep.witness_pair is not None else None
        ),
        "rows": rows,
    }
    return Report("sweep", {"n": spec.n, "step": spec.step}, results)


def _sweep_csv(spec: CommandSpec) -> list[str]:
    # Written from the grid columns; the JSON rows are never built.
    return sweep_csv_lines(sweep_separable_max(spec.n, spec.step))


def _bb84_row(v: float, spec: CommandSpec) -> dict:
    box = white_noise_bb84(v)
    strength, _ = schrodinger_strength_bb84(v)
    cert = certify_quantumness(box, 2, d_A=spec.dim, tol=spec.tol)
    return {
        "v": v,
        "functional": float(steering_functional(box, 2)),
        "cost": float(steering_cost_bb84(v)),
        "strength": float(strength),
        "verdict": cert.verdict,
    }


def _run_bb84(spec: CommandSpec) -> Report:
    if spec.v is not None:
        grid, inputs = [spec.v], {"v": spec.v}
    else:
        if not MIN_STEP <= spec.step <= 1.0:
            raise OutOfRange(f"step must lie in [{MIN_STEP}, 1], got {spec.step}")
        # The grid always ends at V = 1, also when the step does not divide 1.
        count = math.ceil(1.0 / spec.step - 1e-9)
        grid = [i * spec.step for i in range(count)] + [1.0]
        inputs = {"step": spec.step}
    rows = [_bb84_row(v, spec) for v in grid]
    return Report("bb84", {**inputs, "dim": spec.dim, "tol": spec.tol}, {"rows": rows})


def _bb84_csv(spec: CommandSpec) -> list[str]:
    lines = [BB84_CSV_HEADER]
    for row in _run_bb84(spec).results["rows"]:
        values = [format_float(row[key]) for key in ("v", "functional", "cost", "strength")]
        lines.append(",".join([*values, row["verdict"]]))
    return lines


# ---------------------------------------------------------------------------
# Command table, dispatch, entry points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Command:
    """One subcommand, declared once: the parser, run and main read only this."""

    help: str
    flags: tuple[str, ...]  # the CommandSpec fields it reads; others exit 2
    handler: Callable[[CommandSpec], Report]
    formats: tuple[str, ...] = ("json", "text")  # the default first
    csv: Callable[[CommandSpec], list[str]] | None = None


_COMMANDS = {
    "state": _Command(
        "full analysis of a Bell-diagonal state", ("c", "state", "n", "dim", "tol"), _run_state
    ),
    "box": _Command("inspect a behavior table", ("box",), _run_box),
    "certify": _Command(
        "certify a state or box", ("c", "state", "box", "n", "dim", "tol"), _run_certify
    ),
    "rac": _Command("random access code efficiencies", ("c", "state", "n"), _run_rac),
    "sweep": _Command(
        "grid sweep over separable states", ("n", "step"), _run_sweep,
        ("csv", "json", "text"), _sweep_csv,
    ),
    "bb84": _Command(
        "white-noise family: cost, strength, verdict", ("dim", "tol", "v", "step"), _run_bb84,
        ("json", "text", "csv"), _bb84_csv,
    ),
}


def run(spec: CommandSpec) -> Report:
    """Execute one command spec and return its report.

    Raises:
        ParseError and the library's validation errors on bad input; anything
        else indicates an internal fault.
    """
    command = _COMMANDS.get(spec.command)
    if command is None:
        raise ParseError(f"unknown command {spec.command!r}")
    return command.handler(spec)


# add_argument settings of every flag, keyed by its CommandSpec field.
_FLAGS = {
    "c": ("--c", {"help": "inline triple c1,c2,c3"}),
    "state": ("--state", {"help": "state JSON file or inline JSON"}),
    "box": ("--box", {"help": "box JSON file or inline JSON"}),
    "n": ("--n", {"type": int, "choices": (2, 3)}),
    "dim": ("--dim", {"type": int, "help": "hidden-state dimension bound"}),
    "tol": ("--tol", {"type": float}),
    "v": ("--v", {"type": float, "help": "single visibility instead of a grid"}),
    "step": ("--step", {"type": float}),
    "out": ("--out", {"help": "write the report here instead of stdout"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unsteer",
        description=(
            "Nonclassicality of two-qubit Bell-diagonal states: steering "
            "functionals, convex splits, bounded hidden-state models, and "
            "random access code efficiencies."
        ),
    )
    parser.add_argument("--version", action="version", version=f"unsteer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # Every command's namespace carries every CommandSpec field, with the
    # defaults declared there; the format defaults to the command's first.
    defaults = {
        f.name: f.default for f in fields(CommandSpec) if f.name not in ("command", "fmt")
    }
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in (*command.flags, "out"):
            option, settings = _FLAGS[flag]
            p.add_argument(option, **settings)
        p.add_argument("--format", dest="fmt", choices=command.formats)
        p.set_defaults(**defaults, fmt=command.formats[0])
    return parser


def main(argv: list[str] | None = None) -> int:
    """Returns 0 on success, 2 on validation errors, 1 on internal faults."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        spec = CommandSpec(**vars(args))
        if spec.fmt == "csv":
            payload = "\n".join(_COMMANDS[spec.command].csv(spec)) + "\n"
        elif spec.fmt == "text":
            payload = render_text(run(spec))
        else:
            payload = dumps_deterministic(run(spec).to_json_dict()) + "\n"
        if not spec.out:
            sys.stdout.write(payload)
        else:
            try:
                directory = os.path.dirname(spec.out)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                with open(spec.out, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            except OSError as exc:
                raise ParseError(f"cannot write report file {spec.out!r}: {exc}") from exc
    except UnsteerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main_entry() -> None:
    raise SystemExit(main())
