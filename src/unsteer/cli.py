"""Batch command-line front end.

Six subcommands (state, box, certify, rac, sweep, bb84) that parse state or
box specs, dispatch the library analyses, and emit deterministic reports:
identical inputs produce byte-identical output.  JSON uses sorted keys and
17-significant-digit floats; CSV follows the sweep schema; text is a short
human summary with 4-significant-digit floats.  Timing goes to stderr only,
so it never perturbs report bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .boxes import (
    Box,
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
    SweepReport,
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
    tol: float = 1e-9
    step: float = 0.01
    v: float | None = None
    out: str | None = None
    fmt: str | None = None  # None resolves to the command default

    def __post_init__(self):
        # Reports echo tol, so a NaN would also make the JSON invalid.
        if not 0.0 <= self.tol < math.inf:
            raise OutOfRange(f"tol must be finite and >= 0, got {self.tol}")


@dataclass(frozen=True)
class Report:
    """Deterministically serializable result envelope."""

    command: str
    inputs: dict
    results: dict
    version: str = __version__

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "version": self.version,
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
    inputs serialize to equal bytes on every run and platform."""
    obj = _to_plain(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ",".join(
            f"{json.dumps(str(k), ensure_ascii=False)}:{dumps_deterministic(v)}"
            for k, v in items
        )
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_deterministic(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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


def _params_from_json_text(text: str, origin: str) -> BellDiagonalParams:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{origin}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict) or "c" not in data:
        raise ParseError(f'{origin}: expected an object with a "c" key')
    c = data["c"]
    if not isinstance(c, (list, tuple)) or len(c) != 3:
        raise ParseError(f'{origin}: "c" must be a list of three numbers')
    try:
        values = [float(v) for v in c]
    except (TypeError, ValueError) as exc:
        raise ParseError(f'{origin}: "c" must be a list of three numbers') from exc
    return BellDiagonalParams(*values)


def parse_state_spec(source: str) -> BellDiagonalParams:
    """Inline triple "c1,c2,c3", inline JSON, or a path to a JSON file.

    Returns:
        Validated parameters; the rejection message for an unphysical triple
        names the negative eigenvalue.

    Raises:
        ParseError: unreadable input or malformed schema.
        UnphysicalParams: valid syntax, invalid state.
    """
    text = source.strip()
    if text.startswith("{"):
        params = _params_from_json_text(text, "inline JSON")
    else:
        tokens = text.split(",")
        if len(tokens) == 3:
            try:
                params = BellDiagonalParams(*(float(t) for t in tokens))
            except ValueError as exc:
                raise ParseError(
                    f"inline triple {source!r} has a non-numeric component"
                ) from exc
        else:
            try:
                with open(text, encoding="utf-8") as fh:
                    body = fh.read()
            except OSError as exc:
                raise ParseError(f"cannot read state file {text!r}: {exc}") from exc
            params = _params_from_json_text(body, text)
    params.validate()
    return params


def _load_box(source: str) -> Box:
    text = source.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"inline box JSON: {exc}") from exc
    else:
        try:
            with open(text, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read box file {text!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"box file {text!r}: invalid JSON ({exc})") from exc
    return box_from_json_dict(data)


def _single_source(spec: CommandSpec, allowed: tuple[str, ...]) -> str:
    present = [name for name in ("c", "state", "box") if getattr(spec, name)]
    if len(present) != 1:
        raise ParseError(
            f"{spec.command} needs exactly one input source "
            f"({' or '.join('--' + a for a in allowed)})"
        )
    if present[0] not in allowed:
        raise ParseError(f"{spec.command} does not accept --{present[0]}")
    return present[0]


def _params_triple(params: BellDiagonalParams) -> list[float]:
    return [params.c1, params.c2, params.c3]


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _certificate_dict(params_canonical: BellDiagonalParams, spec: CommandSpec) -> dict:
    axes = pauli_axes(spec.n)
    box = box_from_state(bell_diagonal(params_canonical), axes, axes)
    cert = certify_quantumness(box, spec.n, d_A=spec.dim, tol=spec.tol)
    return cert.to_json_dict()


def _split_dict(split) -> dict:
    return {
        "weight": float(split.weight),
        "steerable_params": _params_triple(split.steerable_params),
        "unsteerable_params": _params_triple(split.unsteerable_params),
    }


def _run_state(spec: CommandSpec) -> Report:
    source = _single_source(spec, ("c", "state"))
    params = parse_state_spec(spec.c if source == "c" else spec.state)
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
                if canon.c3 <= 1e-12
                else None
            ),
        },
        "rac": {
            "classical_bound_n2": rac_classical_bound(2),
            "classical_bound_n3": rac_classical_bound(3),
            "efficiency_n2": float(rac_efficiency_bd(params, 2)),
            "efficiency_n3": float(rac_efficiency_bd(params, 3)),
        },
        "certificate": _certificate_dict(canon, spec),
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
    _single_source(spec, ("box",))
    box = _load_box(spec.box)
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
    source = _single_source(spec, ("c", "state", "box"))
    if source == "box":
        box = _load_box(spec.box)
        inputs: dict = {"box": box_to_json_dict(box)}
    else:
        params = parse_state_spec(spec.c if source == "c" else spec.state)
        canon = canonical_form(params).canonical
        axes = pauli_axes(spec.n)
        box = box_from_state(bell_diagonal(canon), axes, axes)
        inputs = {"params": _params_triple(params)}
    inputs.update({"n": spec.n, "dim": spec.dim, "tol": spec.tol})
    cert = certify_quantumness(box, spec.n, d_A=spec.dim, tol=spec.tol)
    return Report("certify", inputs, cert.to_json_dict())


def _run_rac(spec: CommandSpec) -> Report:
    source = _single_source(spec, ("c", "state"))
    params = parse_state_spec(spec.c if source == "c" else spec.state)
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


def _sweep_results(report: SweepReport) -> dict:
    rows = [
        [
            float(t[0]),
            float(t[1]),
            float(t[2]),
            True,
            float(s),
            float(e),
            float(d),
        ]
        for t, s, e, d in zip(
            report.triples, report.strength, report.efficiency, report.discord
        )
    ]
    return {
        "n": report.n,
        "step": report.step,
        "count": len(rows),
        "strength_max": {
            "params": _params_triple(report.strength_argmax),
            "value": report.strength_max,
        },
        "efficiency_max": {
            "params": _params_triple(report.efficiency_argmax),
            "value": report.efficiency_max,
        },
        "witness_pair": (
            list(report.witness_pair) if report.witness_pair is not None else None
        ),
        "rows": rows,
    }


def _run_sweep(spec: CommandSpec) -> Report:
    sweep = sweep_separable_max(spec.n, spec.step)
    inputs = {"n": spec.n, "step": spec.step}
    return Report("sweep", inputs, _sweep_results(sweep))


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
        rows = [_bb84_row(spec.v, spec)]
        inputs: dict = {"v": spec.v, "dim": spec.dim, "tol": spec.tol}
    else:
        if not MIN_STEP <= spec.step <= 1.0:
            raise OutOfRange(f"step must lie in [{MIN_STEP}, 1], got {spec.step}")
        # The grid always ends at V = 1, also when the step does not divide 1.
        count = math.ceil(1.0 / spec.step - 1e-9)
        grid = [i * spec.step for i in range(count)] + [1.0]
        rows = [_bb84_row(v, spec) for v in grid]
        inputs = {"step": spec.step, "dim": spec.dim, "tol": spec.tol}
    return Report("bb84", inputs, {"rows": rows})


# ---------------------------------------------------------------------------
# Dispatch, rendering, entry points
# ---------------------------------------------------------------------------


def run(spec: CommandSpec) -> Report:
    """Execute one command spec and return its report.

    Raises:
        ParseError and the library's validation errors on bad input; anything
        else indicates an internal fault.
    """
    if spec.command == "state":
        return _run_state(spec)
    if spec.command == "box":
        return _run_box(spec)
    if spec.command == "certify":
        return _run_certify(spec)
    if spec.command == "rac":
        return _run_rac(spec)
    if spec.command == "sweep":
        return _run_sweep(spec)
    if spec.command == "bb84":
        return _run_bb84(spec)
    raise ParseError(f"unknown command {spec.command!r}")


def _resolve_format(spec: CommandSpec) -> str:
    if spec.fmt is not None:
        return spec.fmt
    return "csv" if spec.command == "sweep" else "json"


def _render(spec: CommandSpec, report: Report) -> str:
    fmt = _resolve_format(spec)
    if fmt == "json":
        return dumps_deterministic(report.to_json_dict()) + "\n"
    if fmt == "text":
        return render_text(report)
    if fmt == "csv":
        if spec.command == "bb84":
            lines = [BB84_CSV_HEADER]
            for row in report.results["rows"]:
                lines.append(
                    ",".join(
                        [
                            format_float(row["v"]),
                            format_float(row["functional"]),
                            format_float(row["cost"]),
                            format_float(row["strength"]),
                            row["verdict"],
                        ]
                    )
                )
            return "\n".join(lines) + "\n"
        raise ParseError("csv format is only available for sweep and bb84")
    raise ParseError(f"unknown format {fmt!r}")


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
    "fmt": ("--format", {"choices": ("json", "csv", "text"), "dest": "fmt"}),
}

# Each command accepts only the flags it reads, so an ignored flag exits 2.
_COMMANDS = (
    ("state", "full analysis of a Bell-diagonal state", ("c", "state", "n", "dim", "tol")),
    ("box", "inspect a behavior table", ("box",)),
    ("certify", "certify a state or box", ("c", "state", "box", "n", "dim", "tol")),
    ("rac", "random access code efficiencies", ("c", "state", "n")),
    ("sweep", "grid sweep over separable states", ("n", "step")),
    ("bb84", "white-noise family: cost, strength, verdict", ("dim", "tol", "v", "step")),
)


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
    # defaults declared there.
    defaults = {f.name: f.default for f in fields(CommandSpec) if f.name != "command"}
    for command, help_text, flags in _COMMANDS:
        p = sub.add_parser(command, help=help_text)
        for flag in (*flags, "out", "fmt"):
            name, settings = _FLAGS[flag]
            p.add_argument(name, **settings)
        p.set_defaults(**defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Returns 0 on success, 2 on validation errors, 1 on internal faults."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    started = time.perf_counter()
    try:
        spec = CommandSpec(**vars(args))
        if spec.command == "sweep" and _resolve_format(spec) == "csv":
            # The CSV is written from the grid columns; the JSON rows are not built.
            sweep = sweep_separable_max(spec.n, spec.step)
            payload = "\n".join(sweep_csv_lines(sweep)) + "\n"
        else:
            payload = _render(spec, run(spec))
    except UnsteerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if spec.out:
        directory = os.path.dirname(spec.out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(spec.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    elapsed = time.perf_counter() - started
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return 0


def main_entry() -> None:
    raise SystemExit(main())
