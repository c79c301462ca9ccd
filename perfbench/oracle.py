"""Output checks written independently of the code under test.

Every check recomputes what it compares against from first principles (the
Born rule for Bell-diagonal states, closed forms, a model's own
reconstruction) with plain numpy, and never calls into unsteer.  A check
raises CheckFailed; the benchmark counts the item as failed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
EYE2 = np.eye(2, dtype=complex)

# Slacks the library documents for its own acceptance of a model.
MODEL_TOL = 1e-9
WEIGHT_SLACK = 1e-10
BLOCH_SLACK = 1e-10
WITNESS_THRESHOLD = 1.0 + 1e-9

VERDICTS = (
    "WITNESSED_STEERABLE",
    "SUPERUNSTEERABLE",
    "CLASSICAL_AT_DIMENSION",
    "UNDECIDED",
)


class CheckFailed(Exception):
    """An output disagreed with the independent recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(actual, expected, atol: float, what: str) -> None:
    actual = np.asarray(actual, dtype=complex if np.iscomplexobj(actual) else float)
    expected = np.asarray(expected)
    require(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    dev = float(np.abs(actual - expected).max()) if actual.size else 0.0
    require(dev <= atol, f"{what}: deviation {dev:.3g} > {atol:.1g}")


# ---------------------------------------------------------------------------
# Independent physics
# ---------------------------------------------------------------------------


def bd_eigenvalues(c) -> np.ndarray:
    """Spectrum of (1 + sum_i c_i s_i s_i)/4, from the tetrahedron's faces."""
    c1, c2, c3 = c
    return np.array(
        [1 + c1 - c2 + c3, 1 + c1 + c2 - c3, 1 - c1 + c2 + c3, 1 - c1 - c2 - c3]
    ) / 4.0


def bd_rho(c) -> np.ndarray:
    rho = np.eye(4, dtype=complex)
    for ci, s in zip(c, PAULI):
        rho = rho + ci * np.einsum("ij,kl->ikjl", s, s).reshape(4, 4)
    return rho / 4.0


def bd_box(c, alice, bob) -> np.ndarray:
    """p(ab|xy) = (1 + (-1)^(a+b) alpha_x . diag(c) . beta_y) / 4."""
    corr = np.asarray(alice) @ np.diag(c) @ np.asarray(bob).T
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return (1.0 + corr[:, :, None, None] * sign) / 4.0


def bd_assemblage(c, alice) -> np.ndarray:
    """sigma(a|x) = (1 + (-1)^a sum_i c_i n_i sigma_i) / 4, shape (2, n, 2, 2)."""
    alice = np.asarray(alice)
    out = np.empty((2, alice.shape[0], 2, 2), dtype=complex)
    for x, direction in enumerate(alice):
        op = np.einsum("i,ijk->jk", np.asarray(c) * direction, PAULI)
        for a in (0, 1):
            out[a, x] = (EYE2 + (-1) ** a * op) / 4.0
    return out


def correlators(p) -> np.ndarray:
    p = np.asarray(p)
    return p[:, :, 0, 0] - p[:, :, 0, 1] - p[:, :, 1, 0] + p[:, :, 1, 1]


def functional(p) -> float:
    n = np.asarray(p).shape[0]
    return float(np.abs(np.diag(correlators(p))).sum() / math.sqrt(n))


def rac_closed_form(c, n: int) -> float:
    """(1/2)(1 + 1/sqrt(sum_{i<n} 1/c_i'^2)), c' the magnitudes sorted down."""
    mags = sorted((abs(v) for v in c), reverse=True)[:n]
    if min(mags) == 0.0:
        return 0.5
    return 0.5 * (1.0 + 1.0 / math.sqrt(sum(1.0 / m**2 for m in mags)))


def model_box(weights, tables, states, directions) -> np.ndarray:
    """p(ab|xy) = sum_l w_l T_l(a|x) (1 + (-1)^b r_l . dir_y) / 2."""
    overlap = np.asarray(states) @ np.asarray(directions).T
    bob = np.stack([(1 + overlap) / 2, (1 - overlap) / 2], axis=-1)
    return np.einsum("l,lxa,lyb->xyab", np.asarray(weights), np.asarray(tables), bob)


def stirling2(m: int, k: int) -> int:
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** m for j in range(k + 1)) // math.factorial(k)


def search_case_count(n: int, d: int) -> int:
    """Cases an exhaustive bounded search must cover: deterministic slot
    assignments (multisets of size d over 2^n strategies) plus groupings of
    d' > d distinct strategies into d classes."""
    s = 2**n
    phase1 = math.comb(s + d - 1, d)
    phase2 = sum(math.comb(s, dp) * stirling2(dp, d) for dp in range(d + 1, s + 1))
    return phase1 + phase2


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------


def check_canonical(c, canon) -> None:
    mags = sorted((abs(v) for v in c), reverse=True)
    close(np.abs(canon), mags, 0.0, "canonical magnitudes")
    require(canon[0] >= 0.0 and canon[1] >= 0.0, f"canonical signs {canon}")
    close(np.prod(canon), np.prod(c), 1e-15, "canonical product")


def check_born(item: dict, out: dict) -> None:
    c, n = item["c"], item["n"]
    alice, bob = np.asarray(item["alice"]), np.asarray(item["bob"])
    close(out["rho"], bd_rho(c), 1e-12, "bell_diagonal")
    close(out["box"], bd_box(c, alice, bob), 1e-12, "box_from_state")
    close(out["sigma"], bd_assemblage(c, alice), 1e-12, "assemblage_from_state")
    corr = alice @ np.diag(c) @ bob.T
    close(out["correlators"], corr, 1e-12, "correlator_matrix")
    close(out["functional"], np.abs(np.diag(corr)).sum() / math.sqrt(n), 1e-12, "steering_functional")
    canon = out["canonical"]
    check_canonical(c, canon)
    w = out["split_weight"]
    close(w, canon[1], 0.0, "split weight")
    recon = w * np.asarray(out["split_steerable"]) + (1 - w) * np.asarray(out["split_unsteerable"])
    close(recon, bd_rho(canon), 1e-12, "split reconstruction")
    close(out["split_unsteerable"], bd_rho(out["split_remainder"]), 1e-12, "split remainder state")
    require(
        sum(abs(v) for v in out["split_remainder"]) <= 1.0 + 1e-12,
        f"split remainder {out['split_remainder']} is not separable",
    )
    closed = rac_closed_form(c, n)
    close(out["rac_efficiency"], closed, 1e-12, "rac_efficiency_bd")
    close(out["rac_p_min"], closed, 1e-12, "simulate_rac p_min")
    close(np.min(out["rac_table"]), out["rac_p_min"], 0.0, "simulate_rac table minimum")


def check_model(model: dict, p: np.ndarray, max_dim: int) -> None:
    w = np.asarray(model["weights"], dtype=float)
    tables = np.asarray(model["alice_tables"], dtype=float)
    states = np.asarray(model["bob_states"], dtype=float)
    dirs = np.asarray(model["bob_directions"], dtype=float)
    dim = int(model["dimension"])
    require(len(w) == dim <= max_dim, f"model dimension {dim} ({len(w)} weights), bound {max_dim}")
    require(w.min() >= -WEIGHT_SLACK and abs(w.sum() - 1) <= 1e-9, f"weights {w}")
    require(tables.min() >= -WEIGHT_SLACK, "negative Alice response probability")
    require(np.abs(tables.sum(axis=2) - 1).max() <= 1e-9, "non-stochastic Alice table")
    norms = np.linalg.norm(states, axis=1)
    require(norms.max() <= 1 + BLOCH_SLACK, f"Bloch norm {norms.max():.6g} exceeds 1")
    close(model_box(w, tables, states, dirs), p, MODEL_TOL + 1e-12, "model reconstruction")


def check_certificate(item: dict, cert: dict) -> None:
    p = np.asarray(item["p"])
    n, d = item["n"], item["d"]
    verdict = cert["verdict"]
    require(verdict in VERDICTS, f"unknown verdict {verdict!r}")
    f_own = functional(p)
    close(cert["functional"], f_own, 1e-12, "certificate functional")
    require(
        (verdict == "WITNESSED_STEERABLE") == (f_own > WITNESS_THRESHOLD),
        f"verdict {verdict} with functional {f_own!r}",
    )
    d_gen = item.get("d_gen")
    if d_gen is not None and d >= d_gen:
        require(
            verdict not in ("WITNESSED_STEERABLE", "SUPERUNSTEERABLE"),
            f"box of a {d_gen}-class model called infeasible at d = {d}",
        )
    model, trace = cert["model"], cert["trace"]
    if verdict == "CLASSICAL_AT_DIMENSION":
        require(model is not None and not trace, "classical verdict needs a model and no trace")
        check_model(model, p, d)
    elif verdict == "SUPERUNSTEERABLE":
        require(model is not None, "superunsteerable verdict without its top model")
        check_model(model, p, 2**n)
        require(len(trace) == search_case_count(n, d), f"trace has {len(trace)} cases")
        require(all(case["violated"] != "unresolved" for case in trace), "unsound trace")
    elif verdict == "UNDECIDED":
        require(model is None and trace, "undecided verdict needs a trace and no model")
    else:
        require(model is None and not trace, "witnessed verdict carries no search")


def check_optimize_rac(item: dict, out: dict) -> None:
    closed = rac_closed_form(item["c"], item["n"])
    require(abs(out["p_min"] - closed) <= 1e-6, f"optimize_rac {out['p_min']!r} vs closed form {closed!r}")
    table = np.asarray(out["table"])
    require(table.shape == (2 ** item["n"], item["n"]), f"table shape {table.shape}")
    close(table.min(), out["p_min"], 0.0, "optimize_rac table minimum")


def check_search_item(item: dict, out: dict) -> None:
    if item["kind"] == "optimize_rac":
        check_optimize_rac(item, out)
    else:
        check_certificate(item, out)


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------


def sweep_grid_size(step: float) -> int:
    """Canonical separable triples (c1 >= c2 >= |c3|, c1 + c2 + |c3| <= 1)
    on the grid, both signs of a nonzero c3."""
    m = int(round(1 / step))
    count = 0
    for i1 in range(m + 1):
        for i2 in range(min(i1, m - i1) + 1):
            top = min(i2, m - i1 - i2)
            count += 2 * top + 1
    return count


def check_cli(item: dict, returncode: int, stdout: str) -> None:
    require(returncode == 0, f"exit code {returncode}")
    cmd = item["cmd"]
    if cmd == "sweep":
        check_sweep_csv(stdout, item["n"], item["step"])
        return
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{cmd}: stdout is not JSON ({exc})") from None
    require(report.get("command") == cmd, f"report command {report.get('command')!r}")
    results = report["results"]
    if cmd == "state":
        c = item["c"]
        close(results["eigenvalues"], bd_eigenvalues(c), 1e-12, "state eigenvalues")
        require(results["separable"] == (max(bd_eigenvalues(c)) <= 0.5 + 1e-12), "state separable flag")
        check_canonical(c, results["canonical"]["params"])
        for n in (2, 3):
            close(results["rac"][f"efficiency_n{n}"], rac_closed_form(c, n), 1e-12, f"state efficiency n={n}")
        canon = results["canonical"]["params"]
        box_item = {"p": bd_box(canon, np.eye(3)[:2], np.eye(3)[:2]), "n": 2, "d": 2}
        check_certificate(box_item, results["certificate"])
    elif cmd == "certify":
        if item.get("box") is not None:
            p = np.asarray(item["box"])
        else:
            canon = sorted((abs(v) for v in item["c"]), reverse=True)
            canon[2] = math.copysign(canon[2], np.prod(item["c"]))
            p = bd_box(canon, np.eye(3), np.eye(3))
        check_certificate({"p": p, "n": 3, "d": 3}, results)
    elif cmd == "rac":
        closed = rac_closed_form(item["c"], 3)
        close(results["efficiency"], closed, 1e-12, "rac efficiency")
        close(results["simulation"]["p_min"], closed, 1e-12, "rac simulated p_min")
    elif cmd == "bb84":
        rows = results["rows"]
        count = int(round(1 / item["step"]))
        require(len(rows) == count + 1, f"bb84 has {len(rows)} rows")
        for i, row in enumerate(rows):
            v = min(1.0, i * item["step"])
            close(row["v"], v, 1e-15, "bb84 visibility")
            f = math.sqrt(2) * v
            close(row["functional"], f, 1e-12, "bb84 functional")
            close(row["cost"], max(0.0, (f - 1) / (math.sqrt(2) - 1)), 1e-12, "bb84 cost")
            close(row["strength"], v, 0.0, "bb84 strength")
            require((row["verdict"] == "WITNESSED_STEERABLE") == (f > WITNESS_THRESHOLD), f"bb84 verdict at v={v}")
    else:
        raise CheckFailed(f"no check for command {cmd!r}")


def check_sweep_csv(text: str, n: int, step: float) -> None:
    require(text.endswith("\n"), "sweep CSV does not end with a newline")
    rows = list(csv.reader(io.StringIO(text)))
    require(rows and rows[0] == ["c1", "c2", "c3", "separable", "strength_n", "efficiency_n", "discord"],
            f"sweep CSV header {rows[0] if rows else None}")
    body = rows[1:]
    require(len(body) == sweep_grid_size(step), f"sweep CSV has {len(body)} rows")
    require(all(len(r) == 7 and r[3] == "true" for r in body), "malformed sweep CSV row")
    values = np.array([[float(v) for i, v in enumerate(r) if i != 3] for r in body])
    c1, c2, c3, strength, eff, discord = values.T
    require(bool(np.all(c1 + c2 + np.abs(c3) <= 1 + 1e-12)), "sweep row outside the separable region")
    require(bool(np.all((c1 >= c2) & (c2 >= np.abs(c3)))), "sweep row not canonical")
    close(strength, np.abs(c3) if n == 3 else c2, 0.0, "sweep strength")
    close(discord, (c2**2 + c3**2) / 2, 1e-15, "sweep discord")
    mags = values[:, :n]
    with np.errstate(divide="ignore"):
        closed = np.where(np.any(mags == 0, axis=1), 0.5, 0.5 * (1 + 1 / np.sqrt((1 / mags**2).sum(axis=1))))
    close(eff, closed, 1e-12, "sweep efficiency")


# ---------------------------------------------------------------------------
# Negative controls
# ---------------------------------------------------------------------------


def _must_fail(check, *args) -> None:
    try:
        check(*args)
    except CheckFailed:
        return
    raise AssertionError(f"negative control passed {check.__name__}")


def run_negative_controls(kind: str, item: dict, out) -> int:
    """Feed corrupted copies of a passing (item, out) pair to the check that
    judged it; each copy must fail.  Returns the number of controls run."""
    if kind == "born":
        box = np.array(out["box"], dtype=float)
        box[0, 0, 0, 0] += 1e-9
        _must_fail(check_born, item, dict(out, box=box))
        return 1
    if kind == "certify":
        cert = json.loads(json.dumps(out))
        flipped = "UNDECIDED" if cert["verdict"] == "WITNESSED_STEERABLE" else "WITNESSED_STEERABLE"
        _must_fail(check_certificate, item, dict(cert, verdict=flipped))
        if cert["model"] is None:
            return 1
        model = cert["model"]
        states = np.asarray(model["bob_states"], dtype=float)
        states[0] = 1.01 * states[0] / np.linalg.norm(states[0])
        _must_fail(check_certificate, item, dict(cert, model=dict(model, bob_states=states.tolist())))
        p = np.asarray(item["p"], dtype=float).copy()
        p[0, 0, 0, 0] += 1e-9
        _must_fail(check_certificate, dict(item, p=p), cert)
        return 3
    if kind == "optimize_rac":
        _must_fail(check_optimize_rac, item, dict(out, p_min=out["p_min"] + 1e-5))
        return 1
    if kind == "cli":
        returncode, stdout = out
        if item["cmd"] == "sweep":
            lines = stdout.splitlines(keepends=True)
            _must_fail(check_cli, item, returncode, "".join(lines[:-1]))
            _must_fail(check_cli, item, returncode, stdout[: len(stdout) // 2])
        else:
            _must_fail(check_cli, item, returncode, stdout[: len(stdout) // 2])
        _must_fail(check_cli, item, 1, stdout)
        return 2 if item["cmd"] != "sweep" else 3
    raise ValueError(kind)
