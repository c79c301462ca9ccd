"""The unsteer benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload born-batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (their reasons are in BENCHMARK.json):

    born-batch        closed-form analysis of random triples on random directions
    search-enumerate  certify_quantumness where case enumeration dominates
    numeric-solve     certify_quantumness where lstsq / SLSQP dominate, plus optimize_rac
    cli-cold          one cold `python -m unsteer` subprocess per item

One client drives the program in a closed loop: the next item starts only
after the previous one has finished, and nothing runs concurrently.  Every
output is checked by perfbench/oracle.py, which never calls unsteer.

--trace 0 runs for --seconds with tracing off and prints every end-to-end
metric of BENCHMARK.json.  --trace 1 runs a fixed number of rounds twice, once
untraced and once with spans around every public function (perfbench/
tracer.py), prints every per-layer metric, and asserts that the counts repeat
exactly when the first round is run again.  The last line of stdout is the
result as JSON; lines before it starting with '#' are for people, and the
line starting with '{"env"' records the environment.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

THREAD_VARS = ("UNSTEER_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120

# Rounds of a traced run, fixed so that its counts repeat exactly; the timed
# run starts with the same rounds, and the input hash covers them.
TRACE_ROUNDS = {"born-batch": 40, "search-enumerate": 12, "numeric-solve": 2, "cli-cold": 2}
CHECKS = {
    "born-batch": oracle.check_born,
    "search-enumerate": oracle.check_search_item,
    "numeric-solve": oracle.check_search_item,
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    """The program's default environment: UNSTEER_THREADS unset, src/ first."""
    env = dict(os.environ)
    env.pop("UNSTEER_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_unsteer():
    os.environ.pop("UNSTEER_THREADS", None)
    sys.path.insert(0, SRC)
    import unsteer
    import unsteer.cli  # noqa: F401  (the tracer wraps the cli layer too)

    if not os.path.abspath(unsteer.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"unsteer imported from {unsteer.__file__}, not from {SRC}")
    return unsteer


def environment(workload: str, seed: int, seconds: int, trace: int, observed: dict) -> dict:
    lines = 0
    for name in sorted(os.listdir(os.path.join(SRC, "unsteer"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "unsteer", name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "inputs_sha256": workloads.inputs_sha256(workload, seed, TRACE_ROUNDS[workload]),
        "inputs_rounds_hashed": TRACE_ROUNDS[workload],
        "src.lines": lines,
        "threads_env": observed,
    }


# ---------------------------------------------------------------------------
# Closed-loop item execution
# ---------------------------------------------------------------------------


class Tally:
    """Latencies, failures and verdicts of the items of one pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.certificates = 0
        self.undecided = 0
        self.samples: dict[str, tuple] = {}  # first passing (item, out) per sample class
        self.errors: list[str] = []

    def record(self, item: dict, out, seconds: float, error: str | None) -> None:
        self.latencies.append(seconds)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)
            return
        if isinstance(out, dict) and "verdict" in out:
            self.certificates += 1
            self.undecided += out["verdict"] == "UNDECIDED"
        key = item.get("cmd") or item["kind"]
        if isinstance(out, dict) and out.get("model") is not None:
            key += "+model"
        self.samples.setdefault(key, (item, out))

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def library_pass(u, workload: str, seed: int, tally: Tally, rounds=None, deadline=None, after_round=None):
    """Whole rounds, from round 0, until `rounds` are done or `deadline` passed."""
    runner, check = workloads.RUNNERS[workload], CHECKS[workload]
    r = 0
    while True:
        for item in workloads.round_items(workload, seed, r):
            error = out = None
            start = time.perf_counter()
            try:
                out = runner(u, item)
            except Exception:  # counted as a failed item, the run goes on
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
            if error is None:
                try:
                    check(item, out)
                except oracle.CheckFailed as exc:
                    error = f"check failed: {exc}"
            tally.record(item, out, elapsed, error)
        r += 1
        if after_round is not None:
            after_round(r)
        if rounds is not None and r >= rounds:
            return
        if deadline is not None and time.perf_counter() >= deadline:
            return


def cli_pass(workload: str, seed: int, tally: Tally, tmpdir: str, rounds=None, deadline=None, per_cmd=None):
    env = child_env()
    r = 0
    while True:
        for item in workloads.round_items(workload, seed, r):
            argv = resolve_argv(item, tmpdir, r)
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "unsteer", *argv],
                    env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                )
                returncode, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            except subprocess.TimeoutExpired:
                returncode, stdout, stderr = None, "", f"killed after {CHILD_TIMEOUT_S} s"
            elapsed = time.perf_counter() - start
            error = None
            try:
                oracle.check_cli(item, returncode, stdout)
            except oracle.CheckFailed as exc:
                error = f"{item['cmd']}: {exc}; stderr: {stderr[-300:]}"
            tally.record(item, (returncode, stdout), elapsed, error)
            if per_cmd is not None:
                per_cmd.setdefault(item["cmd"], []).append((elapsed, len(stdout.encode())))
        r += 1
        if rounds is not None and r >= rounds:
            return
        if deadline is not None and time.perf_counter() >= deadline:
            return


def resolve_argv(item: dict, tmpdir: str, r: int) -> list[str]:
    """Write a --box input file where the item has one (outside the timing)."""
    if item.get("box") is None:
        return list(item["argv"])
    path = os.path.join(tmpdir, f"box_{r}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": len(item["box"]), "p": item["box"]}, fh)
    return [path if a == "{box}" else a for a in item["argv"]]


def negative_controls(tally: Tally) -> int:
    """Each check must reject corrupted copies of outputs it accepted."""
    return sum(
        oracle.run_negative_controls("cli" if "cmd" in item else item["kind"], item, out)
        for item, out in tally.samples.values()
    )


# ---------------------------------------------------------------------------
# Set-up and import probes
# ---------------------------------------------------------------------------


def setup_probe_library(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until `import unsteer` and the
    workload's first item are done; input generation happened before."""
    payload = json.dumps(workloads.round_items(workload, seed, 0)[0]).encode()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), workload],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
    )
    proc.stdin.write(payload)
    proc.stdin.close()
    line = proc.stdout.readline()
    ready = time.perf_counter()
    proc.stdout.close()
    if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {workload} failed")
    return ready - start


def setup_probe_cli() -> float:
    """Seconds of one cold `python -m unsteer --version`, the floor every command pays."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "unsteer", "--version"],
        env=child_env(), cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"unsteer --version exited {proc.returncode}")
    return elapsed


def import_metrics() -> dict:
    """Interpreter start-up, and the self time of every module imported by
    `import unsteer.cli`, summed per top-level package (python -X importtime)."""
    env = child_env()
    runs = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        python_s = time.perf_counter() - start
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import unsteer.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
        )
        self_us = {"numpy": 0, "scipy": 0, "unsteer": 0}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            package = fields[2].strip().split(".")[0]
            if package in self_us:
                self_us[package] += int(fields[0])
        runs.append(
            {
                "import.python_ms": python_s * 1e3,
                "import.numpy_ms": self_us["numpy"] / 1e3,
                "import.scipy_ms": self_us["scipy"] / 1e3,
                "import.unsteer_ms": self_us["unsteer"] / 1e3,
            }
        )
    return {k: statistics.median(run[k] for run in runs) for k in runs[0]}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def quantile(values, q: float) -> float:
    return float(np.quantile(values, q))


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(report: dict, workload: str, tally: Tally, setups: list[float], rss_who: int) -> None:
    """The untraced run's metrics, its '#' lines and its negative controls."""
    report["controls"] = negative_controls(tally)
    report["tally"] = tally
    report["lines"] += end_to_end_lines(workload, tally, setups)
    report["metrics"] = {
        "setup_s": statistics.median(setups),
        "items_per_s": tally.attempted / tally.busy,
        "latency_p50_ms": quantile(tally.latencies, 0.5) * 1e3,
        "peak_rss_mb": peak_rss_mb(rss_who),
    }


def end_to_end_lines(workload: str, tally: Tally, setups: list[float]) -> list[str]:
    n = tally.attempted
    lines = [
        f"# {workload}: {n} items, {tally.busy:.3f} s busy",
        f"# setup_s = {statistics.median(setups):.6f} s (median of {len(setups)} cold starts)",
        f"# items_per_s = {n / tally.busy:.4f} 1/s (n={n})",
        f"# latency_p50_ms = {quantile(tally.latencies, 0.5) * 1e3:.4f} ms (n={n})",
    ]
    beyond = n - int(np.ceil(0.9 * n))
    if beyond >= 10:
        lines.append(f"# latency_p90_ms = {quantile(tally.latencies, 0.9) * 1e3:.4f} ms (n={n}, {beyond} beyond)")
    else:
        lines.append(f"# latency_p90_ms omitted: {beyond} samples beyond it, fewer than 10 (n={n})")
    lines.append(f"# failed_frac = {tally.failed / n:.6f} ratio ({tally.failed} of {n})")
    if tally.certificates:
        lines.append(
            f"# undecided_frac = {tally.undecided / tally.certificates:.6f} ratio "
            f"({tally.undecided} of {tally.certificates} certificates)"
        )
    return lines


def layer_values(tracer: Tracer) -> dict:
    values: dict = {}
    for name, s in tracer.layer_stats().items():
        values[f"{name}.calls"] = s["calls"]
        values[f"{name}.busy_ms"] = s["busy_s"] * 1e3
        values[f"{name}.self_ms"] = s["self_s"] * 1e3
        values[f"{name}.us_per_call"] = s["busy_s"] * 1e6 / s["calls"]
    values.update(tracer.counts)
    values["decompose.splits.busy_ms"] = sum(
        values.get(f"decompose.canonical_split_{k}set.busy_ms", 0.0) for k in (2, 3)
    )
    slsqp = values.get("decompose.slsqp.calls", 0)
    values["decompose.slsqp.converged_frac"] = values.get("decompose.slsqp.converged", 0) / slsqp if slsqp else 0.0
    issued = values.get("decompose.certify.issued", 0)
    values["undecided_frac"] = values.get("decompose.certify.undecided", 0) / issued if issued else 0.0
    return values


def top_spans(tracer: Tracer, limit: int = 12) -> list[str]:
    stats = sorted(tracer.layer_stats().items(), key=lambda kv: -kv[1]["self_s"])[:limit]
    return [
        f"#   {name:<44} calls {s['calls']:>8}  busy {s['busy_s'] * 1e3:>10.2f} ms  self {s['self_s'] * 1e3:>10.2f} ms"
        for name, s in stats
    ]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_library(workload: str, seed: int, seconds: int, trace: int, report: dict) -> None:
    warm = workloads.round_items(workload, seed, 0)[0]
    if not trace:
        setups = [setup_probe_library(workload, seed) for _ in range(SETUP_PROBES)]
        u = import_unsteer()
        workloads.RUNNERS[workload](u, warm)
        tally = Tally()
        library_pass(u, workload, seed, tally, deadline=time.perf_counter() + seconds)
        end_to_end(report, workload, tally, setups, resource.RUSAGE_SELF)
        return

    values = import_metrics()
    u = import_unsteer()
    rounds = TRACE_ROUNDS[workload]
    workloads.RUNNERS[workload](u, warm)
    plain = Tally()
    library_pass(u, workload, seed, plain, rounds=rounds)

    traced, tracer, first_round = Tally(), Tracer(), {}

    def snapshot(r):
        if r == 1:
            first_round.update(tracer.exact_counts())

    tracer.install(u)
    try:
        library_pass(u, workload, seed, traced, rounds=rounds, after_round=snapshot)
    finally:
        tracer.uninstall()
    recount = Tracer()
    recount.install(u)
    try:
        library_pass(u, workload, seed, Tally(), rounds=1)
    finally:
        recount.uninstall()
    report["exact_counts_repeat"] = recount.exact_counts() == first_round
    if not report["exact_counts_repeat"]:
        report["lines"].append("# exact counts differ between two runs of round 0")
    values.update(layer_values(tracer))
    values["trace.items"] = traced.attempted
    values["trace.overhead_frac"] = traced.busy / plain.busy - 1.0
    report["controls"] = negative_controls(plain)
    report["tally"] = merge(plain, traced)
    report["lines"].append(f"# {workload} traced: {traced.attempted} items over {rounds} rounds; top spans by self time:")
    report["lines"] += top_spans(tracer)
    report["values"] = values


def run_cli(workload: str, seed: int, seconds: int, trace: int, report: dict) -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        if not trace:
            setups = [setup_probe_cli() for _ in range(SETUP_PROBES)]
            tally = Tally()
            cli_pass(workload, seed, tally, tmpdir, deadline=time.perf_counter() + seconds)
            # The program runs in the children: report the largest child's peak RSS.
            end_to_end(report, workload, tally, setups, resource.RUSAGE_CHILDREN)
            return

        values = import_metrics()
        rounds = TRACE_ROUNDS[workload]
        cold, per_cmd = Tally(), {}
        cli_pass(workload, seed, cold, tmpdir, rounds=rounds, per_cmd=per_cmd)
        for cmd, runs in per_cmd.items():
            values[f"cli.{cmd}.wall_ms"] = statistics.median(t for t, _ in runs) * 1e3
            values[f"cli.{cmd}.stdout_bytes"] = statistics.median(b for _, b in runs)

        u = import_unsteer()
        items = [
            (item, resolve_argv(item, tmpdir, r))
            for r in range(rounds)
            for item in workloads.round_items(workload, seed, r)
        ]
        sweep = u.sweep_separable_max(3, workloads.CLI_SWEEP_STEP)
        in_process(u, items, sweep)  # warm-up
        plain = in_process(u, items, sweep)
        tracer = Tracer()
        tracer.install(u)
        try:
            traced = in_process(u, items, sweep)
        finally:
            tracer.uninstall()
        values.update(layer_values(tracer))
        for cmd in per_cmd:
            for stage in ("run", "render"):
                values[f"cli.{cmd}.{stage}_ms"] = statistics.median(t[stage] for c, t in traced if c == cmd) * 1e3
        values["trace.items"] = len(traced)
        plain_s = sum(t["run"] + t["render"] for _, t in plain)
        traced_s = sum(t["run"] + t["render"] for _, t in traced)
        values["trace.overhead_frac"] = traced_s / plain_s - 1.0
        report["controls"] = negative_controls(cold)
        report["tally"] = cold
        report["lines"].append(f"# {workload} traced in-process: {len(traced)} commands; top spans by self time:")
        report["lines"] += top_spans(tracer)
        report["values"] = values


def in_process(u, items, sweep) -> list[tuple[str, dict]]:
    """cli.run(CommandSpec) and the renderer of each command, timed apart."""
    cli = u.cli
    timings = []
    for item, argv in items:
        args = cli.build_parser().parse_args(argv)
        spec = cli.CommandSpec(
            command=args.command, c=getattr(args, "c", None), state=None, box=getattr(args, "box", None),
            n=args.n, dim=args.dim, tol=args.tol, step=getattr(args, "step", 0.01), v=None, out=None, fmt=args.fmt,
        )
        start = time.perf_counter()
        report = cli.run(spec)
        ran = time.perf_counter()
        if spec.command == "sweep":
            cli.sweep_csv_lines(sweep)
        else:
            cli.dumps_deterministic(report.to_json_dict())
        timings.append((item["cmd"], {"run": ran - start, "render": time.perf_counter() - ran}))
    return timings


def merge(a: Tally, b: Tally) -> Tally:
    out = Tally()
    out.latencies = a.latencies + b.latencies
    out.failed = a.failed + b.failed
    out.errors = (a.errors + b.errors)[:5]
    return out


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_one(args, spec: dict) -> int:
    observed = {name: os.environ.get(name) for name in THREAD_VARS}
    env = environment(args.workload, args.seed, args.seconds, args.trace, observed)
    report: dict = {"lines": []}
    if args.workload == "cli-cold":
        run_cli(args.workload, args.seed, args.seconds, args.trace, report)
    else:
        run_library(args.workload, args.seed, args.seconds, args.trace, report)

    tally: Tally = report["tally"]
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = report["values"]
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in names}
    else:
        metrics = {m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]} for m in names}
    correct = tally.failed == 0 and report.get("exact_counts_repeat", True) and report["controls"] > 0
    env["negative_controls"] = report["controls"]
    for line in report["lines"]:
        print(line)
    if args.trace:
        for m in names:
            print(f"# {m['name']} = {metrics[m['name']]['value']} {m['unit']}")
    for error in tally.errors:
        print("# failure: " + error.replace("\n", " | "))
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, then one table of every metric."""
    combined, correct, attempted, failed = {}, True, 0, 0
    for entry in spec["workloads"]:
        name = entry["name"]
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exited {proc.returncode}: {proc.stderr[-500:]}")
            return 1
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "unsteer", "__init__.py")):
        print(f"error: no unsteer sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
