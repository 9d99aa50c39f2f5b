"""quadprim benchmark: CLI workloads checked against the pinned facts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``quadprim`` is imported from ./src.  Each
repetition runs the workload's CLI invocations through
``quadprim.cli.main`` in one fresh, single-threaded interpreter
(``--threads 1``), then checks every output row against the benchmark's
own copy of the pinned facts.  Repetitions continue while another one fits
in S seconds; at least one always runs.

With ``--trace 0`` the result line holds the end-to-end metrics of
BENCHMARK.json: ``wall_s`` (mean over repetitions of the summed
invocation times), ``setup_s`` (median time from launching an interpreter
until ``quadprim.cli`` is imported) and ``peak_rss_mb`` (median peak
resident set of the workload interpreter).  ``--trace 1`` adds one traced
repetition and reports the per-layer metrics instead.  ``error_rate``,
failed checks over attempted checks, is printed by name and is the
``failed`` / ``attempted`` pair of the result line.  ``--workload all``
runs every workload in turn.

The last stdout line is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every
check passed, 1 when one failed, 2 when nothing could be measured (no
result line is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import fmean, median

from check import Checks, check_invocation
from workloads import WORKLOADS, invocations

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
WORKDIR = ".perfbench_work"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """Nothing could be measured; no result line is printed."""


def launch(root: str, mode: str, argvs: list[list[str]] = ()) -> dict:
    """Run child.py in a fresh interpreter and return its report."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, root, mode],
                              input=json.dumps({"invocations": list(argvs)}),
                              capture_output=True, text=True, cwd=root,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process ran longer than {CHILD_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with status {proc.returncode}")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{mode} process printed no report: {lines[-1][:200]!r}")
    report["setup_s"] = report["ready"] - t0
    return report


def run_rep(root: str, invs: list[dict], mode: str, checks: Checks) -> dict:
    """One repetition of a workload; its outputs are checked and deleted."""
    paths = [os.path.join(root, WORKDIR, f"out{i}.csv") for i in range(len(invs))]
    for path in paths:
        if os.path.exists(path):
            os.remove(path)
    report = launch(root, mode, [inv["argv"] + ["--threads", "1", "--output", path]
                                 for inv, path in zip(invs, paths)])
    report["rows"] = report["out_bytes"] = 0
    for inv, path, code in zip(invs, paths, report["codes"]):
        report["rows"] += check_invocation(inv, path, code, checks)
        if os.path.exists(path):
            report["out_bytes"] += os.path.getsize(path)
            os.remove(path)
    return report


def layer_metrics(traced: dict, untraced_wall: float, checks: Checks) -> dict:
    """Per-layer metrics from one traced repetition."""
    tr = traced["layers"]
    self_s, calls, counts = tr["self_s"], tr["calls"], tr["counts"]
    wall = sum(traced["walls"])
    bench_s = wall - tr["spans_s"]
    checks.expect(bench_s >= 0 and abs(sum(self_s.values()) + bench_s - wall) <= 1e-6,
                  f"trace: layer self times {sum(self_s.values()):.6f} s plus "
                  f"benchmark time {bench_s:.6f} s != traced wall {wall:.6f} s")
    for ok, what in traced["kernel_checks"]:
        checks.expect(ok, what)

    def fn_s(name: str) -> float:
        return tr["fn_s"].get(name, 0.0)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    line_s = fn_s("verify_line_fast")
    return {
        "arith.self_s": self_s["arith"],
        "arith.calls": calls["arith"],
        "arith.ctx_per_s": rate(counts.get("contexts", 0), self_s["arith"]),
        "criteria.self_s": self_s["criteria"],
        "criteria.q_per_s": rate(counts.get("classified", 0), self_s["criteria"]),
        "cli.self_s": self_s["cli"],
        "cli.rows": traced["rows"],
        "cli.out_bytes": traced["out_bytes"],
        "ffield.build_s": fn_s("build_field"),
        "ffield.fields": tr["fn_calls"].get("build_field", 0),
        **traced["kernel"],
        "verify.translate_s": fn_s("verify_translate_fast"),
        "verify.line_s": line_s,
        "verify.line.max_field_s": tr["fn_max"].get("verify_line_fast", 0.0),
        "verify.line.slopes_per_s": rate(counts.get("slopes", 0), line_s),
        "verify.reference_s": (fn_s("verify_translate_reference")
                               + fn_s("verify_line_reference")),
        "charoracle.sums_s": fn_s("survey_translate_sums"),
        "charoracle.identity_s": fn_s("survey_line_identities"),
        "trace.overhead_s": wall - untraced_wall,
    }


def shares(traced: dict) -> str:
    """Layer self times, and spans of single functions, as shares of the wall."""
    tr, wall = traced["layers"], sum(traced["walls"])
    parts = [f"{layer} self {s / wall:.1%}" for layer, s in tr["self_s"].items()
             if s >= 0.005 * wall]
    parts += [f"{name} {s / wall:.1%}" for name, s in tr["fn_s"].items()
              if s >= 0.05 * wall and name != "main"]
    return ", ".join(parts)


def measure(root: str, workload: str, seed: int, seconds: float,
            trace: bool, checks: Checks) -> dict:
    invs = invocations(workload, seed)
    os.makedirs(os.path.join(root, WORKDIR), exist_ok=True)
    try:
        # Warm-up: fills the bytecode and file caches, which users do not pay
        # for on every run.
        launch(root, "setup")
        setups = [launch(root, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
        reps = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            reps.append(run_rep(root, invs, "run", checks))
            now = time.monotonic()
            if now - start + (now - t0) > seconds:
                break
        walls = [sum(r["walls"]) for r in reps]
        print(f"{workload}: wall of each repetition (s): "
              + " ".join(f"{w:.3f}" for w in walls))
        wall = fmean(walls)
        if trace:
            traced = run_rep(root, invs, "trace", checks)
            print(f"{workload}: shares of traced wall: {shares(traced)}")
            return layer_metrics(traced, wall, checks)
        return {
            "wall_s": wall,
            "setup_s": median(setups + [r["setup_s"] for r in reps]),
            "peak_rss_mb": median(r["rss_mb"] for r in reps),
        }
    finally:
        shutil.rmtree(os.path.join(root, WORKDIR), ignore_errors=True)


def declared_metrics(root: str, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(workload: str, metrics: dict, units: dict[str, str], checks: Checks) -> int:
    """Print the metrics by name and the result line; return the exit status."""
    if set(metrics) != set(units):
        raise BenchError("measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    for problem in checks.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, unit in units.items():
        value = metrics[name]
        print(f"{workload:13s} {name:26s} "
              f"{f'{value:.6g}' if isinstance(value, float) else value} {unit}")
    print(f"{workload:13s} {'error_rate':26s} "
          f"{checks.failed / max(checks.attempted, 1):.6g} "
          f"({checks.failed} of {checks.attempted} checks failed)")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if checks.failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "quadprim", "cli.py")):
            raise BenchError("src/quadprim not found: run from the root of a "
                             "quadprim checkout")
        sys.path.insert(0, os.path.join(root, "src"))
        units = declared_metrics(root, bool(args.trace))
        status = 0
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            checks = Checks()
            metrics = measure(root, workload, args.seed, args.seconds,
                              bool(args.trace), checks)
            status = max(status, report(workload, metrics, units, checks))
        return status
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
