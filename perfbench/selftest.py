"""Self-test of the benchmark's checks and tracing.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It shows that:

- the checker passes clean CLI output, and counts a corrupted verdict row,
  a wrong failure witness and a nonzero exit as failures, so the result
  line reads ``correct: false`` and the exit status is nonzero;
- the ffield kernel loop fails on a broken ``mul`` instead of timing it;
- in a traced repetition touching every layer, the layer self times plus
  the benchmark's own time add up to the traced wall time, and a tampered
  self time breaks that check.

Exit status 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from check import Checks, check_invocation  # noqa: E402
from layers import LAYERS, ffield_kernel  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def _verify_inv(prop: str, qs: list[int]) -> dict:
    return {"argv": [f"verify-{prop}", "--q-list", ",".join(map(str, qs)),
                     "--expect-known"],
            "kind": "verify", "prop": prop, "modes": ["fast"], "qs": qs}


def test_checker(workdir: str) -> None:
    from quadprim.cli import main

    inv = _verify_inv("translate", [5, 7, 9])
    path = os.path.join(workdir, "translate.csv")
    code = main(inv["argv"] + ["--output", path])
    clean = Checks()
    check_invocation(inv, path, code, clean)
    expect(clean.attempted == 7 and clean.failed == 0,
           f"clean output passes ({clean.failed} of {clean.attempted} checks failed)")

    with open(path) as fh:
        text = fh.read()
    corrupted = (text.replace("9,3,2,verify-translate:fast,holds,",
                              "9,3,2,verify-translate:fast,fails,")
                     .replace(",key=0.2,", ",key=0.1,"))
    expect(corrupted.count("\n") == text.count("\n") and corrupted != text,
           "corruption edits the q=9 verdict and the q=5 witness in place")
    with open(path, "w") as fh:
        fh.write(corrupted)
    checks = Checks()
    check_invocation(inv, path, 1, checks)
    expect(checks.failed == 3, f"corrupted verdict, wrong witness and exit status 1 "
                               f"give 3 failed checks (got {checks.failed}: "
                               f"{checks.problems})")

    units = {"wall_s": "s"}
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = run.report("selftest", {"wall_s": 1.0}, units, checks)
    result = json.loads(out.getvalue().splitlines()[-1])
    expect(status != 0 and result["correct"] is False
           and result["failed"] / result["attempted"] > 0,
           f"report exits {status} with error_rate "
           f"{result['failed']}/{result['attempted']} and correct={result['correct']}")


def test_kernel() -> None:
    from quadprim.arith import ctx_for_prime_power
    from quadprim.ffield import build_field

    def broken(flavour: str):
        def build(ctx):
            fld = build_field(ctx)
            real = fld.mul
            if flavour == "constant":
                fld.mul = lambda u, v: u
            else:
                fld.mul = lambda u, v: ((real(u, v)[0] + 1) % fld.p,) + real(u, v)[1:]
            return fld
        return build

    for flavour in ("constant", "off-by-one"):
        _, checks = ffield_kernel(broken(flavour), ctx_for_prime_power)
        bad = sum(not ok for ok, _ in checks)
        expect(bad > 0, f"{flavour} mul fails {bad} of {len(checks)} kernel checks")


def test_trace() -> None:
    invs = [{"argv": ["settle-prime-counts"], "kind": "settle"},
            _verify_inv("translate", [5, 9]), _verify_inv("line", [3, 9]),
            {"argv": ["oracle", "--q-list", "5"], "kind": "oracle", "qs": [5]}]
    checks = Checks()
    traced = run.run_rep(ROOT, invs, "trace", checks)
    wall = sum(traced["walls"])
    layers = traced["layers"]
    run.layer_metrics(traced, wall, checks)
    expect(checks.failed == 0, f"traced repetition passes its {checks.attempted} checks "
                               f"({checks.problems})")
    self_sum = sum(layers["self_s"].values())
    bench_s = wall - layers["spans_s"]
    expect(abs(self_sum + bench_s - wall) <= 1e-6,
           f"layer self times {self_sum:.6f} s + benchmark {bench_s:.6f} s "
           f"= traced wall {wall:.6f} s")
    idle = [layer for layer in LAYERS if layers["calls"][layer] == 0]
    expect(not idle, f"every layer records spans (idle: {idle})")

    layers["self_s"]["arith"] += 0.5
    tampered = Checks()
    run.layer_metrics(traced, wall, tampered)
    expect(tampered.failed == 1, "a tampered self time fails the add-up check")


def main() -> int:
    workdir = os.path.join(ROOT, run.WORKDIR)
    os.makedirs(workdir, exist_ok=True)
    try:
        test_checker(workdir)
        test_kernel()
        test_trace()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"selftest: {'FAIL' if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
