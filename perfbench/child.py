"""One fresh, single-threaded interpreter running quadprim CLI invocations.

    python3 perfbench/child.py ROOT MODE < spec.json

ROOT is the checkout root; ``quadprim`` is imported from ROOT/src.  MODE is
``setup`` (import and report when ready), ``run`` (run the invocations in
the spec with tracing off) or ``trace`` (the same with layer spans, then
the ffield kernel loop).  The last line on stdout is a JSON report.
Nothing runs before the import of ``quadprim.cli``, so the parent can time
set-up from launch to the reported ``ready`` clock reading.
"""

import os
import sys
import time

root, mode = sys.argv[1], sys.argv[2]
sys.path.insert(0, os.path.join(root, "src"))
import quadprim.cli  # noqa: E402

ready = time.monotonic()

import json  # noqa: E402
import traceback  # noqa: E402

src = os.path.realpath(os.path.join(root, "src"))
if not os.path.realpath(quadprim.cli.__file__).startswith(src + os.sep):
    sys.exit(f"quadprim was imported from {quadprim.cli.__file__}, not from {src}")


def peak_rss_mb() -> float:
    """Peak resident set of this interpreter's own memory, from VmHWM.

    Not ``ru_maxrss``: a child started by ``subprocess`` inherits its
    parent's peak there, so it would report the benchmark's memory
    whenever that is larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def call(main, argv: list[str]) -> int:
    """Exit status of one CLI invocation; a traceback counts as failure."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return -1


report: dict = {"ready": ready}
if mode in ("run", "trace"):
    spec = json.load(sys.stdin)
    main = quadprim.cli.main
    tracer = None
    if mode == "trace":
        from layers import Tracer, ffield_kernel

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap("cli", "main", main)
    walls, codes = [], []
    for argv in spec["invocations"]:
        t0 = time.perf_counter()
        codes.append(call(main, argv))
        walls.append(time.perf_counter() - t0)
    report.update(walls=walls, codes=codes,
                  rss_mb=peak_rss_mb())
    if tracer is not None:
        tracer.uninstall()
        from quadprim.arith import ctx_for_prime_power
        from quadprim.ffield import build_field

        kernel, kernel_checks = ffield_kernel(build_field, ctx_for_prime_power)
        report.update(layers=tracer.summary(), kernel=kernel, kernel_checks=kernel_checks)
print(json.dumps(report))
