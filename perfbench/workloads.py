"""Workload definitions and the pinned facts their outputs are checked against.

The facts are the benchmark's own copy of the published results.  They are
deliberately not imported from the package (``SCAN_EXCEPTIONS``,
``TRANSLATE_EXCEPTIONS``, ``LINE_EXCEPTIONS``), so a change that moves a
package constant together with a verdict still fails the checks.
"""

from __future__ import annotations

import random

# -- pinned facts -------------------------------------------------------------

SCAN_TOTAL = 82247
SCAN_BASIC_FAILURES = 2425
SCAN_LARGEST_BASIC_FAILURE = 1044889
SCAN_EXCEPTIONS = frozenset({
    3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49,
    53, 59, 61, 67, 71, 73, 79, 81, 83, 89, 97, 101, 103, 109, 113, 121,
    125, 127, 131, 137, 139, 149, 151, 157, 169, 173, 181, 191, 197, 199,
    211, 229, 239, 241, 269, 281, 307, 311, 331, 337, 349, 361, 373, 379,
    389, 409, 419, 421, 461, 463, 509, 521, 529, 569, 571, 601, 617, 631,
    659, 661, 701, 761, 769, 841, 859, 881, 911, 1009, 1021, 1231, 1289,
    1301, 1331, 1429, 1609, 1741, 1849, 1861, 2029, 2281, 2311, 2729, 3541,
})
FAILS = {
    "translate": frozenset({5, 7, 11, 13, 31, 41}),
    "line": frozenset({3, 5, 7, 9, 11, 13, 31, 41}),
}
# settle-prime-counts with its default pairs: the cutoff, then each pair.
SETTLE_CUTOFF = 14
SETTLE_PAIRS = {(11, 13): "settled", (10, 10): "settled", (2, 2): "unsettled"}

if len(SCAN_EXCEPTIONS) != 101:
    raise AssertionError("pinned exception set must hold 101 values")


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


# The q caps keep one repetition of every workload at 3 to 8 s, so a run
# holds several and their mean spans more of the swings in host speed
# (see README.md, Noise).  Every cap keeps each code path the workload is
# there for: k = 1 fields, and k = 2, 3 and 4 fields.
PRIME_CAP = 509          # 60 of the 76 prime exceptions up to 1021
EXT_CAP = 169            # k = 2: 9, 25, 49, 121, 169; k = 3: 27, 125; k = 4: 81
CROSS_TRANSLATE_CAP = 113
CROSS_LINE_CAP = 25
ORACLE_QS = [5, 7, 9, 11, 13, 17, 19, 23]

PRIME_EXCEPTIONS = sorted(q for q in SCAN_EXCEPTIONS if q <= PRIME_CAP and _is_prime(q))
EXT_EXCEPTIONS = sorted(q for q in SCAN_EXCEPTIONS if q <= EXT_CAP and not _is_prime(q))

# -- workloads ----------------------------------------------------------------
#
# An invocation is a dict: "argv" for quadprim.cli.main without --output, and
# what the checker needs to know about it ("kind", plus "prop", "modes" and
# "qs" where they apply).  The seed only shuffles each --q-list; verdicts do
# not depend on the order.

WORKLOADS = ("scan-full", "verify-prime", "verify-ext", "crosscheck")


def _verify(prop: str, qs: list[int], mode: str, rng: random.Random) -> dict:
    qs = list(qs)
    rng.shuffle(qs)
    modes = ["reference", "fast"] if mode == "both" else [mode]
    argv = [f"verify-{prop}", "--q-list", ",".join(map(str, qs)),
            "--mode", mode, "--expect-known"]
    return {"argv": argv, "kind": "verify", "prop": prop, "modes": modes, "qs": qs}


def invocations(workload: str, seed: int) -> list[dict]:
    """The CLI invocations of one workload, in run order."""
    rng = random.Random(seed)
    if workload == "scan-full":
        return [{"argv": ["scan", "--expect-known"], "kind": "scan"},
                {"argv": ["settle-prime-counts"], "kind": "settle"}]
    if workload == "verify-prime":
        return [_verify("translate", PRIME_EXCEPTIONS, "fast", rng),
                _verify("line", PRIME_EXCEPTIONS, "fast", rng)]
    if workload == "verify-ext":
        return [_verify("translate", EXT_EXCEPTIONS, "fast", rng),
                _verify("line", EXT_EXCEPTIONS, "fast", rng)]
    if workload == "crosscheck":
        qs = list(ORACLE_QS)
        rng.shuffle(qs)
        return [
            _verify("translate", [q for q in sorted(SCAN_EXCEPTIONS)
                                  if q <= CROSS_TRANSLATE_CAP], "both", rng),
            _verify("line", [q for q in sorted(SCAN_EXCEPTIONS) if q <= CROSS_LINE_CAP],
                    "both", rng),
            {"argv": ["oracle", "--q-list", ",".join(map(str, qs))],
             "kind": "oracle", "qs": qs},
        ]
    raise ValueError(f"unknown workload {workload!r}")
