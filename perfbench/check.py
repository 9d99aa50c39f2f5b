"""Checks of CLI output against the benchmark's pinned facts.

A check is one verdict or oracle row compared with the facts, one pinned
scan or settle fact, one failure witness re-checked by direct order
computation, or one CLI exit status.  Every mismatch counts as a failed
check; ``error_rate`` is failed / attempted.
"""

from __future__ import annotations

import csv

from workloads import (
    FAILS,
    SCAN_BASIC_FAILURES,
    SCAN_EXCEPTIONS,
    SCAN_LARGEST_BASIC_FAILURE,
    SCAN_TOTAL,
    SETTLE_CUTOFF,
    SETTLE_PAIRS,
)


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def read_rows(path: str) -> list[dict]:
    """Data rows of a CSV output file; ``# summary:`` lines are skipped."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _q(row: dict) -> int | None:
    try:
        return int(row.get("q") or "")
    except ValueError:
        return None


def _elem(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text.split("."))


def recheck_witness(prop: str, q: int, detail: str) -> bool:
    """True when the package's dumb re-checker confirms a failure witness."""
    from quadprim.arith import ctx_for_prime_power
    from quadprim.ffield import build_field
    from quadprim.verify import recheck_line_witness, recheck_translate_witness

    try:
        parts = dict(part.split("=", 1) for part in detail.split("|"))
        key = _elem(parts["key"])
        gamma = _elem(parts["gamma"]) if prop == "line" else None
    except (KeyError, ValueError):
        return False
    fld = build_field(ctx_for_prime_power(q))
    for u in (key, gamma) if prop == "line" else (key,):
        if len(u) != fld.deg or not all(0 <= c < fld.p for c in u):
            return False
    try:
        if prop == "translate":
            return recheck_translate_witness(fld, key)
        return gamma != fld.zero and recheck_line_witness(fld, gamma, key)
    except ValueError:  # no translate set carries the key
        return False


def _check_scan(inv: dict, rows: list[dict], checks: Checks) -> None:
    failures = [_q(r) or 0 for r in rows if r.get("result") != "basic-pass"]
    exceptions = [_q(r) for r in rows if r.get("result") == "exception"]
    checks.expect(len(rows) == SCAN_TOTAL,
                  f"scan: {len(rows)} prime powers, expected {SCAN_TOTAL}")
    checks.expect(len(failures) == SCAN_BASIC_FAILURES,
                  f"scan: {len(failures)} basic failures, expected {SCAN_BASIC_FAILURES}")
    checks.expect(max(failures, default=0) == SCAN_LARGEST_BASIC_FAILURE,
                  f"scan: largest basic failure {max(failures, default=0)}, "
                  f"expected {SCAN_LARGEST_BASIC_FAILURE}")
    checks.expect(len(exceptions) == len(SCAN_EXCEPTIONS)
                  and set(exceptions) == SCAN_EXCEPTIONS,
                  f"scan: {len(exceptions)} exceptions differ from the pinned 101")


def _check_settle(inv: dict, rows: list[dict], checks: Checks) -> None:
    results = {(r.get("command"), r.get("detail")): r.get("result") for r in rows}
    checks.expect(len(rows) == 1 + len(SETTLE_PAIRS),
                  f"settle: {len(rows)} rows, expected {1 + len(SETTLE_PAIRS)}")
    checks.expect(results.get(("prime-count-cutoff", "")) == str(SETTLE_CUTOFF),
                  f"settle: cutoff {results.get(('prime-count-cutoff', ''))}, "
                  f"expected {SETTLE_CUTOFF}")
    for (t1, t2), want in SETTLE_PAIRS.items():
        got = results.get(("settle-prime-counts", f"t1={t1}|t2={t2}"))
        checks.expect(got == want, f"settle {t1}:{t2}: {got}, expected {want}")


def _index(rows: list[dict], commands: list[str], qs: list[int],
           checks: Checks, what: str) -> dict:
    """Rows keyed by (q, command); one check that no row is missing or extra."""
    by_key: dict = {}
    for r in rows:
        by_key.setdefault((_q(r), r.get("command")), []).append(r)
    want = {(q, c) for q in qs for c in commands}
    checks.expect(set(by_key) == want and all(len(v) == 1 for v in by_key.values()),
                  f"{what}: rows are not one per (q, command)")
    return {key: v[0] for key, v in by_key.items()}


def _check_verify(inv: dict, rows: list[dict], checks: Checks) -> None:
    prop = inv["prop"]
    commands = [f"verify-{prop}:{flavor}" for flavor in inv["modes"]]
    by_key = _index(rows, commands, inv["qs"], checks, f"verify-{prop}")
    for q in inv["qs"]:
        want = "fails" if q in FAILS[prop] else "holds"
        for command in commands:
            row = by_key.get((q, command), {})
            got, detail = row.get("result"), row.get("detail") or ""
            if not checks.expect(got == want and (want == "fails") == bool(detail),
                                 f"{command} q={q}: {got} ({detail!r}), expected {want}"):
                continue
            if got == "fails":
                checks.expect(recheck_witness(prop, q, detail),
                              f"{command} q={q}: witness {detail} not confirmed")


def _check_oracle(inv: dict, rows: list[dict], checks: Checks) -> None:
    commands = ["oracle:translate-sums", "oracle:line-identity"]
    by_key = _index(rows, commands, inv["qs"], checks, "oracle")
    for q in inv["qs"]:
        for command in commands:
            got = by_key.get((q, command), {}).get("result")
            checks.expect(got == "ok", f"{command} q={q}: {got}, expected ok")


_CHECKERS = {"scan": _check_scan, "settle": _check_settle,
             "verify": _check_verify, "oracle": _check_oracle}


def check_invocation(inv: dict, path: str, code: int, checks: Checks) -> int:
    """Check one invocation's exit status and output file; return its row count."""
    checks.expect(code == 0, f"{inv['argv'][0]} exited with status {code}")
    try:
        rows = read_rows(path)
    except (OSError, csv.Error) as exc:
        checks.expect(False, f"{inv['argv'][0]}: unreadable output ({exc})")
        rows = []
    _CHECKERS[inv["kind"]](inv, rows, checks)
    return len(rows)
