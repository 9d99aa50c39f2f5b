"""Command line front end.

Subcommands map one-to-one onto the library layers:

- scan              staged sufficient-condition scan over a q interval
- settle-prime-counts  the exact-rational settling routine and its cutoff
- verify-translate  exhaustive translate-property verification
- verify-line       exhaustive line-property verification
- oracle            character-sum consistency surveys for small q
- reproduce-all     the first five as five subcommand runs, one row each

Every handler returns ``(rows, summary, failures)`` and writes nothing but
``--progress`` notes; ``main`` emits the rows with a fixed schema (CSV
with leading `# summary:` comment lines, or a JSON object with `rows` and
`summary`) and prints the failure lines on stderr.  Rows are tuples in
``ROW_FIELDS`` order; only JSON output turns them into objects.  The scan
keeps its columns, 16 bytes a q, and p, k, stage and s only for the q
that are not a basic pass at k = 1, so neither format holds more than a
few hundred rows.  CSV rows are the bytes of ``csv.writer``, one ``%``
template each, and a guard raises on a cell it would quote; the scan's
basic passes at k = 1 are written straight from its columns.
``--stable-output`` makes elapsed_ms 0 where it is measured, in ``_row``
and in ``_scan_rows``, so no writer knows of it.
Every numeric argument, a q list, a span LO:HI or T1:T2, ``--scan-hi``
or ``--threads``, is read by ``_ints``, the one reader of separated
integers with a count and bounds.
Exit status is 0 on success, 1 when an expectation or agreement check
fails or the reader closes the output pipe early, 2 for usage errors and
an ``--output`` that cannot be opened.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from array import array
from bisect import bisect_left
from itertools import islice
from time import perf_counter
from typing import Iterable, Iterator

from .arith import SCAN_Q_CAP, ctx_for_prime_power
from .charoracle import ORACLE_Q_CAP, survey_line_identities, survey_translate_sums
from .criteria import (
    SCAN_EXCEPTIONS,
    Stage,
    block_verdicts,
    prime_count_cutoff,
    scan_blocks,
    settle_prime_count_range,
)
from .ffield import build_field
from .verify import (
    LINE_EXCEPTIONS,
    TRANSLATE_EXCEPTIONS,
    PropertyReport,
    verify_line_fast,
    verify_line_reference,
    verify_translate_fast,
    verify_translate_reference,
)

ROW_FIELDS = ("q", "p", "k", "command", "result", "detail", "elapsed_ms")

# Largest q of --q-list, above the largest scan exception, 3541: the
# reference verifiers read up to (q**2 - 1)/2 elements per slope.
VERIFY_Q_CAP = 8192

# Largest T1 and T2 of settle-prime-counts: the primorial of the first 27
# primes already exceeds 2**128, and the cost grows about a hundredfold
# for each tenfold T2.
SETTLE_T_CAP = 64

# Facts the scan over the full interval [3, 2**20] must reproduce.
FULL_SCAN_LO = 3
FULL_SCAN_HI = 1 << 20
FULL_SCAN_TOTAL = 82247
FULL_SCAN_BASIC_FAILURES = 2425
FULL_SCAN_LARGEST_BASIC_FAILURE = 1044889
FULL_SCAN_EXCEPTION_COUNT = 101


def _fmt_elem(u: tuple) -> str:
    return ".".join(str(c) for c in u)


def _fmt_witness(report: PropertyReport) -> str:
    if report.witness is None:
        return ""
    if report.prop == "line":
        gamma, key = report.witness
        return f"gamma={_fmt_elem(gamma)}|key={_fmt_elem(key)}"
    return f"key={_fmt_elem(report.witness)}"


def _row(args, t0: float, q, p, k, command: str, result: str, detail: str) -> tuple:
    # a row timed from t0; elapsed_ms, its last cell, is 0 with --stable-output
    elapsed_ms = 0 if args.stable_output else round((perf_counter() - t0) * 1000.0, 3)
    return (q, p, k, command, result, detail, elapsed_ms)


def _emit(args, out, rows: Iterable[tuple], summary: dict) -> None:
    if args.format == "json":
        # the bytes of json.dump(..., indent=2), written one row at a time
        out.write('{\n  "rows": [')
        sep = "\n    "
        for row in rows:
            out.write(sep + json.dumps(dict(zip(ROW_FIELDS, row)), indent=2,
                                       default=str).replace("\n", "\n    "))
            sep = ",\n    "
        out.write("]" if sep == "\n    " else "\n  ]")  # "[]" without rows
        out.write(',\n  "summary": ' + json.dumps(summary, indent=2, default=str)
                  .replace("\n", "\n  ") + "\n}\n")
    else:
        for key in sorted(summary):
            out.write(f"# summary: {key}={summary[key]}\n")
        out.write(_CSV_ROW % ROW_FIELDS)
        _write_csv(out, rows)


# A CSV row as csv.writer writes it when no cell needs quoting: each
# cell's str(), comma-separated, ended by \r\n.
_CSV_ROW = ",".join(["%s"] * len(ROW_FIELDS)) + "\r\n"

# Rows formatted and checked per write: a check per row costs as much as
# csv.writer itself, and a batch of 256 scan rows is about 17 kB.
_CSV_BATCH = 256


def _plain_csv(text: str, n: int) -> bool:
    # text is n rows of len(ROW_FIELDS) cells, and csv.writer would
    # neither quote nor blank any of their cells: no cell adds a comma, \r
    # or \n, holds a quote, or is None, which % writes as "None" and
    # csv.writer as ""
    return (text.count(",") == (len(ROW_FIELDS) - 1) * n
            and text.count("\r") == n == text.count("\n")
            and '"' not in text and "None" not in text)


def _write_csv(out, rows: Iterable[tuple]) -> None:
    r"""Write rows as csv.writer(out).writerows(rows) would, or raise.

    A ``_ScanRows`` gives its own text; other rows are formatted
    ``_CSV_BATCH`` at a time.  Raises ValueError on a cell csv.writer
    would quote or write empty, one holding ``,``, ``"``, ``\r`` or
    ``\n`` or None (or the text None).
    """
    if isinstance(rows, _ScanRows):
        pieces = rows.csv_pieces()
    else:
        rows = iter(rows)
        pieces = (("".join([_CSV_ROW % row for row in batch]), len(batch))
                  for batch in iter(lambda: list(islice(rows, _CSV_BATCH)), []))
    for text, n in pieces:
        if not _plain_csv(text, n):
            bad = next((line for line in text.splitlines(keepends=True)
                        if not _plain_csv(line, 1)), text)
            raise ValueError(f"CSV row has a cell csv.writer would quote or blank: {bad!r}")
        out.write(text)


def _progress(args, message: str) -> None:
    if getattr(args, "progress", False):
        print(message, file=sys.stderr, flush=True)


def _ints(text: str, sep: str, count: int | None, lo: int, hi: int | None,
          what: str) -> list[int]:
    """The integers of text split at sep, each at least lo and at most hi.

    There must be count of them; with count None blank parts are skipped
    and one or more are read.  hi None sets no upper bound.  Each part is
    read by int(), which allows a sign, blanks around the digits and
    underscores between them.  This is the one place argument text
    becomes a number: a failed rule raises ArgumentTypeError naming it,
    and argparse exits 2 with that message.
    """
    parts = text.split(sep)
    if count is None:
        parts = [part for part in parts if part.strip()]
    try:
        values = [int(part) for part in parts]
    except ValueError:
        values = []
    if not values or count is not None and len(values) != count:
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    for v in values:
        if v < lo or hi is not None and v > hi:
            rule = f"be at least {lo}" if hi is None else f"lie in {lo}..{hi}"
            raise argparse.ArgumentTypeError(f"value {v} must {rule}")
    return values


def _span(lo: int, hi: int, what: str):
    """argparse type of an A:B span, a tuple (A, B) with lo <= A <= B <= hi."""
    def parse(text: str) -> tuple[int, int]:
        a, b = _ints(text, ":", 2, lo, hi, what)
        if a > b:
            raise argparse.ArgumentTypeError(
                f"{what} must satisfy {what.replace(':', ' <= ')}, got {text!r}")
        return a, b
    return parse


def _int_in(lo: int, hi: int | None):
    """argparse type of one integer with lo <= value <= hi."""
    return lambda text: _ints(text, ",", 1, lo, hi, "an integer")[0]


def _q_list(cap: int):
    """argparse type of --q-list: distinct odd prime powers q <= cap,
    comma-separated, or the word exceptions for the scan exceptions."""
    def parse(text: str) -> list[int]:
        if text.strip() == "exceptions":
            # read as the list it names, so the cap applies to it too
            text = ",".join(map(str, sorted(SCAN_EXCEPTIONS)))
        qs = _ints(text, ",", None, 3, cap, "comma-separated integers")
        if len(set(qs)) != len(qs):
            raise argparse.ArgumentTypeError("q list repeats a value")
        for q in qs:
            try:
                ctx_for_prime_power(q)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc))
            if q % 2 == 0:
                raise argparse.ArgumentTypeError(f"q must be odd, got {q}")
        return qs
    return parse


# -- scan -------------------------------------------------------------------


class _ScanRows:
    """The rows of one scan, from the (qs, margins, kept) of each of its
    ``scan_blocks``.  Iterating gives the row tuples; ``csv_pieces``
    gives their CSV text without making them."""

    __slots__ = ("blocks", "elapsed_ms")

    def __init__(self, blocks: list[tuple[array, array, dict]], elapsed_ms: float) -> None:
        self.blocks, self.elapsed_ms = blocks, elapsed_ms

    def __iter__(self) -> Iterator[tuple]:
        elapsed_ms = self.elapsed_ms
        for q, stage, _, margin, p, k in block_verdicts(self.blocks):
            yield q, p, k, "scan", stage.value, f"{margin:.6g}", elapsed_ms

    def csv_pieces(self) -> Iterator[tuple[str, int]]:
        """Yield (text, n), the CSV text of the next n rows.  Each basic
        pass at k = 1 between two kept q of a block is one three-cell
        template (%.6g formats a margin as f"{m:.6g}" does), at most
        ``_CSV_BATCH`` a piece; a kept q is a piece of one ``_CSV_ROW``."""
        elapsed = self.elapsed_ms
        run = f"%d,%d,1,scan,{Stage.BASIC_PASS.value},%.6g,{elapsed}\r\n".__mod__

        def run_pieces(qs, margins, i, j):  # basic passes qs[i:j] at k = 1
            for a in range(i, j, _CSV_BATCH):
                b = min(a + _CSV_BATCH, j)
                q_run = qs[a:b]
                yield "".join(map(run, zip(q_run, q_run, margins[a:b]))), b - a

        for qs, margins, kept in self.blocks:
            i = 0
            for q, (p, k, stage, _) in kept.items():
                j = bisect_left(qs, q, i)
                yield from run_pieces(qs, margins, i, j)
                yield _CSV_ROW % (q, p, k, "scan", stage.value, f"{margins[j]:.6g}", elapsed), 1
                i = j + 1
            yield from run_pieces(qs, margins, i, len(qs))


def _scan_rows(lo: int, hi: int, args) -> tuple[_ScanRows, dict, list[int]]:
    """Rows, summary and exception list of one scan call.

    The summary lines come before the rows, so the scan is read to its
    end first.  Its blocks are kept as ``scan_blocks`` yields them, not
    joined: two arrays grown to the full scan's 1.3 MB leave their old
    copies in the heap.  Every row carries an equal share of the scan
    call's time, or 0 with --stable-output.
    """
    t0 = perf_counter()
    # One call for the whole interval: scan_blocks builds its count table
    # once per call, so splitting the interval repeats that work.
    blocks = list(scan_blocks(lo, hi))
    total = sum(len(qs) for qs, _, _ in blocks)
    elapsed_ms = (0 if args.stable_output
                  else round((perf_counter() - t0) * 1000.0 / max(total, 1), 3))
    _progress(args, f"scan: finished q <= {hi} ({total} prime powers)")
    basic = Stage.BASIC_PASS
    failures = [(q, stage) for _, _, kept in blocks for q, (_, _, stage, _) in kept.items()
                if stage is not basic]
    counts = {stage: 0 for stage in Stage if stage is not basic}
    for _, stage in failures:
        counts[stage] += 1
    exceptions = [q for q, stage in failures if stage is Stage.EXCEPTION]
    summary = {
        "total": total,
        "basic_pass": total - len(failures),
        "basic_failures": len(failures),
        "sieve_pass": counts[Stage.SIEVE_PASS],
        "exceptions": counts[Stage.EXCEPTION],
        "eliminated_by_prime_count": counts[Stage.ELIMINATED_BY_PRIME_COUNT],
        "largest_basic_failure": failures[-1][0] if failures else 0,
        "largest_exception": max(exceptions) if exceptions else 0,
    }
    return _ScanRows(blocks, elapsed_ms), summary, exceptions


def _cmd_scan(args) -> tuple[Iterable[tuple], dict, list[str]]:
    lo, hi = args.range
    rows, summary, exceptions = _scan_rows(lo, hi, args)
    problems = []
    if args.expect_known:
        expected_exc = sorted(q for q in SCAN_EXCEPTIONS if lo <= q <= hi)
        if exceptions != expected_exc:
            missing = sorted(set(expected_exc) - set(exceptions))
            extra = sorted(set(exceptions) - set(expected_exc))
            problems.append(f"exception set mismatch (missing={missing}, extra={extra})")
        if (lo, hi) == (FULL_SCAN_LO, FULL_SCAN_HI):
            checks = (
                ("total", FULL_SCAN_TOTAL),
                ("basic_failures", FULL_SCAN_BASIC_FAILURES),
                ("largest_basic_failure", FULL_SCAN_LARGEST_BASIC_FAILURE),
                ("exceptions", FULL_SCAN_EXCEPTION_COUNT),
            )
            for key, expected in checks:
                if summary[key] != expected:
                    problems.append(f"{key}={summary[key]}, expected {expected}")
    summary["expect_failures"] = len(problems)
    return rows, summary, [f"expectation failed: {problem}" for problem in problems]


# -- settle-prime-counts -----------------------------------------------------


def _cmd_settle(args) -> tuple[list[tuple], dict, list[str]]:
    rows = []
    t0 = perf_counter()
    cutoff = prime_count_cutoff()
    rows.append(_row(args, t0, "", "", "", "prime-count-cutoff", str(cutoff), ""))
    for t1, t2 in args.pairs:
        t0 = perf_counter()
        settled = settle_prime_count_range(t1, t2)
        rows.append(_row(args, t0, "", "", "", "settle-prime-counts",
                         "settled" if settled else "unsettled", f"t1={t1}|t2={t2}"))
    return rows, {"cutoff": cutoff, "pairs": len(args.pairs)}, []


# -- verify ------------------------------------------------------------------


def _cmd_verify(args) -> tuple[list[tuple], dict, list[str]]:
    if args.prop == "translate":
        flavors = (("reference", verify_translate_reference),
                   ("fast", verify_translate_fast))
    else:
        flavors = (("reference", verify_line_reference), ("fast", verify_line_fast))
    rows: list[tuple] = []
    problems: list[str] = []
    holds_count = 0
    fails_count = 0
    for q in args.q_list:
        fld = build_field(ctx_for_prime_power(q))
        # whole reports: the flavors must agree on witness and
        # classes_covered as well as on the verdict
        reports = set()
        for flavor, verifier in flavors:
            if args.mode not in (flavor, "both"):
                continue
            t0 = perf_counter()
            report = verifier(fld)
            reports.add(report)
            rows.append(_row(args, t0, q, fld.p, fld.k, f"verify-{args.prop}:{flavor}",
                             "holds" if report.holds else "fails", _fmt_witness(report)))
        if len(reports) != 1:
            problems.append(f"q={q}: reference and fast verifiers disagree")
            continue
        holds = reports.pop().holds
        holds_count += holds
        fails_count += not holds
        if args.expect_known and holds != (q not in args.known):
            expected = "fail" if q in args.known else "hold"
            problems.append(f"q={q}: property was expected to {expected}")
        _progress(args, f"verify-{args.prop}: q={q} "
                        f"{'holds' if holds else 'fails'}")
    summary = {"checked": len(args.q_list), "holds": holds_count,
               "fails": fails_count, "expect_failures": len(problems)}
    return rows, summary, [f"expectation failed: {problem}" for problem in problems]


# -- oracle ------------------------------------------------------------------


def _cmd_oracle(args) -> tuple[list[tuple], dict, list[str]]:
    surveys = (("translate-sums", survey_translate_sums, "translate sums"),
               ("line-identity", survey_line_identities, "line-count identity"))
    rows: list[tuple] = []
    problems: list[str] = []
    for q in args.q_list:
        fld = build_field(ctx_for_prime_power(q))
        for name, survey, what in surveys:
            t0 = perf_counter()
            res = survey(fld)
            rows.append(_row(args, t0, q, fld.p, fld.k, f"oracle:{name}",
                             "ok" if res.ok else "fail", f"defects={res.defects}"))
            if not res.ok:
                problems.append(f"q={q}: {what} has {res.defects} defects")
        _progress(args, f"oracle: q={q} done")
    summary = {"checked": len(args.q_list), "expect_failures": len(problems)}
    return rows, summary, [f"oracle check failed: {problem}" for problem in problems]


# -- reproduce-all -----------------------------------------------------------

# (command, result, detail) of the default settle-prime-counts rows
SETTLE_EXPECTED = (
    ("prime-count-cutoff", "14", ""),
    ("settle-prime-counts", "settled", "t1=11|t2=13"),
    ("settle-prime-counts", "settled", "t1=10|t2=10"),
    ("settle-prime-counts", "unsettled", "t1=2|t2=2"),
)


def _cmd_reproduce(args) -> tuple[list[tuple], dict, list[str]]:
    phases = (
        ["scan", "--range", f"{FULL_SCAN_LO}:{args.scan_hi}", "--expect-known"],
        ["settle-prime-counts"],
        ["verify-translate", "--q-list", "exceptions", "--expect-known"],
        ["verify-line", "--q-list", "exceptions", "--expect-known"],
        ["oracle", "--q-list", "5,7,9,11,13"],
    )
    parser = _build_parser()
    rows: list[tuple] = []
    failures: list[str] = []
    for argv in phases:
        phase = parser.parse_args(argv + (["--progress"] if args.progress else []))
        t0 = perf_counter()
        phase_rows, summary, phase_failures = phase.handler(phase)
        if phase.handler is _cmd_settle:
            got = tuple(row[3:6] for row in phase_rows)
            if got != SETTLE_EXPECTED:
                phase_failures.append(f"expectation failed: settle rows {got}, "
                                      f"expected {SETTLE_EXPECTED}")
        failures += phase_failures
        rows.append(_row(args, t0, "", "", "", f"reproduce-all:{phase.command}",
                         "fail" if phase_failures else "ok",
                         "|".join(f"{key}={summary[key]}" for key in sorted(summary))))
    return rows, {"phases": len(phases), "expect_failures": len(failures)}, failures


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadprim",
        description="Verification pipeline for 2-primitive elements in "
                    "quadratic extensions.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default="-",
                        help="output file, '-' for stdout (default)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--threads", default=1,
                        type=lambda text: min(_int_in(1, None)(text), os.cpu_count() or 1),
                        help="accepted for compatibility (at least 1, capped "
                             "at the CPU count); no longer changes the scan, "
                             "which runs in one process")
    common.add_argument("--stable-output", action="store_true",
                        help="zero all elapsed fields for reproducible bytes")
    common.add_argument("--progress", action="store_true",
                        help="progress notes on stderr")

    p_scan = sub.add_parser("scan", parents=[common],
                            help="staged criteria over a q interval")
    p_scan.add_argument("--range", type=_span(3, SCAN_Q_CAP, "LO:HI"),
                        default=(FULL_SCAN_LO, FULL_SCAN_HI),
                        help=f"interval LO:HI with HI <= {SCAN_Q_CAP} "
                             f"(default 3:1048576)")
    p_scan.add_argument("--expect-known", action="store_true",
                        help="fail unless the known scan facts are reproduced")
    p_scan.set_defaults(handler=_cmd_scan)

    p_settle = sub.add_parser("settle-prime-counts", parents=[common],
                              help="exact-rational prime-count settling")
    p_settle.add_argument("pairs", nargs="*", type=_span(2, SETTLE_T_CAP, "T1:T2"),
                          default=[(11, 13), (10, 10), (2, 2)],
                          help=f"T1:T2 pairs with T2 <= {SETTLE_T_CAP} "
                               f"(default: 11:13 10:10 2:2)")
    p_settle.set_defaults(handler=_cmd_settle)

    for prop, exceptions in (("translate", TRANSLATE_EXCEPTIONS),
                             ("line", LINE_EXCEPTIONS)):
        p_v = sub.add_parser(f"verify-{prop}", parents=[common],
                             help=f"exhaustive {prop}-property verification")
        p_v.add_argument("--q-list", type=_q_list(VERIFY_Q_CAP), required=True,
                         help="comma-separated odd prime powers, or 'exceptions'")
        p_v.add_argument("--mode", choices=("reference", "fast", "both"),
                         default="fast")
        p_v.add_argument("--expect-known", action="store_true",
                         help="fail unless verdicts match the known failure sets")
        p_v.set_defaults(handler=_cmd_verify, prop=prop, known=exceptions)

    p_oracle = sub.add_parser("oracle", parents=[common],
                              help="character-sum surveys for small q")
    p_oracle.add_argument("--q-list", type=_q_list(ORACLE_Q_CAP), required=True,
                          help=f"comma-separated odd prime powers "
                               f"q <= {ORACLE_Q_CAP}")
    p_oracle.set_defaults(handler=_cmd_oracle)

    p_all = sub.add_parser("reproduce-all", parents=[common],
                           help="run every phase with known expectations")
    p_all.add_argument("--scan-hi", type=_int_in(3, SCAN_Q_CAP), default=FULL_SCAN_HI)
    p_all.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # opened before the handler runs, so a bad path costs no work
    try:
        out = sys.stdout if args.output == "-" else open(args.output, "w", newline="")
    except OSError as exc:
        print(f"quadprim: error: cannot write --output {args.output}: {exc.strerror}",
              file=sys.stderr)
        return 2
    try:
        rows, summary, failures = args.handler(args)
        _emit(args, out, rows, summary)
        out.flush()
    except OSError as exc:
        # A reader that closed the pipe wants no more output, so only other
        # write errors, such as a full disk, are reported.  As the signal
        # module's docs advise, the rest goes to devnull, so neither the
        # close nor the exit-time flush raises again.
        if not isinstance(exc, BrokenPipeError):
            print(f"quadprim: error: cannot write output: {exc.strerror}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 1
    finally:
        if out is not sys.stdout:
            out.close()
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
