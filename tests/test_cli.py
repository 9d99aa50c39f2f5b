"""Command-line interface tests.

Everything runs in process through quadprim.cli.main so exit codes and
output files can be checked without spawning subprocesses; only the
tests that need a real pipe, a full device or a fresh interpreter start
one.
"""

import concurrent.futures
import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import quadprim
from quadprim import arith, charoracle, cli
from quadprim.arith import ctx_for_prime_power
from quadprim.cli import (
    ROW_FIELDS,
    SCAN_Q_CAP,
    _build_parser,
    _emit,
    _scan_rows,
    _write_csv,
    main,
)
from quadprim.criteria import SCAN_EXCEPTIONS, classify_prime_power
from quadprim.ffield import build_field
from quadprim.verify import LINE_EXCEPTIONS, TRANSLATE_EXCEPTIONS, verify_line_fast


def _read_csv(path):
    """Return (summary_dict, row_dicts) from an output file."""
    summary = {}
    data_lines = []
    for line in path.read_text().splitlines():
        if line.startswith("# summary: "):
            key, _, value = line[len("# summary: "):].partition("=")
            summary[key] = value
        else:
            data_lines.append(line)
    rows = list(csv.DictReader(data_lines))
    return summary, rows


def test_scan_rows_match_library(tmp_path):
    # the range holds 243 = 3**5, the smallest basic pass with k > 1
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--range", "3:300", "--stable-output",
               "--output", str(out)])
    assert rc == 0
    summary, rows = _read_csv(out)
    assert summary["total"] == str(len(rows))
    for row in rows:
        q = int(row["q"])
        verdict = classify_prime_power(ctx_for_prime_power(q))
        assert row["result"] == verdict.stage.value
        assert int(row["p"]) ** int(row["k"]) == q
        assert (int(row["p"]), int(row["k"])) == (verdict.p, verdict.k)
        # detail column carries the margin, rounded for display
        assert float(row["detail"]) == pytest.approx(verdict.margin, rel=1e-4)


def test_scan_stable_output_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert main(["scan", "--range", "3:500", "--stable-output",
                     "--output", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_json_format(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["scan", "--range", "3:100", "--format", "json",
                 "--stable-output", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"rows", "summary"}
    assert doc["summary"]["total"] == len(doc["rows"])
    first = doc["rows"][0]
    assert first["q"] == 3
    assert first["command"] == "scan"
    assert first["result"] == "exception"


def test_scan_json_elapsed_is_a_number(tmp_path):
    # without --stable-output every JSON row carries elapsed_ms as a JSON
    # number; only the CSV rows share it as text, formatted once
    out = tmp_path / "scan.json"
    assert main(["scan", "--range", "3:2000", "--format", "json",
                 "--output", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 323
    assert all(type(row["elapsed_ms"]) is float for row in rows)
    assert '"elapsed_ms": "' not in out.read_text()


def test_usage_errors_exit_2():
    for argv in (["scan", "--range", "50:3"],
                 ["scan", "--range", "abc"],
                 ["scan", "--range", f"3:{SCAN_Q_CAP + 1}"],
                 ["scan", "--range", "3:99999999999999"],
                 ["verify-translate", "--q-list", "4,5"],
                 ["verify-line", "--q-list", "15"],
                 ["settle-prime-counts", "1:1"],
                 ["settle-prime-counts", "2:65"],
                 ["settle-prime-counts", "65:65"],
                 ["verify-translate", "--q-list", "8209"],
                 ["verify-translate", "--q-list", "3,3"],
                 ["oracle", "--q-list", "211"],
                 ["reproduce-all", "--scan-hi", "2"],
                 ["reproduce-all", "--scan-hi", str(SCAN_Q_CAP + 1)],
                 # unknown options, refused whatever their value
                 ["oracle", "--q-list", "5", "--tol-sums", "nan"],
                 ["oracle", "--q-list", "5", "--tol-sums", "-1"],
                 ["oracle", "--q-list", "5", "--tol-sums", "1"],
                 ["oracle", "--q-list", "5", "--tol-identity", "inf"],
                 ["reproduce-all", "--translate-max", "0", "--line-max", "0"],
                 ["reproduce-all", "--line-max", "2"],
                 ["reproduce-all", "--line-max", "50"],
                 ["reproduce-all", "--translate-max", "50"],
                 ["reproduce-all", "--translate-max", "x"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_threads_bounded_at_parse_time():
    # parsing fails before any worker could start
    for value in ("0", "-3"):
        with pytest.raises(SystemExit) as err:
            main(["scan", "--range", "3:5", "--threads", value])
        assert err.value.code == 2
    args = _build_parser().parse_args(["scan", "--threads", "100000"])
    assert args.threads == (os.cpu_count() or 1)


# (argv, attribute, value) of accepted numeric arguments; the value's
# type is pinned too
ACCEPTED_ARGS = [
    (["scan"], "range", (3, 1 << 20)),
    (["scan", "--range", "3:5"], "range", (3, 5)),
    (["scan", "--range", "+3:5"], "range", (3, 5)),
    (["scan", "--range", " 3 : 5 "], "range", (3, 5)),
    (["scan", "--range", "3:5_0"], "range", (3, 50)),
    (["scan", "--range", "7:7"], "range", (7, 7)),
    (["scan", "--range", f"3:{SCAN_Q_CAP}"], "range", (3, SCAN_Q_CAP)),
    (["settle-prime-counts"], "pairs", [(11, 13), (10, 10), (2, 2)]),
    (["settle-prime-counts", "2:2", " 11:+13", "64:64"], "pairs",
     [(2, 2), (11, 13), (64, 64)]),
    (["reproduce-all"], "scan_hi", 1 << 20),
    (["reproduce-all", "--scan-hi", "3"], "scan_hi", 3),
    (["reproduce-all", "--scan-hi", " 4_000 "], "scan_hi", 4000),
    (["reproduce-all", "--scan-hi", str(SCAN_Q_CAP)], "scan_hi", SCAN_Q_CAP),
    (["scan", "--threads", "1"], "threads", 1),
    (["scan", "--threads", "100000"], "threads", os.cpu_count() or 1),
    (["verify-line", "--q-list", "5,7,"], "q_list", [5, 7]),
    (["verify-line", "--q-list", ",5"], "q_list", [5]),
    (["verify-line", "--q-list", " 9 , 3 ,, "], "q_list", [9, 3]),
    (["verify-line", "--q-list", "8191"], "q_list", [8191]),
    (["verify-line", "--q-list", "exceptions"], "q_list", sorted(SCAN_EXCEPTIONS)),
    (["verify-translate", "--q-list", " exceptions "], "q_list",
     sorted(SCAN_EXCEPTIONS)),
    (["oracle", "--q-list", "5,7,9,11,13"], "q_list", [5, 7, 9, 11, 13]),
    (["oracle", "--q-list", "199,"], "q_list", [199]),
]

REFUSED_ARGS = [
    *(["scan", "--range", text] for text in (
        "3:", ":5", "3:5:7", "50:3", "2:5", "3", "", "abc", "3.0:5", "3,5",
        f"3:{SCAN_Q_CAP + 1}")),
    *(["settle-prime-counts", text] for text in (
        "1:1", "2:65", "65:65", "3:2", "2", "2:3:4", "2:", "x:3")),
    *(["reproduce-all", "--scan-hi", text] for text in (
        "5,", "2", str(SCAN_Q_CAP + 1), "", "x", "3:5", "1e3")),
    *(["scan", "--threads", text] for text in ("0", "-3", "x", "1.5", "")),
    *(["verify-line", "--q-list", text] for text in (
        "", ",", " , ", "1", "0", "-3", "2", "4", "15", "3,3", "8209", "5;7",
        "exceptions,5", "Exceptions")),
    *(["oracle", "--q-list", text] for text in ("exceptions", "211", "4", "5,5")),
]


def test_numeric_arguments_accept_and_refuse_exactly():
    parser = _build_parser()
    for argv, attr, value in ACCEPTED_ARGS:
        got = getattr(parser.parse_args(argv), attr)
        assert (got, type(got)) == (value, type(value)), argv
        if isinstance(got, list):
            assert [type(v) for v in got] == [type(v) for v in value], argv
    for argv in REFUSED_ARGS:
        with pytest.raises(SystemExit) as err:
            parser.parse_args(argv)
        assert err.value.code == 2, argv


def test_scan_runs_without_a_pool(monkeypatch):
    # --threads is still accepted, but the scan opens no process pool
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was opened")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    parser = _build_parser()
    rows_two, *rest_two = _scan_rows(3, 60_000, parser.parse_args(["scan", "--threads", "2"]))
    rows_one, *rest_one = _scan_rows(3, 60_000, parser.parse_args(["scan", "--threads", "1"]))
    # the rows are a generator; elapsed_ms, their last cell, times each call
    rows_one = [row[:-1] for row in rows_one]
    assert [row[:-1] for row in rows_two] == rows_one
    assert rest_two == rest_one
    assert len(rows_one) == rest_one[0]["total"] > 6_000


def test_scan_cap_is_the_count_table_coverage():
    # the CLI takes its cap from arith, where it bounds the scan's count
    # table; the cap is a valid HI
    assert SCAN_Q_CAP is arith.SCAN_Q_CAP
    assert SCAN_Q_CAP == 5_255_279
    args = _build_parser().parse_args(["scan", "--range", f"{SCAN_Q_CAP}:{SCAN_Q_CAP}"])
    assert args.range == (SCAN_Q_CAP, SCAN_Q_CAP)


def test_scan_streams_its_rows(tmp_path):
    # neither the verdicts nor the formatted rows are held as lists: on a
    # quarter of the full interval the scan keeps 16 bytes for each of its
    # 23,132 prime powers, and p, k and the stage only for the 2,056 that
    # are not a basic pass at k = 1, so the traced peak stays near 1.7 MB;
    # a verdict list adds about 3 MB
    out = tmp_path / "scan.csv"
    tracemalloc.start()
    try:
        assert main(["scan", "--range", "3:262144", "--stable-output",
                     "--output", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak


def test_scan_json_streams_its_rows(tmp_path):
    # JSON output writes one row object at a time, so its traced peak
    # stays near the CSV one, about 1.3 MB; a verdict list adds about 3 MB
    # and a document built whole peaks several times higher
    out = tmp_path / "scan.json"
    tracemalloc.start()
    try:
        assert main(["scan", "--range", "3:262144", "--format", "json",
                     "--stable-output", "--output", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak


def test_streamed_json_is_json_dump(tmp_path):
    # the streamed bytes equal json.dump(..., indent=2), with and without rows
    for lo, hi in ((3, 2000), (4, 4), (3, 3)):
        out = tmp_path / "scan.json"
        assert main(["scan", "--range", f"{lo}:{hi}", "--format", "json",
                     "--stable-output", "--output", str(out)]) == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_closed_pipe_exits_1_without_a_traceback():
    # the reader takes one line and closes the pipe; the rest of the
    # output, far more than a pipe buffer holds, has nowhere to go
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(quadprim.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "quadprim.cli", "scan", "--range", "3:200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"# summary:")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err, err


def _src_env():
    """The environment of a fresh interpreter that imports this quadprim."""
    return dict(os.environ,
                PYTHONPATH=os.path.dirname(os.path.dirname(quadprim.__file__)))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("to_output", [True, False], ids=["--output", "stdout"])
def test_full_device_exits_1_without_a_traceback(to_output):
    # every write to /dev/full fails with ENOSPC, whether it is named by
    # --output or stdout is redirected to it
    argv = [sys.executable, "-m", "quadprim.cli", "scan", "--range", "3:100"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv + ["--output", "/dev/full"] if to_output else argv,
                              stdout=subprocess.DEVNULL if to_output else full,
                              stderr=subprocess.PIPE, env=_src_env(), text=True)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("quadprim: error: cannot write output: "), lines


def test_cli_import_computes_no_thresholds():
    # the scan's 128 basic-stage thresholds are found on the first scan,
    # so importing the CLI, and every other command, costs nothing for them
    code = ("import os, quadprim.cli\n"
            "from quadprim.criteria import _basic_thresholds as t\n"
            "print(t.cache_info().currsize)\n"
            "quadprim.cli.main(['scan', '--range', '3:5', '--output', os.devnull])\n"
            "print(t.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=_src_env(), text=True, check=True)
    assert proc.stdout == "0\n1\n"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # the records are named tuples: importing dataclasses would also pull
    # inspect, ast, dis and tokenize into every launch; CSV rows are
    # written without the csv module; the oracle decides in integers, with
    # no complex arithmetic
    code = ("import sys, quadprim.cli; "
            "print(sorted({'dataclasses', 'inspect', 'csv', 'cmath'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=_src_env(), text=True, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["scan", "--range", "3:5000"],
    ["scan", "--range", "3:5000", "--stable-output"],
    ["settle-prime-counts"],
    ["verify-line", "--q-list", "5,9", "--mode", "both"],
    ["oracle", "--q-list", "5,7"],
    ["reproduce-all", "--scan-hi", "4000"],
], ids=["scan", "scan-stable", "settle", "verify-witness", "oracle", "reproduce-all"])
def test_csv_rows_are_csv_writer_bytes(argv):
    # every command's rows, failure witnesses and empty cells included,
    # come out as csv.writer writes them
    args = _build_parser().parse_args(argv)
    rows, summary, _ = args.handler(args)
    rows = list(rows)
    out = io.StringIO(newline="")
    _emit(args, out, iter(rows), summary)
    expected = io.StringIO(newline="")
    for key in sorted(summary):
        expected.write(f"# summary: {key}={summary[key]}\n")
    if args.stable_output:
        rows = [row[:-1] + (0,) for row in rows]
    csv.writer(expected).writerows([ROW_FIELDS] + rows)
    assert out.getvalue() == expected.getvalue()
    if argv[0] == "verify-line":
        assert "gamma=" in out.getvalue()  # q = 5 fails with a witness


@pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\r", None])
def test_csv_rows_refuse_cells_csv_writer_would_quote(cell):
    # csv.writer would quote these cells, or write None as an empty one
    good = (3, 3, 1, "scan", "exception", "0", 0.5)
    rows = [good] * 300 + [good[:5] + (cell,) + good[6:]]
    with pytest.raises(ValueError, match="would quote or blank"):
        _write_csv(io.StringIO(), rows)


def test_scan_rows_are_timed(tmp_path):
    # each row carries an equal share of the scan call's time
    out = tmp_path / "scan.csv"
    assert main(["scan", "--range", "3:5000", "--output", str(out)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 699
    assert len({row["elapsed_ms"] for row in rows}) == 1
    assert float(rows[0]["elapsed_ms"]) > 0


@pytest.mark.parametrize("argv, sha256", [
    (["scan", "--range", "3:60000", "--stable-output"],
     "4352aa01209c8522fa2d16b332cdb51eecab6bd765073c4450e55037dc23d91f"),
    (["scan", "--range", "3:5000", "--format", "json", "--stable-output"],
     "8de0078f6364250fbaaaccd58acf925593e444c43411cdd70a066bf257e5acc7"),
    (["scan", "--expect-known", "--stable-output"],
     "f8dab7cff925e305a4646567aed48f634617c6546cd33edb2e0328f6a46dec6a"),
])
def test_scan_output_bytes_are_pinned(tmp_path, argv, sha256):
    # digests of the stable scan output, row format and margins included
    out = tmp_path / "scan.out"
    assert main(argv + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("command, sha256", [
    ("verify-translate",
     "b3e3400d8c1e77102fd14f0a3b346e62b4c35f77722ed7d79ccbda986ad88c10"),
    ("verify-line",
     "c47e2f317ce739c0db0e0bf38236d919b7faa79dee9bd804aa705020124eafc0"),
])
def test_verify_output_bytes_are_pinned(tmp_path, command, sha256):
    # digests of the fast verifiers' stable output on the 43 exceptions up
    # to 169, ascending: verdicts, witnesses and classes_covered included
    qs = [q for q in sorted(SCAN_EXCEPTIONS) if q <= 169]
    assert len(qs) == 43
    out = tmp_path / "verify.csv"
    assert main([command, "--q-list", ",".join(map(str, qs)),
                 "--stable-output", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("command, q_max, count, sha256", [
    ("verify-translate", 113, 33,
     "97389737719ec1fd69a3a5ba08f55e0f98680fad8806fd023a51360d1145151b"),
    ("verify-line", 49, 18,
     "3efdf954ba071023eff1d95f2c81e0c195b631f0204bada2e85557b68bf8c52a"),
])
def test_reference_verify_output_bytes_are_pinned(tmp_path, command, q_max, count, sha256):
    # digests of the reference verifiers' stable output on the exceptions
    # up to q_max, ascending: verdicts, witnesses and classes_covered included
    qs = [q for q in sorted(SCAN_EXCEPTIONS) if q <= q_max]
    assert len(qs) == count
    out = tmp_path / "verify.csv"
    assert main([command, "--q-list", ",".join(map(str, qs)), "--mode", "reference",
                 "--stable-output", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_verify_translate_both_modes(tmp_path):
    out = tmp_path / "vt.csv"
    rc = main(["verify-translate", "--q-list", "3,5", "--mode", "both",
               "--expect-known", "--stable-output", "--output", str(out)])
    assert rc == 0
    summary, rows = _read_csv(out)
    assert summary["expect_failures"] == "0"
    # two flavors per q, and they agree with the known failure set
    assert len(rows) == 4
    for row in rows:
        q = int(row["q"])
        expected = "fails" if q in TRANSLATE_EXCEPTIONS else "holds"
        assert row["result"] == expected
        assert row["command"].startswith("verify-translate:")
    flavors = {row["command"].split(":")[1] for row in rows}
    assert flavors == {"reference", "fast"}


def test_verify_line_known_verdicts(tmp_path):
    out = tmp_path / "vl.csv"
    rc = main(["verify-line", "--q-list", "3,43", "--expect-known",
               "--stable-output", "--output", str(out)])
    assert rc == 0
    _, rows = _read_csv(out)
    verdicts = {int(row["q"]): row["result"] for row in rows}
    assert verdicts[3] == ("fails" if 3 in LINE_EXCEPTIONS else "holds")
    assert verdicts[3] == "fails"
    assert verdicts[43] == "holds"


def test_failure_witnesses_are_pinned(tmp_path):
    # the detail cells of the fast verifiers on every failing q
    expected = {
        "line": ("3,5,7,9,11,13,31,41",
                 ["gamma=0.2|key=0.1", "gamma=1.0|key=0.2",
                  "gamma=1.0|key=0.3", "gamma=0.1.2.0|key=0.1.0.1",
                  "gamma=1.0|key=0.1", "gamma=1.0|key=0.2",
                  "gamma=1.0|key=0.11", "gamma=1.0|key=0.6"]),
        "translate": ("5,7,11,13,31,41",
                      ["key=0.2", "key=0.3", "key=0.1", "key=0.2",
                       "key=0.11", "key=0.6"]),
    }
    for prop, (q_list, details) in expected.items():
        out = tmp_path / f"{prop}.csv"
        assert main([f"verify-{prop}", "--q-list", q_list, "--stable-output",
                     "--output", str(out)]) == 0
        _, rows = _read_csv(out)
        assert [row["detail"] for row in rows] == details
        assert all(row["result"] == "fails" for row in rows)


def test_verify_expect_known_catches_wrong_expectation(tmp_path, monkeypatch):
    # shrink the known set so q=5 looks like it should hold
    monkeypatch.setattr("quadprim.cli.TRANSLATE_EXCEPTIONS", frozenset())
    out = tmp_path / "vt.csv"
    rc = main(["verify-translate", "--q-list", "5", "--expect-known",
               "--stable-output", "--output", str(out)])
    assert rc == 1


def test_settle_prime_counts(tmp_path):
    out = tmp_path / "settle.csv"
    assert main(["settle-prime-counts", "--stable-output",
                 "--output", str(out)]) == 0
    summary, rows = _read_csv(out)
    assert summary["cutoff"] == "14"
    by_command = {}
    for row in rows:
        by_command.setdefault(row["command"], []).append(row)
    assert by_command["prime-count-cutoff"][0]["result"] == "14"
    results = {row["detail"]: row["result"]
               for row in by_command["settle-prime-counts"]}
    assert results["t1=11|t2=13"] == "settled"
    assert results["t1=10|t2=10"] == "settled"
    assert results["t1=2|t2=2"] == "unsettled"
    assert all(row["elapsed_ms"] == "0" for row in rows)


def test_benchmark_contract_matches_the_cli():
    # every benchmark invocation parses as the benchmark launches it, and
    # the benchmark's own copy of the pinned facts equals the package's;
    # its workload file is loaded by path, as perfbench is no package
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    parser = _build_parser()
    for workload in wl.WORKLOADS:
        for seed in (1, 2, 3):
            for inv in wl.invocations(workload, seed):
                args = parser.parse_args(inv["argv"] + ["--threads", "1", "--output", "x"])
                assert (args.threads, args.output) == (1, "x"), inv["argv"]
                if inv["kind"] == "settle":
                    assert {tuple(pair) for pair in args.pairs} == wl.SETTLE_PAIRS.keys()
    assert wl.SCAN_EXCEPTIONS == SCAN_EXCEPTIONS
    assert wl.FAILS == {"translate": TRANSLATE_EXCEPTIONS, "line": LINE_EXCEPTIONS}
    assert (("prime-count-cutoff", str(wl.SETTLE_CUTOFF), ""),) + tuple(
        ("settle-prime-counts", result, f"t1={t1}|t2={t2}")
        for (t1, t2), result in wl.SETTLE_PAIRS.items()) == cli.SETTLE_EXPECTED
    assert (wl.SCAN_TOTAL, wl.SCAN_BASIC_FAILURES, wl.SCAN_LARGEST_BASIC_FAILURE,
            len(wl.SCAN_EXCEPTIONS)) == \
        (cli.FULL_SCAN_TOTAL, cli.FULL_SCAN_BASIC_FAILURES,
         cli.FULL_SCAN_LARGEST_BASIC_FAILURE, cli.FULL_SCAN_EXCEPTION_COUNT)


def test_settle_rows_are_timed(tmp_path):
    out = tmp_path / "settle.csv"
    assert main(["settle-prime-counts", "11:13", "--output", str(out)]) == 0
    _, rows = _read_csv(out)
    assert [row["command"] for row in rows] == ["prime-count-cutoff",
                                                "settle-prime-counts"]
    assert all(float(row["elapsed_ms"]) >= 0 for row in rows)
    assert float(rows[1]["elapsed_ms"]) > 0


def test_oracle_passes_at_default_tolerance(tmp_path):
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--q-list", "5,7", "--stable-output",
                 "--output", str(out)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 4
    assert all(row["result"] == "ok" for row in rows)


def test_oracle_output_bytes_are_pinned(tmp_path):
    # digest of the stable oracle output on the benchmark's fields: both
    # surveys' exact defect counts
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--q-list", "5,7,9,11,13,17,19,23", "--stable-output",
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "b4b13c958c1913cb2fe48ba0b37c297a4800f877c81272a0687c454e035161b5"


@pytest.mark.parametrize("alter", [
    lambda report, fld: report._replace(witness=(
        report.witness[0], fld.add(report.witness[1], fld.one))),
    lambda report, fld: report._replace(classes_covered=report.classes_covered + 1),
], ids=["witness", "classes_covered"])
def test_verify_both_compares_whole_reports(tmp_path, capsys, monkeypatch, alter):
    # a fast report with the right verdict but another witness or cover
    # count is a disagreement, as a wrong verdict is
    def altered_fast(fld):
        report = verify_line_fast(fld)
        altered = alter(report, fld)
        assert altered != report and altered.holds == report.holds is False
        return altered

    monkeypatch.setattr("quadprim.cli.verify_line_fast", altered_fast)
    out = tmp_path / "vl.csv"
    assert main(["verify-line", "--q-list", "5", "--mode", "both",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "expectation failed: q=5: reference and fast verifiers disagree"]


def test_oracle_rows_are_timed(tmp_path):
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--q-list", "5", "--output", str(out)]) == 0
    _, rows = _read_csv(out)
    assert all(float(row["elapsed_ms"]) > 0 for row in rows)


def test_verify_rows_are_timed(tmp_path):
    # the verifiers keep no clocks: the CLI times each call
    for prop in ("translate", "line"):
        out = tmp_path / f"{prop}.csv"
        assert main([f"verify-{prop}", "--q-list", "5,9", "--mode", "both",
                     "--output", str(out)]) == 0
        _, rows = _read_csv(out)
        assert len(rows) == 4
        assert all(float(row["elapsed_ms"]) > 0 for row in rows)


def test_unwritable_output_exits_2_before_the_handler(tmp_path, capsys, monkeypatch):
    def unreachable(args):
        raise AssertionError("handler ran despite an unwritable --output")

    monkeypatch.setattr("quadprim.cli._cmd_verify", unreachable)
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main(["verify-line", "--q-list", "3", "--output", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("quadprim: error:"), lines
        assert str(path) in lines[0]
    assert not (tmp_path / "missing").exists()


def test_oracle_fails_on_a_wrong_log_set(tmp_path, capsys, monkeypatch):
    # one log moved by 1 breaks the difference test, and the line counts
    # too; L + 3 is still a relative difference set, so only its one log
    # in (q+1)Z is a defect
    fld = build_field(ctx_for_prime_power(5))
    logs = charoracle.log_set(fld)
    cases = [((logs[0] + 1,) + logs[1:], ("fail", "defects=8"), ("fail", "defects=4")),
             (tuple((e + 3) % fld.m for e in logs), ("fail", "defects=1"), ("ok", "defects=0"))]
    for wrong, translate, line in cases:
        monkeypatch.setattr("quadprim.charoracle.log_set", lambda fld, w=wrong: w)
        out = tmp_path / "oracle.csv"
        rc = main(["oracle", "--q-list", "5", "--stable-output", "--output", str(out)])
        assert rc == 1
        assert "oracle check failed: q=5: translate sums has" in capsys.readouterr().err
        _, rows = _read_csv(out)
        assert [(row["result"], row["detail"]) for row in rows] == [translate, line]


def test_oracle_rejects_large_q():
    with pytest.raises(SystemExit) as err:
        main(["oracle", "--q-list", "211"])
    assert err.value.code == 2


REPRODUCE_PHASES = ["reproduce-all:scan", "reproduce-all:settle-prime-counts",
                    "reproduce-all:verify-translate", "reproduce-all:verify-line",
                    "reproduce-all:oracle"]
SMALL_REPRODUCE = ["reproduce-all", "--scan-hi", "4000", "--stable-output"]


def test_reproduce_all_smoke(tmp_path, capsys):
    # one row per phase, written through --output like every subcommand
    out = tmp_path / "rep.csv"
    assert main(SMALL_REPRODUCE + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    summary, rows = _read_csv(out)
    assert summary == {"phases": "5", "expect_failures": "0"}
    assert [row["command"] for row in rows] == REPRODUCE_PHASES
    assert all(row["result"] == "ok" for row in rows)
    assert all(row["elapsed_ms"] == "0" for row in rows)
    assert "|exceptions=101|" in rows[0]["detail"]
    # the verify phases check every scan exception
    assert rows[2]["detail"] == "checked=101|expect_failures=0|fails=6|holds=95"
    assert rows[3]["detail"] == "checked=101|expect_failures=0|fails=8|holds=93"
    assert rows[4]["detail"] == "checked=5|expect_failures=0"

    out_json = tmp_path / "rep.json"
    assert main(SMALL_REPRODUCE + ["--format", "json", "--output", str(out_json)]) == 0
    doc = json.loads(out_json.read_text())
    assert [row["command"] for row in doc["rows"]] == REPRODUCE_PHASES
    assert doc["summary"] == {"phases": 5, "expect_failures": 0}


def test_reproduce_all_reports_the_failing_phase(tmp_path, capsys, monkeypatch):
    # with the known line failures emptied, only the verify-line phase fails
    monkeypatch.setattr("quadprim.cli.LINE_EXCEPTIONS", frozenset())
    out = tmp_path / "rep.csv"
    assert main(SMALL_REPRODUCE + ["--output", str(out)]) == 1
    assert "expectation failed: q=3" in capsys.readouterr().err
    summary, rows = _read_csv(out)
    assert summary["expect_failures"] == "8"
    results = {row["command"]: row["result"] for row in rows}
    assert results.pop("reproduce-all:verify-line") == "fail"
    assert set(results.values()) == {"ok"}
    assert len(results) == 4
