"""Mutation checks: every mutant must make each of its named tests fail.

Usage (from the repository root, standard library and pytest only):

    python3 tools/mutants.py

Each entry names a file, a text that occurs in it exactly once, the text
that replaces it, and the pytest ids that must fail.  The script copies
src/, tests/, perfbench/ and pyproject.toml into a temporary directory,
applies one mutant there, runs its tests in that copy, and prints
``killed`` when every named test failed and ``survived`` otherwise.  An
entry whose old text is not found once is ``stale``.  The exit status
is 1 if any mutant survived or is stale, else 0.  The repository itself
is never modified.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


ARITH = "src/quadprim/arith.py"
CHARORACLE = "src/quadprim/charoracle.py"
CRITERIA = "src/quadprim/criteria.py"
CLI = "src/quadprim/cli.py"
FFIELD = "src/quadprim/ffield.py"
VERIFY = "src/quadprim/verify.py"
TEST_CHARORACLE = "tests/test_charoracle.py"

MUTANTS = (
    # the character-sum oracle
    Mutant("oracle-perturbed-log", CHARORACLE,
           "(j - (q + 1) * log[y]) % m", "(j + (j == q) - (q + 1) * log[y]) % m",
           ("tests/test_charoracle.py::test_dlog_roundtrip",
            "tests/test_charoracle.py::test_translate_sum_values",
            "tests/test_cli.py::test_oracle_output_bytes_are_pinned")),
    Mutant("oracle-no-multiple-of-q+1-check", CHARORACLE,
           "\n               + sum(1 for l in logs if l % h == 0))", ")",
           ("tests/test_cli.py::test_oracle_fails_on_a_wrong_log_set",)),
    Mutant("oracle-fourth-powers", CHARORACLE,
           "if e % 4 == 2 and", "if e % 4 == 0 and",
           ("tests/test_charoracle.py::test_line_target_count_identity",
            "tests/test_charoracle.py::test_line_count_survey",
            "tests/test_acceptance.py::test_c5_character_sum_oracle")),
    Mutant("oracle-no-gcd-clause", CHARORACLE,
           " and math.gcd(e, r) == 1)", ")",
           ("tests/test_charoracle.py::test_line_target_count_identity",
            "tests/test_charoracle.py::test_line_count_survey")),
    # the test-side character expansion the line count is checked against
    Mutant("oracle-ramanujan-sum-term", TEST_CHARORACLE,
           "sum(mu * (d // k) for k, mu", "sum(mu * k for k, mu",
           ("tests/test_charoracle.py::test_ramanujan_sums_match_float_characters",
            "tests/test_charoracle.py::test_characters_census",
            "tests/test_charoracle.py::test_character_orthogonality")),
    # the interval scan's count table
    Mutant("count-table-exactly-one", ARITH,
           "c <= 1 for c in range(256)", "c == 1 for c in range(256)",
           ("tests/test_arith.py::test_enumerate_odd_prime_powers_small",)),
    Mutant("count-table-block-step", ARITH,
           "for i in range(odd - base, len(counts), 16384))",
           "for i in range(odd - base, len(counts), 16382))",
           ("tests/test_arith.py::test_enumerate_matches_prime_power_ctx",)),
    Mutant("count-table-sieved-to-hi-half", ARITH,
           "_primes((hi + 1) >> 1)", "_primes(hi >> 1)",
           ("tests/test_arith.py::test_small_windows_match_factorize",)),
    Mutant("powers-from-primes-below-isqrt-hi", ARITH,
           "_primes(isqrt(hi))", "_primes(isqrt(hi) - 1)",
           ("tests/test_arith.py::test_small_windows_match_factorize",)),
    Mutant("factorize-leftover-prime-first", ARITH,
           "factors.append((m, 1))", "factors.insert(0, (m, 1))",
           ("tests/test_arith.py::test_factorize_reassembles_and_sorts",)),
    Mutant("factorize-stops-at-d-squared", ARITH,
           "while d * d <= m:", "while d * d < m:",
           ("tests/test_arith.py::test_factorize_reassembles_and_sorts",)),
    Mutant("factorize-wheel-wraps-to-4", ARITH,
           "i = i + 1 if i < 10 else 3", "i = i + 1 if i < 10 else 4",
           ("tests/test_arith.py::test_factorize_reassembles_and_sorts",)),
    Mutant("odd-prime-walk-starts-at-5", ARITH,
           "for p in range(3, isqrt(n) + 1, 2):", "for p in range(5, isqrt(n) + 1, 2):",
           ("tests/test_arith.py::test_first_primes",
            "tests/test_arith.py::test_count_source_matches_factorize")),
    Mutant("scan-range-without-cap", ARITH,
           "if not 3 <= lo <= hi <= SCAN_Q_CAP:", "if not 3 <= lo <= hi:",
           ("tests/test_arith.py::test_enumerate_rejects_bad_range",)),
    # the scan's verdicts and keep test
    Mutant("scan-keeps-only-failures", CRITERIA,
           "elif q in powers:", "elif False:",
           ("tests/test_cli.py::test_scan_rows_match_library",)),
    Mutant("positive-with-A-zero", CRITERIA,
           "return A > 0 or B * B * q > A * A", "return A >= 0 or B * B * q > A * A",
           ("tests/test_acceptance.py::test_c1_interval_scan",)),
    Mutant("fractions-imported-on-load", CRITERIA,
           "from functools import lru_cache\n",
           "from fractions import Fraction\nfrom functools import lru_cache\n",
           ("tests/test_cli.py::test_cli_import_leaves_out_dataclasses_and_inspect",)),
    Mutant("cutoff-without-denominator", CRITERIA,
           "if not 2 ** (8 * j) * den8 < num8 * prod:", "if not 2 ** (8 * j) < num8 * prod:",
           ("tests/test_criteria.py::test_divisor_bound_check_is_exact",)),
    # the scan bound, the scan's hand-off and the CSV writer
    Mutant("scan-bound-greedy-s", CRITERIA,
           "key=lambda row: row[1])", "key=lambda row: -row[0])",
           ("tests/test_criteria.py::test_scan_bound_table",
            "tests/test_criteria.py::test_scan_bound_passes_the_sieve_above_q_t")),
    Mutant("scan-reclassifies-failures", CRITERIA,
           "s, margin = _walk(q, _odd_primes(q), 1, margin)",
           "s, margin = _walk(q, _odd_primes(q), 0, -inf)",
           ("tests/test_criteria.py::test_scan_hands_basic_failures_to_the_sieve",)),
    # the passing step s a verdict names
    Mutant("scan-stores-s-plus-one", CRITERIA,
           "kept[q] = p, k, exception if s is None else sieve, s\n",
           "kept[q] = p, k, exception if s is None else sieve, s and s + 1\n",
           ("tests/test_criteria.py::test_full_scan_failures_match_the_decompositions",
            "tests/test_criteria.py::test_classify_stops_at_first_passing_decomposition",
            "tests/test_criteria.py::test_scan_equals_classifying_every_context")),
    Mutant("classify-s0-as-sieve-pass", CRITERIA,
           "else Stage.SIEVE_PASS if s else Stage.BASIC_PASS", "else Stage.SIEVE_PASS",
           ("tests/test_criteria.py::test_classify_known_stages",
            "tests/test_criteria.py::test_scan_equals_classifying_every_context")),
    Mutant("scan-absent-q-without-s", CRITERIA,
           "get(q, (q, 1, basic, 0))", "get(q, (q, 1, basic, None))",
           ("tests/test_criteria.py::test_full_scan_failures_match_the_decompositions",
            "tests/test_criteria.py::test_scan_equals_classifying_every_context")),
    Mutant("scan-kept-basic-pass-without-s", CRITERIA,
           "kept[q] = p, k, basic, 0", "kept[q] = p, k, basic, None",
           ("tests/test_criteria.py::test_scan_equals_classifying_every_context",)),
    Mutant("scan-counts-swapped", CRITERIA,
           "counts[q + down] << 3 | counts[q + up]]", "counts[q + up] << 3 | counts[q + down]]",
           ("tests/test_criteria.py::test_scan_equals_classifying_every_context",)),
    # the basic stage's class thresholds
    Mutant("thresholds-bisection-returns-lo", CRITERIA,
           "b] = hi, e, A0, float(B)", "b] = lo, e, A0, float(B)",
           ("tests/test_criteria.py::test_basic_thresholds_are_the_first_passing_q",)),
    Mutant("thresholds-index-a-b-swapped", CRITERIA,
           "classes[(r & 2) << 5 | a << 3 | b]", "classes[(r & 2) << 5 | b << 3 | a]",
           ("tests/test_criteria.py::test_basic_thresholds_are_the_first_passing_q",)),
    Mutant("thresholds-e-from-q-mod-4-is-3", CRITERIA,
           "e = 2 if r == 1 else 1", "e = 2 if r == 3 else 1",
           ("tests/test_criteria.py::test_basic_thresholds_are_the_first_passing_q",)),
    Mutant("scan-elapsed-text-in-json", CLI,
           "else round((perf_counter() - t0) * 1000.0 / max(total, 1), 3))",
           "else str(round((perf_counter() - t0) * 1000.0 / max(total, 1), 3)))",
           ("tests/test_cli.py::test_scan_json_elapsed_is_a_number",)),
    Mutant("csv-guard-without-none", CLI,
           """and '"' not in text and "None" not in text)""", """and '"' not in text)""",
           ("tests/test_cli.py::test_csv_rows_refuse_cells_csv_writer_would_quote",)),
    Mutant("csv-guard-without-quote", CLI,
           """and '"' not in text and "None" not in text)""", """and "None" not in text)""",
           ("tests/test_cli.py::test_csv_rows_refuse_cells_csv_writer_would_quote",)),
    Mutant("csv-rows-end-in-newline", CLI,
           '_CSV_ROW = ",".join(["%s"] * len(ROW_FIELDS)) + "\\r\\n"',
           '_CSV_ROW = ",".join(["%s"] * len(ROW_FIELDS)) + "\\n"',
           ("tests/test_cli.py::test_scan_output_bytes_are_pinned",
            "tests/test_cli.py::test_verify_output_bytes_are_pinned",
            "tests/test_cli.py::test_oracle_output_bytes_are_pinned")),
    # the scan's CSV written from its columns
    Mutant("csv-run-boundary-bisect-right", CLI,
           "j = bisect_left(qs, q, i)", 'j = __import__("bisect").bisect_right(qs, q, i)',
           ("tests/test_cli.py::test_scan_output_bytes_are_pinned",
            "tests/test_cli.py::test_csv_rows_are_csv_writer_bytes",
            "tests/test_cli.py::test_scan_csv_and_json_agree_cell_for_cell")),
    Mutant("csv-run-piece-cap-off-by-one", CLI,
           "b = min(a + _CSV_BATCH, j)", "b = min(a + _CSV_BATCH + 1, j)",
           ("tests/test_cli.py::test_csv_rows_are_csv_writer_bytes[scan-long-runs]",
            "tests/test_cli.py::test_scan_csv_and_json_agree_cell_for_cell"
            "[1048577:1200000-timed]",
            "tests/test_cli.py::test_scan_csv_and_json_agree_cell_for_cell"
            "[1048577:1200000-stable]")),
    # --stable-output, applied where each elapsed_ms is measured
    Mutant("scan-elapsed-kept-when-stable", CLI,
           "elapsed_ms = (0 if args.stable_output\n                  else ", "elapsed_ms = (",
           ("tests/test_cli.py::test_scan_output_bytes_are_pinned",
            "tests/test_cli.py::test_csv_rows_are_csv_writer_bytes[scan-stable]",
            "tests/test_cli.py::test_scan_csv_and_json_agree_cell_for_cell[3:300000-stable]")),
    Mutant("row-elapsed-kept-when-stable", CLI,
           "elapsed_ms = 0 if args.stable_output else round(", "elapsed_ms = round(",
           ("tests/test_cli.py::test_verify_output_bytes_are_pinned",
            "tests/test_cli.py::test_oracle_output_bytes_are_pinned")),
    # the command line's reader of numeric arguments
    Mutant("span-without-order-check", CLI,
           "if a > b:", "if False:",
           ("tests/test_cli.py::test_usage_errors_exit_2",
            "tests/test_cli.py::test_numeric_arguments_accept_and_refuse_exactly")),
    # the epsilon walk and its readers
    Mutant("settle-reads-first-s", CRITERIA,
           "*_, (s, num, den, _, _) = _moves(first_primes(t1)[::-1])",
           "(s, num, den, _, _), *_ = _moves(first_primes(t1)[::-1])",
           ("tests/test_acceptance.py::test_c2_prime_count_settling",
            "tests/test_criteria.py::test_settle_on_every_pair")),
    Mutant("greedy-without-s0", CRITERIA,
           "for s, num, den, r, num_prime in _moves(primes_desc, qp1):",
           "for s, num, den, r, num_prime in islice(_moves(primes_desc, qp1), 1, None):",
           ("tests/test_criteria.py::test_greedy_decomposition_q41",
            "tests/test_criteria.py::test_sieve_with_no_primes_matches_basic")),
    Mutant("moves-subtract-den-times-p", CRITERIA,
           "num = num * p - den\n", "num = num * p - den * p\n",
           ("tests/test_acceptance.py::test_c1_interval_scan",)),
    Mutant("moves-epsilon-prime-without-den", CRITERIA,
           "num_prime = num_prime * p - den * on", "num_prime = num_prime * p",
           ("tests/test_criteria.py::test_greedy_decomposition_q41",
            "tests/test_criteria.py::test_sieve_condition_is_exact")),
    Mutant("moves-r-not-incremented", CRITERIA,
           "r += on\n", "r += 0\n",
           ("tests/test_criteria.py::test_greedy_k1_and_r_match_direct_recomputation",
            "tests/test_criteria.py::test_greedy_decomposition_q41")),
    Mutant("sieve-w-k1-from-b", CRITERIA,
           "1 << (b - r))", "1 << b)",
           ("tests/test_criteria.py::test_full_scan_failures_match_the_decompositions",
            "tests/test_cli.py::test_scan_output_bytes_are_pinned")),
    # the verifiers, the reference walk and the primitive element
    Mutant("reference-cover-keeps-key-0", VERIFY,
           "if key != zero:", "if True:",
           ("tests/test_verify.py::test_reference_cover_skips_the_line_through_0",)),
    Mutant("coset-comb-shifted-by-one-coset", VERIFY,
           "mask &= ~(comb << (i * step % r))", "mask &= ~(comb << ((i + 1) * step % r))",
           ("tests/test_verify.py::test_coset_cover_matches_a_brute_force_walk",)),
    Mutant("zech-index-off-by-one", VERIFY,
           "z = zech[(lc + ly - ls) % n]", "z = zech[(lc + ly - ls + 1) % n]",
           ("tests/test_cli.py::test_failure_witnesses_are_pinned",)),
    Mutant("reference-walk-not-copied", VERIFY,
           "walk.__copy__())", "walk)",
           ("tests/test_verify.py::test_reference_and_fast_agree",)),
    Mutant("digit-slopes-skip-fixed-slope", VERIFY,
           "if c <= mate:", "if c < mate:",
           ("tests/test_acceptance.py::test_c4_line_verification",)),
    Mutant("digit-slopes-mate-t-plus-c", VERIFY,
           "(trace // w - c // w) % p", "(trace // w + c // w) % p",
           ("tests/test_verify.py::test_fast_line_tests_one_slope_per_frobenius_pair",)),
    Mutant("primitive-without-base-field-test", FFIELD,
           "and not any(self.in_base_field", "and not all(self.in_base_field",
           ("tests/test_acceptance.py::test_c3_translate_verification",)),
    # the F_p linear algebra of the field: kernel rows, codec, shift-and-fold
    Mutant("frobenius-untransposed", FFIELD,
           "return tuple(zip(*cols))", "return tuple(cols)",
           ("tests/test_ffield.py::test_frobenius_is_field_automorphism",)),
    Mutant("codec-digits-swapped", FFIELD,
           "element_from_index(s + self.q * y)", "element_from_index(self.q * s + y)",
           ("tests/test_ffield.py::test_fq_coords_roundtrip",)),
    Mutant("shift-without-carry-fold", FFIELD,
           "carry = v[-1]\n", "carry = 0\n",
           ("tests/test_ffield.py::test_fq_log_tables",
            "tests/test_ffield.py::test_extension_moduli_are_pinned")),
    Mutant("fq-exp-k1-step-by-b-squared", FFIELD,
           "exp.append(exp[-1] * b % p)", "exp.append(exp[-1] * b * b % p)",
           ("tests/test_ffield.py::test_fq_log_tables",)),
    # the field kernel: degree-2 closed forms and the packed product
    Mutant("product-slot-one-byte-narrower", FFIELD,
           "array(t).itemsize * 8 >= bound.bit_length()",
           "array(t).itemsize * 8 >= bound.bit_length() - 8",
           ("tests/test_ffield.py::test_mul_matches_schoolbook_product",
            "tests/test_ffield.py::test_frobenius_is_the_q_power",
            "tests/test_ffield.py::test_product_slot_bound_is_enforced")),
    Mutant("packed-rows-reversed", FFIELD,
           "_ORDER)\n                                  for row in rows])",
           "_ORDER)\n                                  for row in rows[::-1]])",
           ("tests/test_ffield.py::test_mul_matches_schoolbook_product",
            "tests/test_ffield.py::test_inverse_and_pow")),
    Mutant("product-split-one-slot-low", FFIELD,
           "low_bits = 8 * deg * width", "low_bits = 8 * (deg - 1) * width",
           ("tests/test_ffield.py::test_mul_matches_schoolbook_product",
            "tests/test_ffield.py::test_extension_moduli_are_pinned")),
    # the k = 1 modulus is always x**2 + c0, so the degree-2 q-power matrix
    # is diag(1, -1) and a transposed read is an equivalent mutant; the
    # diagonal entries are read swapped instead
    Mutant("frobenius-deg2-diagonal-swapped", FFIELD,
           "(f00 * u0 + f01 * u1) % p", "(f11 * u0 + f01 * u1) % p",
           ("tests/test_ffield.py::test_frobenius_is_the_q_power",
            "tests/test_ffield.py::test_frobenius_is_field_automorphism")),
    Mutant("sub-deg2-operands-swapped", FFIELD,
           "return ((u0 - v0) % p, (u1 - v1) % p)", "return ((v0 - u0) % p, (v1 - u1) % p)",
           ("tests/test_ffield.py::test_add_and_sub_are_coordinatewise",
            "tests/test_ffield.py::test_field_axioms_sampled")),
    Mutant("gap-cache-keyed-by-j", VERIFY,
           "step = gap_powers.get(gap)", "step = gap_powers.get(j)",
           ("tests/test_verify.py::test_reference_walk_is_shared_across_slopes",)),
    # the line verifier's naming pass
    Mutant("naming-pass-sign-dropped", VERIFY,
           "(log[s] - log[y] + n // 2) % n", "(log[s] - log[y]) % n",
           ("tests/test_acceptance.py::test_c6_structural_properties",)),
)

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def _failed(test: str, failed: set[str]) -> bool:
    """True when the named test, or any parametrized case of it, failed."""
    return any(f == test or f.startswith(test + "[") for f in failed)


def run(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="mutant-") as work:
        for name in COPIED:
            src = os.path.join(ROOT, name)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(work, name),
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, work)
        target = os.path.join(work, mutant.path)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(mutant.old) != 1:
            return "stale"
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                 *mutant.tests],
                cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "survived (timeout)"
        failed = set(_FAILED.findall(proc.stdout))
        left = [t for t in mutant.tests if not _failed(t, failed)]
        return "killed" if not left else "survived (" + ", ".join(left) + " passed)"


def main() -> int:
    bad = 0
    for m in MUTANTS:
        verdict = run(m)
        bad += verdict != "killed"
        print(f"{m.name}: {verdict}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
