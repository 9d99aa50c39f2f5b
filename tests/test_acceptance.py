"""Go/no-go acceptance suite.

One test per headline claim, each printing a single [acceptance] line
(visible with -s, or in captured output on failure) before asserting.
The full run takes about a minute on one core; its largest parts are
the reference verifiers that cross-check the fast ones (the line
reference up to q = 311 in test_c6, about 30 s, and the translate
reference on all 101 exceptions in test_c3, about 4 s).
"""

import random
from functools import lru_cache
from math import gcd

from quadprim.arith import ctx_for_prime_power, euler_phi, factorize
from quadprim.charoracle import (
    check_sieve_inequality,
    survey_line_identities,
    survey_translate_sums,
)
from quadprim.criteria import (
    SCAN_EXCEPTIONS,
    Stage,
    prime_count_cutoff,
    scan_interval,
    settle_prime_count_range,
)
from quadprim.ffield import build_field, line_class_key, translate_classes
from quadprim.verify import (
    LINE_EXCEPTIONS,
    TRANSLATE_EXCEPTIONS,
    build_gamma_set,
    recheck_line_witness,
    recheck_translate_witness,
    verify_line_fast,
    verify_line_reference,
    verify_translate_fast,
    verify_translate_reference,
)

LINE_AGREE_MAX = 311

FULL_SCAN_TOTAL = 82_247
FULL_SCAN_BASIC_FAILURES = 2_425
FULL_SCAN_LARGEST_BASIC_FAILURE = 1_044_889


def _report(name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)
    assert ok, f"{name}{tail}"


@lru_cache(maxsize=None)
def _field(q: int):
    return build_field(ctx_for_prime_power(q))


@lru_cache(maxsize=None)
def _scan_verdicts():
    return list(scan_interval(3, 1 << 20))


@lru_cache(maxsize=None)
def _translate_reports():
    return {q: verify_translate_fast(_field(q)) for q in sorted(SCAN_EXCEPTIONS)}


@lru_cache(maxsize=None)
def _line_reports():
    return {q: verify_line_fast(_field(q)) for q in sorted(SCAN_EXCEPTIONS)}


def _two_primitive_by_walk(fld) -> list:
    out = []
    u = fld.mul(fld.a, fld.a)
    for j in range(2, fld.m, 2):
        if gcd(j, fld.m) == 2:  # a**j has order (q**2 - 1)/2
            out.append(u)
        u = fld.mul(u, fld.mul(fld.a, fld.a))
    return out


def test_c1_interval_scan():
    verdicts = _scan_verdicts()
    basic_failures = [v.q for v in verdicts
                      if v.stage in (Stage.SIEVE_PASS, Stage.EXCEPTION)]
    exceptions = [v.q for v in verdicts if v.stage is Stage.EXCEPTION]
    eliminated = [v.q for v in verdicts
                  if v.stage is Stage.ELIMINATED_BY_PRIME_COUNT]
    ok = (set(exceptions) == SCAN_EXCEPTIONS
          and max(exceptions) == 3541
          and not eliminated
          and len(verdicts) == FULL_SCAN_TOTAL
          and len(basic_failures) == FULL_SCAN_BASIC_FAILURES
          and max(basic_failures) == FULL_SCAN_LARGEST_BASIC_FAILURE)
    detail = (f"{len(verdicts)} prime powers, "
              f"{len(basic_failures)} basic failures "
              f"(largest {max(basic_failures)}), "
              f"{len(exceptions)} exceptions (largest {max(exceptions)})")
    _report("interval-scan", ok, detail)


def test_c2_prime_count_settling():
    results = {
        (11, 13): settle_prime_count_range(11, 13),
        (10, 10): settle_prime_count_range(10, 10),
        (2, 2): settle_prime_count_range(2, 2),
    }
    cutoff = prime_count_cutoff()
    ok = (results[(11, 13)] and results[(10, 10)]
          and not results[(2, 2)] and cutoff == 14)
    _report("prime-count-settling", ok,
            f"settled {sorted(k for k, v in results.items() if v)}, "
            f"cutoff={cutoff}")


def test_c3_translate_verification():
    reports = _translate_reports()
    failures = {q for q, rep in reports.items() if not rep.holds}
    ok = failures == TRANSLATE_EXCEPTIONS
    mismatches = []
    for q in sorted(SCAN_EXCEPTIONS):
        ref = verify_translate_reference(_field(q))
        fast = reports[q]
        if ref != fast:
            mismatches.append(q)
    ok = ok and not mismatches
    _report("translate-verification", ok,
            f"failures={sorted(failures)}, reference agreement checked "
            f"for all {len(reports)} values"
            + (f", mismatches={mismatches}" if mismatches else ""))


def test_c4_line_verification():
    reports = _line_reports()
    failures = {q for q, rep in reports.items() if not rep.holds}
    ok = failures == LINE_EXCEPTIONS
    _report("line-verification", ok,
            f"checked {len(reports)} values up to {max(reports)}, "
            f"failures={sorted(failures)}")


def test_c5_character_sum_oracle():
    ok = True
    sum_defects = 0
    for q in (5, 7, 9, 11, 13):
        survey = survey_translate_sums(_field(q))
        ok = ok and survey.ok
        sum_defects += survey.defects

    ident_defects = 0
    for q in (7, 11, 13):
        survey = survey_line_identities(_field(q))
        ok = ok and survey.ok
        ident_defects += survey.defects

    # 100 random divisor families, seeded for reproducibility
    rng = random.Random(20260822)
    families = 0
    holds = 0
    while families < 100:
        q = rng.choice((7, 11, 13, 43))
        fld = _field(q)
        primes = fld.ctx.fact_q2m1.primes()
        odd_primes = [p for p in primes if p != 2]
        modulus = 1
        for p in odd_primes:
            modulus *= p
        if rng.random() < 0.5:
            base, parts = 1, tuple(odd_primes)
        else:
            base = odd_primes[0]
            parts = (base,) + tuple(base * p for p in odd_primes[1:])
        theta = rng.choice(tuple(translate_classes(fld).values()))
        alpha = fld.pow(fld.a, rng.randrange(1, fld.m))
        check = check_sieve_inequality(theta, alpha, modulus, base, parts, fld)
        families += 1
        holds += check.holds
    ok = ok and holds == 100
    _report("character-sum-oracle", ok,
            f"translate-sum defects {sum_defects}, identity defects "
            f"{ident_defects}, sieve families {holds}/100")


def test_c6_structural_properties():
    ok = True
    notes = []

    # census of 2-primitive elements against the totient
    for q in (3, 5, 7, 9, 11, 13):
        fld = _field(q)
        count = sum(fld.element_order(u) == fld.m // 2 for u in fld.elements()
                    if u != fld.zero)
        if count != euler_phi(factorize(fld.m // 2)):
            ok = False
            notes.append(f"census q={q}")

    # translate classes partition the complement of the base field
    for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43,
              47, 49):
        fld = _field(q)
        sizes: dict = {}
        for u in fld.elements():
            if fld.in_base_field(u):
                continue
            key = line_class_key(u, fld.one, fld)
            sizes[key] = sizes.get(key, 0) + 1
        if len(sizes) != q - 1 or set(sizes.values()) != {q}:
            ok = False
            notes.append(f"partition q={q}")

    # fast and reference line verifiers agree wherever both run
    for q in sorted(SCAN_EXCEPTIONS):
        if q > LINE_AGREE_MAX:
            continue
        ref = verify_line_reference(_field(q))
        fast = _line_reports()[q]
        if ref != fast:
            ok = False
            notes.append(f"line agreement q={q}")

    # scaling a slope by a base-field unit permutes classes, so per-slope
    # coverage counts are invariant
    for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27):
        fld = _field(q)
        two_primitive = _two_primitive_by_walk(fld)
        c = fld.pow(fld.a, q + 1)  # generator of the base-field units
        assert fld.in_base_field(c) and c != fld.one
        for gamma in build_gamma_set(fld).gammas:
            scaled = fld.mul(c, gamma)
            cover = {line_class_key(u, gamma, fld) for u in two_primitive}
            cover_scaled = {line_class_key(u, scaled, fld)
                            for u in two_primitive}
            if len(cover - {None}) != len(cover_scaled - {None}):
                ok = False
                notes.append(f"scaling q={q}")
                break

    _report("structural-properties", ok,
            "; ".join(notes) if notes else
            f"census q<=13, partition q<=49, line agreement "
            f"q<={LINE_AGREE_MAX}, scaling q<=27")


def test_c7_witness_validity():
    ok = True
    notes = []
    for q, rep in _translate_reports().items():
        if rep.holds:
            if rep.witness is not None:
                ok = False
                notes.append(f"translate q={q} spurious witness")
            continue
        if rep.witness is None or not recheck_translate_witness(
                _field(q), rep.witness):
            ok = False
            notes.append(f"translate q={q}")
    for q, rep in _line_reports().items():
        if rep.holds:
            if rep.witness is not None:
                ok = False
                notes.append(f"line q={q} spurious witness")
            continue
        gamma, key = rep.witness
        if not recheck_line_witness(_field(q), gamma, key):
            ok = False
            notes.append(f"line q={q}")
    _report("witness-validity", ok,
            "; ".join(notes) if notes else
            f"{len(TRANSLATE_EXCEPTIONS)} translate and "
            f"{len(LINE_EXCEPTIONS)} line witnesses re-verified")
