import hashlib
import math
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from quadprim import arith, criteria
from quadprim.arith import SCAN_Q_CAP, ctx_for_prime_power, factorize
from quadprim.criteria import (
    SCAN_EXCEPTIONS,
    _divisor_bound_holds,
    _max_prime_count,
    _positive,
    _sieve_sign,
    CriterionVerdict,
    SieveDecomposition,
    Stage,
    classify_prime_power,
    greedy_decompose,
    prime_count_cutoff,
    scan_blocks,
    scan_bound,
    scan_interval,
    settle_prime_count_range,
    sieve_condition,
)


def test_exception_table_shape():
    assert len(SCAN_EXCEPTIONS) == 101
    assert min(SCAN_EXCEPTIONS) == 3
    assert max(SCAN_EXCEPTIONS) == 3541
    assert all(q % 2 == 1 for q in SCAN_EXCEPTIONS)


def _basic(ctx):
    # the basic condition: the sieve condition of the s = 0 decomposition
    dec = next(greedy_decompose(ctx))
    assert dec.s == 0 and dec.kk == ctx.rprime
    return sieve_condition(ctx, dec)


def test_basic_condition_small_values():
    # q = 3: both sides meet exactly, so the condition must not hold
    ok, margin = _basic(ctx_for_prime_power(3))
    assert not ok
    assert margin == pytest.approx(0.0, abs=1e-12)

    ok, margin = _basic(ctx_for_prime_power(4561))
    assert ok and margin > 0


def test_classify_rejects_even_q():
    # q**2 - 1 = 2**120 - 1 has 15 distinct primes: q is checked for
    # oddness before the prime-count cutoff
    for q in (4, 2**60):
        with pytest.raises(ValueError):
            classify_prime_power(ctx_for_prime_power(q))


def _sign_decimal(A, B, q):
    # sign of A + B * sqrt(q) at 60 digits: exact for a square q, and no
    # A, B, q below compares within 1e-40 of zero otherwise
    with localcontext() as ctx:
        ctx.prec = 60
        value = Decimal(A) + Decimal(B) * Decimal(q).sqrt()
    assert value == 0 or abs(value) > Decimal("1e-40")
    return value > 0


def test_positive_is_the_sign_of_a_plus_b_sqrt_q():
    for q in range(0, 40):
        for A in range(-13, 14):
            for B in range(-7, 8):
                assert _positive(A, B, q) == _sign_decimal(A, B, q), (A, B, q)


def test_sieve_condition_is_exact():
    # the integer form of the sieved inequality has the sign of its
    # rational form, (q + 1) - rhs with epsilon and epsilon' as Fractions,
    # for every decomposition of the basic failures up to 60,000
    seen = 0
    for ctx in _basic_failure_contexts(3, 60_000):
        q = ctx.q
        e = 2 if q % 4 == 1 else 1
        for dec in greedy_decompose(ctx):
            eps = Fraction(1) - sum(Fraction(1, p) for p in dec.sieve_primes)
            eps1 = Fraction(1) - sum(Fraction(1, p) for p in dec.sieve_primes
                                     if (q + 1) % p == 0)
            w_k, w_k1 = (1 << sum(1 for p, _ in ctx.fact_q2m1.factors if n % p == 0)
                         for n in (dec.kk, dec.k1))
            f_k = (dec.s - 1) / eps + 2
            f_k1 = (dec.r - 1 + eps1) / eps + 1
            # q + 1 > 4 * (w_k * f_k * sqrt(q) - w_k1 * f_k1 * (sqrt(q) - 1) / e),
            # times the common denominator of its rational coefficients
            c0 = q + 1 - 4 * w_k1 * f_k1 / e
            c1 = 4 * w_k1 * f_k1 / e - 4 * w_k * f_k
            den = math.lcm(c0.denominator, c1.denominator)
            holds = _sign_decimal(int(c0 * den), int(c1 * den), q)
            assert sieve_condition(ctx, dec)[0] == holds, (q, dec)
            seen += 1
    assert seen > 1_000


def test_greedy_decomposition_q41():
    ctx = ctx_for_prime_power(41)
    decs = list(greedy_decompose(ctx))
    assert [dec.s for dec in decs] == [0, 1, 2, 3]
    assert decs[0].sieve_primes == () and decs[0].kk == 105
    assert decs[1].sieve_primes == (7,)
    assert decs[2].sieve_primes == (7, 5)
    assert decs[3].sieve_primes == (7, 5, 3)
    last = decs[3]
    assert last.kk == 1 and last.k1 == 1
    assert last.r == 2
    # epsilon = num / den and epsilon' = num_prime / den
    assert last.num / last.den == pytest.approx(1 - 1 / 7 - 1 / 5 - 1 / 3)
    assert last.num_prime / last.den == pytest.approx(1 - 1 / 7 - 1 / 3)


def test_greedy_decomposition_invariants():
    for q in (41, 43, 109, 3541, 9973):
        ctx = ctx_for_prime_power(q)
        for dec in greedy_decompose(ctx):
            prod = dec.kk
            for p in dec.sieve_primes:
                prod *= p
            assert prod == ctx.rprime
            assert dec.num / dec.den > 0
            assert dec.r <= dec.s
            assert dec.k1 >= 1 and dec.kk % dec.k1 == 0
            assert (ctx.q + 1) % dec.k1 == 0
            moved = list(dec.sieve_primes)
            assert moved == sorted(moved, reverse=True)


def _contexts(lo, hi):
    # every odd prime power in [lo, hi] by factorize, apart from the scan's
    # count table
    return [ctx_for_prime_power(q) for q in range(lo | 1, hi + 1, 2)
            if len(factorize(q).factors) == 1]


def _basic_failure_contexts(lo, hi):
    return [ctx for ctx in _contexts(lo, hi)
            if classify_prime_power(ctx).stage is not Stage.BASIC_PASS]


def test_greedy_k1_and_r_match_direct_recomputation():
    # greedy_decompose updates k1 and r per moved prime; recompute both
    # from the factor list of q**2 - 1 for every decomposition
    ctxs = [ctx_for_prime_power(q) for q in (41, 43, 109, 3541, 9973)]
    ctxs += _basic_failure_contexts(3, 60_000)
    seen = 0
    for ctx in ctxs:
        qp1 = ctx.q + 1
        for dec in greedy_decompose(ctx):
            k1 = 1
            for p, _ in ctx.fact_q2m1.factors:
                if dec.kk % p == 0 and qp1 % p == 0:
                    k1 *= p
            assert dec.k1 == k1, (ctx.q, dec)
            assert dec.r == sum(1 for p in dec.sieve_primes if qp1 % p == 0)
            seen += 1
    assert seen > 1_000


def test_classify_stops_at_first_passing_decomposition(monkeypatch):
    # the sieve stage signs the walk's states s = 1, 2, ... in order, none
    # past the first that passes, and the verdict names that state by its
    # s.  The scan decides s = 0 itself and skips it; neither scan_blocks
    # nor scan_interval builds a decomposition, and scan_interval signs no
    # state beyond those scan_blocks signs.
    built = []
    tested = {}  # q -> [(s, holds), ...]

    def counting_decomposition(*args, **kwargs):
        built.append(1)
        return SieveDecomposition(*args, **kwargs)

    def counting_sign(q, s, *args):
        ok, margin = _sieve_sign(q, s, *args)
        tested.setdefault(q, []).append((s, ok))
        return ok, margin

    monkeypatch.setattr(criteria, "SieveDecomposition", counting_decomposition)
    monkeypatch.setattr(criteria, "_sieve_sign", counting_sign)
    for _ in scan_blocks(3, 60_000):
        pass
    assert not built
    walked = dict(tested)
    tested.clear()
    verdicts = list(scan_interval(3, 60_000))
    assert tested == walked and not built
    failures = [v for v in verdicts if v.stage is not Stage.BASIC_PASS]
    passes = [v for v in failures if v.stage is Stage.SIEVE_PASS]
    assert len(passes) > 100 and set(walked) <= {v.q for v in failures}
    for v in failures:
        signed = walked.get(v.q, [])
        assert [s for s, _ in signed] == list(range(1, len(signed) + 1)), v.q
        holds = [ok for _, ok in signed]
        if v.stage is Stage.SIEVE_PASS:
            assert holds == [False] * (len(holds) - 1) + [True], v.q
            assert v.s == len(holds), v.q
        else:
            assert not any(holds) and v.s is None, v.q


def test_sieve_with_no_primes_matches_basic():
    # q = 3 has q**2 - 1 = 8: no odd primes, so the greedy list holds a
    # single s = 0 decomposition, and its sieve condition is the basic
    # condition the scan decides from the prime counts alone
    ctx = ctx_for_prime_power(3)
    decs = list(greedy_decompose(ctx))
    assert len(decs) == 1 and decs[0].s == 0
    ok, margin = sieve_condition(ctx, decs[0])
    scanned = next(scan_interval(3, 3))
    assert not ok and scanned.stage is not Stage.BASIC_PASS
    assert margin == scanned.margin


def test_settle_prime_count_range():
    assert settle_prime_count_range(11, 13)
    assert settle_prime_count_range(10, 10)
    assert not settle_prime_count_range(2, 2)
    for t in range(14, 23):
        assert settle_prime_count_range(t, t)


def test_settle_on_every_pair():
    # the settled pairs among all 2,016 with 2 <= t1 <= t2 <= 64, pinned
    # by the SHA-256 of their sorted list's repr
    settled = [(t1, t2) for t1 in range(2, 65) for t2 in range(t1, 65)
               if settle_prime_count_range(t1, t2)]
    assert len(settled) == 884
    assert hashlib.sha256(repr(settled).encode()).hexdigest() == \
        "379e3c7fdb83b1b7e60943f45cb7742a180bb500ebb1ad103865b1059b1dc2b5"


def test_max_prime_count_is_the_primorial_count():
    # the largest c >= 1 with p_1 ... p_c <= limit; 6, 30 and 210 are the
    # primorials, so each boundary pair separates <= from <
    pairs = {1: 1, 5: 1, 6: 2, 29: 2, 30: 3, 209: 3, 210: 4, Fraction(419, 2): 3}
    assert {limit: _max_prime_count(limit) for limit in pairs} == pairs
    # the one count behind both callers: settling holds exactly from 10 on
    assert [t for t in range(2, 41) if settle_prime_count_range(t, t)] == \
        list(range(10, 41))


def test_settle_rejects_bad_input():
    with pytest.raises(ValueError):
        settle_prime_count_range(0, 4)
    with pytest.raises(ValueError):
        settle_prime_count_range(5, 4)


def test_prime_count_cutoff():
    assert prime_count_cutoff() == 14


def test_scan_bound_table():
    # best s and floor(Q(t)) for t = 2 ... 13; the greedy s, the most
    # primes that keep epsilon positive, would leave Q(9) near 7.2e8
    table, q_star = scan_bound()
    assert table == (
        (2, 0, 64), (3, 0, 256), (4, 2, 793), (5, 3, 1958), (6, 4, 4231),
        (7, 5, 8160), (8, 6, 14849), (9, 7, 25456), (10, 8, 41100),
        (11, 9, 65091), (12, 10, 99376), (13, 10, 142862))
    assert [t for t, _, _ in table] == list(range(2, prime_count_cutoff()))
    # the scan's interval reaches past every q the bound leaves open
    assert q_star == 142_862 < 1 << 20


def test_scan_bound_passes_the_sieve_above_q_t():
    # every q above Q(t) of its prime count t passes with the table's s
    # largest odd primes moved, s = 0 being the basic condition
    table = {t: (s, q_t) for t, s, q_t in scan_bound()[0]}
    # q = 3 is the one odd q whose q**2 - 1 = 8 has a single prime
    blocks, _, _, powers = arith._odd_prime_powers(5, 160_000)
    seen = set()
    for q in (q for qs in blocks for q in qs):
        ctx = arith._ctx(*powers.get(q, (q, 1)), q)
        s, q_t = table[ctx.t_q]
        if q <= q_t:
            continue
        dec = next(dec for dec in greedy_decompose(ctx) if dec.s == s)
        assert sieve_condition(ctx, dec)[0], q
        seen.add(ctx.t_q)
    assert seen == set(range(3, 10))  # no q in (64, 160000] has t = 2


def test_no_scanned_q_is_settled_by_its_prime_count():
    # q**2 - 1 of every q the scan accepts has at most 12 distinct primes,
    # so the scan needs no prime-count stage of its own
    assert _max_prime_count(SCAN_Q_CAP**2 - 1) == 12 < prime_count_cutoff()


def test_classify_known_stages():
    # (stage, s): s is the passing step of the greedy walk, 0 for the
    # basic stage and None when no step passes
    stages = {q: (v.stage, v.s) for q in (3, 41, 4561, 1044889)
              for v in [classify_prime_power(ctx_for_prime_power(q))]}
    assert stages == {
        3: (Stage.EXCEPTION, None),
        41: (Stage.EXCEPTION, None),
        4561: (Stage.BASIC_PASS, 0),
        # the largest q failing the basic condition; the sieve rescues it
        1044889: (Stage.SIEVE_PASS, 3),
    }


def test_classification_margin_signs():
    for q in (3, 5, 41, 3541):
        v = classify_prime_power(ctx_for_prime_power(q))
        assert v.stage is Stage.EXCEPTION
        assert v.margin <= 0
    for q in (4561, 10007):
        v = classify_prime_power(ctx_for_prime_power(q))
        assert v.margin > 0


def test_scan_small_interval():
    verdicts = list(scan_interval(3, 3600))
    qs = [v.q for v in verdicts]
    assert qs == sorted(qs)
    exceptions = {v.q for v in verdicts if v.stage is Stage.EXCEPTION}
    assert exceptions == {q for q in SCAN_EXCEPTIONS if q <= 3600}
    # nothing in the scan range has 14 or more distinct primes in q**2 - 1
    assert all(v.stage is not Stage.ELIMINATED_BY_PRIME_COUNT for v in verdicts)


def test_divisor_bound_check_is_exact():
    # the true maximum over prime prefixes is 4514.6265... (54 primes)
    assert _divisor_bound_holds(Fraction(45147, 10))
    assert not _divisor_bound_holds(Fraction(45146, 10))


@pytest.mark.parametrize("lo, hi", [
    (3, 60_000),
    ((1 << 20) - 30_000, 1 << 20),
    (SCAN_Q_CAP - 600, SCAN_Q_CAP),
])
def test_scan_equals_classifying_every_context(lo, hi):
    # the counts-first basic stage gives the verdicts, margins included,
    # of classifying every context built by factorize; the last window
    # ends where the scan's table does
    assert list(scan_interval(lo, hi)) == \
        [classify_prime_power(ctx) for ctx in _contexts(lo, hi)]


def test_basic_thresholds_are_the_first_passing_q():
    # every class (e, a, b) at its index (q & 2) << 5 | a << 3 | b: the
    # basic inequality times e, e * q + A0 + B * sqrt(q) > 0, fails at
    # T - 1 and holds at T, so by the scan's proof it holds exactly from T
    thresholds = criteria._basic_thresholds()
    assert len(thresholds) == 128
    for r in (1, 3):  # q mod 4
        e = 2 if r == 1 else 1
        for a in range(8):
            for b in range(8):
                T, e_row, A0, B = thresholds[(r & 2) << 5 | a << 3 | b]
                A0_exact, B_exact = e - 4 * 2**b, 4 * 2**b * (1 - e * 2**a)
                assert (e_row, A0, B) == (e, A0_exact, B_exact), (r, a, b)
                assert not _positive(e * (T - 1) + A0_exact, B_exact, T - 1), (r, a, b)
                assert _positive(e * T + A0_exact, B_exact, T), (r, a, b)
    assert max(T for T, *_ in thresholds) == 4_261_478_910


def test_basic_margins_are_the_sign_test_sums():
    # the margin of every basic pass of the full interval is
    # (A + B * sqrt(q)) / e with the basic stage's integers A and B, to
    # the bit, and a verdict is a basic pass exactly when the exact sign
    # test passes
    _, counts, base, _ = arith._odd_prime_powers(3, 1 << 20)
    passes = 0
    for v in scan_interval(3, 1 << 20):
        q = v.q
        w_r1 = 1 << counts[q + 1 - base]
        e = 2 if q % 4 == 1 else 1
        A = e * (q + 1) - 4 * w_r1
        B = 4 * (w_r1 - e * (w_r1 << counts[q - 1 - base]))
        assert (v.stage is Stage.BASIC_PASS) == _positive(A, B, q), q
        if v.stage is Stage.BASIC_PASS:
            assert v.margin == (A + B * math.sqrt(q)) / e, q
            passes += 1
    assert passes == 82_247 - 2_425


def test_scan_runs_at_the_cap():
    # SCAN_Q_CAP = 67 * 78437 is no prime power
    assert list(scan_interval(SCAN_Q_CAP, SCAN_Q_CAP)) == []


def test_scan_builds_contexts_only_for_basic_failures(monkeypatch):
    factored = []

    def counting_factorize(n):
        factored.append(n)
        return factorize(n)

    monkeypatch.setattr(arith, "factorize", counting_factorize)
    kept = {}
    for _, _, block_kept in scan_blocks(3, 50_000):
        kept |= block_kept
    failures = [q for q, (_, _, stage, _) in kept.items() if stage is not Stage.BASIC_PASS]
    assert len(failures) > 100
    # q - 1 and q + 1 are factored once per basic failure, nothing for a pass
    assert factored == [n for q in failures for n in (q - 1, q + 1)]
    factored.clear()
    verdicts = list(scan_interval(3, 50_000))
    assert len(verdicts) == 5_202
    assert [v.q for v in verdicts if v.stage is not Stage.BASIC_PASS] == failures
    # scan_interval reads the columns of scan_blocks and factors nothing more
    assert factored == [n for q in failures for n in (q - 1, q + 1)]


def test_scan_hands_basic_failures_to_the_sieve(monkeypatch):
    # the scan's own basic stage passes its margin on to the sieve stage:
    # no verdict signs the s = 0 state of the walk again
    expected = [classify_prime_power(ctx) for ctx in _contexts(3, 50_000)]

    def no_basic(q, s, *args):
        if s == 0:
            raise AssertionError(f"the basic condition ran again for q = {q}")
        return _sieve_sign(q, s, *args)

    monkeypatch.setattr(criteria, "_sieve_sign", no_basic)
    assert list(scan_interval(3, 50_000)) == expected


def test_full_scan_failures_match_the_decompositions():
    # every verdict of the full interval that is not a basic pass is the
    # context's classification, field for field, and the one that
    # greedy_decompose and sieve_condition give: s is the index of the
    # first decomposition that passes, else an exception with s None and
    # the largest margin of all.  Every basic pass has s = 0.
    seen, sieve_steps = 0, Counter()
    for v in scan_interval(3, 1 << 20):
        if v.stage is Stage.BASIC_PASS:
            assert v.s == 0, v.q
            continue
        ctx = ctx_for_prime_power(v.q)
        w = classify_prime_power(ctx)
        assert (v.stage, v.s, v.p, v.k) == (w.stage, w.s, w.p, w.k)
        assert v.margin == w.margin, v.q
        signed = [(dec, *sieve_condition(ctx, dec)) for dec in greedy_decompose(ctx)]
        passing = next((i for i, (_, ok, _) in enumerate(signed) if ok), None)
        if passing is None:
            assert v.stage is Stage.EXCEPTION and v.s is None
            assert v.margin == max(margin for _, _, margin in signed), v.q
        else:
            assert v.stage is Stage.SIEVE_PASS
            assert (v.s, v.margin) == (passing, signed[passing][2]), v.q
            assert signed[v.s][0].s == v.s
            sieve_steps[v.s] += 1
        seen += 1
    assert seen == 2_425
    assert sieve_steps == {2: 1438, 3: 684, 4: 177, 5: 25}


def test_scan_q3_has_no_odd_primes():
    # q**2 - 1 = 8: a = b = 0, and both sides of the basic inequality
    # meet exactly
    scanned = list(scan_interval(3, 3))
    classified = classify_prime_power(ctx_for_prime_power(3))
    assert scanned == [classified]
    assert classified.stage is Stage.EXCEPTION
    assert classified.margin == 0.0


def test_scan_worker_determinism():
    seq = list(scan_interval(3, 60_000))
    assert list(scan_interval(3, 20_000)) + list(scan_interval(20_001, 60_000)) == seq


def test_scan_rejects_bad_range():
    # scan_interval is a generator function: the call returns, and the
    # first next() raises
    for lo, hi in ((1, 100), (50, 3), (3, SCAN_Q_CAP + 1)):
        verdicts = scan_interval(lo, hi)
        with pytest.raises(ValueError):
            next(verdicts)


def test_verdicts_are_frozen():
    v = classify_prime_power(ctx_for_prime_power(17))
    assert isinstance(v, CriterionVerdict)
    with pytest.raises(AttributeError):
        v.margin = 0.0
