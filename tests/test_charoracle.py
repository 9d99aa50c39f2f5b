import math
import random

import pytest

from quadprim.arith import ctx_for_prime_power, euler_phi, factorize
from quadprim.charoracle import (
    ORACLE_Q_CAP,
    CharIndex,
    char_eval,
    characters_of_order,
    check_sieve_inequality,
    dlog,
    line_target_count,
    survey_line_identities,
    survey_translate_sums,
    translate_transversal,
)
from quadprim.ffield import build_field


@pytest.fixture(scope="module")
def fields():
    return {q: build_field(ctx_for_prime_power(q)) for q in (5, 7, 9, 11, 13, 43)}


def test_dlog_roundtrip(fields):
    fld = fields[9]
    u = fld.one
    for e in range(fld.m):
        assert dlog(u, fld) == e
        u = fld.mul(u, fld.a)
    with pytest.raises(ValueError):
        dlog(fld.zero, fld)


def test_characters_census(fields):
    fld = fields[13]
    m = fld.m
    total = 0
    for d in range(1, m + 1):
        if m % d:
            continue
        chars = characters_of_order(d, fld)
        expected = euler_phi(factorize(d)) if d > 1 else 1
        assert len(chars) == expected
        total += len(chars)
    assert total == m
    with pytest.raises(ValueError):
        characters_of_order(5, fields[5])  # 5 does not divide 24


def test_char_eval_multiplicative(fields):
    fld = fields[7]
    rng = random.Random(3)
    elems = [u for u in fld.elements() if u != fld.zero]
    chars = [CharIndex(t, fld.m // math.gcd(t, fld.m)) for t in (1, 5, 8, 24)]
    for chi in chars:
        for _ in range(40):
            u, v = rng.choice(elems), rng.choice(elems)
            lhs = char_eval(chi, fld.mul(u, v), fld)
            rhs = char_eval(chi, u, fld) * char_eval(chi, v, fld)
            assert abs(lhs - rhs) < 1e-12


def test_character_orthogonality(fields):
    fld = fields[5]
    m = fld.m
    elems = [u for u in fld.elements() if u != fld.zero]
    # sum over the group of a nontrivial character vanishes
    for t in (1, 2, 7, 12):
        total = sum(char_eval(CharIndex(t, 0), u, fld) for u in elems)
        assert abs(total) < 1e-9
    # trivial character sums to the group size
    total = sum(char_eval(CharIndex(0, 1), u, fld) for u in elems)
    assert abs(total - m) < 1e-9


def test_translate_sum_values(fields):
    # nontrivial characters trivial on F_q* give exactly -1; all other
    # nontrivial characters give modulus sqrt(q)
    for q in (5, 7, 9, 11, 13):
        fld = fields[q]
        survey = survey_translate_sums(fld)
        assert survey.ok, (q, survey.max_deviation)
        assert survey.characters == fld.m - 1
        assert survey.translates == q - 1


def test_translate_sum_survey_matches_direct_sums(fields):
    # reference: every character evaluated at every theta + x afresh,
    # summed in base_field_elements() order; at q = 11 another order
    # changes the last bits
    for q in (7, 9, 11):
        fld = fields[q]
        base = fld.base_field_elements()
        worst = 0.0
        for t in range(1, fld.m):
            chi = CharIndex(t, 0)
            for theta in translate_transversal(fld):
                b = 0j
                for x in base:
                    b += char_eval(chi, fld.add(theta, x), fld)
                dev = abs(b + 1.0) if t % (q - 1) == 0 else abs(abs(b) - math.sqrt(q))
                worst = max(worst, dev)
        assert survey_translate_sums(fld).max_deviation == worst


def test_translate_transversal_is_transversal(fields):
    for q in (5, 9, 13):
        fld = fields[q]
        reps = translate_transversal(fld)
        assert len(reps) == q - 1
        keys = {fld.sub(fld.frobenius_q(u), u) for u in reps}
        assert len(keys) == q - 1
        # the representatives are the first element of each class in
        # elements() order, in that order
        first = {}
        for u in fld.elements():
            if not fld.in_base_field(u):
                first.setdefault(fld.sub(fld.frobenius_q(u), u), u)
        assert reps == tuple(first.values())


def test_line_target_count_identity(fields):
    fld = fields[7]
    for theta in translate_transversal(fld):
        for alpha in (fld.one, fld.a):
            res = line_target_count(theta, alpha, 3, fld)
            assert abs(res.via_formula - res.direct) < 1e-3


def test_line_target_count_finds_empty_line(fields):
    # the line property fails at q = 5: some line holds no 2-primitive
    # element, and the count certifies it with r = the full odd radical
    fld = fields[5]
    r = fld.ctx.rprime
    counts = []
    for theta in translate_transversal(fld):
        for alpha in [fld.one, fld.a, fld.mul(fld.a, fld.a)]:
            counts.append(line_target_count(theta, alpha, r, fld).direct)
    assert min(counts) == 0


def test_line_target_count_all_positive_q43(fields):
    # q = 43 holds the line property, so every line carries at least one
    # element of order m/2; check alpha over the first slopes
    from quadprim.verify import build_gamma_set

    fld = fields[43]
    r = fld.ctx.rprime
    gammas = build_gamma_set(fld).gammas[:6]
    for theta in translate_transversal(fld)[:7]:
        for alpha in gammas:
            assert line_target_count(theta, alpha, r, fld).direct >= 1


def test_line_count_survey(fields):
    for q in (7, 11, 13):
        survey = survey_line_identities(fields[q])
        assert survey.ok, (q, survey.max_deviation)


def test_line_target_count_validation(fields):
    fld = fields[7]
    theta = translate_transversal(fld)[0]
    with pytest.raises(ValueError):
        line_target_count(fld.one, fld.a, 3, fld)  # theta in F_q
    with pytest.raises(ValueError):
        line_target_count(theta, fld.zero, 3, fld)
    with pytest.raises(ValueError):
        line_target_count(theta, fld.a, 5, fld)  # 5 does not divide 48


def test_sieve_inequality_random_families(fields):
    rng = random.Random(17)
    for q in (7, 11, 13, 43):
        fld = fields[q]
        ctx = fld.ctx
        primes = [p for p, _ in factorize(ctx.rprime).factors]
        reps = translate_transversal(fld)
        for _ in range(25):
            theta = rng.choice(reps)
            alpha = rng.choice((fld.one, fld.a, fld.mul(fld.a, fld.a)))
            if len(primes) > 1 and rng.random() < 0.5:
                # shared base: the first prime sits inside every part
                base = primes[0]
                parts = tuple(base * p for p in primes[1:])
            else:
                base = 1
                parts = tuple(primes)
            chk = check_sieve_inequality(theta, alpha, ctx.rprime, base,
                                         parts, fld)
            assert chk.holds, (q, chk)


def test_sieve_inequality_with_shared_base(fields):
    fld = fields[13]  # rprime = 21
    theta = translate_transversal(fld)[1]
    chk = check_sieve_inequality(theta, fld.a, 21, 3, (21,), fld)
    assert chk.holds
    chk = check_sieve_inequality(theta, fld.a, 21, 1, (3, 7), fld)
    assert chk.holds
    assert chk.bound == sum(chk.part_counts) - chk.base_count


def test_sieve_inequality_validation(fields):
    fld = fields[13]
    theta = translate_transversal(fld)[0]
    with pytest.raises(ValueError):  # parts do not cover 7
        check_sieve_inequality(theta, fld.a, 21, 1, (3,), fld)
    with pytest.raises(ValueError):  # base does not divide the part
        check_sieve_inequality(theta, fld.a, 21, 7, (3, 7), fld)
    with pytest.raises(ValueError):  # part does not divide the modulus
        check_sieve_inequality(theta, fld.a, 3, 1, (21,), fld)
    with pytest.raises(ValueError):  # even modulus
        check_sieve_inequality(theta, fld.a, 8, 1, (8,), fld)


def test_oracle_cap():
    fld = build_field(ctx_for_prime_power(211))
    assert 211 > ORACLE_Q_CAP
    with pytest.raises(ValueError):
        translate_transversal(fld)
    with pytest.raises(ValueError):
        survey_translate_sums(fld)
    with pytest.raises(ValueError):  # the cap also bounds the dlog table
        dlog(fld.one, fld)
