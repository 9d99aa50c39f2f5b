import cmath
import math
import random
from fractions import Fraction

import pytest

from quadprim import charoracle
from quadprim.arith import ctx_for_prime_power, euler_phi, factorize
from quadprim.charoracle import (
    ORACLE_Q_CAP,
    check_sieve_inequality,
    line_target_count,
    log_set,
    survey_line_identities,
    survey_translate_sums,
)
from quadprim.criteria import SCAN_EXCEPTIONS
from quadprim.ffield import build_field, translate_classes


@pytest.fixture(scope="module")
def fields():
    return {q: build_field(ctx_for_prime_power(q)) for q in (5, 7, 9, 11, 13, 43)}


def _reps(fld):
    """One element per translate class, q - 1 in all."""
    return tuple(translate_classes(fld).values())


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _phi(n):
    return euler_phi(factorize(n)) if n > 1 else 1


def _squarefree_divisors(n):
    """(d, mu(d)) for the squarefree divisors d of n."""
    out = [(1, 1)]
    for prime, _ in factorize(n).factors:
        out += [(d * prime, -mu) for d, mu in out]
    return out


def ramanujan_sum(d, e):
    """c_d(e) = sum over d' | gcd(e, d) of mu(d/d') * d': the sum of
    chi(a**e) over the characters chi of exact order d, for d | m."""
    g = math.gcd(e, d)
    return sum(mu * (d // k) for k, mu in _squarefree_divisors(d) if g % (d // k) == 0)


def _r_free_expansion(r, e):
    """The paper's character expansion of "a**e is r-free", as a Fraction:
    phi(r)/r * sum over squarefree d | r of mu(d)/phi(d) * c_d(e)."""
    return Fraction(_phi(r), r) * sum(Fraction(mu, _phi(d)) * ramanujan_sum(d, e)
                                      for d, mu in _squarefree_divisors(r))


def test_dlog_roundtrip(fields):
    # L[f] is the log of X + f: a**L[f] has F_q-coordinates (f, 1), so the
    # q logs land on q distinct points of X + F_q
    for q in (9, 13):
        fld = fields[q]
        logs = log_set(fld)
        assert len(logs) == q
        assert all(0 <= e < fld.m for e in logs)
        assert [fld.fq_coords(fld.pow(fld.a, e)) for e in logs] == \
            [(f, 1) for f in range(q)]


def test_characters_census(fields):
    # c_d(0) counts the characters of exact order d: phi(d) of them, m in all
    for q in (7, 13):
        m = fields[q].m
        counts = [ramanujan_sum(d, 0) for d in _divisors(m)]
        assert counts == [_phi(d) for d in _divisors(m)]
        assert sum(counts) == m


def test_ramanujan_sums_match_float_characters(fields):
    # the exact c_d(e) against the float sum of exp(2 pi i t e / m) over the
    # characters t of exact order d, for every d | m and every e
    for q in (7, 13):
        m = fields[q].m
        for d in _divisors(m):
            ts = [t for t in range(m) if m // math.gcd(t, m) == d]
            for e in range(m):
                exact = ramanujan_sum(d, e)
                assert isinstance(exact, int)
                total = sum(cmath.exp(2j * math.pi * t * e / m) for t in ts)
                assert abs(total - exact) < 1e-9, (q, d, e)


def test_character_orthogonality(fields):
    # summed over all orders, the characters give m at e = 0 and vanish at
    # every other e
    for q in (7, 13):
        m = fields[q].m
        for e in range(m):
            assert sum(ramanujan_sum(d, e) for d in _divisors(m)) == (m if e == 0 else 0)


def test_translate_sum_values(fields):
    # nontrivial characters trivial on F_q* give exactly -1; all other
    # nontrivial characters give modulus sqrt(q)
    for q in (5, 7, 9, 11, 13):
        fld = fields[q]
        survey = survey_translate_sums(fld)
        assert survey.ok and survey.defects == 0, (q, survey)
        assert survey.characters == fld.m - 1
        assert survey.translates == q - 1


def _float_translate_claim(logs, q, m):
    """The translate claim decided in complex doubles: S_t over each
    class L + (q+1)*i against -1 or modulus sqrt(q)."""
    for t in range(1, m):
        for i in range(q - 1):
            s = sum(cmath.exp(2j * math.pi * t * ((e + (q + 1) * i) % m) / m)
                    for e in logs)
            dev = abs(s + 1) if t % (q - 1) == 0 else abs(abs(s) - math.sqrt(q))
            if dev > 1e-6:
                return False
    return True


def test_translate_sum_survey_matches_direct_sums(fields, monkeypatch):
    # an independent float reference: the character sums computed afresh
    # from the logs agree with the exact verdict on the true L, and both
    # reject L with one log moved by 1
    for q in (7, 9, 11):
        fld = fields[q]
        logs = log_set(fld)
        perturbed = (logs[0], (logs[1] + 1) % fld.m) + logs[2:]
        for candidate, want in ((logs, True), (perturbed, False)):
            monkeypatch.setattr(charoracle, "log_set", lambda f, c=candidate: c)
            assert survey_translate_sums(fld).ok is want
            assert _float_translate_claim(candidate, q, fld.m) is want


def test_translate_claim_holds_on_every_exception_to_311():
    # the exact claim has no field cap
    qs = [q for q in sorted(SCAN_EXCEPTIONS) if q <= 311]
    assert len(qs) == 56 and max(qs) > ORACLE_Q_CAP
    for q in qs:
        survey = survey_translate_sums(build_field(ctx_for_prime_power(q)))
        assert survey.ok and survey.defects == 0, survey


def test_line_target_count_identity(fields):
    # the direct count, the gcd count over the logs and the paper's
    # character expansion as an exact Fraction agree, for any alpha and
    # every r | m, at a prime q and at q = 3**2; the logs are read off a
    # power table of a, not off log_set
    for q in (7, 9):
        fld = fields[q]
        m = fld.m
        logs, u = {}, fld.one
        for e in range(m):
            logs[u] = e
            u = fld.mul(u, fld.a)
        for theta in _reps(fld):
            for alpha in (fld.one, fld.a, fld.pow(fld.a, 11)):
                line = [logs[fld.mul(alpha, fld.add(theta, x))]
                        for x in fld.base_field_elements()]
                for r in _divisors(m):
                    res = line_target_count(theta, alpha, r, fld)
                    expansion = sum(_r_free_expansion(r, e) for e in line if e % 4 == 2)
                    assert res.direct == res.via_formula == expansion, (q, r)


def test_line_target_count_finds_empty_line(fields):
    # the line property fails at q = 5: some line holds no 2-primitive
    # element, and the count certifies it with r = the full odd radical
    fld = fields[5]
    r = fld.ctx.rprime
    counts = []
    for theta in _reps(fld):
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
    for theta in _reps(fld)[:7]:
        for alpha in gammas:
            assert line_target_count(theta, alpha, r, fld).direct >= 1


def test_line_count_survey(fields):
    for q in (7, 11, 13):
        survey = survey_line_identities(fields[q])
        assert survey.ok and survey.defects == 0, (q, survey)
        assert survey.pairs == 2 * (q - 1)


def test_line_target_count_validation(fields):
    fld = fields[7]
    theta = _reps(fld)[0]
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
        reps = _reps(fld)
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
    theta = _reps(fld)[1]
    chk = check_sieve_inequality(theta, fld.a, 21, 3, (21,), fld)
    assert chk.holds
    chk = check_sieve_inequality(theta, fld.a, 21, 1, (3, 7), fld)
    assert chk.holds
    assert chk.bound == sum(chk.part_counts) - chk.base_count


def test_sieve_inequality_validation(fields):
    fld = fields[13]
    theta = _reps(fld)[0]
    with pytest.raises(ValueError):  # parts do not cover 7
        check_sieve_inequality(theta, fld.a, 21, 1, (3,), fld)
    with pytest.raises(ValueError):  # base does not divide the part
        check_sieve_inequality(theta, fld.a, 21, 7, (3, 7), fld)
    with pytest.raises(ValueError):  # part does not divide the modulus
        check_sieve_inequality(theta, fld.a, 3, 1, (21,), fld)
    with pytest.raises(ValueError):  # even modulus
        check_sieve_inequality(theta, fld.a, 8, 1, (8,), fld)
    # a base or part below 1 is named, not a ZeroDivisionError or a
    # message about factorize
    with pytest.raises(ValueError, match="base 0 must be a positive integer"):
        check_sieve_inequality(theta, fld.a, 21, 0, (21,), fld)
    with pytest.raises(ValueError, match="part 0 must be a positive integer"):
        check_sieve_inequality(theta, fld.a, 21, 1, (21, 0), fld)
    with pytest.raises(ValueError, match="base -1 must be a positive integer"):
        check_sieve_inequality(theta, fld.a, 21, -1, (21,), fld)


def test_oracle_cap():
    # the direct counts keep the cap; the exact translate claim does not
    fld = build_field(ctx_for_prime_power(211))
    assert 211 > ORACLE_Q_CAP
    theta = _reps(fld)[0]
    with pytest.raises(ValueError):
        line_target_count(theta, fld.a, 3, fld)
    with pytest.raises(ValueError):
        survey_line_identities(fld)
    with pytest.raises(ValueError):
        check_sieve_inequality(theta, fld.a, 3, 1, (3,), fld)
    assert survey_translate_sums(fld).ok
