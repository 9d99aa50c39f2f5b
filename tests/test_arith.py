import random

import pytest

from quadprim.arith import (
    SCAN_Q_CAP,
    Factorization,
    _ctx,
    _odd_prime_powers,
    ctx_for_prime_power,
    euler_phi,
    factorize,
    first_primes,
    primes_upto,
    product_factorization,
    squarefree_odd_radical,
)


def brute_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def reassemble(fact: Factorization) -> int:
    n = 1
    for p, e in fact.factors:
        n *= p**e
    return n


def test_factorize_reassembles_and_sorts():
    rng = random.Random(11)
    sieve = set(primes_upto(10**6))
    for _ in range(300):
        n = rng.randrange(2, 10**6)
        fact = factorize(n)
        assert reassemble(fact) == n
        primes = [p for p, _ in fact.factors]
        assert primes == sorted(primes)
        assert all(p in sieve for p in primes)


def test_factorize_semiprimes_beyond_trial_division():
    # products of two primes near or above 10**6, far beyond the pipeline's
    # inputs: trial division runs up to the smaller factor
    ps = [1_000_003, 1_000_033, 1_000_037, 15_485_863]
    for i, a in enumerate(ps):
        for b in ps[i:]:
            fact = factorize(a * b)
            assert reassemble(fact) == a * b
            assert set(fact.primes()) == {a, b}


def test_factorize_edge_cases():
    assert factorize(1).factors == ()
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_euler_phi_divisor_sum():
    # sum of phi(d) over divisors of n is n (phi(1) = 1 special-cased)
    for n in range(2, 300):
        total = sum(euler_phi(factorize(d)) if d > 1 else 1
                    for d in brute_divisors(n))
        assert total == n


def test_euler_phi_examples():
    assert euler_phi(factorize(10)) == 4
    assert euler_phi(factorize(97)) == 96
    # the largest scan exception: phi((3541**2 - 1) / 2)
    assert euler_phi(factorize((3541**2 - 1) // 2)) == 1224960


def test_squarefree_odd_radical():
    assert squarefree_odd_radical(factorize(10200)) == 255
    assert squarefree_odd_radical(factorize(64)) == 1
    assert squarefree_odd_radical(factorize(3 * 3 * 5 * 8)) == 15


def test_product_factorization():
    f = product_factorization(factorize(12), factorize(18))
    assert reassemble(f) == 216
    assert f.factors == ((2, 3), (3, 3))


def test_prime_power_ctx_fields():
    ctx = ctx_for_prime_power(3541)
    assert ctx.q == 3541
    assert ctx.fact_q2m1.factors == (
        (2, 3), (3, 1), (5, 1), (7, 1), (11, 1), (23, 1), (59, 1))
    assert ctx.two_adic_d == 3
    assert ctx.odd_part == (3541**2 - 1) // 8
    assert ctx.rprime == 3 * 5 * 7 * 11 * 23 * 59
    assert ctx.t_q == 7


def test_prime_power_ctx_two_adic_floor():
    # q odd means 8 divides q**2 - 1
    for q in (3, 5, 7, 9, 11, 25, 27, 121, 169):
        ctx = ctx_for_prime_power(q)
        assert ctx.two_adic_d >= 3
        assert (q * q - 1) % 2**ctx.two_adic_d == 0
        assert ctx.odd_part % 2 == 1


def test_ctx_for_prime_power_rejects_non_prime_powers():
    for bad in (1, 6, 12, 15, 100):
        with pytest.raises(ValueError):
            ctx_for_prime_power(bad)


def test_first_primes():
    assert first_primes(5) == [2, 3, 5, 7, 11]
    assert first_primes(25)[-1] == 97


def _entries(lo, hi):
    # the (q, p, k) of the blocks' entries: p, k from the higher powers,
    # or q, 1 for a prime
    blocks, _, _, powers = _odd_prime_powers(lo, hi)
    return [(q, *powers.get(q, (q, 1))) for qs in blocks for q in qs]


def test_enumerate_odd_prime_powers_small():
    entries = _entries(3, 30)
    assert [q for q, _, _ in entries] == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29]
    for q, p, k in entries:
        assert q == p**k


def test_enumerate_odd_prime_powers_window():
    got = _entries(121, 128)
    assert got == [(121, 11, 2), (125, 5, 3), (127, 127, 1)]


def test_enumerate_rejects_bad_range():
    for lo, hi in ((2, 10), (10, 5), (3, SCAN_Q_CAP + 1)):
        with pytest.raises(ValueError):
            _odd_prime_powers(lo, hi)


def test_small_windows_match_factorize():
    # every window in [3, 200]: each end of the table falls on primes,
    # higher powers and composites, and hi + 1 on 2p for each odd prime p < 100
    facts = {n: factorize(n).factors for n in range(2, 202)}
    for lo in range(3, 201):
        for hi in range(lo, 201):
            _, counts, base, _ = _odd_prime_powers(lo, hi)
            assert _entries(lo, hi) == [
                (q, *facts[q][0]) for q in range(lo | 1, hi + 1, 2)
                if len(facts[q]) == 1], (lo, hi)
            assert [counts[n - base] for n in range(lo & ~1, hi + 2, 2)] == [
                len(facts[n]) - 1 for n in range(lo & ~1, hi + 2, 2)], (lo, hi)


@pytest.mark.parametrize("lo, hi", [
    (3, 199_999),
    (5, 199_999),
    (1_555, 199_999),
    (8_193, 199_999),
    (62_675, 199_999),
    ((1 << 20) - 1_999, 1 << 20),
    (SCAN_Q_CAP - 600, SCAN_Q_CAP),
])
def test_count_source_matches_factorize(lo, hi):
    # the table covers the even n in [lo - 1, hi + 1], the first of them
    # being lo & ~1, at byte n - base with base = lo - 1; the last window
    # ends where the table does
    _, counts, base, _ = _odd_prime_powers(lo, hi)
    assert base == lo - 1 and len(counts) == hi + 2 - base
    for n in range(lo & ~1, hi + 2, 2):
        assert counts[n - base] == len(factorize(n).factors) - 1, n


@pytest.mark.parametrize("lo, hi", [
    (3, 30_000),
    (60_001, 200_000),
    ((1 << 20) - 30_000, 1 << 20),
    (SCAN_Q_CAP - 600, SCAN_Q_CAP),
])
def test_enumerate_matches_prime_power_ctx(lo, hi):
    # the scan's contexts of the entries are the library's, over exactly
    # the prime powers factorize finds; the second window crosses eight
    # seams of the blocks the entries are flagged in
    assert [_ctx(p, k, q) for q, p, k in _entries(lo, hi)] == [
        ctx_for_prime_power(q) for q in range(lo | 1, hi + 1, 2)
        if len(factorize(q).factors) == 1]
