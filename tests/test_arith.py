import random

import pytest

from quadprim.arith import (
    _FACTOR_TABLE_CAP,
    SCAN_Q_CAP,
    Factorization,
    _ctx,
    _odd_factor_table,
    _odd_prime_counts,
    _odd_prime_powers,
    _table_factors,
    ctx_for_prime_power,
    euler_phi,
    factorize,
    first_primes,
    is_prime,
    prime_power_ctx,
    primes_upto,
    product_factorization,
    squarefree_odd_radical,
)


def brute_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_is_prime_against_sieve():
    sieve = set(primes_upto(2000))
    for n in range(2000):
        assert is_prime(n) == (n in sieve), n


def test_is_prime_large_examples():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert is_prime(1_000_000_007)
    assert not is_prime(1_000_000_007 * 1_000_000_009)


def reassemble(fact: Factorization) -> int:
    n = 1
    for p, e in fact.factors:
        n *= p**e
    return n


def test_factorize_reassembles_and_sorts():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(2, 10**6)
        fact = factorize(n)
        assert reassemble(fact) == n
        primes = [p for p, _ in fact.factors]
        assert primes == sorted(primes)
        assert all(is_prime(p) for p in primes)


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
    ctx = prime_power_ctx(3541, 1)
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
    with pytest.raises(ValueError):
        prime_power_ctx(4, 2)


def test_first_primes():
    assert first_primes(5) == [2, 3, 5, 7, 11]
    assert first_primes(25)[-1] == 97


def test_enumerate_odd_prime_powers_small():
    entries = list(_odd_prime_powers(3, 30)[0])
    assert [q for q, _, _ in entries] == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29]
    for q, p, k in entries:
        assert q == p**k


def test_enumerate_odd_prime_powers_window():
    got = list(_odd_prime_powers(121, 128)[0])
    assert got == [(121, 11, 2), (125, 5, 3), (127, 127, 1)]


def test_enumerate_rejects_bad_range():
    for lo, hi in ((2, 10), (10, 5), (3, SCAN_Q_CAP + 1)):
        with pytest.raises(ValueError):
            _odd_prime_powers(lo, hi)


def test_factor_table_matches_factorize():
    n = (1 << 20) + 1
    table, primes = _odd_factor_table(n)
    for v in [*range(1, 200_001), *range((1 << 20) - 2000, n + 1)]:
        assert tuple(_table_factors(v, table, primes)) == factorize(v).factors, v
    # even values need the table only up to their odd part
    table, primes = _odd_factor_table(n >> 1)
    for v in range((1 << 20) - 2000, n + 1, 2):
        assert tuple(_table_factors(v, table, primes)) == factorize(v).factors, v


def test_count_table_matches_factorize():
    # byte i counts the odd primes of base + i, that is of n = 2 * (base + i)
    top = 100_000
    for base in (1, 2, 777, 4_096, 31_337):
        counts = _odd_prime_counts(base, top)
        assert len(counts) == top - base + 1
        for n in range(2 * base, 2 * top + 1, 2):
            assert counts[(n >> 1) - base] == len(factorize(n).factors) - 1, (base, n)
    assert _odd_prime_counts(10, 9) == bytearray()


@pytest.mark.parametrize("lo, hi", [
    ((1 << 20) - 1_999, 1 << 20),
    (SCAN_Q_CAP - 600, SCAN_Q_CAP),
])
def test_count_source_matches_factorize(lo, hi):
    # the source covers the even n with (lo - 1) / 2 <= n / 2 <= (hi + 1) / 2;
    # the second window ends where the tables do
    _, _, count = _odd_prime_powers(lo, hi)
    for n in range(2 * ((lo - 1) >> 1), hi + 2, 2):
        assert count(n) == len(factorize(n).factors) - 1, n


def test_factor_table_cap_fits_a_byte():
    table, primes = _odd_factor_table(_FACTOR_TABLE_CAP)
    assert len(primes) == 256 and primes[-1] == 1619 and max(table) == 255
    # 1621**2 is the first odd composite whose smallest prime needs index 256
    assert _FACTOR_TABLE_CAP + 1 == 1621**2 and is_prime(1621)


@pytest.mark.parametrize("lo, hi", [
    (3, 30_000),
    ((1 << 20) - 30_000, 1 << 20),
    (SCAN_Q_CAP - 600, SCAN_Q_CAP),
])
def test_enumerate_matches_prime_power_ctx(lo, hi):
    # the contexts built from the two table sources equal those built by
    # factorize, over exactly the prime powers factorize finds
    entries, factors, _ = _odd_prime_powers(lo, hi)
    entries = list(entries)
    assert [q for q, _, _ in entries] == [
        q for q in range(lo | 1, hi + 1, 2) if len(factorize(q).factors) == 1]
    assert [_ctx(p, k, q, factors(q - 1), factors(q + 1)) for q, p, k in entries] \
        == [prime_power_ctx(p, k) for _, p, k in entries]
