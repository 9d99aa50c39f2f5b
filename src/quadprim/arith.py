"""Exact integer number theory for the verification pipeline.

Primality (deterministic Miller-Rabin), factorization by trial division
alone (exact for every positive integer; ``factorize`` states the
largest input the pipeline gives it), the multiplicative functions the
later stages use, and enumeration of odd prime powers together with the
derived data every later stage needs.  Everything here is exact integer
arithmetic.

``_odd_prime_powers`` streams the odd prime powers of an interval up to
``SCAN_Q_CAP``, taking the primes from a segmented sieve without
re-testing them, and returns two sources for the even numbers
n = q - 1 and q + 1: their factor lists, read from a smallest-prime-factor
table of the odd numbers, and their counts of distinct odd primes, read
from a count table of the halves n / 2.  Both tables end at
``_FACTOR_TABLE_CAP``, which bounds their memory and sets the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge
from itertools import compress
from math import isqrt, log
from typing import Callable, Iterator, Sequence

__all__ = [
    "SCAN_Q_CAP",
    "Factorization",
    "PrimePowerCtx",
    "is_prime",
    "factorize",
    "euler_phi",
    "squarefree_odd_radical",
    "product_factorization",
    "prime_power_ctx",
    "ctx_for_prime_power",
    "primes_upto",
    "first_primes",
]

# Witness set making Miller-Rabin deterministic for every n < 3.3 * 10**24,
# which covers all 64-bit inputs.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Gaps of the mod-30 wheel starting from 7.
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)

# Largest odd number the factor table covers, and the largest n / 2 the
# count table covers.  The factor table's bytes index the odd primes
# below 1621; there are 255 of them, and they hold the smallest factor of
# every odd composite below 1621**2.
_FACTOR_TABLE_CAP = 1621**2 - 1

# Largest q of ``_odd_prime_powers``: n = q + 1 of every q up to here has
# its half in both tables.  q**2 - 1 <= SCAN_Q_CAP**2 - 1 has at most 12
# distinct primes, below the prime-count cutoff of 14 in ``criteria``, so
# no q the scan meets is settled by its prime count.
SCAN_Q_CAP = 2 * _FACTOR_TABLE_CAP - 1

# Byte map adding one to a count.  No count exceeds 6, since the product
# of the first seven odd primes, 4849845, already exceeds the cap.
_INC = bytes(range(1, 256)) + b"\0"


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = ((d & -d).bit_length()) - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """A positive integer with its complete prime factorization.

    ``factors`` holds (prime, multiplicity) pairs with strictly ascending
    primes; the empty tuple factors 1.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def multiplicity(self, p: int) -> int:
        for prime, mult in self.factors:
            if prime == p:
                return mult
        return 0


def factorize(n: int) -> Factorization:
    """Factor a positive integer into prime powers.

    Trial division over a mod-30 wheel while d*d <= m, m being what is
    left of n; a leftover m > 1 has no factor up to its square root, so
    it is prime.  Exact for every positive integer.  The command line's
    largest input is q + 1 for a verified q <= 8192, and a context
    anywhere in the scan range needs at most SCAN_Q_CAP + 1 = 5255280,
    whose trial divisors stay below 2293.
    """
    if n < 1:
        raise ValueError("factorize requires a positive integer")
    acc: dict[int, int] = {}
    m = n
    for p in (2, 3, 5):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            acc[p] = e
    d = 7
    wi = 0
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            acc[d] = e
        d += _WHEEL[wi]
        wi = (wi + 1) & 7
    if m > 1:
        acc[m] = 1
    return Factorization(n, tuple(sorted(acc.items())))


def euler_phi(fact: Factorization) -> int:
    """Euler totient from a factorization."""
    result = 1
    for p, mult in fact.factors:
        result *= p ** (mult - 1) * (p - 1)
    return result


def squarefree_odd_radical(fact: Factorization) -> int:
    """Product of the distinct odd primes of the factored value."""
    result = 1
    for p, _ in fact.factors:
        if p != 2:
            result *= p
    return result


def product_factorization(f: Factorization, g: Factorization) -> Factorization:
    """Factorization of f.value * g.value from the two factor lists."""
    acc = dict(f.factors)
    for p, mult in g.factors:
        acc[p] = acc.get(p, 0) + mult
    return Factorization(f.value * g.value, tuple(sorted(acc.items())))


@dataclass(frozen=True)
class PrimePowerCtx:
    """Everything later stages need to know about one prime power q = p**k.

    fact_q2m1   factorization of q**2 - 1
    two_adic_d  multiplicity of 2 in q**2 - 1 (at least 3 for odd q)
    odd_part    (q**2 - 1) / 2**two_adic_d
    rprime      product of the distinct odd primes of q**2 - 1
    t_q         number of distinct primes of q**2 - 1
    """

    p: int
    k: int
    q: int
    fact_q2m1: Factorization
    two_adic_d: int
    odd_part: int
    rprime: int
    t_q: int


def _ctx(p: int, k: int, q: int, minus: Sequence[tuple[int, int]],
         plus: Sequence[tuple[int, int]]) -> PrimePowerCtx:
    """Context for q = p**k from ``factorize(q - 1).factors`` (minus) and
    ``factorize(q + 1).factors`` (plus)."""
    # q**2 - 1 factors through the two halves, both of size about q.
    fact = product_factorization(Factorization(q - 1, tuple(minus)),
                                 Factorization(q + 1, tuple(plus)))
    d = fact.multiplicity(2)
    return PrimePowerCtx(
        p=p,
        k=k,
        q=q,
        fact_q2m1=fact,
        two_adic_d=d,
        odd_part=(q * q - 1) >> d,
        rprime=squarefree_odd_radical(fact),
        t_q=len(fact.factors),
    )


def prime_power_ctx(p: int, k: int) -> PrimePowerCtx:
    """Build the context for q = p**k; p must be prime, k >= 1."""
    if k < 1:
        raise ValueError("exponent k must be at least 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    # p**1 is a new int object; reusing p keeps q and p one object in the
    # scan's output rows, which hold both for every q.
    q = p if k == 1 else p**k
    return _ctx(p, k, q, factorize(q - 1).factors, factorize(q + 1).factors)


def ctx_for_prime_power(q: int) -> PrimePowerCtx:
    """Context for an arbitrary prime power given only its value."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fact = factorize(q)
    if len(fact.factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, k = fact.factors[0]
    return prime_power_ctx(p, k)


def primes_upto(n: int) -> list[int]:
    """All primes <= n by a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = bytearray(len(range(start, n + 1, p)))
    return list(compress(range(n + 1), sieve))


def first_primes(count: int) -> list[int]:
    """The first ``count`` primes in ascending order."""
    if count <= 0:
        return []
    if count < 6:
        return [2, 3, 5, 7, 11][:count]
    bound = int(count * (log(count) + log(log(count)))) + 10
    ps = primes_upto(bound)
    while len(ps) < count:
        bound *= 2
        ps = primes_upto(bound)
    return ps[:count]


def _odd_primes_in_range(lo: int, hi: int) -> Iterator[int]:
    # Segmented sieve so large intervals never materialize a full table.
    lo = max(lo, 3)
    if lo > hi:
        return
    base = primes_upto(isqrt(hi))
    block = 1 << 18
    for start in range(lo, hi + 1, block):
        end = min(start + block - 1, hi)
        seg = bytearray([1]) * (end - start + 1)
        for p in base:
            if p * p > end:
                break
            first = max(p * p, ((start + p - 1) // p) * p)
            seg[first - start :: p] = bytearray(len(range(first, end + 1, p)))
        odd = start | 1
        yield from compress(range(odd, end + 1, 2), seg[odd - start :: 2])


def _odd_factor_table(n: int) -> tuple[bytearray, list[int]]:
    """Smallest-prime-factor table of the odd numbers up to n.

    Byte j describes 2*j + 1: 0 if it is 1 or prime, otherwise the index
    of its smallest prime factor in the returned list of odd primes up to
    sqrt(n), whose entry 0 is a placeholder.  n must not exceed
    ``_FACTOR_TABLE_CAP``.
    """
    primes = [0] + primes_upto(isqrt(n))[1:]
    table = bytearray((n >> 1) + 1)
    # Larger primes first, so each odd composite keeps its smallest one.
    for i in range(len(primes) - 1, 0, -1):
        p = primes[i]
        start = (p * p) >> 1
        table[start::p] = bytes((i,)) * len(range(start, len(table), p))
    return table, primes


def _table_factors(n: int, table: bytearray, primes: list[int]
                   ) -> list[tuple[int, int]]:
    """``factorize(n).factors`` as a list, for n >= 1 whose odd part the
    table covers."""
    factors = []
    twos = (n & -n).bit_length() - 1
    if twos:
        factors.append((2, twos))
    m = n >> twos
    while m > 1:
        i = table[m >> 1]
        if not i:
            factors.append((m, 1))
            break
        p = primes[i]
        m //= p
        e = 1
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))
    return factors


def _odd_prime_counts(base: int, top: int) -> bytearray:
    """Count table of the numbers from base >= 1 up to top.

    Byte i is the number of distinct odd primes of base + i; the table is
    empty when top < base.  Each odd prime p <= top raises every multiple
    of p by one in a single slice increment.
    """
    out = bytearray(max(top - base + 1, 0))
    for p in primes_upto(top)[1:]:
        s = -base % p
        out[s::p] = out[s::p].translate(_INC)
    return out


def _odd_prime_powers(lo: int, hi: int) -> tuple[
        Iterator[tuple[int, int, int]], Callable[[int], Sequence[tuple[int, int]]],
        Callable[[int], int]]:
    """The odd prime powers in [lo, hi] and two sources for q +- 1.

    Returns the triples (q, p, k) with q = p**k, ascending in q and taken
    lazily, a factor source mapping n = q - 1 or q + 1 to
    ``factorize(n).factors`` and a count source mapping such n to its
    number of distinct odd primes, ``len(factorize(n).factors) - 1``.
    The primes come from a segmented sieve, which proves them, so they
    are not tested again; the few higher powers are sorted up front and
    merged in.  The odd part and the half n / 2 of every such n are at
    most (hi + 1) / 2, so the factor source reads the smallest-prime-factor
    table of the odd numbers up to there, and the count source the count
    table of the n / 2 from (lo - 1) / 2 up to there.
    """
    if not 3 <= lo <= hi <= SCAN_Q_CAP:
        raise ValueError(f"range must satisfy 3 <= lo <= hi <= {SCAN_Q_CAP}")
    powers = []
    for p in primes_upto(isqrt(hi))[1:]:
        value, k = p * p, 2
        while value <= hi:
            if value >= lo:
                powers.append((value, p, k))
            value *= p
            k += 1
    powers.sort()
    entries = merge(((v, v, 1) for v in _odd_primes_in_range(lo, hi)), powers)
    top = (hi + 1) >> 1
    table, primes = _odd_factor_table(top)
    base = (lo - 1) >> 1
    count_table = _odd_prime_counts(base, top)

    def factors(n: int) -> Sequence[tuple[int, int]]:
        return _table_factors(n, table, primes)

    def count(n: int) -> int:
        return count_table[(n >> 1) - base]

    return entries, factors, count
