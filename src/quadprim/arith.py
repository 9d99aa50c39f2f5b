"""Exact integer number theory for the verification pipeline.

Factorization by trial division alone (exact for every positive
integer; ``factorize`` states the largest input the pipeline gives it),
the multiplicative functions the later stages use, and enumeration of
odd prime powers together with the derived data every later stage
needs.  Everything here is exact integer arithmetic.

``_odd_prime_powers`` streams the odd prime powers of an interval up to
``SCAN_Q_CAP``, one array per block of 16,384 numbers, from one count
table of the distinct odd primes of every n from lo - 1 to hi + 1, and
hands the scan that table and its base for the counts of n = q - 1 and
q + 1; its primes come from ``_primes``, a byte sieve of the odd numbers
alone.  ``factorize`` is the one way the package factors or decides
primality, ``ctx_for_prime_power`` the one way it builds the context of
a given q, and ``_odd_primes`` gives the scan the odd primes of
q**2 - 1 without one.
"""

from __future__ import annotations

from array import array
from itertools import chain, compress, islice
from math import isqrt, log
from typing import Iterator, NamedTuple

__all__ = [
    "SCAN_Q_CAP",
    "Factorization",
    "PrimePowerCtx",
    "factorize",
    "euler_phi",
    "squarefree_odd_radical",
    "product_factorization",
    "ctx_for_prime_power",
    "primes_upto",
    "first_primes",
]

# Gaps from 2 to 3, 5 and 7, then of the mod-30 wheel, repeated from index 3.
_GAPS = (1, 2, 2, 4, 2, 4, 2, 4, 6, 2, 6)

# Largest q of ``_odd_prime_powers``, whose count table it bounds at
# about 5 MB.  q**2 - 1 <= SCAN_Q_CAP**2 - 1 has at most 12 distinct
# primes, below the prime-count cutoff of 14 in ``criteria``, so no q the
# scan meets is settled by its prime count.
SCAN_Q_CAP = 5_255_279

# Byte map adding one to a count.  No count exceeds 7, since the product
# of the first eight odd primes, 111546435, exceeds SCAN_Q_CAP + 1; that
# of the first seven, 4849845, does not.
_INC = bytes(range(1, 256)) + b"\0"

# Byte map flagging the counts of the odd prime powers.
_AT_MOST_ONE = bytes(c <= 1 for c in range(256))


class Factorization(NamedTuple):
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

    Trial division by 2, 3, 5 and a mod-30 wheel, stepping d by
    ``_GAPS``, while d*d <= m, m being what is left of n; a leftover
    m > 1 has no factor up to its square root, so it is prime.  The
    factors are appended ascending: d only grows, and a leftover m > 1
    exceeds every d tried, since d*d > m > 1 ends the loop.  Exact
    for every positive integer.  The command line's largest input is
    q + 1 for a verified q <= 8192, and a context anywhere in the scan
    range needs at most SCAN_Q_CAP + 1 = 5255280, whose trial divisors
    stay below 2293.
    """
    if n < 1:
        raise ValueError("factorize requires a positive integer")
    factors = []
    m, d, i = n, 2, 0
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += _GAPS[i]
        i = i + 1 if i < 10 else 3
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


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


class PrimePowerCtx(NamedTuple):
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


def _ctx(p: int, k: int, q: int) -> PrimePowerCtx:
    """Context for q = p**k, with p prime and k >= 1."""
    # q**2 - 1 factors through the two halves, both of size about q.
    fact = product_factorization(factorize(q - 1), factorize(q + 1))
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


def _odd_primes(q: int) -> list[int]:
    """The distinct odd primes of q**2 - 1 for odd q >= 3, descending, from
    ``factorize`` of q - 1 and then q + 1, both even."""
    return sorted((p for p, _ in factorize(q - 1).factors[1:] + factorize(q + 1).factors[1:]),
                  reverse=True)


def ctx_for_prime_power(q: int) -> PrimePowerCtx:
    """Context for an arbitrary prime power given only its value."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fact = factorize(q)
    if len(fact.factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, k = fact.factors[0]
    return _ctx(p, k, q)


def primes_upto(n: int) -> list[int]:
    """All primes <= n by a byte sieve."""
    return list(_primes(n))


def _primes(n: int) -> Iterator[int]:
    """The primes <= n, ascending, read lazily from a byte sieve.

    2, then the odd primes: only the odd entries of the sieve are
    marked and read, through a strided view, so no copy is made and no
    int is created for an even number.
    """
    if n < 2:
        return iter(())
    sieve = bytearray([1]) * (n + 1)
    for p in range(3, isqrt(n) + 1, 2):
        if sieve[p]:
            start = p * p
            sieve[start :: 2 * p] = bytearray(len(range(start, n + 1, 2 * p)))
    return chain((2,), compress(range(3, n + 1, 2), memoryview(sieve)[3::2]))


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


def _odd_prime_powers(lo: int, hi: int) -> tuple[
        Iterator[array], bytearray, int, dict[int, tuple[int, int]]]:
    """The odd prime powers in [lo, hi] by blocks, a count table, its base
    and the higher powers.

    Returns the odd prime powers of each block of 16,384 numbers, one
    ``array('q')`` a block, ascending and taken lazily; the table, and
    base = lo - 1: byte n - base counts the odd primes p <= (hi + 1) / 2
    that divide n, for n from lo - 1 to hi + 1; and the dict of every
    q = p**k <= hi with k >= 2 to (p, k), so any other entry is a prime.
    Every odd prime of an even n <= hi + 1 is at most n / 2, so the count
    of n = q +- 1 is exact, ``len(factorize(n).factors) - 1``.
    An odd q <= hi that is no prime power has two distinct odd primes of
    at most q / 3 and counts at least 2; a prime power counts 1, or 0 if
    it is a prime above (hi + 1) / 2.  So the entries are the odd q that
    count at most 1.
    The table is counted from one walk of the odd primes of ``_primes``,
    whose sieve marks and reads odd numbers only; the dict from a second,
    short walk of those up to isqrt(hi), the only ones with a square
    <= hi.
    """
    if not 3 <= lo <= hi <= SCAN_Q_CAP:
        raise ValueError(f"range must satisfy 3 <= lo <= hi <= {SCAN_Q_CAP}")
    base = lo - 1
    counts = bytearray(hi + 2 - base)
    # The odd primes are read lazily: a list of all of them, 43,389 up to
    # 2**19, is a burst of short-lived ints that can leave a pymalloc arena
    # pinned, about 1 MB more peak resident memory on the full scan.
    for p in islice(_primes((hi + 1) >> 1), 1, None):
        s = -base % p
        counts[s::p] = counts[s::p].translate(_INC)
    powers = {}
    for p in islice(_primes(isqrt(hi)), 1, None):
        value, k = p * p, 2
        while value <= hi:
            powers[value] = p, k
            value *= p
            k += 1
    odd = lo | 1
    # The flags of a block's odd n, by one translate, select its entries
    # by compress, both in C: a per-byte lookup takes over twice as long,
    # and a whole copy holds 0.5 MB per 2**20 numbers.  Blocks of 65,536
    # numbers, with the scan's columns for each, raised the full scan's
    # peak by 0.1 MB traced and 0.25 MB resident, at the same speed.
    blocks = (array("q", compress(range(base + i, hi + 1, 2),
                                  counts[i:i + 16384:2].translate(_AT_MOST_ONE)))
              for i in range(odd - base, len(counts), 16384))
    return blocks, counts, base, powers
