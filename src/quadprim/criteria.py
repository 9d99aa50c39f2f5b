"""Theoretical sufficient conditions and the interval scan.

For an odd prime power q write m = q**2 - 1 and let R' be the product of
the distinct odd primes of m.  A character-sum argument shows that every
translate set and every line contains an element of order m/2 as soon as

    q + 1 > 4 * (W(R) * sqrt(q) - W(R1) * (sqrt(q) - 1) / e)

holds with R = R', where W counts square-free divisors, R1 is the part of
R dividing q + 1, and e is 2 for q = 1 (mod 4) and 1 otherwise.  When the
basic inequality fails, a sieve over decompositions R' = kk * p_1 ... p_s
relaxes it; the basic inequality is the sieve's with no prime moved
(s = 0), and ``_sieve_sign`` decides both.  ``scan_interval``
classifies every odd prime power in an interval by the first stage that
settles it; survivors are Exceptions and must be checked exhaustively.

The basic stage needs only two numbers from q**2 - 1.  Since
gcd(q - 1, q + 1) = 2, the odd parts of q - 1 and q + 1 share no prime,
so with a and b their distinct prime counts W(R') = 2**(a + b),
W(R1) = 2**b and q**2 - 1 has a + b + 1 distinct primes.  So q meets
the basic inequality through its class (e, a, b) and sqrt(q) alone, and
each of the 128 classes passes exactly the q from one threshold T on
(``scan_interval`` proves it).  The scan reads a and b from the count
table of the interval, compares q with its class's T, and factors q - 1
and q + 1 only for the q below it.

One exact walk, ``_moves``, steps epsilon = 1 - sum(1/p) down the moved
primes, and with it r and the numerator of epsilon' over those that
divide q + 1; it drives ``greedy_decompose``, the sieve stage of
``classify_prime_power`` and the scan, ``settle_prime_count_range`` and
``scan_bound``.  The sieve stage, ``_walk``, signs its raw states in
order, with W(kk) = 2**(t - s) and W(k1) = 2**(b - r) for t odd primes
in all, and stops at the first that passes.  A verdict names that state
by s alone, the number of largest odd primes moved, which fixes the
decomposition; only ``greedy_decompose`` builds a ``SieveDecomposition``.

The scan's interval [3, 2**20] leaves no q open: ``prime_count_cutoff``
settles every q whose q**2 - 1 has 14 or more primes, and ``scan_bound``
every q above Q* = 142,862 with fewer.

No float decides a verdict.  Both inequalities, multiplied through by
their positive denominators, take the form A + B * sqrt(q) > 0 with
integers A and B, and ``_positive`` decides that sign exactly from the
signs of A and B and, when they differ, by comparing A**2 with B**2 * q.
The margin of a verdict is the double (A + B * sqrt(q)) divided by that
denominator, that is (q + 1) - rhs: it reports how far q clears or misses
the inequality and decides nothing.
"""

from __future__ import annotations

from array import array
from enum import Enum
from functools import lru_cache
from itertools import islice
from math import floor, inf, prod, sqrt
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .arith import (
    PrimePowerCtx,
    _odd_prime_powers,
    _odd_primes,
    first_primes,
    primes_upto,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "SCAN_EXCEPTIONS",
    "Stage",
    "SieveDecomposition",
    "CriterionVerdict",
    "sieve_condition",
    "greedy_decompose",
    "settle_prime_count_range",
    "prime_count_cutoff",
    "scan_bound",
    "classify_prime_power",
    "scan_blocks",
    "block_verdicts",
    "scan_interval",
]

# Odd prime powers q <= 2**20 for which neither the basic condition nor any
# greedy sieve decomposition succeeds.  Reproduced from scratch by
# scan_interval(3, 1 << 20); frozen here for CLI expectation checks.
SCAN_EXCEPTIONS: frozenset[int] = frozenset({
    3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49,
    53, 59, 61, 67, 71, 73, 79, 81, 83, 89, 97, 101, 103, 109, 113, 121,
    125, 127, 131, 137, 139, 149, 151, 157, 169, 173, 181, 191, 197, 199,
    211, 229, 239, 241, 269, 281, 307, 311, 331, 337, 349, 361, 373, 379,
    389, 409, 419, 421, 461, 463, 509, 521, 529, 569, 571, 601, 617, 631,
    659, 661, 701, 761, 769, 841, 859, 881, 911, 1009, 1021, 1231, 1289,
    1301, 1331, 1429, 1609, 1741, 1849, 1861, 2029, 2281, 2311, 2729, 3541,
})


class Stage(Enum):
    BASIC_PASS = "basic-pass"
    SIEVE_PASS = "sieve-pass"
    EXCEPTION = "exception"
    ELIMINATED_BY_PRIME_COUNT = "eliminated-by-prime-count"


class SieveDecomposition(NamedTuple):
    """A decomposition R' = kk * p_1 ... p_s with the derived sieve data.

    sieve_primes  the moved primes, in the order they were moved
    k1            part of kk dividing q + 1
    r             number of sieve primes dividing q + 1
    den           product of the sieve primes
    num           den * epsilon, epsilon = 1 - sum(1/p_i) over all sieve
                  primes (positive)
    num_prime     den * epsilon', epsilon' = 1 - sum(1/p_i) over sieve
                  primes dividing q + 1

    epsilon and epsilon' are the fractions num / den and num_prime / den.
    """

    kk: int
    k1: int
    sieve_primes: tuple[int, ...]
    s: int
    r: int
    num: int
    num_prime: int
    den: int


class CriterionVerdict(NamedTuple):
    """Outcome of the staged criteria for one prime power; immutable.

    s is the passing step of the greedy walk: 0 for BasicPass, the number
    of primes moved for SievePass, and None for Exception and
    EliminatedByPrimeCount.  ``list(greedy_decompose(ctx))[v.s]`` is the
    passing decomposition.  margin is lhs - rhs of the decisive
    inequality: the passing one for BasicPass/SievePass, the closest
    failing attempt for Exception, and infinity for
    EliminatedByPrimeCount.  p and k give q = p**k, as the classifying
    context holds them.
    """

    q: int
    stage: Stage
    s: int | None
    margin: float
    p: int
    k: int


def _positive(A: int, B: int, q: int) -> bool:
    """A + B * sqrt(q) > 0 for integers A, B and q >= 0, decided exactly.

    For B >= 0 the sum is positive when A is, and otherwise exactly when
    B * sqrt(q) > -A >= 0, that is B**2 * q > A**2; for B < 0 it needs
    A > -B * sqrt(q) > 0, that is A > 0 and A**2 > B**2 * q.
    """
    if B >= 0:
        return A > 0 or B * B * q > A * A
    return A > 0 and A * A > B * B * q


def _sieve_sign(q: int, s: int, r: int, num: int, num_prime: int, den: int,
                w_k: int, w_k1: int) -> tuple[bool, float]:
    """The one sign test: (holds, margin) of the sieved inequality.

    With epsilon = num / den, epsilon' = num_prime / den, W(kk) = w_k and
    W(k1) = w_k1, the inequality times e * num is A + B * sqrt(q) > 0 for
    the integers A = e * num * (q + 1) - 4 * W(k1) * Y and
    B = 4 * W(k1) * Y - 4 * e * W(kk) * X, where
    X = (s - 1) * den + 2 * num and Y = (r - 1) * den + num_prime + num;
    it is decided exactly.  The margin is that sum over e * num.
    """
    e = 2 if q % 4 == 1 else 1
    x = (s - 1) * den + 2 * num
    y = (r - 1) * den + num_prime + num
    A = e * num * (q + 1) - 4 * w_k1 * y
    B = 4 * w_k1 * y - 4 * e * w_k * x
    return _positive(A, B, q), (A + B * sqrt(q)) / (e * num)


def sieve_condition(ctx: PrimePowerCtx, dec: SieveDecomposition) -> tuple[bool, float]:
    """Evaluate the sieved inequality for one decomposition of R' by
    ``_sieve_sign``, with W(kk) and W(k1) counted over the context's primes."""
    if dec.num <= 0:
        raise ValueError("decomposition must have positive epsilon")
    w_k, w_k1 = (1 << sum(1 for p, _ in ctx.fact_q2m1.factors if n % p == 0)
                 for n in (dec.kk, dec.k1))
    return _sieve_sign(ctx.q, dec.s, dec.r, dec.num, dec.num_prime, dec.den, w_k, w_k1)


def _moves(primes_desc, qp1: int = 1) -> Iterator[tuple[int, int, int, int, int]]:
    """The one epsilon walk: yield (s, num, den, r, num_prime) for s = 0,
    1, ... while epsilon = num / den = 1 - sum(1/p) over the first s primes
    of primes_desc stays positive, with den the product of those primes.
    r counts the moved primes dividing qp1 (none for the default), and
    epsilon' = num_prime / den = 1 - sum(1/p) over them: moving p
    multiplies both numerators by p and takes den off each p enters."""
    num, den, r, num_prime = 1, 1, 0, 1
    yield 0, num, den, r, num_prime
    for s, p in enumerate(primes_desc, start=1):
        num = num * p - den
        if num <= 0:
            return
        on = qp1 % p == 0
        r += on
        num_prime = num_prime * p - den * on
        den *= p
        yield s, num, den, r, num_prime


def _odd_desc(ctx: PrimePowerCtx) -> list[int]:
    return [p for p, _ in reversed(ctx.fact_q2m1.factors) if p != 2]


def greedy_decompose(ctx: PrimePowerCtx) -> Iterator[SieveDecomposition]:
    """Greedy sieve decompositions of R', largest primes moved first.

    Yields the decomposition with no prime moved (s = 0, kk = R'), whose
    sieve condition is the basic one, then moves one prime at a time from
    kk into the sieve set while epsilon stays positive, yielding every
    decomposition as it is reached.  den is the product of the moved
    primes, k1 the part of kk dividing q + 1, and r counts the moved
    primes dividing q + 1, over which epsilon' = num_prime / den is taken.
    """
    primes_desc, qp1 = _odd_desc(ctx), ctx.q + 1
    for s, num, den, r, num_prime in _moves(primes_desc, qp1):
        # kk keeps the odd primes past the first s, and k1 those of them
        # that divide q + 1
        kept = primes_desc[s:]
        yield SieveDecomposition(kk=prod(kept), k1=prod(p for p in kept if qp1 % p == 0),
                                 sieve_primes=tuple(primes_desc[:s]), s=s, r=r, num=num,
                                 num_prime=num_prime, den=den)


def _max_prime_count(limit) -> int:
    """The largest c >= 1 with p_1 * ... * p_c <= limit (so 1 for any
    limit < 6), compared exactly for an int or Fraction limit: no integer
    up to limit has more than c distinct prime factors."""
    primes = first_primes(64)
    c, primorial = 1, primes[0] * primes[1]
    while primorial <= limit:
        c += 1
        if c == len(primes):
            primes = first_primes(2 * c)
        primorial *= primes[c]
    return c


def _sieve_bound(t: int, s: int, num: int, den: int) -> Fraction:
    """(2**(t + 1 - s) * ((s - 1) / epsilon + 2))**2, epsilon = num / den, with
    t primes in q**2 - 1 and s moved: the threshold of settle and scan_bound."""
    from fractions import Fraction  # imported where used: see _DIVISOR_BOUND

    return (2 ** (t + 1 - s) * (Fraction((s - 1) * den, num) + 2)) ** 2


def settle_prime_count_range(t1: int, t2: int) -> bool:
    """Decide whether every q whose m = q**2 - 1 has between t1 and t2
    distinct prime factors satisfies the sieved condition.

    Exact rational arithmetic throughout.  Greedily lower-bounds epsilon
    by moving the most of the first t1 primes, largest first, that keep it
    positive, forms the threshold q1 below which the condition could fail,
    and returns True when no integer up to q1**2 - 1 carries more than t1
    distinct primes.  That leaves the q < q1 with exactly t1 primes to
    other arguments: at 11:13 the count is exactly 11, and "11:13
    settled" also rests on the scan tables, which cover every q below
    that q1 (about 1.041e6 < 2**20).
    """
    if not 2 <= t1 <= t2:
        raise ValueError("need 2 <= t1 <= t2")
    *_, (s, num, den, _, _) = _moves(first_primes(t1)[::-1])
    q1 = _sieve_bound(t2, s, num, den)
    return _max_prime_count(q1 * q1 - 1) <= t1


# Bound on the square-free divisor constant for a = 8, as a numerator and
# denominator; its true maximum over prime prefixes is 4514.6265...,
# reached at the first 54 primes.  fractions is imported only where a
# Fraction is built: it imports decimal, which costs every launch of the
# command line about 0.4 MB resident and 2 ms, for the settle and bound
# checks alone.
_DIVISOR_BOUND = 45147, 10


def _divisor_bound_holds(bound: Fraction) -> bool:
    """True when 2**j / (p_1 ... p_j)**(1/8) < bound for every prefix of
    the primes up to 256, decided exactly in integers."""
    num8, den8 = bound.numerator ** 8, bound.denominator ** 8
    prod = 1
    for j, p in enumerate(primes_upto(256), start=1):
        prod *= p
        if not 2 ** (8 * j) * den8 < num8 * prod:
            return False
    return True


@lru_cache(maxsize=1)
def prime_count_cutoff() -> int:
    """Smallest prime count of q**2 - 1 at which every q is settled.

    Verifies the full elimination argument before answering:
    - the square-free divisor bound constant for a = 8, maximized over
      prefixes of the primes up to 256, stays below 4514.7 (checked in
      integers), so every q >= q0 = (2 * 4514.7)**4 passes the basic
      condition outright;
    - below q0 the value q**2 - 1 carries at most c_max distinct primes
      (primorial comparison, exact);
    - for every t from the cutoff up to c_max the sieved condition is
      settled by exact greedy arithmetic over the prime counts alone.
    """
    from fractions import Fraction

    cutoff, bound = 14, Fraction(*_DIVISOR_BOUND)
    if not _divisor_bound_holds(bound):
        raise RuntimeError("divisor bound constant check failed")
    q0 = (2 * bound) ** 4
    c_max = _max_prime_count(q0 * q0 - 1)
    if c_max < cutoff:
        raise RuntimeError("prime count ceiling below the cutoff")
    for t in range(cutoff, c_max + 1):
        if not settle_prime_count_range(t, t):
            raise RuntimeError(f"prime count {t} not settled")
    return cutoff


@lru_cache(maxsize=1)
def scan_bound() -> tuple[tuple[tuple[int, int, int], ...], int]:
    """Every odd q > Q* whose q**2 - 1 has fewer primes than the cutoff
    passes the sieve: returns ((t, s, floor(Q(t))) for t = 2 ... cutoff
    - 1, Q*), with Q* the largest floor(Q(t)).

    With t distinct primes, R' has t - 1 odd primes.  Move its s largest
    into the sieve set (0 <= s <= t - 1), so W(kk) = 2**(t - 1 - s); they
    are termwise at least the s largest of the first t primes, so epsilon
    is at least eps, taken over those, and the sieve holds whenever
    eps > 0 and sqrt(q) > 2**(t + 1 - s) * ((s - 1) / eps + 2): the
    W(k1) terms add 4 * W(k1) * Y * (sqrt(q) - 1) > 0 to the left side
    and are dropped, and q + 1 > q.  Q(t) is the square of that bound at the s that makes
    it least, in exact Fractions.
    """
    rows = []
    for t in range(2, prime_count_cutoff()):
        odd_desc = first_primes(t)[:0:-1]
        s, bound = min(((s, _sieve_bound(t, s, num, den))
                        for s, num, den, _, _ in _moves(odd_desc)), key=lambda row: row[1])
        rows.append((t, s, floor(bound)))
    return tuple(rows), max(row[2] for row in rows)


def classify_prime_power(ctx: PrimePowerCtx) -> CriterionVerdict:
    """Classify one odd prime power by the first stage that settles it: the
    basic stage is the greedy walk's s = 0, the sieve stage the rest."""
    if ctx.q % 2 == 0:
        raise ValueError("q must be odd")
    if ctx.t_q >= prime_count_cutoff():
        return CriterionVerdict(ctx.q, Stage.ELIMINATED_BY_PRIME_COUNT, None, inf,
                                ctx.p, ctx.k)
    s, margin = _walk(ctx.q, _odd_desc(ctx), 0, -inf)
    stage = Stage.EXCEPTION if s is None else Stage.SIEVE_PASS if s else Stage.BASIC_PASS
    return CriterionVerdict(ctx.q, stage, s, margin, ctx.p, ctx.k)


def _walk(q: int, primes_desc, start: int, best: float) -> tuple[int | None, float]:
    # The walk's states s >= start for q, whose q**2 - 1 has the odd primes
    # primes_desc, descending: the s of the first that passes and its
    # margin, else None and the largest margin tried, or best.
    qp1 = q + 1
    t, b = len(primes_desc), sum(qp1 % d == 0 for d in primes_desc)
    for s, num, den, r, num_prime in islice(_moves(primes_desc, qp1), start, None):
        ok, margin = _sieve_sign(q, s, r, num, num_prime, den, 1 << (t - s), 1 << (b - r))
        if ok:
            return s, margin
        best = max(best, margin)
    return None, best


@lru_cache(maxsize=1)
def _basic_thresholds() -> tuple[tuple[int, int, int, float], ...]:
    """The basic stage of each class (e, a, b): a tuple (T, e, A0, B) at
    index (q & 2) << 5 | a << 3 | b, for a, b = 0 ... 7.

    A0 = e - 4 * 2**b and B = 4 * 2**b * (1 - e * 2**a), a float, so the
    basic inequality of q is e * q + A0 + B * sqrt(q) > 0 and holds
    exactly for q >= T.  T is the least integer at which ``_positive``
    holds, found by doubling and then bisection, which is valid since
    the set of such q is an upward ray (see ``scan_interval``).
    """
    classes = [None] * 128
    for r in (1, 3):  # q mod 4
        e = 2 if r == 1 else 1
        for a in range(8):
            for b in range(8):
                A0, B = e - (4 << b), (4 << b) * (1 - (e << a))
                lo, hi = 0, 1
                while not _positive(e * hi + A0, B, hi):
                    lo, hi = hi, 2 * hi
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if _positive(e * mid + A0, B, mid):
                        hi = mid
                    else:
                        lo = mid
                classes[(r & 2) << 5 | a << 3 | b] = hi, e, A0, float(B)
    return tuple(classes)


def scan_blocks(lo: int, hi: int) -> Iterator[
        tuple[array, array, dict[int, tuple[int, int, Stage, int | None]]]]:
    """The scan of [lo, hi] in columns, one block of 16,384 numbers at a time.

    Yields (qs, margins, kept) per block: the odd prime powers of the
    block, ascending, in an ``array('q')``, the margins of their verdicts
    in an ``array('d')``, and for those q that are not a basic pass at
    k = 1 the tuple (p, k, stage, s), ascending in q.  Every other q is a
    basic pass with s = 0, p = q and k = 1.  A q that fails the basic
    stage is walked from s = 1 by ``_walk``, which builds no
    decomposition: it is a sieve pass at the first state that passes,
    else an exception with s None, and its margin is that state's, else
    the largest tried.  ``scan_interval`` states the rules; this is its
    loop.
    """
    blocks, counts, base, powers = _odd_prime_powers(lo, hi)
    classes = _basic_thresholds()
    up, down = 1 - base, -1 - base
    basic, sieve, exception = Stage.BASIC_PASS, Stage.SIEVE_PASS, Stage.EXCEPTION
    for qs in blocks:
        margins, kept = array("d"), {}
        add = margins.append
        for q in qs:
            T, e, A0, B = classes[(q & 2) << 5 | counts[q + down] << 3 | counts[q + up]]
            margin = (e * q + A0 + B * sqrt(q)) / e
            if q < T:
                s, margin = _walk(q, _odd_primes(q), 1, margin)
                p, k = powers.get(q, (q, 1))
                kept[q] = p, k, exception if s is None else sieve, s
            elif q in powers:
                p, k = powers[q]
                kept[q] = p, k, basic, 0
            add(margin)
        yield qs, margins, kept


def block_verdicts(blocks) -> Iterator[CriterionVerdict]:
    """The verdict of every q in the ``scan_blocks`` blocks, ascending in
    q; a q its block does not keep is a basic pass at s = 0 with p = q and
    k = 1.  The one reader of the scan's columns, for ``scan_interval``
    and the command line's rows.  Each verdict is built by
    ``tuple.__new__``, which is all the named tuple's own Python-level
    ``__new__`` does."""
    new, basic = tuple.__new__, Stage.BASIC_PASS
    for qs, margins, kept in blocks:
        get = kept.get
        for q, margin in zip(qs, margins):
            p, k, stage, s = get(q, (q, 1, basic, 0))
            yield new(CriterionVerdict, (q, stage, s, margin, p, k))


def scan_interval(lo: int, hi: int) -> Iterator[CriterionVerdict]:
    """Yield the verdict of every odd prime power in [lo, hi], ascending in q.

    Each verdict equals ``classify_prime_power`` of the q's context, but
    the basic stage is decided from q mod 4 and the odd prime counts a of
    q - 1 and b of q + 1 alone (W(R') = 2**(a + b), W(R1) = 2**b), read
    straight from the one count table that ``_odd_prime_powers`` builds
    for the whole interval and also enumerates its prime powers by.
    Only the q the basic stage does not pass are factored, by
    ``_odd_primes`` with no ``PrimePowerCtx``, and walk on from s = 1
    with the basic margin in hand.
    A generator: the call returns at once, and the first ``next`` raises
    ValueError unless 3 <= lo <= hi <= ``SCAN_Q_CAP``.  No q up to that
    cap is settled by its prime count, so the basic stage comes first.
    The verdict of q depends on q alone, so the scans of adjacent
    intervals concatenate to the scan of their union.

    The basic stage is one comparison per q.  Times e, the basic
    inequality is the s = 0 sign test of ``_sieve_sign``,
    e * q + A0 + B * sqrt(q) > 0 with A0 = e - 4 * 2**b and
    B = 4 * 2**b * (1 - e * 2**a).  A0 < 0, as e <= 2 < 4 * 2**b, and
    B <= 0.  So in x = sqrt(q) the left side is e * x**2 + B * x + A0,
    an upward parabola that is negative at x = 0: it has exactly one
    positive root and is positive exactly beyond it.  The q that pass
    are therefore every integer from the least one that passes, T, on.
    a, b <= 7 (arith's ``_INC``), so 128 classes (e, a, b) cover every
    q, and ``_basic_thresholds`` finds their T once, with ``_positive``;
    the largest is 4,261,478,910.  The margin is
    (e * q + A0 + B * sqrt(q)) / e, the same float operations on the
    same integers as ``_sieve_sign``, so margins are bit-identical.

    ``scan_blocks`` does that work a block of 16,384 numbers at a time,
    and this generator holds one block: its q and margins in two arrays
    and (p, k, stage, s) of the q that are not a basic pass at k = 1.
    It reads them by ``block_verdicts``, and factors and walks nothing
    itself.
    """
    yield from block_verdicts(scan_blocks(lo, hi))
