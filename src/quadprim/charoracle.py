"""Character-sum oracle over small quadratic extensions, decided in integers.

Multiplicative characters of F_{q**2}* are indexed against the chosen
primitive element a: chi_t(a**e) = exp(2*pi*i*t*e/m) with m = q**2 - 1.
Every check here reads one log set per field (``log_set``): L, the
discrete logs base a of the q elements X + f, f in F_q, where
X = element_from_index(p).  The class c * (X + F_q), c = b**i in F_q*
with b = a**(q+1), has the logs L + (q+1)*i, and every line
alpha * (theta + F_q) is such a class scaled by alpha, so its logs are a
shift of L.  On that log set this module decides three facts exactly:

- translate sums: sum_{x in F_q} chi(theta + x) is -1 for a nontrivial
  chi trivial on F_q* and has modulus sqrt(q) otherwise, for every
  translate class (``survey_translate_sums``).  By Parseval this holds
  exactly when L is a difference set in Z/m relative to (q+1)Z/m and no
  log of L lies in (q+1)Z; scaling a class by c multiplies every sum by
  chi(c), so one L decides all q - 1 classes;
- the line count: the number of x in F_q with alpha * (theta + x) an
  r-free square and not a fourth power, by exact order tests and as the
  count of the logs e = 2 mod 4 of the line that are prime to r
  (``line_target_count``, ``survey_line_identities``);
- the sieve lower bound relating that count for a modulus to the counts
  for a family of its divisors, with exact counts
  (``check_sieve_inequality``).

The translate claim costs q**2 integer steps and m bytes, and has no
cap.  The direct line counts cost about 2 * q**2 order tests per field,
so the line and sieve checks are capped at q <= ORACLE_Q_CAP.
"""

from __future__ import annotations

import math
from typing import NamedTuple
from weakref import WeakKeyDictionary

from .arith import factorize
from .ffield import FieldElem, QuadExtField

__all__ = [
    "ORACLE_Q_CAP",
    "LineTargetCount",
    "SieveCheck",
    "TranslateSumSurvey",
    "LineIdentitySurvey",
    "log_set",
    "line_target_count",
    "check_sieve_inequality",
    "survey_translate_sums",
    "survey_line_identities",
]

ORACLE_Q_CAP = 200

_log_set_cache: "WeakKeyDictionary[QuadExtField, tuple[int, ...]]" = WeakKeyDictionary()


def _require_oracle_field(fld: QuadExtField) -> None:
    if fld.q > ORACLE_Q_CAP:
        raise ValueError(
            f"oracle supports q <= {ORACLE_Q_CAP}, got q = {fld.q}")


def _ratio_digit(s: int, y: int, fld: QuadExtField) -> int:
    """Digit index of s/y in F_q, for digit indices s and y != 0."""
    log = fld.fq_log
    return s and fld.fq_exp[(log[s] - log[y]) % (fld.q - 1)]


def log_set(fld: QuadExtField) -> tuple[int, ...]:
    """L[f] = log_a(X + f) for each digit index f of F_q, memoized per field.

    One walk u = a**j, 1 <= j <= q, with no table of size q**2: these u
    lie in the q cosets of F_q* other than F_q* itself, and each such
    coset meets X + F_q once.  So u = s + y*X has y != 0, and u/y = s/y + X
    has the log j - (q+1) * log_b(y) mod m.
    """
    logs = _log_set_cache.get(fld)
    if logs is None:
        q, m, log = fld.q, fld.m, fld.fq_log
        out = [0] * q
        u = fld.one
        for j in range(1, q + 1):
            u = fld.mul(u, fld.a)
            s, y = fld.fq_coords(u)
            out[_ratio_digit(s, y, fld)] = (j - (q + 1) * log[y]) % m
        logs = _log_set_cache[fld] = tuple(out)
    return logs


def _log(u: FieldElem, fld: QuadExtField) -> int:
    """log_a(u) for nonzero u = s + y*X, read from F_q's logs and L."""
    q, log = fld.q, fld.fq_log
    s, y = fld.fq_coords(u)
    if y == 0:
        return (q + 1) * log[s]
    return ((q + 1) * log[y] + log_set(fld)[_ratio_digit(s, y, fld)]) % fld.m


# -- line target counts and the sieve --------------------------------------


class LineTargetCount(NamedTuple):
    """Count of x in F_q for which alpha * (theta + x) is an r-free
    square and not a fourth power, by exact order tests (direct) and by
    the logs of the line (via_formula): those e with e = 2 mod 4 and
    gcd(e, r) = 1."""

    q: int
    r: int
    direct: int
    via_formula: int


def _direct_line_count(theta: FieldElem, alpha: FieldElem, r: int,
                       fld: QuadExtField) -> int:
    m, one = fld.m, fld.one
    ells = factorize(r).primes()
    quarter = m // 4  # 8 divides q**2 - 1, so v**2 == u**(m/2) below
    count = 0
    for x in fld.base_field_elements():
        u = fld.mul(alpha, fld.add(theta, x))
        v = fld.pow(u, quarter)
        if v == one or fld.mul(v, v) != one:
            continue
        if all(fld.pow(u, m // ell) != one for ell in ells):
            count += 1
    return count


def line_target_count(theta: FieldElem, alpha: FieldElem, r: int,
                      fld: QuadExtField) -> LineTargetCount:
    """Count the line alpha * (theta + F_q) twice, exactly.

    u = a**e is a square and not a fourth power exactly when e = 2 mod 4,
    and r-free when phi(r)/r * sum_{d | r squarefree} mu(d)/phi(d) * c_d(e)
    is 1, with c_d(e) the sum of chi(u) over chi of exact order d; by
    Moebius inversion that is the integer [gcd(e, r) = 1].  via_formula
    counts the logs e = 2 mod 4 of the line, a shift of L, with
    gcd(e, r) = 1, so it equals direct exactly when the logs agree with
    the order tests."""
    _require_oracle_field(fld)
    m = fld.m
    if fld.in_base_field(theta):
        raise ValueError("theta must lie outside the base field")
    if alpha == fld.zero:
        raise ValueError("alpha must be nonzero")
    if r < 1 or m % r:
        raise ValueError(f"{r} does not divide the group order {m}")

    direct = _direct_line_count(theta, alpha, r, fld)

    # theta + F_q = y * (X + F_q) for theta = s + y*X
    shift = _log(alpha, fld) + (fld.q + 1) * fld.fq_log[fld.fq_coords(theta)[1]]
    via_formula = sum(1 for e in ((l + shift) % m for l in log_set(fld))
                      if e % 4 == 2 and math.gcd(e, r) == 1)
    return LineTargetCount(fld.q, r, direct, via_formula)


class SieveCheck(NamedTuple):
    """Sieve lower bound for one (theta, alpha) pair: the count at the
    full modulus must be at least sum(part_counts) - (s - 1) * base_count."""

    q: int
    modulus: int
    base: int
    parts: tuple[int, ...]
    full_count: int
    base_count: int
    part_counts: tuple[int, ...]
    bound: int
    holds: bool


def check_sieve_inequality(theta: FieldElem, alpha: FieldElem, modulus: int,
                           base: int, parts: tuple[int, ...],
                           fld: QuadExtField) -> SieveCheck:
    """Validate the divisor family and test the sieve inequality with
    exact counts.  Base and parts must be positive, the base must divide
    every part, parts the modulus, and each prime of the modulus a part."""
    _require_oracle_field(fld)
    m = fld.m
    if modulus < 1 or m % modulus or modulus % 2 == 0:
        raise ValueError("modulus must be an odd divisor of the group order")
    if not parts:
        raise ValueError("at least one part is required")
    for name, v in (("base", base), *(("part", r) for r in parts)):
        if v < 1:
            raise ValueError(f"{name} {v} must be a positive integer")
    for r in parts:
        if modulus % r:
            raise ValueError(f"part {r} does not divide the modulus {modulus}")
        if r % base:
            raise ValueError(f"base {base} does not divide part {r}")
    covered = set()
    for r in parts:
        covered.update(factorize(r).primes())
    if not set(factorize(modulus).primes()) <= covered:
        raise ValueError("parts do not cover the primes of the modulus")
    if fld.in_base_field(theta):
        raise ValueError("theta must lie outside the base field")
    if alpha == fld.zero:
        raise ValueError("alpha must be nonzero")

    full = _direct_line_count(theta, alpha, modulus, fld)
    base_count = _direct_line_count(theta, alpha, base, fld)
    part_counts = tuple(_direct_line_count(theta, alpha, r, fld)
                        for r in parts)
    bound = sum(part_counts) - (len(parts) - 1) * base_count
    return SieveCheck(fld.q, modulus, base, tuple(parts), full, base_count,
                      part_counts, bound, full >= bound)


# -- aggregate surveys (shared by tests and the command line) ---------------


class TranslateSumSurvey(NamedTuple):
    q: int
    characters: int
    translates: int
    defects: int
    ok: bool


def survey_translate_sums(fld: QuadExtField) -> TranslateSumSurvey:
    """Decide the translate-sum claim for every nontrivial character and
    every translate class from L, with no field cap.

    defects counts the differences outside (q+1)Z that L does not give
    exactly once (a difference inside (q+1)Z, or a repeated one, leaves
    one of the q*(q-1) out), plus the logs of L inside (q+1)Z.  The claim
    holds exactly when it is 0.
    """
    q, m = fld.q, fld.m
    h = q + 1
    logs = log_set(fld)
    seen = bytearray(m)  # seen[d] = 1 when d = x - l mod m for x, l in L
    for l in logs:
        for x in logs:
            seen[(x - l) % m] = 1
    # seen[::h] reads the q - 1 multiples of h below m, the logs of F_q*
    outside = sum(seen) - sum(seen[::h])
    defects = (q * (q - 1) - outside
               + sum(1 for l in logs if l % h == 0))
    return TranslateSumSurvey(q, m - 1, q - 1, defects, defects == 0)


class LineIdentitySurvey(NamedTuple):
    q: int
    r: int
    pairs: int
    defects: int
    ok: bool


def survey_line_identities(fld: QuadExtField) -> LineIdentitySurvey:
    """Compare direct and log-set line counts over every translate class
    b**i * (X + F_q) for alpha = 1 and alpha = a, with r the odd radical
    R' of the group order; defects counts the pairs on which they differ."""
    _require_oracle_field(fld)
    r = fld.ctx.rprime
    defects = pairs = 0
    for y in fld.fq_exp:
        theta = fld.from_fq_coords(0, y)
        for alpha in (fld.one, fld.a):
            res = line_target_count(theta, alpha, r, fld)
            defects += res.via_formula != res.direct
            pairs += 1
    return LineIdentitySurvey(fld.q, r, pairs, defects, defects == 0)
