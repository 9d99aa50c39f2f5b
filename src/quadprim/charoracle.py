"""Character-sum oracle over small quadratic extensions.

Multiplicative characters of F_{q**2}* are indexed against the chosen
primitive element a: chi_t(a**e) = exp(2*pi*i*t*e/m) with m = q**2 - 1.
On top of a discrete-log table (one multiplicative sweep, memoized per
field) this module checks three facts:

- translate sums: sum_{x in F_q} chi(theta + x) is -1 for a nontrivial
  chi trivial on F_q* and has modulus sqrt(q) otherwise, for every
  translate class (``survey_translate_sums``);
- the line count: the number of x in F_q with alpha * (theta + x) an
  r-free square and not a fourth power, by exact order tests and
  through its character expansion (``line_target_count``,
  ``survey_line_identities``);
- the sieve lower bound relating that count for a modulus to the counts
  for a family of its divisors, with exact counts
  (``check_sieve_inequality``).

The character sums are floating point, checked against exact values
and counts.  Everything here is exhaustive, so fields are capped at
q <= ORACLE_Q_CAP.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple
from weakref import WeakKeyDictionary

from .arith import euler_phi, factorize
from .ffield import FieldElem, QuadExtField, translate_classes

__all__ = [
    "ORACLE_Q_CAP",
    "TRANSLATE_SUM_TOL",
    "LINE_IDENTITY_TOL",
    "CharIndex",
    "LineTargetCount",
    "SieveCheck",
    "TranslateSumSurvey",
    "LineIdentitySurvey",
    "characters_of_order",
    "char_eval",
    "translate_transversal",
    "line_target_count",
    "check_sieve_inequality",
    "survey_translate_sums",
    "survey_line_identities",
]

ORACLE_Q_CAP = 200

# Largest deviation each survey passes with: a translate sum from its
# exact value, and a line count's character expansion from its direct
# count.
TRANSLATE_SUM_TOL = 1e-6
LINE_IDENTITY_TOL = 1e-3

_dlog_cache: "WeakKeyDictionary[QuadExtField, list[int]]" = WeakKeyDictionary()
_roots_cache: "WeakKeyDictionary[QuadExtField, list[complex]]" = WeakKeyDictionary()


def _require_oracle_field(fld: QuadExtField) -> None:
    if fld.q > ORACLE_Q_CAP:
        raise ValueError(
            f"oracle supports q <= {ORACLE_Q_CAP}, got q = {fld.q}")


def _dlog_table(fld: QuadExtField) -> list[int]:
    tbl = _dlog_cache.get(fld)
    if tbl is not None:
        return tbl
    _require_oracle_field(fld)
    tbl = [-1] * (fld.q * fld.q)
    v = fld.one
    mul, a, index = fld.mul, fld.a, fld.index_of
    for e in range(fld.m):
        tbl[index(v)] = e
        v = mul(v, a)
    _dlog_cache[fld] = tbl
    return tbl


def _root_table(fld: QuadExtField) -> list[complex]:
    roots = _roots_cache.get(fld)
    if roots is None:
        _require_oracle_field(fld)
        m = fld.m
        step = 2.0 * math.pi / m
        roots = [cmath.exp(1j * step * e) for e in range(m)]
        _roots_cache[fld] = roots
    return roots


def dlog(u: FieldElem, fld: QuadExtField) -> int:
    """Exponent e with a**e == u; ValueError for the zero element."""
    e = _dlog_table(fld)[fld.index_of(u)]
    if e < 0:
        raise ValueError("zero has no discrete logarithm")
    return e


class CharIndex(NamedTuple):
    """Multiplicative character chi_t of exact order `order`."""

    t: int
    order: int


def characters_of_order(d: int, fld: QuadExtField) -> tuple[CharIndex, ...]:
    """All characters of exact order d, ascending in index t."""
    m = fld.m
    if d < 1 or m % d:
        raise ValueError(f"order {d} does not divide the group order {m}")
    base = m // d
    return tuple(CharIndex((base * j) % m, d)
                 for j in range(1, d + 1) if math.gcd(j, d) == 1)


def char_eval(chi: CharIndex, u: FieldElem, fld: QuadExtField) -> complex:
    return _root_table(fld)[(chi.t * dlog(u, fld)) % fld.m]


def _translate_logs(thetas: tuple[FieldElem, ...],
                    fld: QuadExtField) -> list[list[int]]:
    """Per theta, the discrete logs of theta + x over x in F_q, in
    base_field_elements() order; they do not depend on the character."""
    tbl = _dlog_table(fld)
    add, index = fld.add, fld.index_of
    base = fld.base_field_elements()
    return [[tbl[index(add(theta, x))] for x in base] for theta in thetas]


def _character_sum(t: int, logs: list[int], roots: list[complex], m: int) -> complex:
    # An explicit loop, not sum(): the summation order fixes the bits.
    total = 0j
    for e in logs:
        total += roots[(t * e) % m]
    return total


def translate_transversal(fld: QuadExtField) -> tuple[FieldElem, ...]:
    """One representative per translate class, q - 1 in all: the first
    element of each class in elements() order, in that order."""
    _require_oracle_field(fld)
    return tuple(translate_classes(fld).values())


# -- line target counts and the sieve --------------------------------------


def _squarefree_divisors(n: int) -> list[tuple[int, int]]:
    """(d, mu(d)) for squarefree divisors d of n."""
    out = [(1, 1)]
    for prime, _ in factorize(n).factors:
        out += [(d * prime, -mu) for d, mu in out]
    return out


class LineTargetCount(NamedTuple):
    """Count of x in F_q for which alpha * (theta + x) is an r-free
    square and not a fourth power, by exact order tests (direct) and by
    the character expansion (via_formula)."""

    q: int
    r: int
    direct: int
    via_formula: complex


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
    _require_oracle_field(fld)
    m = fld.m
    if fld.in_base_field(theta):
        raise ValueError("theta must lie outside the base field")
    if alpha == fld.zero:
        raise ValueError("alpha must be nonzero")
    if r < 1 or m % r:
        raise ValueError(f"{r} does not divide the group order {m}")

    direct = _direct_line_count(theta, alpha, r, fld)

    roots = _root_table(fld)
    # discrete logs of the q line elements alpha * (theta + x), computed once
    la = dlog(alpha, fld)
    logs = [(e + la) % m for e in _translate_logs((theta,), fld)[0]]
    # chi_t times the quartet's characters chi_s, s = m/2, m/4, 3m/4, at
    # a**e is roots[(t*e + s*e) % m]; the offsets s*e are fixed per log
    offsets = [(e, m // 2 * e % m, m // 4 * e % m, 3 * m // 4 * e % m) for e in logs]
    total = 0j
    for d, mu in _squarefree_divisors(r):
        coeff = mu / euler_phi(factorize(d))
        for chi in characters_of_order(d, fld):
            t = chi.t
            s0 = s1 = s2 = s3 = 0
            for e, o1, o2, o3 in offsets:
                te = t * e
                s0 += roots[te % m]
                s1 += roots[(te + o1) % m]
                s2 += roots[(te + o2) % m]
                s3 += roots[(te + o3) % m]
            for sign, s in zip((1.0, 1.0, -1.0, -1.0), (s0, s1, s2, s3)):
                total += coeff * sign * s
    theta_r = euler_phi(factorize(r)) / r
    return LineTargetCount(fld.q, r, direct, (theta_r / 4.0) * total)


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
    exact counts.  Every prime of the modulus must divide some part,
    the base must divide every part, and parts must divide the modulus."""
    _require_oracle_field(fld)
    m = fld.m
    if modulus < 1 or m % modulus or modulus % 2 == 0:
        raise ValueError("modulus must be an odd divisor of the group order")
    if not parts:
        raise ValueError("at least one part is required")
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
    max_deviation: float
    ok: bool


def survey_translate_sums(fld: QuadExtField) -> TranslateSumSurvey:
    """Check every nontrivial character against every translate class.

    Characters trivial on F_q* (index divisible by q - 1) must sum to
    exactly -1; all others must have modulus sqrt(q).  Cost grows like
    q**4, so keep q small.
    """
    _require_oracle_field(fld)
    q, m = fld.q, fld.m
    sqrt_q = math.sqrt(q)
    reps = translate_transversal(fld)
    logs_per_theta = _translate_logs(reps, fld)
    roots = _root_table(fld)
    worst = 0.0
    for t in range(1, m):
        coset_character = t % (q - 1) == 0
        for logs in logs_per_theta:
            b = _character_sum(t, logs, roots, m)
            dev = abs(b + 1.0) if coset_character else abs(abs(b) - sqrt_q)
            if dev > worst:
                worst = dev
    return TranslateSumSurvey(q, m - 1, len(reps), worst, worst <= TRANSLATE_SUM_TOL)


class LineIdentitySurvey(NamedTuple):
    q: int
    r: int
    pairs: int
    max_deviation: float
    ok: bool


def survey_line_identities(fld: QuadExtField) -> LineIdentitySurvey:
    """Compare direct and character-expansion line counts over every
    translate class for alpha = 1 and alpha = a, with r the odd radical
    R' of the group order."""
    _require_oracle_field(fld)
    r = fld.ctx.rprime
    worst = 0.0
    pairs = 0
    for theta in translate_transversal(fld):
        for alpha in (fld.one, fld.a):
            res = line_target_count(theta, alpha, r, fld)
            dev = abs(res.via_formula - res.direct)
            if dev > worst:
                worst = dev
            pairs += 1
    return LineIdentitySurvey(fld.q, r, pairs, worst, worst <= LINE_IDENTITY_TOL)
