"""Exhaustive verification of the translate and line properties.

An element of F_{q**2} is 2-primitive when its order is (q**2 - 1)/2.
The translate property holds when every set {theta + x : x in F_q} with
theta outside F_q contains a 2-primitive element; the line property asks
the same for every line {alpha * (theta + x)}.  Scaling a line by an
element of F_q or negating it gives the same line, so it suffices to take
alpha from a fixed transversal (the gamma set below) of q + 1 values.

Each property ships in two independent flavors that must agree:

- the reference verifiers share one loop: for a slope gamma it reads the
  2-primitive elements u = a**j in ascending j and files each candidate
  w = u / gamma under its translate class key w**q - w.  Key 0 means w
  lies in F_q, i.e. u is on the line through 0, which is not a line of
  the property, and is skipped.  The elements come from one walk per
  field, taken lazily and shared by all slopes through tee copies, as the
  fast flavor shares its cosets: it keeps gcd(j, q**2 - 1) == 2 as its
  own test, steps from one such j to the next by one multiplication with
  a cached power a**gap, and pairs each u with u**q from the field's own
  Frobenius map.  With g = 1/gamma the key is then u**q * g**q - u * g.
  The translate property is slope 1 of this loop,
  and the loop never touches the F_q-coordinates of the fast flavor;
- the fast verifiers work in F_q-coordinates, F_{q**2} = F_q + F_q*x.
  There the lines of slope gamma are the affine lines of direction gamma
  that miss 0, named by their value t != 0 under a linear form: y at
  slope 1, whose lines are the translate sets, else s + c*y.  The
  2-primitive elements lie in the cosets a**j * F_q*, and the element
  b**l * (s, y) of a coset lies on the line t = b**l * r, where r is the
  form's value at (s, y).  So each coset meets the lines of its flag mask
  rotated by log r, with log r read off a Zech log table, and a slope is
  tested by ORing the rotated masks until every line is met.  The line
  test is this cover at slope 1, the translate test, and then at the
  other slopes.  The q + 1 slopes are the points of P^1(F_q): None for
  slope 1 and the digit index c of every element of F_q.  The q-power
  map sigma fixes F_q and the 2-primitive set, and with x**q = T - x for
  T = x + x**q in F_q it sends the line s + c*y = t onto the line
  s + (T - c)*y = t: the mate of slope c is T - c, a digit-wise
  difference mod p, and None is its own mate.  So the line test decides
  in digit order, with no field multiplication: None, then each c with
  c <= T - c, one slope of each pair.  Only when a slope fails are the
  slopes walked again in gamma-set order, each named by its gamma and
  none skipped as a mate, so that the witness is the first failing
  gamma's.

A failed verification reports a witness class that a dumb re-checker can
confirm by direct order computation.
"""

from __future__ import annotations

from itertools import tee
from math import gcd
from typing import NamedTuple

from .ffield import FieldElem, QuadExtField, line_class_key, translate_classes

__all__ = [
    "TRANSLATE_EXCEPTIONS",
    "LINE_EXCEPTIONS",
    "GammaSet",
    "PropertyReport",
    "build_gamma_set",
    "verify_translate_reference",
    "verify_translate_fast",
    "verify_line_reference",
    "verify_line_fast",
    "recheck_translate_witness",
    "recheck_line_witness",
]

# Complete failure sets over all scan exceptions, as established by the
# verifiers in this module.  The translate property fails only for the
# first set; the line property additionally fails for q = 3 and q = 9.
TRANSLATE_EXCEPTIONS: frozenset[int] = frozenset({5, 7, 11, 13, 31, 41})
LINE_EXCEPTIONS: frozenset[int] = frozenset({3, 5, 7, 9, 11, 13, 31, 41})


class GammaSet(NamedTuple):
    """Transversal of line slopes: q + 1 values covering all lines.

    gammas holds, for ascending multiples j of q - 1 below (q**2 - 1)/2,
    the pair a**j and zeta * a**j, where zeta generates the 2-part of the
    multiplicative group.  exponents holds the x with gammas[i] == a**x;
    their classes mod q + 1 are distinct, so every nonzero beta equals
    gamma * b for exactly one gamma here and some b in F_q*."""

    gammas: tuple[FieldElem, ...]
    exponents: tuple[int, ...]


class PropertyReport(NamedTuple):
    """Result of one exhaustive verification.

    prop is "translate" or "line".  On failure, witness names a class
    containing no 2-primitive element: a translate class key, or a
    (gamma, class key) pair for lines.  classes_covered counts distinct
    classes confirmed for the property (for a failing line run: for the
    first failing gamma).  A report is a plain value: two runs on the same
    field give equal reports.  The caller times the run.
    """

    q: int
    prop: str
    holds: bool
    witness: object | None
    classes_covered: int


def build_gamma_set(fld: QuadExtField) -> GammaSet:
    q = fld.q
    a_qm1 = fld.pow(fld.a, q - 1)
    gammas: list[FieldElem] = []
    exponents: list[int] = []
    g = fld.one
    for j in range((q + 1) // 2):
        gammas += (g, fld.mul(fld.zeta, g))  # zeta == a**odd_part
        exponents += (j * (q - 1), j * (q - 1) + fld.ctx.odd_part)
        g = fld.mul(g, a_qm1)
    if len({x % (q + 1) for x in exponents}) != q + 1:
        raise AssertionError("gamma set is no transversal of the directions")
    return GammaSet(gammas=tuple(gammas), exponents=tuple(exponents))


# -- the F_q-coordinate walk behind the fast verifiers ---------------------


def _cosets(fld: QuadExtField):
    """Walk the cosets a**j * F_q* that hold 2-primitive elements.

    As q + 1 is even, a**(j + l*(q+1)) has the parity of j, so only the
    even j < q + 1 matter.  Flag l of a coset is 1 when a**j * b**l is
    2-primitive (b = a**(q+1)); the element then has coordinates
    b**l * (s, y), for the coordinates (s, y) of a**j.  With j = 2i and
    h = (q + 1)/2 the element is a**(2e) for e = i + l*h, and
    gcd(2e, q**2 - 1) is 2 exactly when no prime r of (q**2 - 1)/2
    divides e.  So each coset's q - 1 flags are sieved as the walk reaches
    it: a prime r of h rules out the whole coset when it divides i, and
    any other r the l = -i/h (mod r).  Yields (log s, log y, mask) per
    coset with a flag set: logs base b, log s None at s = 0 (y != 0, as
    F_q* holds no 2-primitive element), and the flags as a bitmask held
    twice, at bits l and l + q - 1, so a rotation is one shift and one
    mask.  As (q**2 - 1)/2 = h*(q - 1), each r not dividing h divides
    n = q - 1, so the bits at the multiples of r below 2n, the comb
    full // (2**r - 1) for full = 2**(2n) - 1, repeat with period n: the
    doubled mask is full with each such comb, shifted by the l it drops,
    cleared.
    """
    n = fld.q - 1
    log = fld.fq_log
    h = (fld.q + 1) // 2
    primes = fld.ctx.fact_q2m1.primes()
    of_h = [r for r in primes if h % r == 0]
    full = (1 << 2 * n) - 1
    # (r, -1/h mod r, comb) for the other primes: coset i drops l = i * that
    others = [(r, -pow(h, -1, r) % r, full // ((1 << r) - 1))
              for r in primes if h % r]
    a2 = fld.mul(fld.a, fld.a)
    u = fld.one
    for i in range(h):
        if all(i % r for r in of_h):
            mask = full
            for r, step, comb in others:
                mask &= ~(comb << (i * step % r))
            if mask:
                s, y = fld.fq_coords(u)
                yield log[s], log[y], mask
        u = fld.mul(u, a2)


def _lines_met(fld: QuadExtField, cosets, c: int | None) -> int:
    """The lines of one slope that hold a 2-primitive element, as a mask
    whose bit i is the line t = b**i.

    The lines are s + c*y = t for the digit index c, or y = t for c None
    (slope 1).  A coset meets the lines of its mask rotated by log r, for
    r = s + c*y (r = y at slope 1), and none when r = 0: it then lies on
    the line through 0.  The Zech table Z gives
    log(s + c*y) = log s + Z[log c + log y - log s].  Stops once every
    line is met.
    """
    n = fld.q - 1
    zech = fld.fq_zech
    lc = None if c is None else fld.fq_log[c]
    full = (1 << n) - 1
    met = 0
    for ls, ly, mask in cosets:
        if c is None:
            rot = ly
        elif lc is None:  # c = 0
            rot = ls
        elif ls is None:
            rot = lc + ly
        else:
            z = zech[(lc + ly - ls) % n]
            rot = None if z is None else ls + z
        if rot is not None:
            met |= mask >> n - rot % n & full
            if met == full:
                break
    return met


def _unmet_key(fld: QuadExtField, gamma: FieldElem, c: int | None, met: int) -> FieldElem:
    """The least class key of the lines of slope gamma missing from met,
    a mask of _lines_met: line t holds (0, t) at slope 1, else (t, 0)."""
    points = [(0, t) if c is None else (t, 0)
              for i, t in enumerate(fld.fq_exp) if not met >> i & 1]
    return min(line_class_key(fld.from_fq_coords(*pt), gamma, fld) for pt in points)


# -- the reference cover loop ----------------------------------------------


def _two_primitive_walk(fld: QuadExtField):
    """Yield the 2-primitive elements u = a**j, gcd(j, q**2 - 1) == 2, as
    pairs (u, u**q) in ascending j.

    Each step multiplies u by a**gap, for the gap between consecutive such
    j, and each distinct gap's power is computed once by fld.pow and kept
    in a small dict.
    """
    m, mul, frob = fld.m, fld.mul, fld.frobenius_q
    gap_powers: dict[int, FieldElem] = {}
    u, last = fld.one, 0
    for j in range(2, m, 2):  # m is even, so gcd(j, m) is odd for odd j
        if gcd(j, m) != 2:
            continue
        gap = j - last
        step = gap_powers.get(gap)
        if step is None:
            step = gap_powers[gap] = fld.pow(fld.a, gap)
        u, last = mul(u, step), j
        yield u, frob(u)


def _reference_cover(fld: QuadExtField, gamma: FieldElem, walk) -> set[FieldElem]:
    """Keys of the lines of slope gamma confirmed to hold a 2-primitive element.

    Reads the pairs (u, u**q) of walk, _two_primitive_walk(fld) or a tee
    copy of it, and files each candidate w = u / gamma under its translate
    class key w**q - w = u**q * g**q - u * g, with g = 1/gamma and g**q
    computed once per slope; at slope 1 the key is u**q - u.  The map
    w -> w**q - w is F_q-linear with kernel F_q, so two candidates share a
    key exactly when their difference lies in F_q*, and key 0 marks u on
    the line through 0, which is skipped.  The loop stops at q - 1 keys,
    all there are, so a walk shared by tee copies grows only as far as the
    deepest slope reads.
    """
    q, zero, mul, sub = fld.q, fld.zero, fld.mul, fld.sub
    if gamma == fld.one:
        keys = (sub(uq, u) for u, uq in walk)
    else:
        g = fld.inv(gamma)
        gq = fld.frobenius_q(g)
        keys = (sub(mul(uq, gq), mul(u, g)) for u, uq in walk)
    covered: set[FieldElem] = set()
    for key in keys:
        if key != zero:
            covered.add(key)
            if len(covered) == q - 1:
                break
    return covered


# -- translate property ----------------------------------------------------


def verify_translate_reference(fld: QuadExtField) -> PropertyReport:
    """The reference cover loop at slope 1: the translate sets are the
    lines of slope 1."""
    q = fld.q
    covered = _reference_cover(fld, fld.one, _two_primitive_walk(fld))
    if len(covered) == q - 1:
        return PropertyReport(q, "translate", True, None, q - 1)
    witness = min(translate_classes(fld).keys() - covered)
    return PropertyReport(q, "translate", False, witness, len(covered))


def verify_translate_fast(fld: QuadExtField) -> PropertyReport:
    """Coset cover test at slope 1, with earliest exit.

    The translate sets are the rows y != 0 of F_q-coordinates, the lines
    of slope 1: a coset meets row y * b**l exactly for its flagged l.
    """
    q, n = fld.q, fld.q - 1
    met = _lines_met(fld, _cosets(fld), None)
    if met == (1 << n) - 1:
        return PropertyReport(q, "translate", True, None, n)
    return PropertyReport(q, "translate", False, _unmet_key(fld, fld.one, None, met),
                          met.bit_count())


# -- line property ---------------------------------------------------------


def verify_line_reference(fld: QuadExtField) -> PropertyReport:
    """The reference cover loop over all slopes of the gamma set, in order;
    the first slope that leaves a line unconfirmed fails.  The walk is
    taken once, lazily: each slope replays a copy of one tee iterator, as
    in verify_line_fast."""
    q = fld.q
    walk = tee(_two_primitive_walk(fld), 1)[0]
    for gamma in build_gamma_set(fld).gammas:
        covered = _reference_cover(fld, gamma, walk.__copy__())
        if len(covered) < q - 1:
            witness = (gamma, min(translate_classes(fld).keys() - covered))
            return PropertyReport(q, "line", False, witness, len(covered))
    return PropertyReport(q, "line", True, None, q - 1)


def _digit_slopes(fld: QuadExtField):
    """Yield one slope of each sigma pair as _lines_met names them: None,
    then each digit index c with c <= T - c, ascending, where T is the
    digit index of x + x**q and T - c is taken digit-wise mod p.  The
    fixed slope T/2 is its own mate and is yielded too: (q + 3)/2 slopes."""
    p, k = fld.p, fld.k
    x = fld.element_from_index(p)
    trace = fld.fq_coords(fld.add(x, fld.frobenius_q(x)))[0]
    yield None
    for c in range(fld.q):
        mate, w = 0, 1
        for _ in range(k):
            mate += (trace // w - c // w) % p * w
            w *= p
        if c <= mate:
            yield c


def verify_line_fast(fld: QuadExtField) -> PropertyReport:
    """Coset cover test of one slope per Frobenius pair, in digit order,
    earliest exit; the witness is named in gamma-set order.

    The line property holds when no slope of _digit_slopes leaves a line
    t != 0 unmet.  Once one does, every gamma is tested in gamma-set order,
    slope c = -g_s/g_y for gamma = (g_s, g_y) (None at g_y = 0), and the
    first that fails names the witness; Frobenius mates have equal covers,
    so none is skipped.  The cosets are walked once, lazily: each slope
    replays a copy of one tee iterator, so the walk goes as far as the
    slope that reads the most cosets.
    """
    q, n = fld.q, fld.q - 1
    exp, log = fld.fq_exp, fld.fq_log
    full = (1 << n) - 1
    cosets = tee(_cosets(fld), 1)[0]
    if all(_lines_met(fld, cosets.__copy__(), c) == full for c in _digit_slopes(fld)):
        return PropertyReport(q, "line", True, None, n)
    for gamma in build_gamma_set(fld).gammas:
        s, y = fld.fq_coords(gamma)
        c = None
        if y:  # c = -s/y, with -1 = b**(n/2)
            c = exp[(log[s] - log[y] + n // 2) % n] if s else 0
        met = _lines_met(fld, cosets.__copy__(), c)
        if met != full:
            return PropertyReport(q, "line", False, (gamma, _unmet_key(fld, gamma, c, met)),
                                  met.bit_count())
    raise AssertionError("a slope failed in digit order but none in gamma-set order")


# -- dumb witness re-checkers ----------------------------------------------


def _order_by_multiplication(fld: QuadExtField, u: FieldElem) -> int:
    n = 1
    v = u
    while v != fld.one:
        v = fld.mul(v, u)
        n += 1
        if n > fld.m:
            raise AssertionError("order search exceeded the group size")
    return n


def recheck_translate_witness(fld: QuadExtField, key: FieldElem) -> bool:
    """Confirm by direct order computation that the named translate set
    contains no element of order (q**2 - 1)/2: the line of slope 1."""
    return recheck_line_witness(fld, fld.one, key)


def recheck_line_witness(fld: QuadExtField, gamma: FieldElem, key: FieldElem) -> bool:
    """Confirm by direct order computation that the named line contains
    no element of order (q**2 - 1)/2.  Raises ValueError for a zero gamma,
    which slopes no line, and for a key that no translate set carries."""
    if gamma == fld.zero:
        raise ValueError("gamma must be nonzero")
    theta = translate_classes(fld).get(key)
    if theta is None:
        raise ValueError("no translate set carries this key")
    half = fld.m // 2
    for x in fld.base_field_elements():
        v = fld.mul(gamma, fld.add(theta, x))
        if v != fld.zero and _order_by_multiplication(fld, v) == half:
            return False
    return True
