"""Concrete arithmetic for F_q and its quadratic extension, q = p**k odd.

The extension is realized as a single tower step F_p[x]/(f) of degree 2k,
with f the first monic irreducible polynomial in a fixed enumeration by
ascending coefficient code.  A context therefore always yields the same
modulus, the same primitive element and the same root of unity, on every
run and platform.  At degree 2 the search tests the discriminant; above
that it runs Rabin's test with the field's own multiply mod each candidate,
the gcd checks first and x**(p**n) == x last (see ``_find_modulus``).

Elements are coordinate tuples of length 2k over F_p, constant term
first.  The subfield F_q is the fixed field of the q-power map.  That map
and the change to and from F_q-coordinates are F_p-linear, stored as matrix
rows and applied by the one kernel ``_apply``; ``_times_root`` is the one
shift-and-fold step, multiplying by a root of a monic polynomial.

The element kernel has one form per degree.  At degree 2 (k = 1) ``add``,
``sub``, ``mul`` and ``frobenius_q`` are closed forms in the two
coordinates.  Above that ``mul`` is one Kronecker product of the operands
packed into fixed-width slots, sized so no slot carries (see ``mul``); up
to q = 8192 the widest need is 23 bits, at p = 89 and degree 4.

F_q-coordinates write an element as s + y*x with s, y in F_q, where x is
the class of the polynomial variable.  An element of F_q is named by its
digit index: sum c_t * p**t for the element sum c_t * b**t, with
b = a**(q+1) generating F_q*.  So s + y*x has the digits of s + q*y as
coordinates in the basis b**t, b**t * x (t < k), read and written by
``index_of`` and ``element_from_index``.  Adding in F_q is digit-wise
addition mod p of indices, and multiplying is addition of discrete logs
base b.
"""

from __future__ import annotations

import sys
from array import array
from functools import cached_property, lru_cache
from itertools import product
from operator import mul

from .arith import PrimePowerCtx, factorize

__all__ = [
    "FieldElem",
    "QuadExtField",
    "build_field",
    "line_class_key",
    "translate_classes",
]

FieldElem = tuple  # coordinate vector of length 2k over F_p

_SLOT_TYPES = "BHIQ"  # array typecodes a product slot may take, narrowest first
_ORDER = sys.byteorder  # the byte order array.tobytes() writes
_from_bytes = int.from_bytes


# -- polynomial gcd over F_p (little-endian coefficient lists) -----------


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        monic = [(c * inv_lead) % p for c in b]
        # a mod monic
        r = list(a)
        while len(r) >= len(monic) and r:
            c = r[-1]
            if c:
                shift = len(r) - len(monic)
                for i, mc in enumerate(monic):
                    r[shift + i] = (r[shift + i] - c * mc) % p
            r.pop()
            _ptrim(r)
        a, b = monic, r
    return a


def _apply(rows: tuple[tuple[int, ...], ...], u: FieldElem, p: int) -> FieldElem:
    """Apply the F_p matrix with these rows to u.  The tuple is built from
    a list: tuple() of a generator resizes its result, and the freed tuples
    pile up in the free list and raise peak RSS."""
    return tuple([sum(map(mul, row, u)) % p for row in rows])


def _times_root(v: tuple[int, ...], top: tuple[int, ...], p: int) -> tuple[int, ...]:
    """v times a root r of a monic g, in the basis r**t (t < n = deg g),
    where top is r**n = -g[:n]: shift up, then fold the carry back in."""
    carry = v[-1]
    return tuple([(c + carry * t) % p for c, t in zip((0,) + v[:-1], top)])


@lru_cache(maxsize=None)
def _packing(p: int, deg: int) -> tuple[str, int, int, int, int]:
    """How mul packs the elements of degree deg > 2 over F_p: the array
    typecode of the narrowest slot that holds the largest folded sum
    deg * (p-1)**2 * (1 + (deg-1)*(p-1)) (see QuadExtField.mul), the bit
    length and the mask of the deg low slots, and the byte lengths of the
    deg - 1 high and of the deg low slots.  Raises when no slot holds it."""
    bound = deg * (p - 1) ** 2 * (1 + (deg - 1) * (p - 1))
    slot = next((t for t in _SLOT_TYPES
                 if array(t).itemsize * 8 >= bound.bit_length()), None)
    if slot is None:
        raise ValueError(f"a product slot cannot hold {bound} (p = {p}, degree {deg})")
    width = array(slot).itemsize
    low_bits = 8 * deg * width
    return slot, low_bits, (1 << low_bits) - 1, (deg - 1) * width, deg * width


def _pinverse(rows: tuple[tuple[int, ...], ...], p: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the inverse mod p of the invertible matrix with these rows."""
    n = len(rows)
    aug = [list(row) + [int(r == c) for c in range(n)] for r, row in enumerate(rows)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[pivot] = aug[pivot], aug[c]
        scale = pow(aug[c][c], p - 2, p)
        aug[c] = [v * scale % p for v in aug[c]]
        for r in range(n):
            f = aug[r][c]
            if r != c and f:
                aug[r] = [(v - f * w) % p for v, w in zip(aug[r], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


class QuadExtField:
    """Arithmetic for F_{q**2} = F_p[x]/(f) with q = p**k odd.

    Immutable after construction.  All derived data (modulus, primitive
    element ``a``, root of unity ``zeta``, q-power map) is deterministic
    in the context; the F_q-coordinate tables are built on first use.
    """

    def __init__(self, ctx: PrimePowerCtx):
        if ctx.q % 2 == 0:
            raise ValueError("context must describe an odd prime power")
        self.ctx = ctx
        self.p = ctx.p
        self.k = ctx.k
        self.q = ctx.q
        self.deg = 2 * ctx.k
        self.m = ctx.q * ctx.q - 1
        self.zero: FieldElem = (0,) * self.deg
        self.one: FieldElem = (1,) + (0,) * (self.deg - 1)
        self.modulus = self._find_modulus()
        self._init_reduction(self.modulus)
        self._frobq_rows = self._build_frobenius_rows()
        self.a = self._find_primitive()
        self.zeta = self.pow(self.a, ctx.odd_part)

    def __repr__(self) -> str:  # pragma: no cover
        return f"QuadExtField(q={self.q}, p={self.p}, k={self.k})"

    # -- construction -----------------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        """First monic irreducible of degree 2k by ascending coefficient code.

        Degree 2 tests the discriminant.  Above that, with f's reduction rows
        installed, Rabin's test: for the splits e = n/r (r a prime of n = 2k),
        ascending, y = x**(p**e) is raised from the last y and f is rejected
        at the first gcd(f, y - x) != 1; x**(p**n) == x is checked last.
        Walks the p**(2k) monic codes and raises when none passes."""
        p, deg = self.p, self.deg
        if deg == 2:
            for code in range(p * p):
                c0, c1 = code % p, code // p
                disc = (c1 * c1 - 4 * c0) % p
                if disc and pow(disc, (p - 1) // 2, p) == p - 1:
                    return (c0, c1, 1)
        else:
            x = self.element_from_index(p)
            splits = sorted(deg // r for r in factorize(deg).primes())
            for code in range(p**deg):
                f = self.element_from_index(code) + (1,)
                self._init_reduction(f)
                y, done = x, 0  # y = x**(p**done) mod f
                for e in splits:
                    y, done = self._pow_raw(y, p**(e - done)), e
                    if len(_pgcd(f, self.sub(y, x), p)) != 1:
                        break
                else:
                    if self._pow_raw(y, p**(deg - done)) == x:
                        return f
        raise AssertionError(f"no irreducible modulus of degree {deg} found for q = {self.q}")

    def _init_reduction(self, f: tuple[int, ...]) -> None:
        """Reduction rows of the monic f: row i is x**(deg+i) mod f, from
        x**deg = -f[:deg] on by _times_root; above degree 2 also the rows
        packed in mul's slots."""
        p, deg = self.p, self.deg
        rows = [tuple([(-c) % p for c in f[:deg]])]
        for _ in range(deg - 2):
            rows.append(_times_root(rows[-1], rows[0], p))
        self._red = tuple(rows)
        if deg == 2:
            self._r20, self._r21 = rows[0]
            return
        self._pack = _packing(p, deg)
        slot = self._pack[0]
        self._packed_red = tuple([_from_bytes(array(slot, row).tobytes(), _ORDER)
                                  for row in rows])

    def _build_frobenius_rows(self) -> tuple[tuple[int, ...], ...]:
        """Rows of the q-power map, whose columns are (x**q)**i."""
        xq = self._pow_raw(self.element_from_index(self.p), self.q)
        cols = [self.one]
        for _ in range(self.deg - 1):
            cols.append(self.mul(cols[-1], xq))
        return tuple(zip(*cols))

    def _find_primitive(self) -> FieldElem:
        """The least code >= p of order m: u**(m/r) != 1 for each prime r of m.

        For r | q - 1 that power is N(u)**((q-1)/r), with the norm
        N(u) = u * u**q in F_q.  For the other r it is v**(q-1) with
        v = u**((q+1)/r), which is 1 exactly when v lies in F_q.  Either way
        the exponent is about half as long as m/r.  Walks the codes
        p ... p**(2k) - 1 and raises when none passes."""
        q = self.q
        primes = self.ctx.fact_q2m1.primes()
        norm_cofactors = [(q - 1) // r for r in primes if (q - 1) % r == 0]
        other_cofactors = [(q + 1) // r for r in primes if (q - 1) % r]
        for code in range(self.p, self.p**self.deg):
            u = self.element_from_index(code)
            norm = self.mul(u, self.frobenius_q(u))
            if all(self._pow_raw(norm, cf) != self.one for cf in norm_cofactors) \
                    and not any(self.in_base_field(self._pow_raw(u, cf))
                                for cf in other_cofactors):
                return u
        raise AssertionError(f"no primitive element found for q = {self.q}")

    # -- element arithmetic -------------------------------------------------

    def add(self, u: FieldElem, v: FieldElem) -> FieldElem:
        p = self.p
        if self.deg == 2:
            u0, u1 = u
            v0, v1 = v
            return ((u0 + v0) % p, (u1 + v1) % p)
        return tuple([(a + b) % p for a, b in zip(u, v)])

    def sub(self, u: FieldElem, v: FieldElem) -> FieldElem:
        p = self.p
        if self.deg == 2:
            u0, u1 = u
            v0, v1 = v
            return ((u0 - v0) % p, (u1 - v1) % p)
        return tuple([(a - b) % p for a, b in zip(u, v)])

    def mul(self, u: FieldElem, v: FieldElem) -> FieldElem:
        """u * v mod the modulus f.

        Degree 2 is a closed form in x**2 = r20 + r21*x.  Above that the
        product is one Kronecker substitution: u and v are packed into ints
        with one fixed-width slot per coordinate and multiplied once, so slot
        t of the product is the convolution sum c_t <= deg * (p-1)**2.  The
        deg - 1 high slots, times the packed rows x**(deg+i) mod f, are added
        to the deg low slots; each row entry is at most p - 1, so a slot then
        holds at most deg * (p-1)**2 * (1 + (deg-1)*(p-1)), the bound
        _packing sized the slot by.  No slot carries into the next, and the
        slots are unpacked and reduced mod p."""
        p = self.p
        if self.deg == 2:
            u0, u1 = u
            v0, v1 = v
            t = u1 * v1
            return ((u0 * v0 + t * self._r20) % p, (u0 * v1 + u1 * v0 + t * self._r21) % p)
        slot, low_bits, low_mask, high_bytes, low_bytes = self._pack
        prod = _from_bytes(array(slot, u).tobytes(), _ORDER)
        prod *= prod if u is v else _from_bytes(array(slot, v).tobytes(), _ORDER)
        high = array(slot, (prod >> low_bits).to_bytes(high_bytes, _ORDER))
        folded = sum(map(mul, high, self._packed_red), prod & low_mask)
        # from a list, for the reason _apply gives
        return tuple([c % p for c in array(slot, folded.to_bytes(low_bytes, _ORDER))])

    def _pow_raw(self, u: FieldElem, e: int) -> FieldElem:
        # left to right: no multiply by one and no unused square; u goes
        # first so a sparse u (such as x) makes the product cheap
        if not e:
            return self.one
        mul = self.mul
        result = u
        for bit in bin(e)[3:]:
            result = mul(result, result)
            if bit == "1":
                result = mul(u, result)
        return result

    def pow(self, u: FieldElem, e: int) -> FieldElem:
        """u**e; the exponent is reduced mod q**2 - 1 for nonzero u."""
        if u == self.zero:
            if e == 0:
                return self.one
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return self.zero
        return self._pow_raw(u, e % self.m)

    def inv(self, u: FieldElem) -> FieldElem:
        if u == self.zero:
            raise ZeroDivisionError("zero has no inverse")
        return self._pow_raw(u, self.m - 1)

    def frobenius_q(self, u: FieldElem) -> FieldElem:
        """The q-power map, applied as a precomputed linear map; at degree 2
        its four entries are read directly."""
        p = self.p
        if self.deg == 2:
            (f00, f01), (f10, f11) = self._frobq_rows
            u0, u1 = u
            return ((f00 * u0 + f01 * u1) % p, (f10 * u0 + f11 * u1) % p)
        return _apply(self._frobq_rows, u, p)

    def in_base_field(self, u: FieldElem) -> bool:
        """True when u lies in F_q, i.e. u**q == u."""
        return self.frobenius_q(u) == u

    def element_order(self, u: FieldElem) -> int:
        if u == self.zero:
            raise ZeroDivisionError("zero has no multiplicative order")
        t = self.m
        for prime, mult in self.ctx.fact_q2m1.factors:
            for _ in range(mult):
                if t % prime:
                    break
                tt = t // prime
                if self._pow_raw(u, tt) == self.one:
                    t = tt
                else:
                    break
        return t

    # -- enumeration and indexing -----------------------------------------

    def element_from_index(self, n: int) -> FieldElem:
        p = self.p
        coords = []
        for _ in range(self.deg):
            coords.append(n % p)
            n //= p
        return tuple(coords)

    def index_of(self, u: FieldElem) -> int:
        p = self.p
        n = 0
        for c in reversed(u):
            n = n * p + c
        return n

    def elements(self):
        """All q**2 elements, ascending in index_of: product() counts with
        its first digit most significant, index_of with its last."""
        return (c[::-1] for c in product(range(self.p), repeat=self.deg))

    def base_field_elements(self) -> list[FieldElem]:
        """The q elements of F_q: zero, then ascending powers of a**(q+1)."""
        out = [self.zero]
        b = self._fq_gen
        cur = self.one
        for _ in range(self.q - 1):
            out.append(cur)
            cur = self.mul(cur, b)
        return out

    # -- F_q-coordinates (built on first use) ---------------------------------

    @cached_property
    def _fq_gen(self) -> FieldElem:
        """b = a**(q+1), the generator of F_q* behind digit indices."""
        return self.pow(self.a, self.q + 1)

    @cached_property
    def _fq_frame(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """Rows of the frame, whose columns are the basis b**t, b**t * x
        (t < k), and of its inverse; the frame maps the digits of s + q*y to s + y*x."""
        basis = [self.pow(self._fq_gen, t) for t in range(self.k)]
        x = self.element_from_index(self.p)
        rows = tuple(zip(*basis, *[self.mul(v, x) for v in basis]))
        return rows, _pinverse(rows, self.p)

    def fq_coords(self, u: FieldElem) -> tuple[int, int]:
        """Digit indices (s, y) of u = s + y*x, from the digits of s + q*y."""
        y, s = divmod(self.index_of(_apply(self._fq_frame[1], u, self.p)), self.q)
        return s, y

    def from_fq_coords(self, s: int, y: int) -> FieldElem:
        """The element s + y*x, for digit indices s and y."""
        return _apply(self._fq_frame[0], self.element_from_index(s + self.q * y), self.p)

    @cached_property
    def fq_exp(self) -> tuple[int, ...]:
        """fq_exp[l] is the digit index of b**l, for 0 <= l < q - 1.

        At k = 1 the digit index of an element of F_q = F_p is its value, so
        a step multiplies by b mod p.  At k > 1 the digits are coordinates in
        the basis b**t, so a step is _times_root by the digits of b**k."""
        p, k, n = self.p, self.k, self.q - 1
        if k == 1:
            b = self._fq_gen[0]
            exp = [1]
            for _ in range(n - 1):
                exp.append(exp[-1] * b % p)
            return tuple(exp)
        top = _apply(self._fq_frame[1][:k], self.pow(self._fq_gen, k), p)
        digits = self.one[:k]
        exp = []
        for _ in range(n):
            exp.append(self.index_of(digits))
            digits = _times_root(digits, top, p)
        return tuple(exp)

    @cached_property
    def fq_log(self) -> tuple[int | None, ...]:
        """fq_log[s] is the log base b of the digit index s; None at s = 0."""
        log: list[int | None] = [None] * self.q
        for e, s in enumerate(self.fq_exp):
            log[s] = e
        return tuple(log)

    @cached_property
    def fq_zech(self) -> tuple[int | None, ...]:
        """fq_zech[i] is the log base b of 1 + b**i, the Zech logarithm;
        None at b**i = -1.  Adding 1 raises digit 0 of a digit index mod p."""
        p, log = self.p, self.fq_log
        return tuple(log[s - s % p + (s + 1) % p] for s in self.fq_exp)


def build_field(ctx: PrimePowerCtx) -> QuadExtField:
    """Construct the quadratic extension for an odd prime power context."""
    return QuadExtField(ctx)


def translate_classes(fld: QuadExtField) -> dict[FieldElem, FieldElem]:
    """Map each of the q - 1 translate class keys u**q - u to the first
    element, in elements() order, whose translate set carries it.

    A plain element sweep, independent of F_q-coordinates, so the
    reference verifiers and the witness re-checkers can rely on it.
    """
    reps: dict[FieldElem, FieldElem] = {}
    for u in fld.elements():
        uq = fld.frobenius_q(u)
        if uq != u:
            reps.setdefault(fld.sub(uq, u), u)
            if len(reps) == fld.q - 1:
                break
    return reps


def line_class_key(u: FieldElem, gamma: FieldElem, fld: QuadExtField) -> FieldElem | None:
    """Class invariant of the line through u with slope gamma.

    The lines {gamma * (theta + x)} of a fixed gamma correspond to the
    translate sets of u/gamma.  Returns None when u/gamma lies in F_q,
    meaning u is on no line of gamma.
    """
    if gamma == fld.zero:
        raise ZeroDivisionError("gamma must be nonzero")
    v = fld.mul(u, fld.inv(gamma))
    vq = fld.frobenius_q(v)
    if vq == v:
        return None
    return fld.sub(vq, v)
