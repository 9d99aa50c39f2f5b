"""Concrete arithmetic for F_q and its quadratic extension, q = p**k odd.

The extension is realized as a single tower step F_p[x]/(f) of degree 2k,
with f the first monic irreducible polynomial in a fixed enumeration by
ascending coefficient code.  A context therefore always yields the same
modulus, the same primitive element and the same root of unity, on every
run and platform.  At degree 2 the search tests the discriminant; above
that it runs Rabin's test with the field's own multiply mod each candidate,
the gcd checks first and x**(p**n) == x last (see ``_find_modulus``).

Elements are coordinate tuples of length 2k over F_p, constant term
first.  The subfield F_q sits inside as the fixed points of the q-power
map, which is precomputed as a linear map on coordinates.

F_q-coordinates write an element as s + y*x with s, y in F_q, where x is
the class of the polynomial variable.  An element of F_q is named by its
digit index: sum c_t * p**t for the element sum c_t * b**t, with
b = a**(q+1) generating F_q*.  Adding in F_q is then digit-wise addition
mod p of indices, and multiplying is addition of discrete logs base b.
"""

from __future__ import annotations

from functools import cached_property
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


def _pinverse(cols: list[FieldElem], p: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the inverse mod p of the invertible matrix with these columns."""
    n = len(cols)
    aug = [[col[r] for col in cols] + [int(r == c) for c in range(n)]
           for r in range(n)]
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
        self._frobq_cols = self._build_frobenius_columns()
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
        # rows[i] = coordinates of x**(deg+i) modulo the monic f
        p, deg = self.p, self.deg
        top = [(-c) % p for c in f[:deg]]
        rows = [tuple(top)]
        cur = list(top)
        for _ in range(deg - 2):
            carry = cur[-1]
            cur = [0] + cur[:-1]
            if carry:
                cur = [(ci + carry * ti) % p for ci, ti in zip(cur, top)]
            rows.append(tuple(cur))
        self._red = tuple(rows)
        if deg == 2:
            self._r20, self._r21 = rows[0]

    def _build_frobenius_columns(self) -> tuple[FieldElem, ...]:
        x = (0, 1) + (0,) * (self.deg - 2)
        xq = self._pow_raw(x, self.q)
        cols = [self.one]
        for _ in range(self.deg - 1):
            cols.append(self.mul(cols[-1], xq))
        return tuple(cols)

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
        return tuple((a + b) % p for a, b in zip(u, v))

    def sub(self, u: FieldElem, v: FieldElem) -> FieldElem:
        p = self.p
        return tuple((a - b) % p for a, b in zip(u, v))

    def mul(self, u: FieldElem, v: FieldElem) -> FieldElem:
        p = self.p
        if self.deg == 2:
            u0, u1 = u
            v0, v1 = v
            t = u1 * v1
            return ((u0 * v0 + t * self._r20) % p, (u0 * v1 + u1 * v0 + t * self._r21) % p)
        deg = self.deg
        conv = [0] * (2 * deg - 1)
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    conv[i + j] += ui * vj
        red = self._red
        for t in range(2 * deg - 2, deg - 1, -1):
            c = conv[t] % p
            if c:
                row = red[t - deg]
                for i, ri in enumerate(row):
                    conv[i] += c * ri
        # from a list: tuple() of a generator resizes its result, so freed
        # products would pile up in the tuple free list and raise peak RSS
        return tuple([c % p for c in conv[:deg]])

    def _pow_raw(self, u: FieldElem, e: int) -> FieldElem:
        # left to right: no multiply by one and no unused square; u goes
        # first so a sparse u (such as x) makes the product cheap
        if not e:
            return self.one
        result = u
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(u, result)
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
        """The q-power map, applied as a precomputed linear map."""
        p = self.p
        acc = [0] * self.deg
        for ci, col in zip(u, self._frobq_cols):
            if ci:
                for idx, cc in enumerate(col):
                    acc[idx] += ci * cc
        return tuple(v % p for v in acc)

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
        """All q**2 elements, ascending in index_of."""
        for n in range(self.p**self.deg):
            yield self.element_from_index(n)

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
    def _fq_frame(self) -> tuple[tuple[FieldElem, ...], tuple[tuple[int, ...], ...]]:
        """The F_p-basis b**t, b**t * x (t < k) behind F_q-coordinates, as
        columns, and the rows of its inverse."""
        b = self._fq_gen
        basis = [self.one]
        for _ in range(self.k - 1):
            basis.append(self.mul(basis[-1], b))
        x = self.element_from_index(self.p)
        cols = tuple(basis + [self.mul(v, x) for v in basis])
        return cols, _pinverse(cols, self.p)

    def fq_coords(self, u: FieldElem) -> tuple[int, int]:
        """Digit indices (s, y) of the F_q-coordinates of u = s + y*x."""
        p, k = self.p, self.k
        rows = self._fq_frame[1]
        s = y = 0
        for t in reversed(range(k)):
            s = s * p + sum(map(mul, rows[t], u)) % p
            y = y * p + sum(map(mul, rows[k + t], u)) % p
        return s, y

    def from_fq_coords(self, s: int, y: int) -> FieldElem:
        """The element s + y*x, for digit indices s and y."""
        p = self.p
        digits = []
        for n in (s, y):
            for _ in range(self.k):
                digits.append(n % p)
                n //= p
        acc = [0] * self.deg
        for d, col in zip(digits, self._fq_frame[0]):
            for i, c in enumerate(col):
                acc[i] += d * c
        return tuple(v % p for v in acc)

    @cached_property
    def fq_exp(self) -> tuple[int, ...]:
        """fq_exp[l] is the digit index of b**l, for 0 <= l < q - 1.

        At k = 1 the digit index of an element of F_q = F_p is its value, so
        a step multiplies by b mod p.  At k > 1 digits are coordinates in the
        basis b**t, so a step shifts them up and folds b**k back in by its
        digits."""
        p, k, n = self.p, self.k, self.q - 1
        if k == 1:
            b = self._fq_gen[0]
            exp = [1]
            for _ in range(n - 1):
                exp.append(exp[-1] * b % p)
            return tuple(exp)
        bk = self.fq_coords(self.pow(self._fq_gen, k))[0]
        top = [bk // p**t % p for t in range(k)]
        weights = [p**t for t in range(k)]
        digits = [1] + [0] * (k - 1)
        exp = []
        for _ in range(n):
            exp.append(sum(map(mul, digits, weights)))
            carry = digits.pop()
            digits = [(c + carry * t) % p for c, t in zip([0] + digits, top)]
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
