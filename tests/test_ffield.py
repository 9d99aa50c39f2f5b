import functools
import hashlib
import math
import random
from array import array

import pytest

from quadprim import ffield
from quadprim.arith import ctx_for_prime_power, euler_phi, factorize
from quadprim.ffield import QuadExtField, build_field, line_class_key, translate_classes

SMALL_QS = (3, 5, 7, 9, 11, 13, 25, 27)


def is_two_primitive_exponent(j, ctx):
    """True when a**j has order (q**2 - 1)/2, i.e. gcd(j, q**2 - 1) == 2."""
    return math.gcd(j, ctx.q * ctx.q - 1) == 2


@pytest.fixture(scope="module")
def fields():
    return {q: build_field(ctx_for_prime_power(q)) for q in SMALL_QS}


def test_field_axioms_sampled(fields):
    for q in (5, 9, 27):
        fld = fields[q]
        elems = list(fld.elements())
        sample = elems[:: max(1, len(elems) // 12)]
        for u in sample:
            for v in sample:
                assert fld.add(u, v) == fld.add(v, u)
                assert fld.mul(u, v) == fld.mul(v, u)
                assert fld.sub(fld.add(u, v), v) == u
                for w in sample[:4]:
                    lhs = fld.mul(u, fld.add(v, w))
                    rhs = fld.add(fld.mul(u, v), fld.mul(u, w))
                    assert lhs == rhs
            assert fld.mul(u, fld.one) == u
            assert fld.add(u, fld.zero) == u


def test_inverse_and_pow(fields):
    for q, fld in fields.items():
        for u in list(fld.elements())[1:]:
            assert fld.mul(u, fld.inv(u)) == fld.one
        assert fld.pow(fld.a, fld.m) == fld.one
        assert fld.pow(fld.a, -1) == fld.inv(fld.a)
        assert fld.pow(fld.zero, 0) == fld.one
        assert fld.pow(fld.zero, 5) == fld.zero
        with pytest.raises(ZeroDivisionError):
            fld.inv(fld.zero)
        with pytest.raises(ZeroDivisionError):
            fld.pow(fld.zero, -2)


def test_primitive_element_order(fields):
    for q, fld in fields.items():
        assert fld.element_order(fld.a) == fld.m


def test_primitive_element_is_least_code():
    # a is the least code >= p of order m, found by element_order, which
    # tests u**(m/r) directly rather than through the norm split
    qs = [q for q in range(3, 244, 2) if len(factorize(q).factors) == 1]
    assert {9, 25, 27, 49, 81, 121, 125, 169, 243} <= set(qs)
    for q in qs:
        fld = build_field(ctx_for_prime_power(q))
        code = fld.p
        while fld.element_order(fld.element_from_index(code)) != fld.m:
            code += 1
        assert fld.a == fld.element_from_index(code), q


def test_element_order_example(fields):
    fld = fields[5]
    a2 = fld.mul(fld.a, fld.a)
    assert fld.element_order(a2) == 12


def test_zeta_generates_two_part(fields):
    for q, fld in fields.items():
        d = fld.ctx.two_adic_d
        z = fld.zeta
        assert fld.pow(z, 1 << d) == fld.one
        half = fld.pow(z, 1 << (d - 1))
        assert half != fld.one
        assert fld.mul(half, half) == fld.one  # so half == -1
        assert half == fld.sub(fld.zero, fld.one)


def test_frobenius_is_field_automorphism(fields):
    # k = 1, 2, 3 and 4: the reference verifiers key classes by u**q - u
    for q in (13, 9, 25, 27, 81):
        fld = fields[q] if q in fields else build_field(ctx_for_prime_power(q))
        elems = list(fld.elements())
        sample = elems[:: max(1, len(elems) // 20)]
        for u in sample:
            assert fld.frobenius_q(u) == fld.pow(u, q)
            for v in sample[:5]:
                assert fld.frobenius_q(fld.add(u, v)) == \
                    fld.add(fld.frobenius_q(u), fld.frobenius_q(v))
                assert fld.frobenius_q(fld.mul(u, v)) == \
                    fld.mul(fld.frobenius_q(u), fld.frobenius_q(v))


def test_base_field_is_frobenius_fixed(fields):
    for q, fld in fields.items():
        fixed = [u for u in fld.elements() if fld.in_base_field(u)]
        assert len(fixed) == q
        base = fld.base_field_elements()
        assert len(base) == q
        assert set(base) == set(fixed)
        assert base[0] == fld.zero
        assert base[1] == fld.one


def test_two_primitive_census(fields):
    # number of elements of order m/2 is phi(m/2)
    for q in (3, 5, 7, 9, 13):
        fld = fields[q]
        m = fld.m
        expected = euler_phi(factorize(m // 2))
        count = sum(
            1 for u in fld.elements()
            if u != fld.zero and fld.element_order(u) == m // 2)
        assert count == expected
        by_exponent = sum(
            1 for j in range(1, m) if is_two_primitive_exponent(j, fld.ctx))
        assert by_exponent == expected


def test_two_primitive_exponents_are_even(fields):
    fld = fields[13]
    for j in range(1, fld.m):
        if is_two_primitive_exponent(j, fld.ctx):
            assert j % 2 == 0
            assert fld.element_order(fld.pow(fld.a, j)) == fld.m // 2


def test_translate_key_partitions(fields):
    for q in (5, 9, 13):
        fld = fields[q]
        buckets = {}
        for u in fld.elements():
            if fld.in_base_field(u):
                assert line_class_key(u, fld.one, fld) is None
                continue
            buckets.setdefault(line_class_key(u, fld.one, fld), []).append(u)
        # q - 1 classes of size q partition the complement of F_q
        assert len(buckets) == q - 1
        assert all(len(v) == q for v in buckets.values())


def test_translate_key_constant_on_translates(fields):
    for q in (5, 27):
        fld = fields[q]
        theta = next(u for u in fld.elements() if not fld.in_base_field(u))
        key = line_class_key(theta, fld.one, fld)
        for x in fld.base_field_elements():
            assert line_class_key(fld.add(theta, x), fld.one, fld) == key


def test_translate_classes_is_a_transversal(fields):
    for q in (5, 9, 13):
        fld = fields[q]
        reps = translate_classes(fld)
        assert len(reps) == q - 1
        assert all(fld.sub(fld.frobenius_q(u), u) == key for key, u in reps.items())
        # each value is the first element of its class in elements() order,
        # and the classes come in that order
        first = {}
        for u in fld.elements():
            if not fld.in_base_field(u):
                first.setdefault(fld.sub(fld.frobenius_q(u), u), u)
        assert list(reps.items()) == list(first.items())


def test_line_class_key(fields):
    fld = fields[5]
    gamma = fld.a
    # scaling a line element by gamma leaves the key of u/gamma fixed
    for u in fld.elements():
        if u == fld.zero:
            continue
        key = line_class_key(u, gamma, fld)
        v = fld.mul(u, fld.inv(gamma))
        if fld.in_base_field(v):
            assert key is None
        else:
            assert key == fld.sub(fld.frobenius_q(v), v)
    with pytest.raises(ZeroDivisionError):
        line_class_key(fld.one, fld.zero, fld)


def test_construction_is_deterministic():
    f1 = build_field(ctx_for_prime_power(9))
    f2 = build_field(ctx_for_prime_power(9))
    assert f1.modulus == f2.modulus
    assert f1.a == f2.a
    assert f1.zeta == f2.zeta


def test_modulus_is_minimal_code():
    # degree 2: the first monic x**2 + c1 x + c0 with non-residue discriminant
    for p in (3, 5, 7, 13):
        fld = build_field(ctx_for_prime_power(p))
        c0, c1, lead = fld.modulus
        assert lead == 1
        code = c1 * p + c0
        for earlier in range(code):
            e0, e1 = earlier % p, earlier // p
            disc = (e1 * e1 - 4 * e0) % p
            is_non_residue = disc != 0 and pow(disc, (p - 1) // 2, p) == p - 1
            assert not is_non_residue
    # degree 2k >= 4: f is irreducible and every earlier monic code is
    # reducible, decided by trial division rather than Rabin's test
    for q in (9, 25, 27, 49, 81, 125, 243):
        fld = build_field(ctx_for_prime_power(q))
        p, k, f = fld.p, fld.k, fld.modulus
        assert len(f) == 2 * k + 1 and f[-1] == 1
        assert not _has_monic_factor(f, p, k)
        for earlier in range(fld.index_of(f[:-1])):
            assert _has_monic_factor(fld.element_from_index(earlier) + (1,), p, k)


def _has_monic_factor(f, p, max_deg):
    # f little-endian and monic; trial division by every monic g of degree
    # 1..max_deg over F_p, which decides reducibility for deg f <= 2 max_deg
    for d in range(1, max_deg + 1):
        for code in range(p**d):
            g = [code // p**i % p for i in range(d)] + [1]
            r = list(f)
            for t in range(len(r) - 1, d - 1, -1):
                c = r[t]
                if c:
                    for i, gi in enumerate(g):
                        r[t - d + i] = (r[t - d + i] - c * gi) % p
            if not any(r[:d]):
                return True
    return False


def test_extension_moduli_are_pinned():
    # the degree-2k modulus and primitive element of every field with
    # k >= 2 and q <= 8192, the command line's bound: a change of the
    # irreducibility test or of the search order moves this digest
    qs = [q for q in range(9, 8193, 2)
          if len(f := factorize(q).factors) == 1 and f[0][1] >= 2]
    assert len(qs) == 38
    data = [(q, fld.modulus, fld.a)
            for q in qs for fld in [build_field(ctx_for_prime_power(q))]]
    assert hashlib.sha256(repr(data).encode()).hexdigest() == \
        "7f84d25d3d95e10b6ddff54eef0287e5c14a4f47d542346a834cbf1dbe550cf9"


def test_element_roundtrip(fields):
    for q, fld in fields.items():
        for n in range(0, q * q, max(1, q * q // 17)):
            assert fld.index_of(fld.element_from_index(n)) == n


def test_rejects_even_context():
    with pytest.raises(ValueError):
        build_field(ctx_for_prime_power(4))


def test_reducible_modulus_fails_instead_of_hanging(monkeypatch):
    # x**4 + 1 = (x**2 + x + 2)(x**2 + 2x + 2) over F_3: the ring has no
    # element of order 80, so the bounded search for one runs out
    monkeypatch.setattr(QuadExtField, "_find_modulus", lambda self: (1, 0, 0, 0, 1))
    with pytest.raises(AssertionError, match="primitive element .* q = 9"):
        build_field(ctx_for_prime_power(9))


def test_modulus_search_fails_instead_of_hanging(monkeypatch):
    # a gcd that always reports a common factor rejects every candidate
    monkeypatch.setattr(ffield, "_pgcd", lambda a, b, p: [0, 1])
    with pytest.raises(AssertionError, match="modulus .* q = 9"):
        build_field(ctx_for_prime_power(9))


def test_element_count(fields):
    for q in (3, 9, 27):
        fld = fields[q]
        elems = list(fld.elements())
        assert len(elems) == q * q
        assert len(set(elems)) == q * q
        # ascending in index_of, the order translate_classes depends on
        assert elems == [fld.element_from_index(n) for n in range(q * q)]


COORD_QS = (3, 13, 31, 9, 25, 27, 81, 125)


@pytest.fixture(scope="module")
def coord_fields():
    return {q: build_field(ctx_for_prime_power(q)) for q in COORD_QS}


def test_fq_coords_roundtrip(coord_fields):
    for q, fld in coord_fields.items():
        seen = set()
        for u in fld.elements():
            s, y = fld.fq_coords(u)
            assert 0 <= s < q and 0 <= y < q
            assert fld.from_fq_coords(s, y) == u
            seen.add((s, y))
        assert len(seen) == q * q
        assert {fld.fq_coords(u)[1] for u in fld.base_field_elements()} == {0}
        # digit index s names sum d_t * b**t over the base-p digits d_t of s,
        # built here by field arithmetic alone, so a codec that is wrong the
        # same way in both directions fails
        p, k = fld.p, fld.k
        b, x = fld.pow(fld.a, q + 1), fld.element_from_index(p)
        consts = [fld.zero]
        for _ in range(p - 1):
            consts.append(fld.add(consts[-1], fld.one))
        named = []
        for n in range(q):
            v = fld.zero
            for t in range(k):
                v = fld.add(v, fld.mul(consts[n // p**t % p], fld.pow(b, t)))
            named.append(v)
        for s, big_s in enumerate(named):
            for y, big_y in enumerate(named):
                u = fld.add(big_s, fld.mul(big_y, x))
                assert fld.from_fq_coords(s, y) == u and fld.fq_coords(u) == (s, y), (q, s, y)


def test_fq_log_tables(coord_fields):
    # exp/log name the powers of b = a**(q+1), and coordinates are F_q-linear:
    # b**l * (s + y*x) has coordinates (b**l * s, b**l * y)
    for q, fld in coord_fields.items():
        exp, log = fld.fq_exp, fld.fq_log
        b = fld.pow(fld.a, q + 1)
        assert sorted(exp) == list(range(1, q))
        assert all(log[exp[e]] == e for e in range(q - 1))
        u = fld.mul(fld.a, fld.a)
        s, y = fld.fq_coords(u)
        for e in range(q - 1):
            assert fld.from_fq_coords(exp[e], 0) == fld.pow(b, e)
            scaled = fld.fq_coords(fld.mul(u, fld.pow(b, e)))
            assert scaled == tuple(d and exp[(log[d] + e) % (q - 1)] for d in (s, y))


def test_fq_zech_table(coord_fields):
    # zech[i] is the log of 1 + b**i, summed by field addition; None exactly
    # where b**i = -1, i.e. at i = (q - 1)/2
    for q, fld in coord_fields.items():
        exp, log, zech = fld.fq_exp, fld.fq_log, fld.fq_zech
        assert len(zech) == q - 1
        for i in range(q - 1):
            total = fld.add(fld.one, fld.from_fq_coords(exp[i], 0))
            assert zech[i] == log[fld.fq_coords(total)[0]], (q, i)
        assert [i for i, z in enumerate(zech) if z is None] == [(q - 1) // 2]


def test_fq_tables_built_on_first_use():
    fld = build_field(ctx_for_prime_power(25))
    assert not {"_fq_frame", "fq_exp", "fq_log", "fq_zech"} & set(vars(fld))


# k = 1 fields up to the command line's bound, then 9 and 27, then every
# degree the verifiers reach at the largest p for that degree.  A broken
# product makes build_field walk all p**deg candidate moduli, which ends
# soon only for small fields, so those come first.
KERNEL_QS = (3, 13, 41, 8191, 9, 27, 7921, 6859, 2401, 3125, 729, 2187, 6561)


@pytest.fixture(scope="module")
def kernel_field():
    # built on first use, so a test fails at the first bad field
    return functools.cache(lambda q: build_field(ctx_for_prime_power(q)))


def _kernel_operands(fld):
    # the all-(p-1) operand gives the largest convolution sums, the nearest
    # the packed product's slots come to their bound; the rest are dense,
    # sparse and structured elements
    rng = random.Random(fld.q)
    top = (fld.p - 1,) * fld.deg
    dense = [tuple(rng.randrange(fld.p) for _ in range(fld.deg)) for _ in range(6)]
    return [top, fld.zero, fld.one, fld.a, fld.zeta, fld.element_from_index(fld.p)] + dense


def _schoolbook(u, v, f, p):
    # the polynomial product, then long division by the monic f
    deg = len(f) - 1
    conv = [0] * (2 * deg - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            conv[i + j] += ui * vj
    for t in range(2 * deg - 2, deg - 1, -1):
        c = conv.pop()
        for i in range(deg):
            conv[t - deg + i] -= c * f[i]
    return tuple(c % p for c in conv)


def test_mul_matches_schoolbook_product(kernel_field):
    for q in KERNEL_QS:
        fld = kernel_field(q)
        ops = _kernel_operands(fld)
        for u in ops:
            for v in ops:
                assert fld.mul(u, v) == _schoolbook(u, v, fld.modulus, fld.p), (q, u, v)


def test_add_and_sub_are_coordinatewise(kernel_field):
    for q in KERNEL_QS:
        fld = kernel_field(q)
        ops = _kernel_operands(fld)
        p = fld.p
        for u in ops:
            for v in ops:
                assert fld.add(u, v) == tuple((a + b) % p for a, b in zip(u, v)), (q, u, v)
                assert fld.sub(u, v) == tuple((a - b) % p for a, b in zip(u, v)), (q, u, v)


def test_frobenius_is_the_q_power(kernel_field):
    for q in KERNEL_QS:
        fld = kernel_field(q)
        for u in _kernel_operands(fld):
            assert fld.frobenius_q(u) == fld.pow(u, q), (q, u)


def test_product_slot_bound_is_enforced():
    # the worst field up to the command line's bound, p = 89 at degree 4,
    # needs 23 bits a slot; a p whose folded sum outgrows the widest slot
    # is refused, not wrapped
    assert 4 * 88**2 * (1 + 3 * 88) == 8_208_640 < 2**23
    assert array(ffield._packing(89, 4)[0]).itemsize == 4
    with pytest.raises(ValueError, match="slot"):
        ffield._packing(2**31 - 1, 4)
