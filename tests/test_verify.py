from itertools import tee
from math import gcd

import pytest

from quadprim import verify
from quadprim.arith import ctx_for_prime_power
from quadprim.criteria import SCAN_EXCEPTIONS
from quadprim.ffield import (
    QuadExtField,
    build_field,
    line_class_key,
    translate_classes,
)
from quadprim.verify import (
    LINE_EXCEPTIONS,
    TRANSLATE_EXCEPTIONS,
    build_gamma_set,
    recheck_line_witness,
    recheck_translate_witness,
    verify_line_fast,
    verify_line_reference,
    verify_translate_fast,
    verify_translate_reference,
    _reference_cover,
    _two_primitive_walk,
)


@pytest.fixture(scope="module")
def fields():
    qs = (3, 5, 7, 9, 11, 13, 25, 27, 31, 41, 43, 49)
    return {q: build_field(ctx_for_prime_power(q)) for q in qs}


def test_exception_constants():
    assert TRANSLATE_EXCEPTIONS == {5, 7, 11, 13, 31, 41}
    assert LINE_EXCEPTIONS == {3, 5, 7, 9, 11, 13, 31, 41}
    assert TRANSLATE_EXCEPTIONS < LINE_EXCEPTIONS


def test_gamma_set_shape(fields):
    for q in (3, 5, 9, 13):
        fld = fields[q]
        gs = build_gamma_set(fld)
        assert len(gs.gammas) == q + 1
        assert len(set(gs.gammas)) == q + 1
        assert fld.one in gs.gammas
        assert all(g != fld.zero for g in gs.gammas)
        assert all(fld.pow(fld.a, x) == g
                   for x, g in zip(gs.exponents, gs.gammas, strict=True))
        assert len({x % (q + 1) for x in gs.exponents}) == q + 1


def test_gamma_set_covers_all_slopes(fields):
    # the q + 1 slopes hit every coset of F_q*: scaling each gamma by the
    # nonzero base field elements partitions the nonzero elements
    for q in (3, 5, 9, 13):
        fld = fields[q]
        base_units = fld.base_field_elements()[1:]
        seen = set()
        for g in build_gamma_set(fld).gammas:
            coset = {fld.mul(g, b) for b in base_units}
            assert len(coset) == q - 1
            assert not (coset & seen)
            seen |= coset
        assert len(seen) == q * q - 1


def test_translate_verdicts(fields):
    for q, fld in fields.items():
        rep = verify_translate_fast(fld)
        assert rep.holds == (q not in TRANSLATE_EXCEPTIONS), q
        assert rep.prop == "translate"
        if rep.holds:
            assert rep.witness is None
            assert rep.classes_covered == q - 1
        else:
            assert rep.witness is not None
            assert rep.classes_covered < q - 1


def test_line_verdicts(fields):
    for q, fld in fields.items():
        rep = verify_line_fast(fld)
        assert rep.holds == (q not in LINE_EXCEPTIONS), q
        if rep.holds:
            assert rep.witness is None
        else:
            gamma, key = rep.witness
            assert gamma in build_gamma_set(fld).gammas


def test_reference_and_fast_agree(fields):
    for q, fld in fields.items():
        tf, tr = verify_translate_fast(fld), verify_translate_reference(fld)
        assert tf.holds == tr.holds, q
        assert tf.witness == tr.witness, q
        lf, lr = verify_line_fast(fld), verify_line_reference(fld)
        assert lf.holds == lr.holds, q
        assert lf.witness == lr.witness, q


def test_translate_property_exhaustive_cross_check(fields):
    # brute force: for every translate class of q = 7 and q = 9, check
    # whether any member has order m/2, and compare with the verdict
    for q in (7, 9):
        fld = fields[q]
        m = fld.m
        classes = {}
        for u in fld.elements():
            if fld.in_base_field(u):
                continue
            key = line_class_key(u, fld.one, fld)
            good = fld.element_order(u) == m // 2
            classes[key] = classes.get(key, False) or good
        all_covered = all(classes.values())
        assert len(classes) == q - 1
        assert verify_translate_fast(fld).holds == all_covered


def test_line_property_exhaustive_cross_check(fields):
    # brute force over every slope of the gamma set for q = 5 (fails)
    # and q = 17 (holds)
    for q, expected in ((5, False), (17, True)):
        fld = build_field(ctx_for_prime_power(q))
        m = fld.m
        two_primitive = [u for u in fld.elements()
                         if u != fld.zero and fld.element_order(u) == m // 2]
        ok = True
        for gamma in build_gamma_set(fld).gammas:
            covered = {line_class_key(u, gamma, fld) for u in two_primitive}
            covered.discard(None)
            ok = ok and len(covered) == q - 1
        assert ok == expected
        assert verify_line_fast(fld).holds == expected


def test_witnesses_recheck(fields):
    for q in sorted(TRANSLATE_EXCEPTIONS):
        fld = fields[q]
        rep = verify_translate_fast(fld)
        assert recheck_translate_witness(fld, rep.witness)
    for q in sorted(LINE_EXCEPTIONS):
        fld = fields[q]
        rep = verify_line_fast(fld)
        gamma, key = rep.witness
        assert recheck_line_witness(fld, gamma, key)


def test_recheck_rejects_covered_classes(fields):
    # sanity: the re-checker must say False for a class that does have a
    # 2-primitive element
    fld = fields[43]
    u = fld.mul(fld.a, fld.a)  # order m/2 since gcd(2, m) == 2 here
    assert fld.element_order(u) == fld.m // 2
    key = line_class_key(u, fld.one, fld)
    assert not recheck_translate_witness(fld, key)
    assert not recheck_line_witness(fld, fld.one, key)


def test_recheck_rejects_unknown_keys(fields):
    # keys u**q - u never lie in F_q, so fld.one is carried by no class
    for q in (9, 13):
        fld = fields[q]
        with pytest.raises(ValueError):
            recheck_translate_witness(fld, fld.one)
        with pytest.raises(ValueError):
            recheck_line_witness(fld, fld.one, fld.one)
    # gamma = 0 slopes no line: at q = 43 the line property holds, so a
    # zero gamma must not be confirmed as a witness for a real key
    fld = fields[43]
    key = next(iter(translate_classes(fld)))
    with pytest.raises(ValueError):
        recheck_line_witness(fld, fld.zero, key)


def test_reference_cover_skips_the_line_through_0(fields):
    # a 2-primitive a**j with a**j / gamma in F_q lies on the line through
    # 0, which is no line of the property: its key 0 must never be counted
    for q in (9, 25):
        fld = fields[q]
        for gamma in build_gamma_set(fld).gammas:
            covered = _reference_cover(fld, gamma, _two_primitive_walk(fld))
            assert fld.zero not in covered, (q, gamma)
            if q == 25:  # the line property holds at q = 25
                assert len(covered) == q - 1, gamma


def test_reference_cover_matches_the_pairwise_walk(fields):
    # the pairwise criterion the class keys replace: a candidate w joins the
    # class of an accepted v exactly when (v - w)**(q-1) == 1, i.e. when
    # v - w lies in F_q*; only pow is used here, never the Frobenius map
    for q in (9, 13, 25, 27):
        fld = fields[q]
        one, m = fld.one, fld.m
        for gamma in build_gamma_set(fld).gammas:
            invg = fld.inv(gamma)
            accepted = []
            u = one
            for j in range(1, m - 1):
                u = fld.mul(u, fld.a)
                if gcd(j, m) != 2:
                    continue
                w = fld.mul(u, invg)
                if fld.pow(w, q) == w:
                    continue
                if all(fld.pow(fld.sub(v, w), q - 1) != one for v in accepted):
                    accepted.append(w)
                    if len(accepted) == q - 1:
                        break
            keys = {fld.sub(fld.pow(w, q), w) for w in accepted}
            assert _reference_cover(fld, gamma, _two_primitive_walk(fld)) == keys, \
                (q, gamma)


def test_reference_walk_is_shared_across_slopes(fields, monkeypatch):
    # the walk lists (a**j, a**(j*q)) over the j with gcd(j, m) == 2 in
    # ascending order, asking fld.pow once per distinct gap between them;
    # a cover on a tee copy of a walk grown by other slopes must not
    # depend on that
    for q in (9, 13, 25, 27):
        fld = fields[q]
        m = fld.m
        exps = [j for j in range(1, m) if gcd(j, m) == 2]
        expected = [(fld.pow(fld.a, j), fld.pow(fld.a, j * q)) for j in exps]
        gaps = {j - i for i, j in zip([0] + exps, exps)}
        pow_calls = []
        with monkeypatch.context() as mp:
            mp.setattr(fld, "pow", lambda u, e: pow_calls.append(e) or
                       QuadExtField.pow(fld, u, e))
            assert list(_two_primitive_walk(fld)) == expected, q
        assert sorted(pow_calls) == sorted(gaps), q

        gammas = build_gamma_set(fld).gammas
        walk = tee(_two_primitive_walk(fld), 1)[0]
        growing = {gamma: _reference_cover(fld, gamma, walk.__copy__())
                   for gamma in gammas[::-1]}
        assert list(walk.__copy__()) == expected, q  # grows the walk fully
        for gamma in gammas:
            keys = set()
            for u, _ in expected:
                key = line_class_key(u, gamma, fld)
                if key is not None:
                    keys.add(key)
                    if len(keys) == q - 1:
                        break
            fresh = _reference_cover(fld, gamma, _two_primitive_walk(fld))
            assert _reference_cover(fld, gamma, walk.__copy__()) == fresh == keys, \
                (q, gamma)
            assert growing[gamma] == fresh, (q, gamma)


# (holds, witness, classes_covered) of the reference verifiers, pinned
REFERENCE_REPORTS = {
    9: ((True, None, 8), (False, ((0, 1, 2, 0), (0, 1, 0, 1)), 4)),
    13: ((False, (0, 2), 10), (False, ((1, 0), (0, 2)), 10)),
    27: ((True, None, 26), (True, None, 26)),
}


def test_reference_verifiers_skip_the_coordinate_layer(monkeypatch):
    # the reference flavor must not share the fast flavor's F_q-coordinate
    # layer, so every piece of that layer raises here
    def broken(*args, **kwargs):
        raise AssertionError("reference verifier used the coordinate layer")

    for name in ("fq_coords", "from_fq_coords"):
        monkeypatch.setattr(QuadExtField, name, broken)
    for name in ("fq_exp", "fq_log", "fq_zech", "_fq_frame"):
        monkeypatch.setattr(QuadExtField, name, property(broken))
    for name in ("_cosets", "_lines_met", "_unmet_key", "_digit_slopes"):
        monkeypatch.setattr(verify, name, broken)
    for q, (translate, line) in REFERENCE_REPORTS.items():
        fld = build_field(ctx_for_prime_power(q))
        for rep, expected in ((verify_translate_reference(fld), translate),
                              (verify_line_reference(fld), line)):
            assert (rep.holds, rep.witness, rep.classes_covered) == expected, q
        with pytest.raises(AssertionError):
            verify_line_fast(fld)


def test_frobenius_pairs_slopes_with_equal_covers(fields):
    # sigma = frobenius_q maps the lines of slope gamma onto those of
    # sigma(gamma), i.e. of the gamma-set element gamma' with
    # gamma'/sigma(gamma) in F_q; found here by field arithmetic alone
    for q in (9, 13, 25, 27):
        fld = fields[q]
        gammas = build_gamma_set(fld).gammas
        covered = {g: len(_reference_cover(fld, g, _two_primitive_walk(fld)))
                   for g in gammas}
        swapped = 0
        for g in gammas:
            inv_sg = fld.inv(fld.frobenius_q(g))
            mates = [h for h in gammas
                     if fld.frobenius_q(v := fld.mul(h, inv_sg)) == v]
            assert len(mates) == 1, (q, g)
            assert covered[mates[0]] == covered[g], (q, g)
            swapped += mates[0] != g
        assert swapped == q - 1, q


def test_fast_line_tests_one_slope_per_frobenius_pair(monkeypatch):
    # a passing q tests each slope _lines_met is handed: None (slope 1)
    # first, then digit indices c, one of each pair {c, T - c} with
    # T = x + x**q, the fixed slope T/2 included
    tested = []
    lines_met = verify._lines_met

    def recording(fld, cosets, c):
        tested.append(c)
        return lines_met(fld, cosets, c)

    monkeypatch.setattr(verify, "_lines_met", recording)
    for q in (17, 27, 81, 125, 169):
        fld = build_field(ctx_for_prime_power(q))
        tested.clear()
        assert verify_line_fast(fld).holds, q
        assert tested[0] is None, q
        assert len(tested) == len(set(tested)) == (q + 3) // 2, q
        elem = lambda s: fld.from_fq_coords(s, 0)  # noqa: E731
        x = fld.from_fq_coords(0, 1)
        trace = fld.add(x, fld.frobenius_q(x))
        mates = {fld.fq_coords(fld.sub(trace, elem(c)))[0] for c in tested[1:]}
        assert set(tested[1:]) | mates == set(range(q)), q
        # slope c is the direction of -c + x, slope None that of 1, and
        # u**(q-1) names the class u * F_q*, i.e. the direction of u
        gammas = [fld.one] + [fld.sub(x, elem(c)) for c in tested[1:]]
        directions = {fld.pow(u, q - 1) for g in gammas
                      for u in (g, fld.frobenius_q(g))}
        assert len(directions) == q + 1, q


def test_fast_line_decides_without_the_gamma_set(monkeypatch):
    # a passing q is decided in digit order; the gamma set only names the
    # witness of a failing one
    def broken(*args, **kwargs):
        raise AssertionError("verify_line_fast built the gamma set")

    monkeypatch.setattr(verify, "build_gamma_set", broken)
    for q in (27, 509):
        assert verify_line_fast(build_field(ctx_for_prime_power(q))).holds, q
    with pytest.raises(AssertionError):
        verify_line_fast(build_field(ctx_for_prime_power(13)))


def test_coset_cover_matches_a_brute_force_walk():
    # every 2-primitive a**j, by exponent and field arithmetic: at slope
    # gamma = (g_s, g_y) it lies on the line t = s + c*y, c = -g_s/g_y
    # (t = y at g_y = 0), and t = 0 is the line through 0; _lines_met on
    # one coset at a time must give the lines that coset's elements meet
    for q in (9, 13, 25, 27, 49):
        fld = build_field(ctx_for_prime_power(q))
        m = fld.m
        log = fld.fq_log
        elem = lambda s: fld.from_fq_coords(s, 0)  # noqa: E731
        by_coset = {}
        u = fld.one
        for j in range(1, m):
            u = fld.mul(u, fld.a)
            if gcd(j, m) == 2:
                by_coset.setdefault(fld.pow(u, q - 1), []).append(fld.fq_coords(u))
        cosets = {fld.pow(fld.from_fq_coords(0 if ls is None else fld.fq_exp[ls],
                                             fld.fq_exp[ly]), q - 1): (ls, ly, mask)
                  for ls, ly, mask in verify._cosets(fld)}
        assert cosets.keys() == by_coset.keys(), q
        for gamma in build_gamma_set(fld).gammas:
            g_s, g_y = fld.fq_coords(gamma)
            c = None
            if g_y:
                c = fld.fq_coords(fld.mul(fld.sub(fld.zero, elem(g_s)), fld.inv(elem(g_y))))[0]
            invg = fld.inv(gamma)
            keys = {}
            lines = set()
            for key, coords in by_coset.items():
                met = set()
                for s, y in coords:
                    t = y if c is None else fld.fq_coords(
                        fld.add(elem(s), fld.mul(elem(c), elem(y))))[0]
                    v = fld.mul(fld.from_fq_coords(s, y), invg)
                    line_key = fld.sub(fld.frobenius_q(v), v)
                    assert (t == 0) == (line_key == fld.zero), (q, gamma)
                    assert keys.setdefault(t, line_key) == line_key, (q, gamma)
                    if t:
                        met.add(log[t])
                mask = verify._lines_met(fld, [cosets[key]], c)
                assert mask == sum(1 << i for i in met), (q, gamma, key)
                lines |= met
            assert len(set(keys.values())) == len(keys), (q, gamma)
            assert verify._lines_met(fld, cosets.values(), c) == \
                sum(1 << i for i in lines), (q, gamma)


def test_cosets_on_the_line_through_zero_meet_no_line():
    # a coset with s + c*y = 0 lies on the line through 0 of slope c, where
    # the Zech table has no entry; _lines_met must count it as meeting no
    # line t != 0, since it is ruled out by field arithmetic alone; every
    # digit slope c is tried, a superset of the gamma set's slopes
    pairs = 0
    for q in (3, 5, 7, 9, 11, 13, 17, 25, 27, 29, 31, 41, 49, 81):
        fld = build_field(ctx_for_prime_power(q))
        elem = lambda s: fld.from_fq_coords(s, 0)  # noqa: E731
        cosets = list(verify._cosets(fld))
        for c in range(q):
            for coset in cosets:
                ls, ly, _ = coset
                s = 0 if ls is None else fld.fq_exp[ls]
                t = fld.add(elem(s), fld.mul(elem(c), elem(fld.fq_exp[ly])))
                if t == fld.zero:
                    assert verify._lines_met(fld, [coset], c) == 0, (q, c, coset)
                    pairs += 1
    assert pairs == 129


def test_line_scaling_invariance(fields):
    # lines of slope gamma and slope c * gamma (c in F_q*) are the same
    # sets, so the induced partitions of the 2-primitive elements match
    for q in (5, 9):
        fld = fields[q]
        gamma = fld.a
        for c in fld.base_field_elements()[1:3]:
            scaled = fld.mul(gamma, c)
            part1 = {}
            part2 = {}
            for u in fld.elements():
                if u == fld.zero:
                    continue
                k1 = line_class_key(u, gamma, fld)
                k2 = line_class_key(u, scaled, fld)
                assert (k1 is None) == (k2 is None)
                if k1 is not None:
                    part1.setdefault(k1, set()).add(u)
                    part2.setdefault(k2, set()).add(u)
            assert sorted(map(sorted, part1.values())) == \
                sorted(map(sorted, part2.values()))


def test_line_flavors_agree_on_small_exceptions(fields):
    # every scan exception q <= 49, which covers k = 1, 2 and 3
    for q in sorted(q for q in SCAN_EXCEPTIONS if q <= 49):
        fld = fields.get(q) or build_field(ctx_for_prime_power(q))
        assert verify_line_fast(fld) == verify_line_reference(fld), q


def test_report_fields(fields):
    rep = verify_translate_fast(fields[3])
    assert rep.q == 3
    rep = verify_line_fast(fields[3])
    assert rep.prop == "line"
    assert verify_line_fast(fields[3]) == rep  # reports carry no timing
