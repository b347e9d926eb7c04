import itertools

import pytest
from hypothesis import given, settings, strategies as st

from rsmld.bivar import BivariatePolynomial, ProjectivePoint, koetter_interpolate
from rsmld.code import RSCode, Word, corrupt, random_word
from rsmld.division import RadiusCapExceeded, decode_minimal
from rsmld.fields import Field
from rsmld.groebner import (GroebnerPair, ModuleVector, WeightedOrder,
                            mgb_euclid, mgb_iterative)
from rsmld.polys import Polynomial, monic_polys
from rsmld.rational import (_divides, anchor_points, decode_rational,
                            rational_factorize)

F7 = Field(7)


def test_anchor_points_worked_example():
    code = RSCode(F7, 7, 5)
    r = Word(code, (3, 2, 6, 3, 4, 2, 4))
    pair = mgb_iterative(code, r)
    anchors = anchor_points(code, pair)
    assert len(anchors) == 7
    # g1.f2 is the constant 5 here, so every anchor is finite and equals
    # -g2.f2(x) / g1.f2(x)
    for pt, x in zip(anchors, code.eval_points):
        assert not pt.is_infinite
        want = F7.div(F7.neg(pair.g2.f2.evaluate(x)), pair.g1.f2.evaluate(x))
        assert F7.div(pt.z_num, pt.z_den) == want


def test_anchor_points_can_be_infinite():
    # hunt a small case where g1.f2 vanishes at an evaluation point
    code = RSCode(F7, 7, 3)
    found = False
    for seed in range(60):
        pair = mgb_iterative(code, random_word(code, seed))
        anchors = anchor_points(code, pair)
        if any(p.is_infinite for p in anchors):
            found = True
            for pt, x in zip(anchors, code.eval_points):
                if pt.is_infinite:
                    assert pair.g1.f2.evaluate(x) == 0
                    assert pair.g2.f2.evaluate(x) != 0
            break
    assert found


def _scalar_anchors(code, pair):
    """The anchors by definition, one field division per point."""
    F = code.field
    out = []
    for x in code.eval_points:
        den, num = pair.g1.f2.evaluate(x), pair.g2.f2.evaluate(x)
        out.append(ProjectivePoint.finite(x, F.neg(F.div(num, den))) if den
                   else ProjectivePoint.infinity(x))
    return out


def _second_components(F, f2_1, f2_2):
    """A pair carrying only the given second components."""
    zero = Polynomial.zero(F)
    return GroebnerPair(ModuleVector(zero, f2_1), ModuleVector(zero, f2_2),
                        0, 0, WeightedOrder((0, 0)))


@pytest.mark.parametrize("code", [
    RSCode(F7, 7, 3),
    RSCode(Field(2, 4), 15, 5),
    RSCode(Field(2**31 - 1), 24, 4,
           [0] + [pow(7, 1 + 97 * i, 2**31 - 1) for i in range(23)]),
], ids=["gf7", "gf16", "mersenne31"])
def test_anchor_points_match_scalar_definition(code):
    F = code.field
    words = [random_word(code, seed) for seed in range(6)]
    words += [corrupt(code.encode([1] * code.k), t, seed=t)
              for t in range(code.n - code.k + 1)]
    for r in words:
        pair = mgb_euclid(code, r)
        assert anchor_points(code, pair) == _scalar_anchors(code, pair)
    # g1.f2 vanishing at the second and last points: two infinity anchors
    x1, x2 = code.eval_points[1], code.eval_points[-1]
    roots = Polynomial(F, [F.neg(x1), 1]) * Polynomial(F, [F.neg(x2), 1])
    pair = _second_components(F, roots, Polynomial(F, [x1, 3, 1]))
    anchors = anchor_points(code, pair)
    assert anchors == _scalar_anchors(code, pair)
    assert [p.x for p in anchors if p.is_infinite] == [x1, x2]
    with pytest.raises(ArithmeticError):
        anchor_points(code, _second_components(F, roots, roots))


def _brute_rational_pairs(q_poly, k1, k2):
    """All coprime (a, b), b monic, deg a <= k1, deg b <= k2, with
    b^zdeg * Q(x, a/b) = 0 -- by complete enumeration."""
    F = q_poly.field
    out = []
    deg_z = q_poly.zdeg()
    slices = [q_poly.slice_z(j) for j in range(deg_z + 1)]

    def all_polys(dmax):
        yield Polynomial.zero(F)
        for d in range(dmax + 1):
            for tail in itertools.product(range(F.q), repeat=d):
                for lead in range(1, F.q):
                    yield Polynomial(F, list(tail) + [lead])

    def monics(dmax):
        for d in range(dmax + 1):
            for tail in itertools.product(range(F.q), repeat=d):
                yield Polynomial(F, list(tail) + [1])

    for b in monics(k2):
        for a in all_polys(k1):
            if a.gcd(b).degree() > 0:
                continue
            acc = Polynomial.zero(F)
            for j in range(deg_z + 1):
                term = slices[j]
                for _ in range(j):
                    term = term * a
                for _ in range(deg_z - j):
                    term = term * b
                acc = acc + term
            if acc.is_zero():
                out.append((a, b))
    return out


def test_factorize_recovers_planted_roots():
    # Q = (z*b1 - a1)(z*b2 - a2) with distinct coprime pairs
    a1, b1 = Polynomial(F7, [3, 1, 2]), Polynomial.one(F7)
    a2, b2 = Polynomial(F7, [1]), Polynomial(F7, [2, 1])
    q = BivariatePolynomial(F7, {})
    terms = {}
    for (i1, c1) in [(1, b1), (0, -a1)]:
        for (i2, c2) in [(1, b2), (0, -a2)]:
            prod = c1 * c2
            for e, c in enumerate(prod.coeffs):
                if c:
                    key = (e, i1 + i2)
                    terms[key] = F7.add(terms.get(key, 0), c)
    q = BivariatePolynomial(F7, terms)
    got = rational_factorize(q, 2, 1)
    assert (a1, b1) in got
    assert (a2, b2) in got
    key = lambda ab: (tuple(ab[0].coeffs), tuple(ab[1].coeffs))
    assert sorted(got, key=key) == sorted(_brute_rational_pairs(q, 2, 1), key=key)


def test_factorize_handles_z_factor():
    # Q = z * (z - 5): roots z = 0/1 and z = 5/1
    q = BivariatePolynomial(F7, {(0, 2): 1, (0, 1): 2})
    got = rational_factorize(q, 1, 1)
    pairs = {(tuple(a.coeffs), tuple(b.coeffs)) for a, b in got}
    assert ((), (1,)) in pairs
    assert ((5,), (1,)) in pairs
    key = lambda ab: (tuple(ab[0].coeffs), tuple(ab[1].coeffs))
    assert sorted(got, key=key) == sorted(_brute_rational_pairs(q, 1, 1), key=key)


def test_factorize_pure_z_power():
    q = BivariatePolynomial(F7, {(0, 2): 3})
    got = rational_factorize(q, 1, 1)
    # only the zero function; (0, 1) reported once
    assert [(tuple(a.coeffs), tuple(b.coeffs)) for a, b in got] == [((), (1,))]


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        rational_factorize(BivariatePolynomial(F7, {}), 1, 1)


def test_factorize_matches_brute_force_random():
    # random bivariate polynomials over tiny fields of both characteristics
    import random as _random
    key = lambda ab: (tuple(ab[0].coeffs), tuple(ab[1].coeffs))
    for F in (Field(3), Field(2, 2)):
        rng = _random.Random(5)
        for _ in range(25):
            coeffs = {}
            for i in range(4):
                for j in range(3):
                    coeffs[(i, j)] = rng.randrange(F.q)
            q = BivariatePolynomial(F, coeffs)
            if q.is_zero():
                continue
            got = rational_factorize(q, 2, 1)
            want = _brute_rational_pairs(q, 2, 1)
            assert sorted(got, key=key) == sorted(want, key=key)


def _scalar_divisors(f, dmax):
    """Monic divisors of f of degree <= dmax, by trial division."""
    F = f.field
    return [Polynomial.one(F)] + [
        cand for d in range(1, min(dmax, f.degree()) + 1)
        for cand in monic_polys(F, d) if cand.divides(f)]


def _scalar_factorize(Q, k1, k2):
    """The factor pairs by the scalar algorithm: every coprime (b, a_m) from
    the divisor lists, every scalar c = 1..q-1, Q(x, c*a_m(x)/b(x)) tried at
    each field point with b(x) != 0, then b^mz * Q(x, a/b) = 0 by Horner."""
    F = Q.field
    out = []
    deflate = min(j for _, j in Q.coeffs)
    if deflate:
        out.append((Polynomial.zero(F), Polynomial.one(F)))
        Q = BivariatePolynomial(
            F, {(i, j - deflate): c for (i, j), c in Q.coeffs.items()})
    mz = Q.zdeg()
    if mz == 0:
        return out
    slices = [Q.slice_z(j) for j in range(mz + 1)]

    def vanishes_on_points(am, b, c):
        for x in range(F.q):
            bx = b.evaluate(x)
            if bx:
                z = F.div(F.mul(c, am.evaluate(x)), bx)
                acc = 0
                for sl in reversed(slices):
                    acc = F.add(F.mul(acc, z), sl.evaluate(x))
                if acc:
                    return False
        return True

    for b in _scalar_divisors(slices[mz], k2):
        bpow = [Polynomial.one(F)]
        for _ in range(mz):
            bpow.append(bpow[-1] * b)
        for am in _scalar_divisors(slices[0], k1):
            if not am.coprime(b):
                continue
            for c in range(1, F.q):
                if not vanishes_on_points(am, b, c):
                    continue
                a = am.scale(c)
                acc = slices[mz]
                for j in range(mz - 1, -1, -1):
                    acc = acc * a + slices[j] * bpow[mz - j]
                if acc.is_zero():
                    out.append((a, b))
    return out


def _times_linear(Q, a, b):
    """Q * (b*z - a)."""
    F = Q.field
    terms = {}
    for (i, j), c in Q.coeffs.items():
        for e, bc in enumerate(b.coeffs):
            terms[(i + e, j + 1)] = F.add(terms.get((i + e, j + 1), 0),
                                          F.mul(c, bc))
        for e, ac in enumerate(a.coeffs):
            terms[(i + e, j)] = F.sub(terms.get((i + e, j), 0), F.mul(c, ac))
    return BivariatePolynomial(F, terms)


@st.composite
def planted_products(draw):
    """(Q, k1, k2): a random nonzero cofactor times up to three factors
    b*z - a with b monic, deg a, deg b <= 2, times z^e, e <= 2."""
    F = draw(st.sampled_from(FACTOR_FIELDS))
    elem = st.integers(0, F.q - 1)

    def poly(deg, monic):
        return Polynomial(F, draw(st.lists(elem, min_size=deg, max_size=deg))
                          + [1 if monic else draw(st.integers(1, F.q - 1))])

    cofactor = draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 1)), elem, min_size=1))
    Q = BivariatePolynomial(F, cofactor)
    if Q.is_zero():
        Q = BivariatePolynomial(F, {(0, 0): 1})
    for _ in range(draw(st.integers(0, 3))):
        Q = _times_linear(Q, poly(draw(st.integers(0, 2)), False),
                          poly(draw(st.integers(0, 2)), True))
    e = draw(st.integers(0, 2))
    Q = BivariatePolynomial(F, {(i, j + e): c for (i, j), c in Q.coeffs.items()})
    return Q, draw(st.integers(0, 2)), draw(st.integers(0, 2))


FACTOR_FIELDS = [Field(2), Field(3), Field(2, 2), F7, Field(2, 4)]


@settings(max_examples=150, deadline=None)
@given(planted_products())
def test_factorize_matches_scalar_algorithm(case):
    Q, k1, k2 = case
    assert rational_factorize(Q, k1, k2) == _scalar_factorize(Q, k1, k2)


@pytest.mark.parametrize("F, a_m, b", [
    # a_m = x^2 + x vanishes at both points of GF(2)
    (Field(2), [0, 1, 1], [1]),
    # b * a_m = x * (x^2 + 2) = x^3 - x over GF(3)
    (Field(3), [2, 0, 1], [0, 1]),
    # b = x^2 + x vanishes at both points: no point is left to test
    (Field(2), [1], [0, 1, 1]),
], ids=["gf2-a", "gf3-ab", "gf2-b"])
def test_factorize_without_a_scalar_point(F, a_m, b):
    # b*a_m is zero at every field point, so no point fixes the scalar and
    # every c = 1..q-1 is tried; z divides Q as well (the deflation)
    a_m, b = Polynomial(F, a_m), Polynomial(F, b)
    assert not any(F.mul(a_m.evaluate(x), b.evaluate(x)) for x in range(F.q))
    Q = BivariatePolynomial(F, {(0, 1): 1, (1, 2): 1})   # z + x z^2
    for c in range(1, F.q):
        Q = _times_linear(Q, a_m.scale(c), b)
    got = rational_factorize(Q, 2, 2)
    assert got == _scalar_factorize(Q, 2, 2)
    assert got[0] == (Polynomial.zero(F), Polynomial.one(F))
    assert {(a_m.scale(c), b) for c in range(1, F.q)} <= set(got)


def test_factorize_on_part_of_the_points():
    # GF(1024): the root table holds 488 of the 1024 points; the point
    # test is weaker there, and synthetic division still decides
    F = Field(2, 10)
    Q = BivariatePolynomial(F, {(0, 0): 5, (1, 1): 7, (3, 0): 1})
    for a, b in (([3, 9], [1]), ([77], [5, 1]), ([1, 2], [0, 1])):
        Q = _times_linear(Q, Polynomial(F, a), Polynomial(F, b))
    got = rational_factorize(Q, 1, 1)
    assert got == _scalar_factorize(Q, 1, 1)
    assert (Polynomial(F, [77]), Polynomial(F, [5, 1])) in got


def test_factorize_refuses_past_the_table_limit():
    # GF(500009): one row of the root table would exceed the limit, where
    # the scalar algorithm tried each of the 500008 scalars in turn
    F = Field(500009)
    Q = _times_linear(BivariatePolynomial(F, {(0, 0): 1}),
                      Polynomial(F, [3]), Polynomial.one(F))
    with pytest.raises(ValueError, match="root table too large"):
        rational_factorize(Q, 0, 0)


def _divides_by_divmod(b, a, slices):
    """b*z - a divides sum_j slices[j] z^j, by Polynomial division."""
    quot = Polynomial.zero(b.field)
    for s in reversed(slices[1:]):
        quot, rem = divmod(s + a * quot, b)
        if rem:
            return False
    return (slices[0] + a * quot).is_zero()


@pytest.mark.parametrize("F", [Field(2), Field(3), F7, Field(2, 4),
                               Field(3037000493)], ids=lambda F: F.label())
def test_divides_matches_polynomial_division(F):
    # planted multiples (b*z - a) * P, some with one coefficient moved, and
    # random slices; b is monic or not, of degree 0 to 2
    import random as _random
    rng = _random.Random(F.q)

    def poly(deg):
        return Polynomial(F, [rng.randrange(F.q) for _ in range(deg + 1)])

    seen = set()
    for _ in range(300):
        b = poly(rng.randrange(3))
        if b.is_zero():
            b = Polynomial.one(F)
        if rng.random() < 0.5:
            b = b.scale(F.inv(b.leading()))
        a, mz = poly(rng.randrange(-1, 3)), rng.randrange(4)
        if rng.random() < 0.6:
            P = [poly(rng.randrange(-1, 4)) for _ in range(mz)]
            slices = [Polynomial.zero(F)] * (mz + 1)
            for j, p in enumerate(P):
                slices[j + 1] = slices[j + 1] + b * p
                slices[j] = slices[j] - a * p
            if rng.random() < 0.4:
                j = rng.randrange(mz + 1)
                slices[j] = slices[j] + Polynomial.monomial(
                    F, 1 + rng.randrange(F.q - 1), rng.randrange(4))
        else:
            slices = [poly(rng.randrange(-1, 5)) for _ in range(mz + 1)]
        want = _divides_by_divmod(b, a, slices)
        assert _divides(b, a, slices) == want, (b, a, slices)
        seen.add((want, b.leading() == 1))
    # every nonzero lead is 1 in GF(2)
    monic = {True} if F.q == 2 else {True, False}
    assert seen == {(w, m) for w in (True, False) for m in monic}


def test_divides_needs_every_remainder():
    # GF(2), b = x^2 + x, a = 1, Q = x*z: the z^1 step leaves the remainder
    # x and the quotient 0, after which S_0 + a*P_0 = 0, so only the
    # remainder test says no
    F = Field(2)
    b, a = Polynomial(F, [0, 1, 1]), Polynomial.one(F)
    slices = [Polynomial.zero(F), Polynomial.x(F)]
    assert divmod(slices[1], b) == (Polynomial.zero(F), Polynomial.x(F))
    assert not _divides(b, a, slices)


def test_decode_rational_worked_examples():
    code = RSCode(F7, 7, 5)
    r = Word(code, (3, 2, 6, 3, 4, 2, 4))
    out = decode_rational(code, r)
    assert out.min_distance == 1
    assert out.message_coeff_lists() == [[3, 1, 2]]
    assert out.method == "rational"

    code2 = RSCode(F7, 7, 4)
    r2 = Word(code2, (3, 2, 6, 3, 2, 2, 4))
    out2 = decode_rational(code2, r2)
    assert out2.message_coeff_lists() == [[3, 1, 2], [3, 3, 5, 5], [5, 3, 5, 3]]


def test_decode_rational_records_params():
    code = RSCode(Field(2, 4), 15, 5)
    w = code.encode([1, 3, 7, 2, 9])
    r = corrupt(w, 7, seed=42)
    out = decode_rational(code, r)
    assert out.min_distance == 7
    assert out.params_used
    for p in out.params_used:
        p.validate()
    assert out == code.ml_oracle(r)


def test_decode_rational_agrees_with_division():
    for code in (RSCode(F7, 7, 3), RSCode(F7, 7, 4), RSCode(Field(2, 3), 8, 3)):
        for seed in range(30):
            r = random_word(code, seed)
            try:
                want = decode_minimal(code, r, beyond_johnson=True)
            except RadiusCapExceeded:
                with pytest.raises(RadiusCapExceeded):
                    decode_rational(code, r, beyond_johnson=True)
                continue
            got = decode_rational(code, r, beyond_johnson=True)
            assert got == want, (code.n, code.k, seed)
            assert got.search_level == want.search_level


def test_decode_rational_radius_cap():
    code = RSCode(F7, 7, 5)
    r = Word(code, (5, 1, 4, 3, 5, 6, 4))   # distance 2, beyond Johnson cap 1
    with pytest.raises(RadiusCapExceeded):
        decode_rational(code, r)
    out = decode_rational(code, r, beyond_johnson=True)
    assert out.min_distance == 2
    assert len(out.messages) == 21


def test_decode_rational_long_code_at_level_two():
    # RS(255,33) over GF(2^8), 113 errors: level 2, where enumerating the
    # pairs would take 256^5 of them, so the division decoder is only run
    # capped at level 1, to show that no codeword is closer
    code = RSCode(Field(2, 8), 255, 33)
    r = corrupt(code.encode([1, 2, 3, 4, 5]), 113, seed=7)
    out = decode_rational(code, r)
    assert (out.min_distance, out.message_coeff_lists()) == (113, [[1, 2, 3, 4, 5]])
    assert (out.ell1, out.ell2) == (144, 143)
    with pytest.raises(RadiusCapExceeded):
        decode_minimal(code, r, j_cap=1)
