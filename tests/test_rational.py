import itertools

import pytest

from rsmld.bivar import BivariatePolynomial, ProjectivePoint, koetter_interpolate
from rsmld.code import RSCode, Word, corrupt, random_word
from rsmld.division import RadiusCapExceeded, decode_minimal
from rsmld.fields import Field
from rsmld.groebner import (GroebnerPair, ModuleVector, WeightedOrder,
                            mgb_euclid, mgb_iterative)
from rsmld.polys import Polynomial
from rsmld.rational import anchor_points, decode_rational, rational_factorize

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
