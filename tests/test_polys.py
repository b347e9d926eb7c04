import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rsmld.fields import Field, FieldArrays
from rsmld.polys import (Polynomial, base_q_digits, bounded_monic_divisors,
                         lagrange_interpolate, monic_polys, vanishing_poly)

F = Field(7)


def P(*coeffs):
    return Polynomial(F, coeffs)


def test_construction_trims_and_canonicalizes():
    assert P(3, 8, 0, 0).coeffs == [3, 1]
    # bools, negatives and numpy ints go through Field.canon too
    assert P(True, False, -1, np.int64(10)).coeffs == [1, 0, 6, 3]
    F16 = Field(2, 4)
    assert Polynomial(F16, [15, 0b10000, True]).coeffs == [15, 0b0011, 1]
    with pytest.raises(ValueError):
        Polynomial(F16, [1, -1])
    assert P().is_zero()
    assert P(0, 0).degree() == -1
    assert Polynomial.x(F).coeffs == [0, 1]
    assert Polynomial.constant(F, 9).coeffs == [2]
    assert Polynomial.monomial(F, 3, 4).coeffs == [0, 0, 0, 0, 3]
    assert Polynomial.monomial(F, 0, 4).is_zero()


def test_arithmetic():
    a = P(1, 2, 3)
    b = P(6, 5)
    assert (a + b).coeffs == [0, 0, 3]
    assert (a - b).coeffs == [2, 4, 3]
    assert (-a).coeffs == [6, 5, 4]
    assert (a * b).coeffs == [6, 3, 0, 1]
    assert a.scale(2).coeffs == [2, 4, 6]
    assert a.scale(0).is_zero()
    assert a.times_x_minus(2) == a * P(5, 1)


def test_divmod_worked_example():
    # (x^3 + 4x^2 + 2x + 5) = (x + 2)(x^2 + 2x + 5) + 2
    num = P(5, 2, 4, 1)
    den = P(2, 1)
    q, r = divmod(num, den)
    assert q.coeffs == [5, 2, 1]
    assert r.coeffs == [2]
    assert q * den + r == num
    assert num // den == q
    assert num % den == r


def test_divmod_exact_and_errors():
    a = P(4, 6, 5)
    b = P(2, 3)
    assert divmod(a * b, b) == (a, Polynomial.zero(F))
    assert b.divides(a * b)
    assert not b.divides(a * b + P(1))
    with pytest.raises(ZeroDivisionError):
        divmod(a, Polynomial.zero(F))


def test_monic_and_gcd():
    a = P(2, 4)          # 4x + 2
    assert a.monic().coeffs == [4, 1]
    with pytest.raises(ValueError):
        Polynomial.zero(F).monic()
    p1 = P(1, 1) * P(2, 1) * P(3, 1)
    p2 = P(2, 1) * P(3, 1) * P(5, 3)
    g = p1.gcd(p2)
    assert g == (P(2, 1) * P(3, 1)).monic()
    assert p1.gcd(Polynomial.zero(F)) == p1.monic()
    assert Polynomial.zero(F).gcd(p2) == p2.monic()


@pytest.mark.parametrize("field", [Field(3), Field(2, 2), Field(7)],
                         ids=["GF3", "GF4", "GF7"])
def test_coprime_matches_gcd(field):
    # every a of degree <= 2 (zero included) against every monic b of
    # degree <= 2: constants, linear sides and the gcd fallback all occur
    q = field.q
    a_all = [Polynomial(field, base_q_digits(v, q, 3)) for v in range(q**3)]
    b_all = [b for d in range(3) for b in monic_polys(field, d)]
    for a in a_all:
        for b in b_all:
            assert a.coprime(b) == (not a.gcd(b).degree() > 0), (a, b)
            assert b.coprime(a) == a.coprime(b), (a, b)
    zero = Polynomial.zero(field)
    assert not zero.coprime(zero)


def test_evaluation():
    p = P(3, 1, 2)  # 2x^2 + x + 3
    assert p.evaluate(0) == 3
    assert p.evaluate(1) == 6
    assert [p.evaluate(x) for x in range(7)] == [3, 6, 6, 3, 4, 2, 4]
    assert Polynomial.zero(F).evaluate(5) == 0


def test_vanishing_poly():
    pi = vanishing_poly(F, range(7))
    assert pi.coeffs == [0, 6, 0, 0, 0, 0, 0, 1]  # x^7 - x
    assert [pi.evaluate(x) for x in range(7)] == [0] * 7
    assert vanishing_poly(F, []).coeffs == [1]


@pytest.mark.parametrize("field", [Field(7), Field(2, 4, 0b11001),
                                   Field(2**31 - 1), Field(4294967291)])
def test_vanishing_poly_matches_product(field):
    # the array product against the Python product of linear factors
    q = field.q
    for xs in ([], [0], [1, q - 1], [0, 1, 2, q - 1, q // 3, q // 2]):
        product = Polynomial.one(field)
        for x in xs:
            product = product * Polynomial(field, [field.neg(x), 1])
        assert vanishing_poly(field, xs) == product, xs


def test_lagrange_interpolate():
    xs = [0, 1, 2, 3]
    ys = [3, 6, 6, 3]
    p = lagrange_interpolate(F, xs, ys)
    assert p.degree() <= 3
    assert [p.evaluate(x) for x in xs] == ys
    # degree drops when points already lie on a lower-degree curve
    q = lagrange_interpolate(F, range(7),
                             [P(3, 1, 2).evaluate(x) for x in range(7)])
    assert q == P(3, 1, 2)
    with pytest.raises(ValueError):
        lagrange_interpolate(F, [1, 1], [2, 3])


def test_base_q_digits():
    assert base_q_digits(0, 7, 3) == [0, 0, 0]
    assert base_q_digits(5 + 3 * 7 + 6 * 49, 7, 3) == [5, 3, 6]
    # digits above `count` are dropped, and count 0 gives no digits
    assert base_q_digits(7**3 + 1, 7, 3) == [1, 0, 0]
    assert base_q_digits(9, 2, 0) == []


def test_bounded_monic_divisors():
    f = P(1, 1) * P(2, 1) * P(2, 1)  # (x+1)(x+2)^2
    divs = bounded_monic_divisors(f, 2)
    assert Polynomial.one(F) in divs
    assert P(1, 1) in divs
    assert P(2, 1) in divs
    assert P(2, 1) * P(2, 1) in divs
    assert P(1, 1) * P(2, 1) in divs
    assert all(d.leading() == 1 and d.degree() <= 2 for d in divs)
    assert all(d.divides(f) for d in divs)
    assert len(divs) == len(set(divs))
    # brute-force cross-check
    brute = []
    for c0 in range(7):
        for c1 in range(7):
            for lead_deg in (0, 1, 2):
                coeffs = [c0, c1, 0]
                coeffs[lead_deg] = 1
                cand = Polynomial(F, coeffs[:lead_deg + 1])
                if cand.leading() == 1 and cand.divides(f) and cand not in brute:
                    brute.append(cand)
    assert sorted(d.coeffs for d in divs) == sorted(d.coeffs for d in brute)


def test_bounded_monic_divisors_zero_and_cap():
    with pytest.raises(ValueError):
        bounded_monic_divisors(Polynomial.zero(F), 1)
    f = P(3, 0, 1)
    assert bounded_monic_divisors(f, 9) == bounded_monic_divisors(f, 2)


def test_bounded_monic_divisors_refuses_past_the_limit(monkeypatch):
    # degree 7 over GF(7) with dmax = 7: 7 + 7^2 + ... + 7^7 = 960 799
    # candidates, past the limit, so it refuses before any remainder is taken
    def no_remainders(*args):
        raise AssertionError("the batched remainder ran")

    monkeypatch.setattr(FieldArrays, "monic_remainders", no_remainders)
    f = P(1, 2, 3, 4, 5, 6, 0, 1)
    with pytest.raises(ValueError,
                       match="960799 candidates, limit 500000"):
        bounded_monic_divisors(f, 7)


@pytest.mark.parametrize("field", [Field(7), Field(2, 3), Field(2, 4)],
                         ids=["gf7", "gf8", "gf16"])
def test_bounded_monic_divisors_match_trial_division(field):
    # f = product of random monic factors of degree 1..3, so that divisors
    # of every degree up to 3 occur; the batched remainders must give
    # exactly the trial-division list, in the same order
    rng = random.Random(field.q)
    for _ in range(4):
        f = Polynomial.one(field)
        for deg in rng.choices((1, 1, 2, 3), k=rng.randrange(1, 5)):
            f = f * Polynomial(field, [rng.randrange(field.q)
                                       for _ in range(deg)] + [1])
        f = f.scale(rng.randrange(1, field.q))
        for dmax in range(4):
            want = [Polynomial.one(field)] + [
                cand for d in range(1, min(dmax, f.degree()) + 1)
                for cand in monic_polys(field, d) if cand.divides(f)]
            assert bounded_monic_divisors(f, dmax) == want


coeff_lists = st.lists(st.integers(0, 6), max_size=6)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(a, b, c):
    pa, pb, pc = P(*a), P(*b), P(*c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert (pa * pb) * pc == pa * (pb * pc)


@given(coeff_lists, coeff_lists)
def test_divmod_invariant(a, b):
    pa, pb = P(*a), P(*b)
    if pb.is_zero():
        return
    q, r = divmod(pa, pb)
    assert q * pb + r == pa
    assert r.degree() < pb.degree()
