import numpy as np
import pytest

from rsmld import bivar
from rsmld.bivar import (BivariatePolynomial, ProjectivePoint,
                         hasse_constraints, hasse_derivative_value,
                         koetter_candidates, koetter_interpolate)
from rsmld.code import RSCode, Word, corrupt
from rsmld.fields import Field
from rsmld.groebner import mgb_iterative
from rsmld.polys import Polynomial
from rsmld.rational import anchor_points
from rsmld.rng import XorShift64Star

F7 = Field(7)


def B(coeffs):
    return BivariatePolynomial(F7, coeffs)


def test_construction_and_degrees():
    q = B({(0, 0): 3, (2, 1): 4, (1, 3): 0})
    assert q.coeffs == {(0, 0): 3, (2, 1): 4}
    assert q.xdeg() == 2
    assert q.zdeg() == 1
    assert q.wdeg(2) == 4       # x^2 z has weighted degree 2 + 1*2
    assert not q.is_zero()
    z = B({})
    assert z.is_zero()
    with pytest.raises(ValueError):
        z.wdeg(1)


def test_slices_and_reversal():
    # Q = (3 + x) + (2x^2) z + 5 z^3
    q = B({(0, 0): 3, (1, 0): 1, (2, 1): 2, (0, 3): 5})
    assert q.slice_z(0) == Polynomial(F7, [3, 1])
    assert q.slice_z(1) == Polynomial(F7, [0, 0, 2])
    assert q.slice_z(2).is_zero()
    assert q.slice_z(3) == Polynomial(F7, [5])
    rev = q.z_reverse(3)
    assert rev.slice_z(0) == Polynomial(F7, [5])
    assert rev.slice_z(3) == Polynomial(F7, [3, 1])
    assert rev.slice_z(2) == Polynomial(F7, [0, 0, 2])
    # reversing with headroom pads from the top
    rev4 = q.z_reverse(4)
    assert rev4.slice_z(1) == Polynomial(F7, [5])
    assert rev4.slice_z(4) == Polynomial(F7, [3, 1])
    with pytest.raises(ValueError):
        q.z_reverse(2)


def test_evaluate():
    q = B({(0, 0): 3, (1, 1): 1, (0, 2): 2})  # 3 + xz + 2z^2
    assert q.evaluate(0, 0) == 3
    assert q.evaluate(2, 3) == (3 + 6 + 18) % 7
    assert B({}).evaluate(4, 5) == 0


def test_hasse_constraints():
    assert hasse_constraints(1) == [(0, 0)]
    cs = hasse_constraints(3)
    assert len(cs) == 6
    assert set(cs) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    # graded: total order never decreases
    totals = [u + v for u, v in cs]
    assert totals == sorted(totals)


def _shifted_coefficient(q, u, v, a, b):
    """Coefficient of x^u z^v in Q(x + a, z + b), by direct expansion."""
    F = q.field
    acc = {}
    for (i, j), c in q.coeffs.items():
        # (x + a)^i via repeated multiplication
        xa = Polynomial.one(F)
        for _ in range(i):
            xa = xa * Polynomial(F, [a, 1])
        zb = Polynomial.one(F)
        for _ in range(j):
            zb = zb * Polynomial(F, [b, 1])
        for e1, c1 in enumerate(xa.coeffs):
            for e2, c2 in enumerate(zb.coeffs):
                key = (e1, e2)
                acc[key] = F.add(acc.get(key, 0), F.mul(c, F.mul(c1, c2)))
    return acc.get((u, v), 0)


def test_hasse_derivative_matches_shift_expansion():
    q = B({(0, 0): 1, (3, 0): 2, (1, 1): 3, (2, 2): 4, (0, 3): 6})
    for a in range(7):
        for b in (0, 2, 5):
            for u in range(4):
                for v in range(4):
                    assert hasse_derivative_value(q, u, v, a, b) == \
                        _shifted_coefficient(q, u, v, a, b), (a, b, u, v)


def test_hasse_derivative_binary_field():
    F16 = Field(2, 4)
    q = BivariatePolynomial(F16, {(2, 0): 7, (1, 1): 9, (0, 2): 1})
    for a in (0, 1, 5, 11):
        for b in (0, 3, 14):
            for u in range(3):
                for v in range(3):
                    got = hasse_derivative_value(q, u, v, a, b)
                    want = _shifted_coefficient(q, u, v, a, b)
                    assert got == want


def test_projective_points():
    p = ProjectivePoint.finite(3, 5)
    assert not p.is_infinite
    inf = ProjectivePoint.infinity(2)
    assert inf.is_infinite


def _replay_constraints(field, q, anchors, s, M):
    for pt in anchors:
        if pt.is_infinite:
            target = q.z_reverse(M)
            zval = 0
        else:
            target = q
            zval = field.div(pt.z_num, pt.z_den)
        for u, v in hasse_constraints(s):
            assert hasse_derivative_value(target, u, v, pt.x, zval) == 0, \
                (pt, u, v)


def test_koetter_simple_fit():
    # fit z = m(x) through all 7 points of a curve: Q must vanish on them
    code = RSCode(F7, 7, 5)
    m = Polynomial(F7, [3, 1, 2])
    anchors = [ProjectivePoint.finite(x, m.evaluate(x)) for x in range(7)]
    q = koetter_interpolate(F7, anchors, s=1, M=1, w=2, rho=6)
    assert not q.is_zero()
    assert q.zdeg() <= 1
    assert q.wdeg(2) <= 6
    _replay_constraints(F7, q, anchors, 1, 1)
    # z - m(x) must divide Q, so substituting z = m(x) gives zero
    total = Polynomial.zero(F7)
    for j in range(q.zdeg() + 1):
        term = q.slice_z(j)
        for _ in range(j):
            term = term * m
        total = total + term
    assert total.is_zero()


def test_koetter_multiplicity_two():
    anchors = [ProjectivePoint.finite(x, (2 * x + 1) % 7) for x in range(5)]
    q = koetter_interpolate(F7, anchors, s=2, M=3, w=1, rho=None)
    _replay_constraints(F7, q, anchors, 2, 3)
    assert q.zdeg() <= 3


def test_koetter_with_infinite_anchors():
    anchors = [ProjectivePoint.finite(0, 2), ProjectivePoint.infinity(1),
               ProjectivePoint.finite(2, 5), ProjectivePoint.infinity(3),
               ProjectivePoint.finite(4, 0)]
    q = koetter_interpolate(F7, anchors, s=2, M=2, w=0, rho=None)
    assert not q.is_zero()
    _replay_constraints(F7, q, anchors, 2, 2)


def test_koetter_wdeg_cap_violation_raises():
    # an impossible cap must be flagged, not silently ignored
    anchors = [ProjectivePoint.finite(x, x % 7) for x in range(7)]
    with pytest.raises(ArithmeticError):
        koetter_interpolate(F7, anchors, s=3, M=1, w=5, rho=0)


def test_koetter_on_decoder_anchors():
    code = RSCode(F7, 7, 4)
    r = Word(code, (3, 2, 6, 3, 2, 2, 4))
    pair = mgb_iterative(code, r)
    anchors = anchor_points(code, pair)
    assert len(anchors) == code.n
    q = koetter_interpolate(F7, anchors, s=1, M=2, w=0, rho=None)
    _replay_constraints(F7, q, anchors, 1, 2)


def _reference_koetter(field, anchors, s, M, w):
    """Koetter's update on sparse {(i, j): coeff} candidates, one
    discrepancy at a time: the scalar reference for the array version.
    Returns every final candidate, the x-exponents of their leading
    monomials and the number of constraints that every candidate met."""
    F = field
    cands = [{(0, j): 1} for j in range(M + 1)]
    lmx = [0] * (M + 1)
    skipped = 0

    def order_key(j):
        return (lmx[j] + j * w, j)

    for pt in anchors:
        x = pt.x
        for u, v in hasse_constraints(s):
            deltas = []
            for g in cands:
                if pt.is_infinite:
                    target = BivariatePolynomial(F, g).z_reverse(M)
                    deltas.append(hasse_derivative_value(target, u, v, x, 0))
                else:
                    deltas.append(hasse_derivative_value(
                        BivariatePolynomial(F, g), u, v, x, pt.z_num))
            hit = [j for j, dj in enumerate(deltas) if dj]
            if not hit:
                skipped += 1
                continue
            jstar = min(hit, key=order_key)
            dstar, gstar = deltas[jstar], cands[jstar]
            for j in hit:
                if j != jstar:
                    merged = {m: F.mul(dstar, c) for m, c in cands[j].items()}
                    for m, c in gstar.items():
                        merged[m] = F.sub(merged.get(m, 0), F.mul(deltas[j], c))
                    cands[j] = {m: c for m, c in merged.items() if c}
            promoted = {}
            for (i, j), c in gstar.items():
                promoted[(i + 1, j)] = F.add(promoted.get((i + 1, j), 0), c)
                promoted[(i, j)] = F.sub(promoted.get((i, j), 0), F.mul(x, c))
            cands[jstar] = {m: c for m, c in promoted.items() if c}
            lmx[jstar] += 1
    return [BivariatePolynomial(F, g) for g in cands], lmx, skipped


def _reference_fit(field, anchors, s, M, w):
    """The smallest of the reference's final candidates."""
    cands, lmx, _ = _reference_koetter(field, anchors, s, M, w)
    return cands[min(range(M + 1), key=lambda j: (lmx[j] + j * w, j))]


def _from_slices(rows):
    """{(i, j): c} from per-z-degree coefficient lists, low x-degree first."""
    return {(i, j): c for j, row in enumerate(rows)
            for i, c in enumerate(row) if c}


def test_koetter_pinned_two_error_example():
    # the distance-2 fit of the GF(7) two-error example; Q is the output of
    # the dict-based implementation, coefficient for coefficient
    code = RSCode(F7, 7, 4)
    r = Word(code, (3, 2, 6, 3, 2, 2, 4))
    anchors = anchor_points(code, mgb_iterative(code, r))
    assert any(pt.is_infinite for pt in anchors)
    q = koetter_interpolate(F7, anchors, s=1, M=3, w=0, rho=1)
    assert q.coeffs == _from_slices([[], [4, 5], [4, 5], [4, 5]])


PINNED_15_5_FIT = [
    [1, 7, 14, 3, 5, 9, 5, 3, 4, 10, 14, 1, 3, 7, 3, 1, 6, 2, 3],
    [4, 1, 12, 2, 6, 6, 6, 5, 10, 12, 1, 2, 13, 5, 12, 9, 11, 10, 9, 1],
    [9, 13, 12, 3, 14, 0, 15, 8, 15, 3, 0, 11, 13, 5, 8, 2, 6, 11, 3, 0, 5],
    [8, 1, 3, 1, 11, 11, 7, 0, 3, 14, 10, 1, 7, 7, 15, 9, 13, 3, 12, 10, 3, 1],
    [4, 10, 0, 7, 14, 13, 10, 0, 9, 9, 7, 11, 11, 2, 10, 3, 8, 7, 1, 2, 14, 5,
     11],
    [7, 9, 12, 4, 2, 8, 1, 3, 0, 9, 8, 6, 12, 7, 8, 5, 2, 9, 8, 13, 12, 6, 10,
     3],
    [3, 0, 13, 3, 15, 2, 8, 7, 8, 10, 0, 15, 12, 6, 0, 5, 1, 5, 12, 13, 1, 8, 3,
     8, 13],
    [0, 8, 9, 3, 9, 6, 4, 12, 1, 10, 12, 8, 3, 10, 0, 10, 6, 12, 6, 5, 9, 15,
     12, 11, 5, 8],
    [7, 10, 9, 4, 2, 4, 5, 11, 3, 2, 3, 10, 5, 12, 15, 0, 13, 12, 15, 2, 4, 9,
     3, 9, 12, 4, 13],
    [1, 2, 5, 0, 0, 6, 4, 4, 4, 3, 1, 10, 14, 0, 0, 12, 14, 1, 5, 14, 3, 10, 2,
     13, 5, 3, 2, 8],
    [10, 9, 14, 4, 10, 11, 10, 6, 15, 10, 7, 11, 14, 10, 2, 15, 11, 15, 10, 12,
     13, 6, 3, 3, 12, 9, 5, 7, 15],
    [15, 8, 1, 4, 4, 6, 8, 14, 2, 12, 8, 11, 12, 7, 9, 12, 1, 0, 1, 6, 3, 13, 2,
     5, 15, 14, 1, 6, 0, 3],
    [2, 14, 9, 0, 12, 14, 3, 8, 11, 13, 15, 15, 3, 13, 15, 9, 5, 12, 12, 3, 4,
     3, 5, 15, 6, 0, 7, 1, 12, 1, 13],
    [15, 4, 9, 10, 4, 1, 13, 14, 11, 0, 6, 14, 12, 11, 6, 4, 12, 8, 7, 15, 12,
     7, 8, 9, 10, 1, 0, 6, 12, 11, 15],
    [15, 4, 1, 13, 13, 9, 1, 8, 14, 5, 11, 10, 6, 2, 9, 3, 0, 5, 13, 11, 15, 8,
     4, 5, 7, 2, 5, 1, 5, 4, 1, 4],
    [8, 1, 7, 10, 5, 5, 0, 8, 6, 9, 5, 0, 14, 4, 3, 10, 11, 10, 4, 11, 8, 15,
     12, 1, 15, 13, 2, 10, 0, 0, 7, 0, 9],
]


def test_koetter_pinned_large_fit():
    # the (s=7, M=15) fit of a (15,5) word with 7 errors over GF(16), three
    # anchors at infinity; Q is the output of the dict-based implementation
    F16 = Field(2, 4)
    code = RSCode(F16, 15, 5)
    r = corrupt(code.encode([1, 3, 7, 2, 9]), 7, seed=42)
    anchors = anchor_points(code, mgb_iterative(code, r))
    assert sum(pt.is_infinite for pt in anchors) == 3
    q = koetter_interpolate(F16, anchors, s=7, M=15, w=-1, rho=18)
    assert q.coeffs == _from_slices(PINNED_15_5_FIT)


@pytest.mark.parametrize("field", [Field(7), Field(2, 3), Field(2**31 - 1),
                                   Field(4294967291)])
def test_koetter_matches_reference(field):
    # 2^31 - 1: products fit int64 but sums of them do not;
    # 4294967291 (largest prime below 2^32): not even the products fit
    rng = XorShift64Star(field.q)
    n = min(field.q, 7)
    for s, M, w in [(1, 2, 0), (2, 3, 1), (2, 2, -1), (3, 4, -2)]:
        xs = []
        while len(xs) < n:
            x = rng.below(field.q)
            if x not in xs:
                xs.append(x)
        anchors = [ProjectivePoint.infinity(x) if rng.below(4) == 0
                   else ProjectivePoint.finite(x, rng.below(field.q))
                   for x in xs]
        q = koetter_interpolate(field, anchors, s, M, w)
        assert q == _reference_fit(field, anchors, s, M, w), (s, M, w)
        _replay_constraints(field, q, anchors, s, M)


def test_koetter_line_over_large_prime():
    # three points on z = a + b x, one constraint each: the smallest
    # interpolant under (1, 1) weights is the line itself, up to a scalar
    F = Field(2**31 - 1)
    a, b = 2**31 - 5, 2**30 + 7
    xs = (2**31 - 2, 3, 2**29)
    anchors = [ProjectivePoint.finite(x, F.add(a, F.mul(b, x))) for x in xs]
    q = koetter_interpolate(F, anchors, s=1, M=1, w=1)
    c = q.coeffs[(0, 1)]
    assert q.coeffs == {(0, 1): c, (0, 0): F.mul(c, F.neg(a)),
                        (1, 0): F.mul(c, F.neg(b))}


@pytest.mark.parametrize("field", [Field(7), Field(2, 3), Field(2**31 - 1),
                                   Field(4294967291)])
def test_koetter_candidates_match_reference(field):
    # every one of the M + 1 final candidates and its leading x-exponent,
    # not only the smallest: mgb_iterative reads both of its candidates.
    # The anchors include x = 0 and points at infinity, and end with a
    # repeat of the first: all candidates already meet its constraints
    rng = XorShift64Star(field.q)
    # (s, M, w, growths): the rows first hold the M|w| + 1 weighted degrees
    # up to the top lead's, and twice as many each time the top lead
    # outgrows them.  At w > 0 the high z-slices hold nothing at the low
    # weighted degrees, (2, 3, 2); (4, 5, -1) has 10 constraints per anchor
    for s, M, w, grows in [(1, 1, 0, 3), (2, 1, 0, 4), (2, 3, 1, 1),
                           (3, 2, -1, 3), (3, 4, -2, 1), (3, 1, 2, 3),
                           (2, 3, 2, 1), (4, 5, -1, 2)]:
        xs = [0]
        while len(xs) < min(field.q, 7):
            x = rng.below(field.q)
            if x not in xs:
                xs.append(x)
        anchors = [ProjectivePoint.infinity(x) if i % 3 == 1
                   else ProjectivePoint.finite(x, rng.below(field.q))
                   for i, x in enumerate(xs)]
        anchors.append(anchors[0])
        G, lmx = koetter_candidates(field, anchors, s, M, w)
        cands, want_lmx, skipped = _reference_koetter(field, anchors, s, M, w)
        assert skipped >= s * (s + 1) // 2, (s, M, w)
        assert lmx == want_lmx, (s, M, w)
        assert len(G) == M + 1
        for c, want in zip(G, cands):
            got = {(int(i), int(j)): int(c[j, i])
                   for j, i in zip(*np.nonzero(c))}
            assert BivariatePolynomial(field, got) == want, (s, M, w)
        # the fit outgrew its first allocation `grows` times
        top = max(l + c * w for c, l in enumerate(lmx))
        assert top - min(0, M * w) + 1 > (M * abs(w) + 1) * 2 ** (grows - 1), \
            (s, M, w, top)


@pytest.mark.parametrize("field", [Field(7), Field(2, 4), Field(4294967291)])
def test_koetter_candidates_with_per_anchor_tables(monkeypatch, field):
    # past TABLE_CELLS each anchor builds its own Hasse tables, as the
    # largest fits do: the same candidates, at every growth of the rows
    rng = XorShift64Star(field.q + 1)
    xs = list(dict.fromkeys(rng.below(field.q) for _ in range(20)))[:7]
    anchors = [ProjectivePoint.infinity(x) if i % 3 == 2
               else ProjectivePoint.finite(x, rng.below(field.q))
               for i, x in enumerate(xs)]
    for s, M, w in [(1, 2, -1), (3, 4, -1), (2, 3, 2)]:
        kept = koetter_candidates(field, anchors, s, M, w)
        monkeypatch.setattr(bivar, "TABLE_CELLS", 0)
        own = koetter_candidates(field, anchors, s, M, w)
        monkeypatch.undo()
        assert own[1] == kept[1]
        assert np.array_equal(own[0], kept[0]), (s, M, w)
