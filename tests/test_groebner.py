import pytest
from hypothesis import given, settings, strategies as st

from rsmld.bivar import ProjectivePoint
from rsmld.code import RSCode, Word, corrupt, random_word
from rsmld.fields import Field
from rsmld.groebner import (GroebnerPair, ModuleVector, WeightedOrder,
                            _koetter_rows, _reduced_pair, decoder_order,
                            interpolation_generators,
                            leading, mgb_euclid, mgb_euclid_reencoded,
                            mgb_iterative, mgb_iterative_reencoded,
                            syndrome_pair)
from rsmld.division import reencode
from rsmld.polys import Polynomial, lagrange_interpolate, vanishing_poly
from rsmld.rng import XorShift64Star

F7 = Field(7)


def test_weighted_order_top():
    # weights (0, 2): x^3 in position 1 and x in position 2 tie at weighted
    # degree 3; ties go to the higher position.
    order = WeightedOrder((0, 2))
    assert order.wdeg(3, 1) == 3
    assert order.wdeg(1, 2) == 3
    assert order.key(3, 1) < order.key(1, 2)
    assert order.key(1, 2) > order.key(3, 1)
    assert order.key(4, 1) > order.key(1, 2)
    assert order.key(2, 2) == order.key(2, 2)
    with pytest.raises(ValueError):
        order.key(1, 3)


def test_leading_monomial():
    order = WeightedOrder((0, 4))
    v = ModuleVector(Polynomial(F7, [3, 5, 1, 5]), Polynomial(F7, [6, 1]))
    lead = leading(order, v)
    assert (lead.position, lead.exponent, lead.wdeg, lead.coeff) == (2, 1, 5, 1)
    with pytest.raises(ValueError):
        leading(order, ModuleVector(Polynomial.zero(F7), Polynomial.zero(F7)))


def test_generators_span_the_module():
    code = RSCode(F7, 7, 5)
    r = Word(code, (3, 2, 6, 3, 4, 2, 4))
    gen_pi, gen_lag = interpolation_generators(code, r)
    assert gen_pi.f1 == vanishing_poly(F7, code.eval_points)
    assert gen_pi.f2.is_zero()
    assert gen_lag.f1.coeffs == [3, 5, 6, 4, 4, 4, 4]
    assert gen_lag.f2.coeffs == [6]
    # both satisfy f1(x_i) + r_i f2(x_i) = 0
    for g in (gen_pi, gen_lag):
        for x, s in zip(code.eval_points, r.symbols):
            assert F7.add(g.f1.evaluate(x), F7.mul(s, g.f2.evaluate(x))) == 0


def _check_minimal_basis(code, r, pair):
    assert pair.ell1 + pair.ell2 == code.n + code.k - 1
    lead1 = leading(pair.order, pair.g1)
    lead2 = leading(pair.order, pair.g2)
    assert (lead1.position, lead2.position) == (1, 2)
    assert lead1.coeff == 1 and lead2.coeff == 1
    # every element satisfies the interpolation constraints
    syms = r.symbols if isinstance(r, Word) else r
    for g in (pair.g1, pair.g2):
        for x, s in zip(code.eval_points, syms):
            assert code.field.add(g.f1.evaluate(x),
                                  code.field.mul(s, g.f2.evaluate(x))) == 0


def test_worked_example_basis():
    code = RSCode(F7, 7, 5)
    r = Word(code, (3, 2, 6, 3, 4, 2, 4))
    pair = mgb_iterative(code, r)
    assert (pair.ell1, pair.ell2) == (6, 5)
    assert pair.g2.f1.coeffs == [3, 5, 1, 5]
    assert pair.g2.f2.coeffs == [6, 1]
    _check_minimal_basis(code, r, pair)
    assert pair == mgb_euclid(code, r)
    # the generators lie in the span of the basis: solving
    # v = a*g1 + b*g2 by Cramer's rule over F[x] divides exactly
    g1, g2 = pair.g1, pair.g2
    det = g1.f1 * g2.f2 - g1.f2 * g2.f1

    def in_span(v):
        a_num = v.f1 * g2.f2 - v.f2 * g2.f1
        b_num = g1.f1 * v.f2 - g1.f2 * v.f1
        return det.divides(a_num) and det.divides(b_num)

    assert all(in_span(gen) for gen in interpolation_generators(code, r))
    assert not in_span(ModuleVector(Polynomial.one(F7), Polynomial.zero(F7)))


def test_codeword_case():
    # when r is a codeword, g2 = (-m, 1) and ell2 = k - 1
    code = RSCode(F7, 7, 4)
    m = Polynomial(F7, [2, 0, 3, 1])
    r = code.encode(m)
    for engine in (mgb_euclid, mgb_iterative):
        pair = engine(code, r)
        assert pair.ell2 == code.k - 1
        assert pair.g2.f2 == Polynomial.one(F7)
        assert pair.g2.f1 == -m
        _check_minimal_basis(code, r, pair)


def test_zero_word():
    code = RSCode(F7, 7, 3)
    r = Word(code, (0,) * 7)
    for engine in (mgb_euclid, mgb_iterative):
        pair = engine(code, r)
        assert pair.ell2 == code.k - 1
        assert pair.g2.f1.is_zero()
        assert pair.g2.f2 == Polynomial.one(F7)


def test_engines_agree_on_random_words():
    for code in (RSCode(F7, 7, 2), RSCode(F7, 7, 5),
                 RSCode(Field(2, 3), 8, 3), RSCode(Field(13), 13, 6)):
        for seed in range(25):
            r = random_word(code, seed)
            e = mgb_euclid(code, r)
            i = mgb_iterative(code, r)
            assert e == i, (code.n, code.k, seed)
            _check_minimal_basis(code, r, i)


@pytest.mark.parametrize("field, n, k", [
    (Field(2, 8), 255, 223),   # Koetter's x-width doubles at w = 222
    (Field(31), 31, 15),
    (Field(2**31 - 1), 24, 4),
    (Field(4294967291), 24, 4),
    (Field(2**61 - 1), 24, 8),  # rows past int64 products: Python ints
], ids=["255-223-gf256", "31-15-gf31", "24-4-mersenne31", "24-4-p32",
        "24-8-mersenne61"])
def test_engines_agree_at_benchmark_sizes(field, n, k):
    code = RSCode(field, n, k)
    rng = XorShift64Star(n)
    words = [random_word(code, n)]
    for t in (code.classical_radius(), code.classical_radius() + 1, n - k):
        msg = [rng.below(field.q) for _ in range(k)]
        words.append(corrupt(code.encode(msg), t, rng.next_u64()))
    for r in words:
        direct = mgb_iterative(code, r)
        assert direct == mgb_euclid(code, r)
        _check_minimal_basis(code, r, direct)
        enc = reencode(code, r)
        short = mgb_iterative_reencoded(code, enc.y)
        assert short == mgb_euclid_reencoded(code, enc.y)
        assert short.ell2 + k - 1 == direct.ell2


def _scalar_euclid_rows(top, bottom, weight2):
    """The remainder sequence on `Polynomial` rows, each step's f1
    recomputed as prev.f1 - q*cur.f1, stopping as soon as the newer row
    leads in position 2."""
    prev, cur = top, bottom
    while cur.f2.degree() + weight2 < cur.f1.degree():
        q = prev.f1 // cur.f1
        prev, cur = cur, ModuleVector(prev.f1 - q * cur.f1,
                                      prev.f2 - q * cur.f2)
    return [prev, cur]


def _scalar_reduced(order, rows):
    """Reference reduced basis of a minimal basis given as `ModuleVector`s:
    each row monic, then g1 reduced modulo g2 and g2 modulo g1 by one
    `Polynomial` division each."""
    g1, g2 = sorted(rows, key=lambda v: leading(order, v).position)

    def monic(v):
        inv = v.field.inv(leading(order, v).coeff)
        return ModuleVector(v.f1.scale(inv), v.f2.scale(inv))

    def minus_multiple(v, q, g):
        return ModuleVector(v.f1 - q * g.f1, v.f2 - q * g.f2)

    g1, g2 = monic(g1), monic(g2)
    g1 = minus_multiple(g1, g1.f2 // g2.f2, g2)
    g2 = minus_multiple(g2, g2.f1 // g1.f1, g1)
    return g1, g2


def _short_generators(code, y):
    """(Pi_y, 0) and (L_y, -1) of the short module, by Newton interpolation
    of y_j / G(x_j) at the first n - k points and 0 at the next one."""
    F, nk = code.field, code.n - code.k
    short = code.eval_points[:nk + 1]
    g = vanishing_poly(F, code.eval_points[nk + 1:])
    values = [F.div(v, g.evaluate(x)) for x, v in zip(short, y)] + [0]
    return (ModuleVector(vanishing_poly(F, short), Polynomial.zero(F)),
            ModuleVector(lagrange_interpolate(F, short, values),
                         Polynomial.constant(F, F.neg(1))))


@pytest.mark.parametrize("field, n, k", [
    (Field(2, 8), 255, 223),
    (Field(31), 31, 15),
    (Field(2**31 - 1), 24, 4),
    (Field(4294967291), 24, 4),
    (Field(2**61 - 1), 24, 8),
    (F7, 7, 3),
    (F7, 7, 1),
    (F7, 7, 6),
    (Field(2, 3), 8, 3),
    (Field(2, 3), 8, 1),
    (Field(2, 3), 8, 7),
], ids=["255-223-gf256", "31-15-gf31", "24-4-mersenne31", "24-4-p32",
        "24-8-mersenne61", "7-3-gf7", "7-1-gf7", "7-6-gf7", "8-3-gf8",
        "8-1-gf8", "8-7-gf8"])
def test_euclid_rows_match_scalar_sequence(field, n, k):
    # the reduced basis from the row reduction equals the scalar remainder
    # sequence on the same generators, made monic and inter-reduced
    code = RSCode(field, n, k)
    rng = XorShift64Star(n + k)
    msg = [rng.below(field.q) for _ in range(k)]
    words = [random_word(code, n), Word(code, (0,) * n), code.encode(msg)]
    for t in (1, code.classical_radius() + 1, n - k):
        words.append(corrupt(code.encode(msg), t, rng.next_u64()))

    def check(pair, gens, order):
        want = _scalar_reduced(order, _scalar_euclid_rows(*gens,
                                                          order.weights[1]))
        assert (pair.g1, pair.g2) == want
        assert (pair.ell1, pair.ell2) == \
            tuple(leading(order, v).wdeg for v in want)
        assert pair.order == order

    for r in words:
        check(mgb_euclid(code, r), interpolation_generators(code, r),
              decoder_order(code))
        y = reencode(code, r).y
        check(mgb_euclid_reencoded(code, y), _short_generators(code, y),
              WeightedOrder((0, 0)))


@st.composite
def module_cases(draw):
    """A word of a small code, with the generators, the points and the order
    of its full module or of its short (re-encoded) module, and a row
    index i, a nonzero c and an exponent j."""
    field = draw(st.sampled_from([F7, Field(5), Field(2, 2), Field(2, 3),
                                    Field(2**61 - 1)]))
    n = draw(st.integers(2, min(7, field.q)))
    k = draw(st.integers(1, n - 1))
    code = RSCode(field, n, k)
    r = Word(code, tuple(draw(st.lists(st.integers(0, field.q - 1),
                                       min_size=n, max_size=n))))
    if draw(st.booleans()):
        module = (interpolation_generators(code, r), code.eval_points,
                  decoder_order(code))
    else:
        module = (_short_generators(code, reencode(code, r).y),
                  code.eval_points[:n - k + 1], WeightedOrder((0, 0)))
    return (field, *module, draw(st.integers(0, 1)),
            draw(st.integers(1, field.q - 1)), draw(st.integers(0, 3)))


@settings(max_examples=60, deadline=None)
@given(module_cases())
def test_reduction_independent_of_generating_pair(case):
    # the generators (V, 0), (L, -1) swapped, one of them plus c*x^j times
    # the other, and Koetter's rows on the anchors (x, L(x)) all span the
    # module and give the same pair; rows of rank < 2 raise
    field, gens, points, order, i, c, j = case

    def rows(vectors):
        return [(v.f1.coeffs, v.f2.coeffs) for v in vectors]

    def times(v, p):
        return ModuleVector(p * v.f1, p * v.f2)

    want = _reduced_pair(field, rows(gens), order)
    shift = Polynomial.monomial(field, c, j)
    mixed = list(gens)
    mixed[i] = ModuleVector(gens[i].f1 + shift * gens[1 - i].f1,
                            gens[i].f2 + shift * gens[1 - i].f2)
    anchors = [ProjectivePoint.finite(x, gens[1].f1.evaluate(x))
               for x in points]
    for other in (rows(gens[::-1]), rows(mixed),
                  _koetter_rows(field, anchors, order.weights[1])):
        assert _reduced_pair(field, other, order) == want
    zero = Polynomial.zero(field)
    for dependent in ([gens[i], times(gens[i], shift)],
                      [times(gens[i], shift), gens[i]],
                      [gens[i], ModuleVector(zero, zero)]):
        with pytest.raises(ArithmeticError):
            _reduced_pair(field, rows(dependent), order)


def euclid_syndrome_pair(code, syndromes):
    """`syndrome_pair` as the Euclidean reduction: (x^(n-k), 0) and (S~, 1),
    S~ = sum_j S_j x^(n-k-1-j), reduced under the (1, 0)-weighted order,
    g1 negated and k - 1 added to each ell."""
    nk = code.n - code.k
    rows = [([0] * nk + [1], []), (syndromes[::-1].tolist(), [1])]
    pair = _reduced_pair(code.field, rows, WeightedOrder((1, 0)))
    return GroebnerPair(ModuleVector(-pair.g1.f1, -pair.g1.f2), pair.g2,
                        pair.ell1 + code.k - 1, pair.ell2 + code.k - 1,
                        pair.order)


@st.composite
def syndrome_cases(draw):
    """A code and a vector of F^(n-k), the syndromes of some word: H^T has
    full rank n - k."""
    field = draw(st.sampled_from([F7, Field(2, 4), Field(2, 8),
                                  Field(2**31 - 1), Field(2**61 - 1)]))
    n = draw(st.integers(2, min(24, field.q)))
    code = RSCode(field, n, draw(st.integers(1, n - 1)))
    values = st.integers(0, field.q - 1)
    syndromes = draw(st.lists(st.one_of(st.just(0), values),
                              min_size=n - code.k, max_size=n - code.k))
    return code, code.constants().arrays.array(syndromes)


@settings(max_examples=150, deadline=None)
@given(syndrome_cases())
def test_syndrome_pair_is_the_euclidean_reduction(case):
    # Berlekamp-Massey's pair is the reduction's on any syndromes, on GF(p)
    # and GF(2^m); GF(2^31 - 1) takes dot's digit-split int64 product and
    # GF(2^61 - 1) the object-dtype arrays
    code, syndromes = case
    assert syndrome_pair(code, syndromes) == \
        euclid_syndrome_pair(code, syndromes)


def test_order_of_decoder():
    code = RSCode(F7, 7, 5)
    order = decoder_order(code)
    assert order.weights == (0, 4)
    # term over position: a weighted-degree tie goes to position 2
    assert order.key(4, 1) < order.key(0, 2)


def test_reencoding_multiplier_splits_vanishing():
    # Pi = Pi_y * G, with G over the last k - 1 points: the identity that
    # lets the short module's matrix carry the 1 / G(x_j)
    code = RSCode(F7, 7, 5)
    consts = code.constants()
    g = vanishing_poly(F7, code.eval_points[code.n - code.k + 1:])
    assert g.degree() == code.k - 1
    assert consts.short_vanishing * g == consts.vanishing


def test_reencoded_generators_satisfy_short_constraints():
    code = RSCode(F7, 7, 4)
    r = Word(code, (3, 2, 6, 3, 2, 2, 4))
    enc = reencode(code, r)
    # the shift agrees with r on the last k points
    for x, s in zip(code.eval_points[code.n - code.k:],
                    r.symbols[code.n - code.k:]):
        assert enc.shift.evaluate(x) == s
    assert all(v == 0 for v in enc.y[code.n - code.k:])
    # the reduced basis generates the short module: both elements meet its
    # constraints at the first n - k points and vanish at the next one
    basis = mgb_euclid_reencoded(code, enc.y)
    gens = (basis.g1, basis.g2)
    g_mult = vanishing_poly(F7, code.eval_points[code.n - code.k + 1:])
    head = code.eval_points[:code.n - code.k]
    x_star = code.eval_points[code.n - code.k]
    for g in gens:
        for x, y in zip(head, enc.y):
            v = F7.div(y, g_mult.evaluate(x))
            assert F7.add(g.f1.evaluate(x), F7.mul(v, g.f2.evaluate(x))) == 0
        assert g.f1.evaluate(x_star) == 0


def test_reencoded_engines_agree_and_lift():
    for code in (RSCode(F7, 7, 4), RSCode(Field(2, 4), 15, 5)):
        for seed in range(15):
            r = random_word(code, seed)
            enc = reencode(code, r)
            a = mgb_euclid_reencoded(code, enc.y)
            b = mgb_iterative_reencoded(code, enc.y)
            assert a == b, (code.n, code.k, seed)
            # short degrees sum to n - k + 1
            assert a.ell1 + a.ell2 == code.n - code.k + 1
            # lifted degrees match the degrees of the direct basis
            direct = mgb_iterative(code, r)
            assert a.ell1 + code.k - 1 == direct.ell1
            assert a.ell2 + code.k - 1 == direct.ell2


def test_mismatched_word_rejected():
    code = RSCode(F7, 7, 5)
    other = RSCode(F7, 7, 4)
    with pytest.raises(ValueError):
        mgb_iterative(code, random_word(other, 0))
    with pytest.raises(ValueError):
        mgb_euclid(code, [1, 2, 3])
    for engine in (mgb_euclid, mgb_iterative):
        with pytest.raises(ValueError, match="not a canonical element"):
            engine(code, [9, 1, 2, 3, 4, 5, 6])


@pytest.mark.parametrize("field", [F7, Field(2, 3)], ids=["gf7", "gf8"])
def test_reencoded_engines_reject_out_of_range_symbols(field):
    code = RSCode(field, 7, 3)
    good = [1, 0, 2, 5]
    assert mgb_iterative_reencoded(code, good) == \
        mgb_euclid_reencoded(code, good)
    for bad in (field.q, -1, 2 * field.q + 1):
        for engine in (mgb_iterative_reencoded, mgb_euclid_reencoded):
            with pytest.raises(ValueError, match="not a canonical element"):
                engine(code, [1, bad, 2, 5])
