"""The per-code constants (`RSCode.constants`) and the array paths on them.

`RSCode.encode`, `division.reencode`, `interpolation_generators` (in
`helpers`) and the short module's generators are checked against the scalar
definitions they replaced: per-point Horner evaluation, and Newton
interpolation of the tail symbols, of the whole word or of the shifted
word.  The interpolation, short, tail and Vandermonde matrices and the
weighted powers are checked entry by entry against theirs, the point
powers against `Field.pow` and their products against
`Polynomial.evaluate`, and the decoders' basis from the syndromes
against `mgb_euclid`'s, against the Euclidean reduction of the
key-equation module and against the paper's re-encoded basis
(`mgb_euclid_reencoded`, lifted).
The products with the matrices kept as `FieldArrays.matrix_factors` are
checked against `dot` on their elements, on both sides of the product
table's cutoff.  The cache must hold nothing of a word.
"""

import numpy as np
import pytest

from rsmld.code import RSCode, Word, corrupt, random_word
from rsmld.division import (CandidateCheck, RadiusCapExceeded,
                            decode_minimal, decode_minimal_reencoded,
                            reencode)
from rsmld.fields import PRODUCT_TABLE_Q, Field
from rsmld.groebner import mgb_euclid, mgb_euclid_reencoded, syndrome_pair
from rsmld.polys import Polynomial, lagrange_interpolate, vanishing_poly
from rsmld.rational import decode_rational
from rsmld.rng import XorShift64Star
from helpers import interpolation_generators
from test_groebner import euclid_syndrome_pair

P31 = 2**31 - 1
P32 = 4294967291

CODES = [
    (Field(7), 7, 4, None),
    (Field(7), 5, 2, [3, 0, 6, 1, 5]),
    (Field(7), 6, 1, None),                      # k = 1: G = 1
    (Field(7), 7, 6, [6, 5, 4, 3, 2, 1, 0]),     # n - k = 1
    (Field(2, 4, 0b11001), 15, 5, list(range(15, 0, -1))),
    (Field(2, 4, 0b11001), 12, 5, [9, 0, 4, 13, 2, 7, 15, 1, 11, 6, 3, 8]),
    (Field(2, 8), 255, 223, None),
    (Field(2, 8), 40, 1, [(37 * i) % 256 for i in range(40)]),
    (Field(2, 8), 10, 9, None),                  # n - k = 1
    (Field(P31), 24, 4, [0] + [pow(7, 1 + 97 * i, P31) for i in range(23)]),
    (Field(P32), 12, 5, [0] + [pow(3, 1 + 11 * i, P32) for i in range(11)]),
    (Field(2, 9), 24, 10, [(37 * i) % 512 for i in range(24)]),  # past 256
]
IDS = ["gf7", "gf7-points", "gf7-k1", "gf7-nk1", "gf16-mod", "gf16-points",
       "gf256", "gf256-k1", "gf256-nk1", "mersenne31", "p32", "gf512"]
GF16_EDGES = [
    (Field(2, 4), 15, 14, None),                    # n - k = 1
    (Field(2, 4), 15, 1, list(range(14, -1, -1))),  # k = 1, the tail is x = 0
]
GF16_IDS = ["gf16-nk1", "gf16-k1"]


def _messages(code, seed):
    """The zero message, a short one and full-length random ones."""
    F, k = code.field, code.k
    rng = XorShift64Star(seed)
    full = [[rng.below(F.q) for _ in range(k)] for _ in range(3)]
    return [[], [F.q - 1]] + full + [[0] * (k - 1) + [1]]


def _lagrange_reencode(code, r):
    """Re-encoding as defined: Newton interpolation of the last k symbols,
    and the residuals at the first n - k points."""
    F, nk = code.field, code.n - code.k
    shift = lagrange_interpolate(F, code.eval_points[nk:], r.symbols[nk:])
    y = tuple(F.sub(s, shift.evaluate(x))
              for x, s in zip(code.eval_points[:nk], r.symbols[:nk]))
    return shift, y


def _multiplier(code):
    """G = prod (x - x_i) over the last k - 1 points (1 when k = 1)."""
    return vanishing_poly(code.field, code.eval_points[code.n - code.k + 1:])


@pytest.mark.parametrize("spec", CODES, ids=IDS)
def test_encode_matches_pointwise_evaluation(spec):
    code = RSCode(*spec)
    for coeffs in _messages(code, code.n):
        m = code.message_poly(coeffs)
        w = code.encode(m)
        assert w.symbols == tuple(m.evaluate(x) for x in code.eval_points)
        assert all(type(s) is int for s in w.symbols)


@pytest.mark.parametrize("spec", CODES, ids=IDS)
def test_reencode_matches_lagrange(spec):
    code = RSCode(*spec)
    rng = XorShift64Star(code.k)
    words = [Word(code, (0,) * code.n), random_word(code, code.n)]
    for coeffs in _messages(code, code.k)[1:3]:
        words.append(corrupt(code.encode(coeffs), min(code.n - code.k, 3),
                             rng.next_u64()))
    for r in words:
        enc = reencode(code, r)
        shift, y = _lagrange_reencode(code, r)
        assert enc.shift == shift
        assert enc.y == y and all(type(v) is int for v in enc.y)


@pytest.mark.parametrize("spec", CODES, ids=IDS)
def test_generators_match_lagrange(spec):
    # the remainder sequence's generators (Pi, 0), (L, -1) from the cached Pi
    # and weights, against Newton interpolation of the whole word; and the
    # short module's Pi_y and L_y = y . short matrix, against Newton
    # interpolation of y_j / G(x_j) at the first n - k points and 0 at the
    # next one
    code = RSCode(*spec)
    F, nk = code.field, code.n - code.k
    short = code.eval_points[:nk + 1]
    g = _multiplier(code)
    consts = code.constants()
    arr = consts.arrays
    assert consts.short_vanishing == vanishing_poly(F, short)
    for r in (Word(code, (0,) * code.n), random_word(code, code.k)):
        gen_pi, gen_lag = interpolation_generators(code, r)
        assert gen_pi.f1 == vanishing_poly(F, code.eval_points)
        assert gen_lag.f1 == lagrange_interpolate(F, code.eval_points, r.symbols)
        assert gen_lag.f2 == Polynomial.constant(F, F.neg(1))
        y = reencode(code, r).y
        values = [F.div(v, g.evaluate(x)) for x, v in zip(short, y)] + [0]
        short_lag = arr.dot(arr.array(y), consts.short_interpolation_matrix)
        assert Polynomial(F, short_lag.tolist()) == \
            lagrange_interpolate(F, short, values)


@pytest.mark.parametrize("decode", [
    decode_minimal, decode_minimal_reencoded, decode_rational,
], ids=["division", "reencoded", "rational"])
def test_second_decode_matches_fresh_code(decode):
    # the first decode builds the cache from another word; the second word
    # must decode as it does on a code that never saw the first
    for field, n, k, points, t in ((Field(7), 7, 4, [3, 0, 6, 1, 5, 2, 4], 2),
                                   (Field(2, 4), 15, 5, None, 5),
                                   (Field(31), 31, 15, None, 9)):
        code = RSCode(field, n, k, points)
        first = corrupt(code.encode([1] * k), t, seed=1)
        second = corrupt(code.encode(list(range(k))), t, seed=2)
        decode(code, first)
        again = decode(code, second)
        fresh_code = RSCode(field, n, k, points)
        fresh = decode(fresh_code, Word(fresh_code, second.symbols))
        assert (again.min_distance, again.messages, again.method,
                again.search_level, again.ell1, again.ell2) == \
            (fresh.min_distance, fresh.messages, fresh.method,
             fresh.search_level, fresh.ell1, fresh.ell2)


def _values(consts, factors):
    """The elements of a matrix the code keeps as
    `FieldArrays.matrix_factors`."""
    return consts.arrays.matrix_values(factors)


def _scalar_interpolator(F, points):
    """Row j: w_j times the quotient of prod (x - x_l) by (x - x_j), with
    w_j = 1 / prod_{l != j} (x_j - x_l), padded to len(points) entries."""
    vanishing = vanishing_poly(F, points)
    rows = []
    for xj in points:
        quot, rem = divmod(vanishing, Polynomial(F, [F.neg(xj), 1]))
        assert rem.is_zero()
        prod = 1
        for xl in points:
            if xl != xj:
                prod = F.mul(prod, F.sub(xj, xl))
        coeffs = quot.scale(F.inv(prod)).coeffs
        rows.append(coeffs + [0] * (len(points) - len(coeffs)))
    return rows


@pytest.mark.parametrize("spec", CODES, ids=IDS)
def test_matrices_match_scalar_definitions(spec):
    code = RSCode(*spec)
    F, pts, nk = code.field, code.eval_points, code.n - code.k
    consts = code.constants()
    for matrix, points in ((consts.interpolation_matrix, pts),
                           (_values(consts, consts.tail_matrix), pts[nk:])):
        assert matrix.shape == (len(points), len(points))
        assert matrix.tolist() == _scalar_interpolator(F, points)
    # the short module's rows at the first n - k points, each times 1 / G(x_j)
    g = _multiplier(code)
    short_rows = _scalar_interpolator(F, pts[:nk + 1])[:nk]
    assert consts.short_interpolation_matrix.shape == (nk, nk + 1)
    assert consts.short_interpolation_matrix.tolist() == \
        [[F.div(c, g.evaluate(x)) for c in row]
         for x, row in zip(pts, short_rows)]
    assert consts.vandermonde.shape == (code.k, code.n)
    assert consts.vandermonde.tolist() == \
        [[F.pow(x, e) for x in pts] for e in range(code.k)]
    weights = []
    for xi in pts:
        derivative = 1   # Pi'(x_i) = prod_{l != i} (x_i - x_l)
        for xl in pts:
            if xl != xi:
                derivative = F.mul(derivative, F.sub(xi, xl))
        weights.append(F.inv(derivative))
    assert _values(consts, consts.weighted_powers).tolist() == \
        [[F.mul(v, F.pow(x, j)) for j in range(nk)]
         for x, v in zip(pts, weights)]


@pytest.mark.parametrize("spec", CODES, ids=IDS)
def test_factor_products_match_values_dot(spec):
    # every product the decoders take with a matrix kept as
    # `FieldArrays.matrix_factors`, against `dot` on its entries: r . H^T,
    # r_tail . T, the first rows of the point powers, and the
    # check's rows of H^T and T at an erased set Z, with Forney's transposed
    # slice of H^T[Z] and its column 0; Z also empty, the contraction of a
    # codeword (t = 0).  Up to q = 256 the entries are offsets i*q + M[i, j]
    # into the product table's rows; past it (GF(2^9)) and on GF(p) they
    # are the elementwise factors, and with x = 0 among the points rows of
    # H^T hold zeros, whose factors are the sentinel on GF(2^m)
    code = RSCode(*spec)
    consts = code.constants()
    arr, nk, q = consts.arrays, code.n - code.k, code.field.q
    parity, tail = consts.weighted_powers, consts.tail_matrix
    powers = consts.point_powers
    if 0 in code.eval_points and nk > 1:
        assert not _values(consts, parity).all()
    for f in (parity, tail, powers):
        if arr.binary and q <= PRODUCT_TABLE_Q:
            assert (f == _values(consts, f)
                    + q * np.arange(len(f))[:, None]).all()
        else:
            assert (f == arr.factors(_values(consts, f))).all()
    rng = XorShift64Star(code.n + 4)
    message = [1] * code.k
    for r in (random_word(code, code.n), code.encode(message)):
        symbols = arr.array(r.symbols)
        syndromes = arr.dot_factors(symbols, parity)
        assert (syndromes == arr.dot(symbols, _values(consts, parity))).all()
        assert (arr.dot_factors(symbols[nk:], tail)
                == arr.dot(symbols[nk:], _values(consts, tail))).all()
        coeffs = arr.array([[rng.below(q) for _ in range(nk + 2)]
                            for _ in range(2)])
        for width in (0, 1, nk + 2):
            assert (arr.dot_factors(coeffs[:, :width], powers[:width])
                    == arr.dot(coeffs[:, :width],
                               _values(consts, powers[:width]))).all()
        for zeros in (np.arange(0, code.n, 2)[:nk], np.arange(0)):
            covered = zeros[zeros >= nk] - nk
            e = arr.array([rng.below(q) for _ in zeros])
            rows = _values(consts, parity)[zeros]
            t = len(zeros)
            assert (_values(consts, parity[zeros]) == rows).all()
            assert (_values(consts, parity[zeros, :t]).T
                    == rows[:, :t].T).all()
            assert (_values(consts, parity[zeros, 0]) == rows[:, 0]).all()
            for f, a, index in ((parity, e, zeros),
                                (tail, e[t - len(covered):], covered)):
                product = arr.dot_factors(a, f, index)
                assert product.shape == f.shape[1:]
                assert (product
                        == arr.dot(a, _values(consts, f)[index])).all()
    # the check itself on the codeword with nothing erased
    check = CandidateCheck(code, r)
    assert check(np.arange(0), 0) == code.message_poly(message)


@pytest.mark.parametrize("spec", CODES, ids=IDS)
def test_syndromes_vanish_exactly_on_codewords(spec):
    # r . H^T with H^T the weighted powers, kept as factors
    code = RSCode(*spec)
    consts = code.constants()
    arr, parity = consts.arrays, consts.weighted_powers
    rng = XorShift64Star(code.n + 1)
    for coeffs in _messages(code, code.n + 1):
        w = code.encode(coeffs)
        assert not arr.dot_factors(arr.array(w.symbols), parity).any()
        for weight in range(1, code.n - code.k + 1):
            r = corrupt(w, weight, rng.next_u64())
            assert arr.dot_factors(arr.array(r.symbols), parity).any()


@pytest.mark.parametrize("spec", CODES + GF16_EDGES, ids=IDS + GF16_IDS)
def test_syndrome_pair_matches_mgb_euclid(spec):
    # the decoders' pair from S = r . H^T: ell1, ell2 and g1.f2 are
    # mgb_euclid's, and g2.f2 is mgb_euclid's plus c * g1.f2 with
    # deg c <= ell2 - ell1; on the zero word, codewords, random words and
    # corrupted ones, one message at every weight 0..n.  The whole pair is
    # the Euclidean reduction of (x^(n-k), 0), (S~, 1), and the words reach
    # every branch of Berlekamp-Massey's: L = 0, 2L <= n - k and 2L > n - k
    # (only the first and last exist at n - k = 1).  Past the unique radius
    # a word's L is about (n - k) / 2, so at even n - k the last branch
    # needs x^k at the points: sum_i p(x_i) / Pi'(x_i) is p's x^(n-1)
    # coefficient, so its syndromes are (0, ..., 0, 1) and L = n - k
    code = RSCode(*spec)
    consts = code.constants()
    arr, nk = consts.arrays, code.n - code.k
    rng = XorShift64Star(code.n + 2)
    words = [Word(code, (0,) * code.n),
             Word(code, tuple(code.field.pow(x, code.k)
                              for x in code.eval_points))]
    top = arr.dot_factors(arr.array(words[1].symbols), consts.weighted_powers)
    assert top.tolist() == [0] * (nk - 1) + [1]
    words += [random_word(code, seed) for seed in (1, 2, 3)]
    for coeffs in _messages(code, code.n + 2):
        w = code.encode(coeffs)
        words.append(w)
        words += [corrupt(w, weight, rng.next_u64())
                  for weight in {1, (nk + 1) // 2, nk, code.n}]
    words += [corrupt(w, weight, rng.next_u64())
              for weight in range(code.n + 1)]
    branches = set()
    for r in words:
        syndromes = arr.dot_factors(arr.array(r.symbols),
                                    consts.weighted_powers)
        pair = syndrome_pair(code, syndromes)
        assert pair == euclid_syndrome_pair(code, syndromes)
        L = pair.ell2 - code.k + 1
        branches.add("L = 0" if not L else
                     "2L <= n - k" if 2 * L <= nk else "2L > n - k")
        full = mgb_euclid(code, r)
        assert (pair.ell1, pair.ell2) == (full.ell1, full.ell2)
        assert pair.g1.f2 == full.g1.f2
        diff = pair.g2.f2 - full.g2.f2
        if full.g1.f2.is_zero():  # r is a codeword: g2.f2 = 1
            assert diff.is_zero()
            continue
        c, rest = divmod(diff, full.g1.f2)
        assert rest.is_zero()
        assert c.is_zero() or c.degree() <= pair.ell2 - pair.ell1
    assert branches == ({"L = 0", "2L > n - k"} if nk == 1 else
                        {"L = 0", "2L <= n - k", "2L > n - k"})


@pytest.mark.parametrize("spec", CODES + GF16_EDGES, ids=IDS + GF16_IDS)
def test_reencoded_syndrome_pair_matches_mgb_euclid_reencoded(spec):
    # the pair that the re-encoded decoder searches is the syndrome pair,
    # and it is the paper's short basis of the re-encoded word y, lifted:
    # its ell's plus k - 1 are the pair's, its g1.f2 is the pair's times a
    # nonzero scalar, and its g2.f2 is the pair's plus c * g1.f2 with
    # deg c <= ell2 - ell1; on the zero word, random words, codewords
    # (y = 0) and corrupted ones.  Both decoders stop at the same level of
    # the same basis with the same messages (level 0 alone, which every
    # field here enumerates quickly)
    code = RSCode(*spec)
    consts = code.constants()
    arr, nk = consts.arrays, code.n - code.k
    rng = XorShift64Star(code.n + 3)
    words = [Word(code, (0,) * code.n)]
    words += [random_word(code, seed) for seed in (1, 2, 3)]
    for coeffs in _messages(code, code.n + 3):
        w = code.encode(coeffs)
        words.append(w)
        words += [corrupt(w, weight, rng.next_u64())
                  for weight in {1, (nk + 1) // 2, nk, code.n}]
    for r in words:
        syndromes = arr.dot_factors(arr.array(r.symbols),
                                    consts.weighted_powers)
        pair = syndrome_pair(code, syndromes)
        short = mgb_euclid_reencoded(code, reencode(code, r).y)
        assert (short.ell1 + code.k - 1, short.ell2 + code.k - 1) == \
            (pair.ell1, pair.ell2)
        first = pair.g1.f2
        assert short.g1.f2.is_zero() == first.is_zero()
        diff = short.g2.f2 - pair.g2.f2
        if first.is_zero():  # r is a codeword: both g2.f2 are 1
            assert diff.is_zero()
        else:
            assert short.g1.f2.monic() == first.monic()
            c, rest = divmod(diff, first)
            assert rest.is_zero()
            assert c.is_zero() or c.degree() <= pair.ell2 - pair.ell1
        try:
            direct = decode_minimal(code, r, j_cap=0)
        except RadiusCapExceeded:
            with pytest.raises(RadiusCapExceeded):
                decode_minimal_reencoded(code, r, j_cap=0)
            continue
        rerun = decode_minimal_reencoded(code, r, j_cap=0)
        assert rerun.method == "division-reencoded"
        assert (rerun.search_level, rerun.ell1, rerun.ell2,
                rerun.message_coeff_lists()) == \
            (direct.search_level, direct.ell1, direct.ell2,
             direct.message_coeff_lists())


def test_decoders_build_only_the_matrices_they_use():
    # cached_property keeps a built attribute in the instance __dict__; the
    # word is made on another code, so that its encoding builds nothing here
    source = RSCode(Field(2, 8), 255, 223)
    r = corrupt(source.encode([1, 2, 3]), 16, seed=4)
    for decode in (decode_minimal, decode_minimal_reencoded, decode_rational):
        code = RSCode(Field(2, 8), 255, 223)
        decode(code, Word(code, r.symbols))
        built = vars(code.constants())
        assert "weighted_powers" in built and "tail_matrix" in built
        assert "point_powers" in built
        assert "interpolation_matrix" not in built
        assert "vandermonde" not in built
        assert "short_interpolation_matrix" not in built


def test_field_and_code_build_no_product_table():
    # the benchmark's set-up times exactly these two builds; the per-code
    # matrices need no table either, only their first product does
    field = Field(2, 8)
    code = RSCode(field, 255, 223)
    arr = field.arrays()
    assert arr._products is None
    parity = code.constants().weighted_powers
    assert arr._products is None
    arr.dot_factors(arr.array(code.encode([1, 2]).symbols), parity)
    assert arr._products.shape == (256, 256)


def test_cache_leaves_equality_and_hash_alone():
    code = RSCode(Field(2, 4), 15, 5)
    before = hash(code)
    consts = code.constants()
    for name in ("points", "vanishing", "short_vanishing",
                 "interpolation_matrix", "short_interpolation_matrix",
                 "tail_matrix", "vandermonde",
                 "weighted_powers", "point_powers"):
        value = getattr(consts, name)
        if not isinstance(value, Polynomial):  # shared by every word
            assert not value.flags.writeable, name
    assert code.constants() is consts
    fresh = RSCode(Field(2, 4), 15, 5)
    assert code == fresh and hash(code) == before == hash(fresh)
    assert code != RSCode(Field(2, 4), 15, 5, list(range(1, 16)))
    assert Word(fresh, (0,) * 15).code == code


def test_point_powers_match_pow():
    # x = 0 is among the points: its row 0 entry is 0^0 = 1, the others 0,
    # whose factors are the sentinel on GF(2^m)
    code = RSCode(*CODES[IDS.index("gf16-points")])
    F, pts, nk = code.field, code.eval_points, code.n - code.k
    consts = code.constants()
    assert 0 in pts
    assert consts.point_powers.shape == (nk + 2, code.n)
    assert _values(consts, consts.point_powers).tolist() == \
        [[F.pow(x, e) for x in pts] for e in range(nk + 2)]


@pytest.mark.parametrize("spec", CODES, ids=IDS)
def test_values_at_points_match_evaluate(spec):
    # the zero polynomial, degree 0 and every degree up to n - k + 1, the
    # table's last row, in one product, and one at a time; with GF(2^m),
    # int64 GF(p), GF(2^31 - 1)'s digit-split `dot` and object-dtype
    # GF(4294967291) among the codes
    code = RSCode(*spec)
    F, nk = code.field, code.n - code.k
    consts = code.constants()
    rng = XorShift64Star(code.n + 5)
    polys = [Polynomial.zero(F), Polynomial.constant(F, F.q - 1)]
    polys += [Polynomial(F, [rng.below(F.q) for _ in range(d)]
                         + [1 + rng.below(F.q - 1)]) for d in range(nk + 2)]
    expect = [[p.evaluate(x) for x in code.eval_points] for p in polys]
    values = consts.values_at_points([p.coeffs for p in polys])
    assert values.shape == (len(polys), code.n)
    assert values.dtype == consts.arrays.dtype
    assert values.tolist() == expect
    for p, row in zip(polys, expect):
        assert consts.values_at_points([p.coeffs]).tolist() == [row]
    assert consts.values_at_points([]).shape == (0, code.n)
    with pytest.raises(ValueError):
        consts.values_at_points([[0] * (nk + 2) + [1]])


def test_constants_are_the_code_polynomials():
    code = RSCode(Field(2, 4, 0b11001), 12, 5,
                  [9, 0, 4, 13, 2, 7, 15, 1, 11, 6, 3, 8])
    F, pts, nk = code.field, code.eval_points, code.n - code.k
    consts = code.constants()
    assert consts.vanishing == vanishing_poly(F, pts)
    assert consts.short_vanishing == vanishing_poly(F, pts[:nk + 1])
