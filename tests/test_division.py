import random
import time
import tracemalloc

import numpy as np
import pytest

from rsmld import code as code_module, division
from rsmld.code import RSCode, Word, corrupt, hamming_distance, random_word
from rsmld.division import (CandidateCheck, LevelShape, RadiusCapExceeded,
                            combinations_at_level, combine,
                            decode_minimal, decode_minimal_reencoded,
                            extract_message, level_shapes, reencode,
                            search_radius_cap)
from rsmld.fields import Field, FieldArrays
from rsmld.groebner import ModuleVector, mgb_iterative
from rsmld.polys import Polynomial, base_q_digits, monic_polys
from rsmld.rational import decode_rational
from test_code import ENUMERATED_CODES

F7 = Field(7)


def test_extract_message():
    f2 = Polynomial(F7, [1, 1])
    m = Polynomial(F7, [3, 1, 2])
    f = ModuleVector(-(m * f2), f2)
    assert extract_message(f) == m
    # non-divisible pair yields nothing
    assert extract_message(ModuleVector(Polynomial(F7, [1, 0, 1]), f2)) is None
    with pytest.raises(ValueError):
        extract_message(ModuleVector(m, Polynomial.zero(F7)))


WIDE = 4294967291
# permuted evaluation points, 0 among them; GF(4294967291) holds Python ints
CHECK_CODES = {
    "GF7": RSCode(F7, 7, 3, [3, 0, 6, 1, 5, 2, 4]),
    "GF16": RSCode(Field(2, 4), 15, 5,
                   [9, 4, 13, 0, 7, 2, 15, 11, 1, 6, 12, 3, 14, 8, 10]),
    "GF4294967291": RSCode(Field(WIDE), 12, 4,
                           [pow(7, 1 + 97 * i, WIDE) for i in range(11)]
                           + [0]),
}


@pytest.mark.parametrize("name", CHECK_CODES)
def test_candidate_check_fills_erasures(name):
    # a codeword plus nonzero errors on Z, for every |Z| <= n - k: the check
    # of Z returns the sent message and rejects a set of any other size (all
    # n points are the zero set of a zero f2); an extra error outside Z
    # leaves no codeword that agrees with r off Z when |Z| < n - k; a zero
    # error value on Z puts the codeword at |Z| - 1
    code = CHECK_CODES[name]
    F, n, k = code.field, code.n, code.k
    rng = random.Random(name)
    for t in range(n - k + 1):
        for _ in range(3):
            msg = code.message_poly([rng.randrange(F.q) for _ in range(k)])
            sent = list(code.encode(msg).symbols)
            where = rng.sample(range(n), t + 1)
            zs, extra = np.array(sorted(where[:t]), dtype=int), where[t]
            errors = {i: rng.randrange(1, F.q) for i in zs}
            r = sent.copy()
            for i, e in errors.items():
                r[i] = F.add(r[i], e)
            word = Word(code, tuple(r))
            check = CandidateCheck(code, word)
            assert check(zs, t) == msg
            assert check(zs, t + 1) is None
            assert check(np.array(sorted(where)), t) is None
            assert check(np.arange(n), t) is None
            if t:
                assert check(zs[1:], t) is None
            if t < n - k:
                r2 = r.copy()
                r2[extra] = F.add(r2[extra], rng.randrange(1, F.q))
                word2 = Word(code, tuple(r2))
                assert CandidateCheck(code, word2)(zs, t) is None
            if t:
                r3 = r.copy()
                r3[zs[0]] = sent[zs[0]]
                word3 = Word(code, tuple(r3))
                assert CandidateCheck(code, word3)(zs, t) is None


def test_candidate_check_rejects_t_above_n_minus_k():
    # Z = {0, 1, 2} on RS(7,5): three erasures, two syndromes
    code = RSCode(Field(7), 7, 5)
    check = CandidateCheck(code, random_word(code, 1))
    with pytest.raises(ValueError, match=r"t <= n - k = 2, got t = 3"):
        check(np.array([0, 1, 2]), 3)


def zero_set_reference(code, pair, shape):
    """The zero sets, sorted, of every pair of a level whose f2 has at least
    shape.t zeros, by scalar arithmetic and with no gcd test; (0, 1) alone
    at level 0 when a's degree bound is negative."""
    field, q = code.field, code.field.q
    if shape.a_max_deg < 0:
        pairs = ([(Polynomial.zero(field), Polynomial.one(field))]
                 if shape.level == 0 else [])
    else:
        width = shape.a_max_deg + 1
        pairs = [(Polynomial(field, base_q_digits(i, q, width)), b)
                 for b in monic_polys(field, shape.b_deg)
                 for i in range(q ** width)]
    sets = []
    for a, b in pairs:
        f2 = combine(pair, a, b).f2
        zeros = tuple(i for i, x in enumerate(code.eval_points)
                      if f2.evaluate(x) == 0)
        if len(zeros) >= shape.t:
            sets.append(zeros)
    return sorted(sets)


def zero_sets(code, pair, shape):
    return sorted(tuple(z.tolist())
                  for z in combinations_at_level(code, pair, shape))


def test_monic_polys():
    F3 = Field(3)
    quads = list(monic_polys(F3, 2))
    assert len(quads) == 9
    assert all(p.degree() == 2 and p.leading() == 1 for p in quads)
    assert list(monic_polys(F3, 0)) == [Polynomial.one(F3)]


def test_level_shapes():
    code = RSCode(F7, 7, 5)
    pair = mgb_iterative(code, Word(code, (3, 2, 6, 3, 4, 2, 4)))
    shapes = level_shapes(pair, code.k, t_cap=2)
    assert [(s.level, s.t, s.a_max_deg, s.b_deg) for s in shapes] == [
        (0, 1, -1, 0), (1, 2, 0, 1)]
    # j_cap stops the ladder early
    assert len(level_shapes(pair, code.k, t_cap=2, j_cap=0)) == 1


def test_combinations_level_zero_degenerate(monkeypatch):
    # a's degree bound is negative at level 0: the one pair is g2 itself,
    # and its zero set comes from g2.f2 alone, without the value tables
    code = RSCode(F7, 7, 5)
    pair = mgb_iterative(code, Word(code, (3, 2, 6, 3, 4, 2, 4)))
    shapes = level_shapes(pair, code.k, t_cap=2)
    monkeypatch.setattr(FieldArrays, "indexed_values", None)
    combos = list(combinations_at_level(code, pair, shapes[0]))
    assert len(combos) == 1
    assert combos[0].tolist() == [i for i, x in enumerate(code.eval_points)
                                  if pair.g2.f2.evaluate(x) == 0]
    too_many = LevelShape(0, len(combos[0]) + 1, shapes[0].a_max_deg, 0)
    assert not list(combinations_at_level(code, pair, too_many))


def test_combinations_respect_degree_bounds():
    # each set has at least t zeros, and the sets are those of the pairs
    # with deg a <= 1 and b monic of degree 1; level 1 lies past this word's
    # distance 2, so pairs with a common factor count too
    code = RSCode(F7, 7, 4)
    pair = mgb_iterative(code, Word(code, (3, 2, 6, 3, 2, 2, 4)))
    shapes = level_shapes(pair, code.k, t_cap=3)
    target = shapes[1]
    assert (target.a_max_deg, target.b_deg) == (1, 1)
    got = zero_sets(code, pair, target)
    assert all(len(z) >= target.t for z in got)
    assert got == zero_set_reference(code, pair, target) and got


@pytest.mark.parametrize("field", [Field(3), Field(2, 2), Field(7),
                                   Field(2, 3, 0b1101)],
                         ids=["GF3", "GF4", "GF7", "GF8"])
def test_combinations_match_gcd_reference(field):
    # every pair of the level, with no gcd test, gives its f2's zero set
    # when it has at least t points; at level 0 a negative a-bound leaves
    # (0, 1), at other levels nothing
    code = RSCode(field, 3, 1)
    pair = mgb_iterative(code, Word(code, (0, 1, 2)))
    # (the scalar reference runs once per bound, at t = 0; each t keeps its
    # sets of at least t points)
    for level in (0, 1):
        for a_max_deg in range(-1, 3):
            for b_deg in range(3):
                every = zero_set_reference(
                    code, pair, LevelShape(level, 0, a_max_deg, b_deg))
                for t in range(code.n + 1):
                    shape = LevelShape(level, t, a_max_deg, b_deg)
                    assert zero_sets(code, pair, shape) == \
                        [s for s in every if len(s) >= t], shape


@pytest.mark.parametrize("chunk", [1, 5, 7, 20, 150])
def test_combinations_chunked(monkeypatch, chunk):
    # histogram blocks of one row in windows of one digit (1), in windows of
    # 5 and 2 digits (5), of one row and all 7 digits (7), of 2 a's (20) and
    # of all 7 a's with 3 b's (150) give the sets of the one-block default
    # and of the scalar reference
    code = RSCode(F7, 7, 3)
    pair = mgb_iterative(code, random_word(code, 4))
    shapes = [LevelShape(1, t, 1, 1) for t in range(4)] + \
        [LevelShape(2, 2, 0, 2)]
    unchunked = [zero_sets(code, pair, s) for s in shapes]
    monkeypatch.setattr(code_module, "HISTOGRAM_CHUNK", chunk)
    for shape, expected in zip(shapes, unchunked):
        assert zero_sets(code, pair, shape) == expected
        assert expected == zero_set_reference(code, pair, shape)


def level_gate_cases():
    """(name, code, words): the oracle's enumerated codes with their words,
    and the small GF(3/4/7/8/16) codes of this module, GF(16) with words
    that stop by level 1 (its level 2 has 16^4 pairs, seconds each in the
    scalar reference)."""
    for name, (code, words) in sorted(ENUMERATED_CODES.items()):
        yield name, code, [Word(code, w) for w in words]
    gf7 = CHECK_CODES["GF7"]
    yield "GF7", gf7, [random_word(gf7, seed) for seed in range(3)]
    gf16 = CHECK_CODES["GF16"]
    sent = gf16.encode([1, 3, 7, 2, 9])
    yield "GF16", gf16, [corrupt(sent, t, 3) for t in (5, 6)]
    for field in (Field(3), Field(2, 2), Field(7), Field(2, 3, 0b1101)):
        code = RSCode(field, 3, 1)
        yield field.label(), code, [Word(code, (0, 1, 2)),
                                    random_word(code, 5)]


LEVEL_GATE_CASES = list(level_gate_cases())


@pytest.mark.parametrize("code,words", [c[1:] for c in LEVEL_GATE_CASES],
                         ids=[c[0] for c in LEVEL_GATE_CASES])
def test_zero_sets_equal_reference_at_reached_levels(code, words,
                                                     monkeypatch):
    # every level the three decoders reach past Johnson, on each decoder's
    # pair: the histogram's zero sets are the scalar reference's
    reached = {}
    original = division.combinations_at_level

    def recording(code, pair, shape):
        key = (tuple(pair.g1.f2.coeffs), tuple(pair.g2.f2.coeffs),
               shape.level, shape.t, shape.a_max_deg, shape.b_deg)
        reached.setdefault(key, (pair, shape))
        return original(code, pair, shape)

    monkeypatch.setattr(division, "combinations_at_level", recording)
    for r in words:
        for decode in (decode_minimal, decode_minimal_reencoded,
                       decode_rational):
            decode(code, r, beyond_johnson=True)
    assert reached
    for pair, shape in reached.values():
        assert set(zero_sets(code, pair, shape)) == \
            set(zero_set_reference(code, pair, shape)), shape


def test_level_zero_over_a_large_prime_in_digit_windows():
    # RS(7,2) over GF(1000003), 3 errors: ell = (4, 4), so level 0 has
    # k1 = 0 and q pairs (0, 1) .. (q - 1, 1); past 2^14 digits the counts
    # sort each row's 7 values and never hold one q-cell row (8 MB)
    F = Field(1000003)
    code = RSCode(F, 7, 2)
    msg = code.message_poly([123456, 999999])
    for seed in range(1, 6):
        r = corrupt(code.encode(msg), 3, seed)
        tracemalloc.start()
        try:
            outs = [decode(code, r) for decode in (decode_minimal,
                                                   decode_minimal_reencoded)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * F.q, peak
        for out in outs:
            assert (out.ell1, out.ell2, out.search_level) == (4, 4, 0)
            assert out.min_distance == 3
            assert out.messages == (msg,)


def test_level_zero_over_a_32_bit_prime_by_sorted_counts():
    # the p32 code of test_code_constants, (12,5) over GF(4294967291), whose
    # arrays hold Python ints, 4 errors: level 0 counts all q values of a_0
    # by sorting each row's 12 values (by q / 2^14 windows of a histogram
    # this took about 20 s)
    P32 = 4294967291
    code = RSCode(Field(P32), 12, 5,
                  [0] + [pow(3, 1 + 11 * i, P32) for i in range(11)])
    r = corrupt(code.encode([1] * 5), 4, seed=4)
    for decode in (decode_minimal, decode_minimal_reencoded):
        start = time.perf_counter()
        out = decode(code, r)
        assert time.perf_counter() - start < 2, decode
        assert (out.min_distance, out.search_level) == (4, 0)
        assert [m.coeffs for m in out.messages] == [[1] * 5]


def test_radius_caps():
    code = RSCode(F7, 7, 5)      # d = 3, Johnson bound 1, n - k = 2
    assert search_radius_cap(code, beyond_johnson=False) == 1
    assert search_radius_cap(code, beyond_johnson=True) == 2
    big = RSCode(Field(2, 5), 31, 15)   # Johnson bound 9 > would-be cap?
    assert search_radius_cap(big, False) == min(big.johnson_radius_max(), 16)


def test_decode_worked_examples():
    code = RSCode(F7, 7, 5)
    r = Word(code, (3, 2, 6, 3, 4, 2, 4))
    out = decode_minimal(code, r)
    assert out.min_distance == 1
    assert out.message_coeff_lists() == [[3, 1, 2]]
    assert out.search_level == 0
    assert (out.ell1, out.ell2) == (6, 5)
    assert out.method == "division"

    code2 = RSCode(F7, 7, 4)
    r2 = Word(code2, (3, 2, 6, 3, 2, 2, 4))
    out2 = decode_minimal(code2, r2)
    assert out2.min_distance == 2
    assert out2.message_coeff_lists() == [[3, 1, 2], [3, 3, 5, 5], [5, 3, 5, 3]]


def test_decode_codeword_distance_zero():
    code = RSCode(F7, 7, 4)
    w = code.encode([1, 0, 6])
    out = decode_minimal(code, w)
    assert out.min_distance == 0
    assert out.message_coeff_lists() == [[1, 0, 6]]
    assert out.search_level == 0


@pytest.mark.parametrize("decode", [decode_minimal, decode_minimal_reencoded,
                                    decode_rational])
def test_negative_level_cap_rejected(decode):
    code = RSCode(F7, 7, 4)
    with pytest.raises(ValueError, match="level cap"):
        decode(code, random_word(code, 11), j_cap=-1)


def test_radius_cap_exceeded():
    code = RSCode(F7, 7, 5)
    r = Word(code, (5, 1, 4, 3, 5, 6, 4))   # distance 2 from the code
    with pytest.raises(RadiusCapExceeded) as info:
        decode_minimal(code, r)             # capped at Johnson radius 1
    assert info.value.radius == 1
    out = decode_minimal(code, r, beyond_johnson=True)
    assert out.min_distance == 2
    assert len(out.messages) == 21


def test_deep_search_level_beyond_zero():
    # at least one random (7,3) word must need level > 0; its result still
    # matches the exhaustive oracle, and capping the level search just below
    # the answer trips RadiusCapExceeded
    code = RSCode(F7, 7, 3)
    seen_deep = False
    for seed in range(30):
        r = random_word(code, seed)
        out = decode_minimal(code, r, beyond_johnson=True)
        assert out == code.ml_oracle(r)
        if out.search_level > 0:
            seen_deep = True
            with pytest.raises(RadiusCapExceeded):
                decode_minimal(code, r, j_cap=out.search_level - 1,
                               beyond_johnson=True)
    assert seen_deep


def test_reencode_shift():
    code = RSCode(F7, 7, 4)
    r = Word(code, (3, 2, 6, 3, 2, 2, 4))
    enc = reencode(code, r)
    assert enc.shift.degree() < code.k
    tail = code.eval_points[code.n - code.k:]
    assert [enc.shift.evaluate(x) for x in tail] == \
        list(r.symbols[code.n - code.k:])
    # y keeps only the head residuals; the last k of them vanish by design
    assert len(enc.y) == code.n - code.k
    for x, s, y in zip(code.eval_points, r.symbols, enc.y):
        assert y == F7.sub(s, enc.shift.evaluate(x))


def test_decode_reencoded_matches_direct():
    for code in (RSCode(F7, 7, 4), RSCode(F7, 7, 5), RSCode(Field(2, 3), 8, 3)):
        for seed in range(20):
            r = random_word(code, seed)
            try:
                direct = decode_minimal(code, r, beyond_johnson=True)
            except RadiusCapExceeded:
                with pytest.raises(RadiusCapExceeded):
                    decode_minimal_reencoded(code, r, beyond_johnson=True)
                continue
            rerun = decode_minimal_reencoded(code, r, beyond_johnson=True)
            assert rerun == direct
            assert rerun.method == "division-reencoded"
            assert (rerun.ell1, rerun.ell2) == (direct.ell1, direct.ell2)
            assert rerun.search_level == direct.search_level


@pytest.mark.parametrize("p", [2**31 - 1, 4294967291])
def test_decode_wide_prime_fields(p):
    # 10 errors give the basis' second components degree 10, so evaluating
    # them at these spread-out points sums 11 products of size up to
    # (p - 1)^2: past int64 for 2^31 - 1 (the wrap guard of FieldArrays.dot);
    # 4294967291 holds object-dtype arrays throughout.  j_cap=0: a wrong
    # zero count fails at level 0 instead of enumerating p constants.
    F = Field(p)
    code = RSCode(F, 24, 4, [pow(7, 1 + 97 * i, p) for i in range(24)])
    msg = code.message_poly([p - 2, 12345, 2**30 + 7, 99])
    for weight, seed in ((1, 3), (5, 5), (10, 8)):
        r = corrupt(code.encode(msg), weight, seed)
        for decode in (decode_minimal, decode_minimal_reencoded):
            out = decode(code, r, j_cap=0)
            assert out.min_distance == weight
            assert out.messages == (msg,)
