import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsmld import code as code_module
from rsmld.code import (OracleBudgetExceeded, RSCode, Word, corrupt,
                        hamming_distance, random_word, shifted_word)
from rsmld.fields import Field
from rsmld.polys import Polynomial, base_q_digits
from rsmld.rng import XorShift64Star

F7 = Field(7)
F8 = Field(2, 3)


def test_code_construction():
    code = RSCode(F7, 7, 5)
    assert code.eval_points == (0, 1, 2, 3, 4, 5, 6)
    assert code.d == 3
    assert code.classical_radius() == 1
    assert code.johnson_radius_max() == 1
    code2 = RSCode(F7, 5, 2, eval_points=[2, 3, 4, 5, 6])
    assert code2.d == 4
    assert code2.johnson_radius_max() == 2


def test_code_validation():
    with pytest.raises(ValueError):
        RSCode(F7, 8, 2)          # n > q
    with pytest.raises(ValueError):
        RSCode(F7, 7, 7)          # k == n
    with pytest.raises(ValueError):
        RSCode(F7, 7, 0)
    with pytest.raises(ValueError, match="distinct"):
        RSCode(F7, 3, 2, eval_points=[1, 1, 2])
    # out-of-range points are rejected, not reduced (8 would read as 1)
    for field, pts in ((F7, [1, 8, 2]), (F7, [0, -1, 2]), (F8, [0, 8, 1])):
        with pytest.raises(ValueError, match="not a canonical element"):
            RSCode(field, 3, 2, eval_points=pts)


def test_encode_known_codeword():
    code = RSCode(F7, 7, 5)
    w = code.encode([3, 1, 2])
    assert w.symbols == (3, 6, 6, 3, 4, 2, 4)
    assert code.encode(Polynomial(F7, [3, 1, 2])) == w
    with pytest.raises(ValueError):
        code.encode([1] * 6)  # degree k and above is not a message
    for bad in ([9, 1], [-1], [1, 7]):
        with pytest.raises(ValueError, match="not a canonical element"):
            code.message_poly(bad)


def test_word_json_round_trip():
    code = RSCode(F7, 7, 5)
    w = code.encode([3, 1, 2])
    text = w.to_json()
    doc = json.loads(text)
    assert doc == {"v": 1, "field": "p:7", "n": 7, "k": 5,
                   "symbols": [3, 6, 6, 3, 4, 2, 4]}
    assert Word.from_json(text) == w
    # non-default evaluation points survive the trip
    code2 = RSCode(F8, 7, 3, eval_points=[1, 2, 3, 4, 5, 6, 7])
    w2 = code2.encode([1, 2, 3])
    doc2 = json.loads(w2.to_json())
    assert doc2["eval_points"] == [1, 2, 3, 4, 5, 6, 7]
    assert Word.from_json(w2.to_json()) == w2


def test_word_json_rejects_garbage():
    with pytest.raises(ValueError):
        Word.from_json('{"v": 2, "field": "p:7", "n": 7, "k": 5, "symbols": []}')
    with pytest.raises(ValueError):
        Word.from_json('{"v": 1, "field": "p:7", "n": 7, "k": 5, "symbols": [1]}')
    with pytest.raises(ValueError):
        Word.from_json('[]')
    # symbols are validated, never reduced: 9 and -1 are not GF(7) elements
    for bad in (9, -1, 7):
        with pytest.raises(ValueError):
            Word.from_json('{"v": 1, "field": "p:7", "n": 3, "k": 1, '
                           f'"symbols": [{bad}, 0, 1]}}')
        with pytest.raises(ValueError):
            Word(RSCode(F7, 3, 1), (bad, 0, 1))


def test_hamming_distance():
    code = RSCode(F7, 7, 5)
    a = code.encode([3, 1, 2])
    assert hamming_distance(a, a) == 0
    assert hamming_distance(a, (3, 2, 6, 3, 4, 2, 4)) == 1
    assert hamming_distance(a, (0, 2, 6, 3, 4, 2, 1)) == 3
    assert hamming_distance([1, 2], [2, 1]) == 2
    with pytest.raises(ValueError):
        hamming_distance([1], [1, 2])


def test_corrupt_is_seeded_and_exact_weight():
    code = RSCode(F7, 7, 5)
    w = code.encode([3, 1, 2])
    c1 = corrupt(w, 3, seed=9)
    c2 = corrupt(w, 3, seed=9)
    assert c1 == c2
    assert hamming_distance(w, c1) == 3
    assert corrupt(w, 3, seed=10) != c1
    assert corrupt(w, 0, seed=1) == w
    with pytest.raises(ValueError):
        corrupt(w, 8, seed=1)
    with pytest.raises(ValueError):
        corrupt(w, -1, seed=1)


def test_corrupt_changes_every_hit_position():
    # every corrupted position must hold a *different* symbol
    code = RSCode(F8, 8, 3)
    w = code.encode([1, 2, 3])
    for seed in range(20):
        c = corrupt(w, 5, seed=seed)
        assert hamming_distance(w, c) == 5


def _list_sample(rng, n, count):
    # the partial Fisher-Yates shuffle over a materialized range(n)
    pool = list(range(n))
    for i in range(count):
        j = i + rng.below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:count]


def test_sample_indices_matches_list_shuffle():
    for seed in range(200):
        for n, count in ((1, 0), (1, 1), (7, 3), (8, 8), (31, 9), (255, 16)):
            assert XorShift64Star(seed).sample_indices(n, count) == \
                _list_sample(XorShift64Star(seed), n, count), (seed, n, count)
    with pytest.raises(ValueError):
        XorShift64Star(1).sample_indices(3, 4)


def test_sample_indices_huge_range():
    picked = XorShift64Star(5).sample_indices(2**31 - 1, 3)
    assert len(set(picked)) == 3
    assert all(0 <= i < 2**31 - 1 for i in picked)


def test_random_word_deterministic():
    code = RSCode(F7, 7, 4)
    a = random_word(code, 3)
    assert a == random_word(code, 3)
    assert a != random_word(code, 4)
    assert all(0 <= s < 7 for s in a.symbols)


def test_oracle_matches_brute_force():
    code = RSCode(F8, 8, 2)
    r = Word(code, (1, 0, 3, 2, 5, 1, 1, 0))
    out = code.ml_oracle(r)

    best = None
    winners = []
    for c0 in range(8):
        for c1 in range(8):
            m = Polynomial(F8, [c0, c1])
            dist = hamming_distance(code.encode(m), r)
            if best is None or dist < best:
                best, winners = dist, [m]
            elif dist == best:
                winners.append(m)
    assert out.min_distance == best
    assert set(out.messages) == set(winners)
    assert out.method == "oracle"
    assert [m.coeffs for m in out.messages] == sorted(m.coeffs for m in winners)


def enumerate_nearest(code, r):
    """The minimum distance and the sorted nearest messages of r, from the
    encoding of every one of the q**k messages."""
    best, winners = code.n + 1, []
    for digits in itertools.product(range(code.field.q), repeat=code.k):
        dist = hamming_distance(code.encode(list(digits)), r)
        if dist < best:
            best, winners = dist, []
        if dist == best:
            winners.append(list(digits))
    return best, sorted(winners)


# the oracle's two enumerations, which it chooses between by (n, k, q)
SEARCHES = ("_nearest_by_table", "_nearest_by_subsets")


def oracle_result(code, r, search=None):
    """The oracle's distance and messages, each padded to k coefficients;
    with `search`, those of that enumeration alone, sorted."""
    if search is None:
        out = code.ml_oracle(r)
        distance, msgs = out.min_distance, out.messages
    else:
        agreement, msgs = getattr(code, search)(r)
        distance, msgs = code.n - agreement, sorted(msgs, key=lambda p: p.coeffs)
    return distance, [list(m.coeffs) + [0] * (code.k - len(m.coeffs))
                      for m in msgs]


# (code, its words): the oracle reads every column alike, x = 0 included;
# these codes vary where 0 sits among the points, k and the table's dtype
ENUMERATED_CODES = {
    # prime field, 0 among the points (the default), k >= 2
    "prime-with-zero": (RSCode(F7, 7, 3), [(3, 0, 3, 4, 4, 6, 2),
                                          (0, 0, 0, 0, 0, 0, 6)]),
    # 0 inside the points, not first
    "prime-zero-inside": (RSCode(Field(11), 6, 2, [3, 1, 0, 9, 4, 7]),
                          [(10, 2, 5, 5, 0, 1)]),
    # GF(2^m) without 0 among the points
    "binary-without-zero": (RSCode(F8, 7, 2, [1, 2, 3, 4, 5, 6, 7]),
                            [(1, 0, 3, 2, 5, 1, 1), (7, 7, 0, 0, 3, 3, 4)]),
    # k = 1: the table is one row of zeros
    "binary-k1": (RSCode(F8, 8, 1), [(1, 1, 2, 2, 3, 3, 3, 0)]),
    "prime-k1": (RSCode(F7, 5, 1, [0, 1, 2, 3, 4]), [(6, 0, 6, 5, 5)]),
    # q >= 128: the int16 table
    "prime-131": (RSCode(Field(131), 4, 2), [(130, 7, 129, 64)]),
}


@pytest.mark.parametrize("chunk", [code_module.HISTOGRAM_CHUNK, 1])
@pytest.mark.parametrize("name", sorted(ENUMERATED_CODES))
def test_oracle_equals_enumeration(name, chunk, monkeypatch):
    # every word through the oracle and through each enumeration; chunk 1
    # scans one table row, or sums one (k+1)-subset, per chunk, so hits are
    # merged across chunks
    monkeypatch.setattr(code_module, "HISTOGRAM_CHUNK", chunk)
    base, words = ENUMERATED_CODES[name]
    code = RSCode(base.field, base.n, base.k, base.eval_points)
    for symbols in words:
        r = Word(code, symbols)
        want = enumerate_nearest(code, r)
        for search in (None,) + SEARCHES:
            assert oracle_result(code, r, search) == want, search


# codes timed with both enumerations in process, and the faster one per word
TIMED_CODES = {
    "31-3-p31": (RSCode(Field(31), 31, 3), "table"),  # 0.45 against 1.5 ms
    "31-4-gf32": (RSCode(Field(2, 5), 31, 4), "table"),  # 4.0 against 5.5 ms
    "255-2-gf256": (RSCode(Field(2, 8), 255, 2), "table"),  # 0.38 against 61
    "15-4-gf16": (RSCode(Field(2, 4), 15, 4), "subsets"),  # 0.41 against 0.23
    "15-5-gf16": (RSCode(Field(2, 4), 15, 5), "subsets"),  # 4.3 against 0.41
}
# the rule's choice: SUBSET_PRODUCT_CELLS * C(n, k+1) * (k+1) +
# SUBSET_WORD_CELLS against q**(k-1) * (n + q) cells; of ENUMERATED_CODES only
# (4,2) over GF(131), 12 036 against 17 685, takes the information sets
FASTER_SEARCH = {name: "table" for name in ENUMERATED_CODES} | {
    "prime-131": "subsets"} | {
    name: search for name, (_, search) in TIMED_CODES.items()}


@pytest.mark.parametrize("name", sorted(FASTER_SEARCH))
def test_oracle_takes_the_faster_enumeration(name):
    # each enumeration builds its own constant, and only the one it uses
    base = (ENUMERATED_CODES | TIMED_CODES)[name][0]
    code = RSCode(base.field, base.n, base.k, base.eval_points)
    code.ml_oracle(random_word(code, 0))
    built = {"table": "codeword_table", "subsets": "information_sets"}
    assert [search for search, attr in built.items()
            if attr in vars(code.constants())] == [FASTER_SEARCH[name]]


@pytest.mark.parametrize("name", sorted(ENUMERATED_CODES))
def test_information_sets_hold_every_divided_difference(name):
    # column c: the c-th (k+1)-subset U in lex order and the factors of
    # h_U,j = 1 / prod_(l != j) (x_u_j - x_u_l), narrow and read-only
    code, _ = ENUMERATED_CODES[name]
    F, arr = code.field, code.field.arrays()
    positions, weights = code.constants().information_sets
    subsets = list(itertools.combinations(range(code.n), code.k + 1))
    assert positions.T.tolist() == [list(u) for u in subsets]
    assert positions.dtype == weights.dtype == np.uint8
    x = code.eval_points
    h = []
    for u in subsets:
        h.append([])
        for j in u:
            denominator = 1
            for l in u:
                if l != j:
                    denominator = F.mul(denominator, F.sub(x[j], x[l]))
            h[-1].append(F.inv(denominator))
    assert weights.T.tolist() == arr.factors(h).tolist()
    assert not positions.flags.writeable and not weights.flags.writeable


def test_oracle_without_a_fitting_subset():
    # a random word that fits degree < 2 on no 3 positions: its distance is
    # n - k = 3, and all C(5, 2) interpolants are nearest
    code = RSCode(F7, 5, 2)
    r = random_word(code, 0)
    want = enumerate_nearest(code, r)
    assert want[0] == 3 and len(want[1]) == 10
    for search in (None,) + SEARCHES:
        assert oracle_result(code, r, search) == want, search


@pytest.mark.parametrize("name", sorted(ENUMERATED_CODES))
def test_oracle_table_rows_are_constant_free_codewords(name):
    # row j encodes the message with constant 0 and the base-q digits of j
    # above it; every word of the code shares the table, so it is locked
    code, _ = ENUMERATED_CODES[name]
    q, k = code.field.q, code.k
    table = code._codeword_table()
    assert table.shape == (q ** (k - 1), code.n)
    for j, row in enumerate(table):
        msg = [0] + base_q_digits(j, q, k - 1)
        assert tuple(row.tolist()) == code.encode(msg).symbols, j
    assert not table.flags.writeable


def test_oracle_table_dtype_past_int8():
    code, _ = ENUMERATED_CODES["prime-131"]
    assert code._codeword_table().dtype == np.int16
    assert code._codeword_table().shape == (131, 4)


@pytest.mark.parametrize("name", sorted(ENUMERATED_CODES))
def test_oracle_codeword_at_distance_zero(name):
    code, _ = ENUMERATED_CODES[name]
    msg = [(3 * e + 1) % code.field.q for e in range(code.k)]
    for search in (None,) + SEARCHES:
        assert oracle_result(code, code.encode(msg), search) == (0, [msg])


def test_oracle_several_nearest_messages():
    code, words = ENUMERATED_CODES["prime-with-zero"]
    r = Word(code, words[0])
    result = oracle_result(code, r)
    assert len(result[1]) == 4
    assert result == enumerate_nearest(code, r)
    for search in SEARCHES:
        assert oracle_result(code, r, search) == result


PROPERTY_CODES = [ENUMERATED_CODES["prime-with-zero"][0],
                  ENUMERATED_CODES["binary-without-zero"][0]]


def all_codewords(code):
    return [(list(digits), code.encode(list(digits)).symbols)
            for digits in itertools.product(range(code.field.q),
                                            repeat=code.k)]


PROPERTY_TABLES = [all_codewords(code) for code in PROPERTY_CODES]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(PROPERTY_CODES) - 1), st.data())
def test_oracle_equals_enumeration_on_random_words(which, data):
    code = PROPERTY_CODES[which]
    symbols = data.draw(st.lists(st.integers(0, code.field.q - 1),
                                 min_size=code.n, max_size=code.n))
    dists = [(hamming_distance(c, symbols), m)
             for m, c in PROPERTY_TABLES[which]]
    best = min(d for d, _ in dists)
    want = (best, sorted(m for d, m in dists if d == best))
    for search in (None,) + SEARCHES:
        assert oracle_result(code, Word(code, tuple(symbols)), search) == want


def test_oracle_ties_across_chunks():
    # the (15,5) GF(16) word pinned in CI: two nearest messages whose table
    # rows (coefficients 1 .. 4) lie in different chunks of the table scan
    # (the oracle itself takes the information sets at (15,5))
    code = RSCode(Field(2, 4), 15, 5)
    r = corrupt(code.encode([1, 3, 7, 2, 9]), 7, seed=3)
    for search in (None,) + SEARCHES:
        assert oracle_result(code, r, search) == (
            7, [[1, 3, 7, 2, 9], [2, 9, 9, 15, 13]])
    rows = [sum(c * 16**e for e, c in enumerate(m[1:]))
            for m in ([1, 3, 7, 2, 9], [2, 9, 9, 15, 13])]
    step = code_module.HISTOGRAM_CHUNK // 16
    assert rows[0] // step != rows[1] // step


@pytest.mark.parametrize("chunk,dtype", [
    (code_module.HISTOGRAM_CHUNK, np.int64), (10, np.int64), (4, np.int64),
    (1, np.int64), (4, object), (1, object)])
def test_digit_counts_in_blocks_and_windows(monkeypatch, chunk, dtype):
    # every row's counts over q = 10 digits, without its spare column: a
    # histogram of one block of all 7 rows (16384) or of one row per block
    # (10); past the chunk (4, 1), one row per block sorted, each value
    # counted once at its first column and 0 elsewhere.  Python-int
    # (object) arrays, which only fields past q = 3 * 10^9 use, are always
    # sorted.
    monkeypatch.setattr(code_module, "HISTOGRAM_CHUNK", chunk)
    q, rng = 10, XorShift64Star(chunk)
    rows = [[rng.below(q) for _ in range(6)] for _ in range(7)]
    step = code_module.histogram_rows(q)
    blocks = (np.array(rows[lo:lo + step], dtype=dtype)
              for lo in range(0, len(rows), step))
    got = np.zeros((len(rows), q), dtype=np.int64)
    for lo, w, digits, counts in code_module.digit_counts(q, blocks, spare=2):
        assert counts.shape == digits.shape == (len(w), q if q <= chunk else 5)
        at = (lo + np.arange(len(w))[:, None], digits.astype(np.int64))
        assert not got[at][counts > 0].any()
        np.add.at(got, at, counts)
    assert got.tolist() == [[sum(v == d for v in row[:2] + row[3:])
                             for d in range(q)] for row in rows]


def test_oracle_k1_over_a_large_prime_in_digit_windows():
    # k = 1 over GF(1000003): q codewords, one row of q constant digits,
    # which the counts take by sorting the row's 5 values; the table's
    # set-up builds nothing of size q, and no temporary holds one q-cell row
    # (8 MB).  The oracle itself compares the C(5, 2) pairs of positions
    # instead.
    F = Field(1000003)
    code = RSCode(F, 5, 1)
    r = Word(code, (17, 17, 999999, 17, 5))
    tracemalloc.start()
    try:
        agreement, _ = code._nearest_by_table(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * F.q, peak
    assert agreement == 3
    for search in (None,) + SEARCHES:
        assert oracle_result(code, r, search) == (2, [[17]])


def test_oracle_budget():
    code = RSCode(Field(2, 5), 31, 15)
    r = random_word(code, 0)
    with pytest.raises(OracleBudgetExceeded):
        code.ml_oracle(r)  # 32^15 words is far past any budget
    small = RSCode(F7, 7, 3)
    with pytest.raises(OracleBudgetExceeded):
        small.ml_oracle(random_word(small, 0), budget=10)


def test_oracle_symbols_past_int16():
    code = RSCode(Field(2, 16), 4, 1)
    r = Word(code, (40000,) * 3 + (1,))
    out = code.ml_oracle(r)
    assert out.min_distance == 1
    assert out.messages == (Polynomial(code.field, [40000]),)
    for search in SEARCHES:
        assert oracle_result(code, r, search) == (1, [[40000]])


def test_oracle_word_code_mismatch():
    code = RSCode(F7, 7, 5)
    other = RSCode(F7, 7, 4)
    with pytest.raises(ValueError):
        code.ml_oracle(random_word(other, 0))


def test_shifted_word():
    code = RSCode(F7, 7, 5)
    r = Word(code, (3, 2, 6, 3, 4, 2, 4))
    m = Polynomial(F7, [3, 1, 2])
    y = shifted_word(code, r, m)
    assert hamming_distance(y.symbols, [0] * 7) == 1
    assert y.code is code
