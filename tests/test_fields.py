import pickle
from math import prod
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rsmld import fields
from rsmld.code import RSCode, Word
from rsmld.fields import (DOT_CHUNK, PRODUCT_TABLE_Q, Field, FieldArrays,
                          FieldMismatch, _is_prime, parse_field)
from rsmld.polys import Polynomial, base_q_digits
from rsmld.rng import XorShift64Star

F7 = Field(7)
F16 = Field(2, 4)


def test_prime_field_basics():
    assert F7.q == 7
    assert F7.add(3, 5) == 1
    assert F7.sub(3, 5) == 5
    assert F7.neg(2) == 5
    assert F7.mul(3, 5) == 1
    assert F7.inv(3) == 5
    assert F7.div(1, 3) == 5
    assert F7.pow(3, 6) == 1
    assert F7.pow(3, -1) == 5


def test_prime_field_inverses_fermat():
    for a in range(1, 7):
        assert F7.mul(a, F7.inv(a)) == 1
        assert F7.inv(a) == F7.pow(a, 5)


def test_canon_handles_out_of_range():
    assert F7.canon(-1) == 6
    assert F7.canon(10) == 3
    with pytest.raises(ValueError):
        F16.canon(-1)
    # bit pattern 0b10000 = x^4 reduces to x + 1 mod x^4 + x + 1
    assert F16.canon(0b10000) == 0b0011
    with pytest.raises(ValueError):
        F7.check(7)


def test_binary_field_basics():
    # x^4 + x + 1 is the default modulus for GF(16)
    assert F16.q == 16
    assert F16.add(0b1010, 0b0110) == 0b1100
    assert F16.sub(5, 5) == 0
    # x * x^3 = x^4 = x + 1
    assert F16.mul(0b0010, 0b1000) == 0b0011
    for a in range(1, 16):
        assert F16.mul(a, F16.inv(a)) == 1


def test_binary_field_custom_modulus():
    alt = Field(2, 4, modulus=0b11001)  # x^4 + x^3 + 1, also irreducible
    assert alt != F16
    for a in range(1, 16):
        assert alt.mul(a, alt.inv(a)) == 1
    with pytest.raises(ValueError):
        Field(2, 4, modulus=0b10101)  # x^4 + x^2 + 1 = (x^2 + x + 1)^2


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(3, 2)  # only characteristic 2 extensions
    with pytest.raises(ValueError):
        Field(7, modulus=0b111)
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)
    with pytest.raises(ZeroDivisionError):
        F16.div(3, 0)


def test_is_prime_matches_trial_division():
    sieve = [False, False] + [True] * (10**5 - 2)
    for i in range(2, 317):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    assert [n for n in range(10**5) if _is_prime(n)] == \
        [n for n, prime in enumerate(sieve) if prime]
    # a Carmichael number, and strong pseudoprimes to base 2 and to the
    # bases 2, 3, 5, 7
    for n in (561, 2047, 3215031751):
        assert not _is_prime(n), n
    assert _is_prime(2**61 - 1) and _is_prime(2**63 - 25)


def test_large_prime_fields():
    start = perf_counter()
    F = Field(2**61 - 1)
    assert perf_counter() - start < 1.0
    assert F.mul(2**60, 2) == 1
    with pytest.raises(ValueError, match="2\\^63"):
        Field(18446744073709551557)   # 2^64 - 59, a prime
    with pytest.raises(ValueError, match="2\\^63"):
        parse_field("p:18446744073709551557")
    with pytest.raises(ValueError, match="prime"):
        Field(3215031751)


def test_field_mismatch():
    code = RSCode(F7, 7, 3)
    with pytest.raises(FieldMismatch):
        code.message_poly(Polynomial(F16, [1, 2]))
    other = RSCode(F16, 7, 3)
    with pytest.raises(FieldMismatch):
        code.ml_oracle(Word(other, (0,) * 7))
    assert isinstance(FieldMismatch("x"), ValueError)


def test_labels_and_parse_round_trip():
    assert F7.label() == "p:7"
    assert parse_field("p:7") == F7
    assert parse_field(F16.label()) == F16
    assert parse_field("2^4") == F16
    assert parse_field("2^4:0b10011") == F16
    assert parse_field("2^3") == Field(2, 3)
    with pytest.raises(ValueError):
        parse_field("banana")
    with pytest.raises(ValueError):
        parse_field("p:6")


@pytest.mark.parametrize("field", [F7, F16, Field(2**31 - 1),
                                   Field(4294967291)])
def test_array_powers_match_pow(field):
    # one point or an array of points, 0 included; GF(4294967291) holds
    # its arrays as Python ints
    A = field.arrays()
    xs = [0, 1, 2, field.q - 1, field.q // 3]
    for n in (0, 1, 2, 9, 40):
        table = A.powers(xs, n)
        assert table.shape == (len(xs), n) and table.dtype == A.dtype
        for x, row in zip(xs, table):
            expect = [field.pow(x, e) for e in range(n)]
            assert [int(v) for v in row] == expect, (x, n)
            assert [int(v) for v in A.powers(x, n)] == expect, (x, n)


@pytest.mark.parametrize("field", [F7, F16, Field(2, 4, 0b11001),
                                   Field(2**31 - 1), Field(4294967291)])
def test_array_sub_inv_sum_evaluate(field):
    A = field.arrays()
    xs = [0, 1, 2, field.q - 1, field.q // 3]
    nonzero = [x for x in xs if x]
    arr = A.array(xs)
    assert [int(v) for v in A.sub(arr, A.array(xs[::-1]))] == \
        [field.sub(a, b) for a, b in zip(xs, xs[::-1])]
    # in place, a row of scalars times a column: y[k, c] - a[c] * x[k]
    y = A.array([xs, xs[::-1]]).T.copy()
    A.sub_scaled(y, A.array([field.q - 1, 2 % field.q]), arr)
    assert [[int(v) for v in col] for col in y.T] == [
        [field.sub(b, field.mul(a, x)) for b, x in zip(ys, xs)]
        for a, ys in ((field.q - 1, xs), (2 % field.q, xs[::-1]))]
    # one scalar times a vector of y's shape, in place on a view
    for c in (0, 1, field.q - 1, 3 % field.q):
        y = A.array([7, *xs[::-1]])
        A.sub_scaled(y[1:], c, arr)
        assert [int(v) for v in y] == [7] + [
            field.sub(b, field.mul(c, x)) for b, x in zip(xs[::-1], xs)]
    assert [int(v) for v in A.inv(nonzero)] == [field.inv(x) for x in nonzero]
    with pytest.raises(ZeroDivisionError):
        A.inv(xs)
    total = 0
    for x in xs:
        total = field.add(total, x)
    # a dot product with a column of ones is the field sum
    assert int(A.dot(arr, A.array([[1]] * len(xs)))[0]) == total
    for coeffs in ([], [5 % field.q], [0, 1], [3, 0, field.q - 1, 1]):
        poly = Polynomial(field, coeffs)
        assert [int(v) for v in A.evaluate(coeffs, arr)] == \
            [poly.evaluate(x) for x in xs]


@pytest.mark.parametrize("field", [F7, F16, Field(2, 16), Field(3037000493),
                                   Field(4294967291)])
def test_array_factors_and_sums(field):
    # factors kept in the narrowest dtype, as the oracle stores them, still
    # sum exactly: GF(2^16) logs reach 65534 in uint16, 3037000493 - 1 fills
    # uint32, and GF(4294967291) holds Python ints
    A = field.arrays()
    rng = XorShift64Star(field.q)
    c = [1, 2, field.q - 1, field.q - 2] + [1 + rng.below(field.q - 1)
                                            for _ in range(8)]
    f = A.factors(c)
    if A.dtype != object:
        f = f.astype(np.min_scalar_type(field.q - 1))
    assert A.factors([1]).tolist() == ([0] if A.binary else [1])
    # column sums of f * values[index] over a 3 x 4 block
    values = A.array([0, 5 % field.q, field.q - 1, 1, field.q // 3])
    index = np.array([[rng.below(5) for _ in range(4)] for _ in range(3)])
    weights = [c[:4], c[4:8], c[8:]]
    got = A.factor_sums(f.reshape(3, 4), values, index).tolist()
    want = []
    for col in range(4):
        total = 0
        for row in range(3):
            total = field.add(total, field.mul(
                weights[row][col], int(values[index[row, col]])))
        want.append(total)
    assert got == want


@pytest.mark.parametrize("field", [F7, Field(2, 8), Field(2**31 - 1),
                                   Field(3037000493), Field(4294967291)])
def test_array_dot_matches_scalar_sums(field):
    # 2^31 - 1 and 3037000493, the largest prime with (p - 1)^2 < 2^63,
    # hold int64 arrays whose product sums would wrap; half of each operand
    # of two or more entries cycles through 0, 1, q - 1 and q - 2
    A = field.arrays()
    rng = XorShift64Star(field.q)
    edge = [0, 1, field.q - 1, field.q - 2]

    def draw(*shape):
        count = prod(shape)
        vals = (edge * count)[:count // 2] + \
            [rng.below(field.q) for _ in range(count - count // 2)]
        return A.array(vals).reshape(shape)

    for a_shape, b_shape in (((0,), (0, 3)), ((1,), (1, 4)), ((9,), (9, 9)),
                             ((255,), (255, 7)), ((3, 40), (40, 5)),
                             ((2, 3, 6), (6, 4))):
        a, b = draw(*a_shape), draw(*b_shape)
        got = A.dot(a, b)
        assert got.shape == a_shape[:-1] + b_shape[1:] and got.dtype == A.dtype
        flat_a = a.reshape(prod(a_shape[:-1]), a_shape[-1]).tolist()
        expect = [[sum(x * int(b[i, j]) for i, x in enumerate(row)) % field.p
                   if field.m == 1 else _gf2_dot(field, row, b[:, j].tolist())
                   for j in range(b_shape[1])] for row in flat_a]
        assert got.reshape(len(flat_a), b_shape[1]).tolist() == expect


@pytest.mark.parametrize("field", [Field(2, 8), Field(2, 16)])
def test_binary_dot_in_row_chunks(field):
    # the unchunked formula: every product term gathered at once, summed
    # with XOR over the contraction axis; the row chunks of b must not show
    A = field.arrays()
    rng = XorShift64Star(field.m)

    def draw(*shape):
        return A.array([rng.below(field.q) for _ in range(prod(shape))]
                       ).reshape(shape)

    def unchunked(a, b):
        return np.bitwise_xor.reduce(
            A._exp[A._log[a][..., :, None] + A._log[b]], axis=-2)

    wide = DOT_CHUNK + 5     # one row of b per chunk, past the chunk size
    cases = [((0,), (0, 7)), ((3, 0), (0, 7)), ((0,), (0, wide)),
             ((3 * DOT_CHUNK // 64,), (3 * DOT_CHUNK // 64, 64)),
             ((4, 300), (300, 50)), ((2, 3, 70), (70, 90)), ((3,), (3, wide))]
    for a_shape, b_shape in cases:
        a, b = draw(*a_shape), draw(*b_shape)
        assert prod(a_shape[:-1]) <= prod(b_shape[1:]), "chunks of b's rows"
        rows = max(1, DOT_CHUNK // prod(a_shape[:-1] + b_shape[1:]))
        assert a_shape[-1] == 0 or a_shape[-1] > rows, "one chunk only"
        got = A.dot(a, b)
        assert got.shape == a_shape[:-1] + b_shape[1:] and got.dtype == A.dtype
        assert (got == unchunked(a, b)).all(), (a_shape, b_shape)
        assert (A.dot_factors(a, A.matrix_factors(b)) == got).all()
    # more rows of a than columns of b: chunks of a's rows, each product
    # summed along a contiguous axis; a transposed view as Koetter passes
    # it, a row of a past DOT_CHUNK terms (the contraction axis split too),
    # no rows of b, and one column more than one row of a per chunk
    long = DOT_CHUNK + 7
    cases = [((40, 40, 30), (30, 1)), ((16, 16, 60), (60, 7)),
             ((2, long), (long, 1)), ((5, 0), (0, 3)), ((9, 2, 3), (3, 2)),
             ((2 * DOT_CHUNK, 1), (1, 1))]
    for a_shape, b_shape in cases:
        a, b = draw(*a_shape), draw(*b_shape)
        assert prod(a_shape[:-1]) > prod(b_shape[1:]), "chunks of a's rows"
        got = A.dot(a, b)
        assert got.shape == a_shape[:-1] + b_shape[1:] and got.dtype == A.dtype
        assert (got == unchunked(a, b)).all(), (a_shape, b_shape)
        assert (A.dot_factors(a, A.matrix_factors(b)) == got).all()
    a = draw(16, 60, 16).transpose(0, 2, 1)
    b = draw(60, 7)
    assert (A.dot(a, b) == unchunked(a, b)).all()
    # the zero message encodes as the zero word
    code = RSCode(field, 40, 9)
    assert code.encode([]).symbols == (0,) * 40


@pytest.mark.parametrize("field", [F7, F16, Field(2, 7), Field(2, 8),
                                   Field(2, 9), Field(2, 14), Field(2, 15),
                                   Field(2, 16), Field(2**31 - 1),
                                   Field(4294967291)])
def test_factor_form_products_match_values(field):
    # the elementwise factors: logs with the zero sentinel 2(q - 1) in the
    # narrowest dtype, which is one byte up to m = 7 and two up to m = 15
    # (GF(2^14)'s 32766 fits int16, GF(2^15)'s 65534 only uint16); products
    # with them are `mul` on the elements, with zeros among the entries
    A = field.arrays()
    rng = XorShift64Star(field.q + 5)
    edge = [0, 1, field.q - 1, field.q - 2]
    c = A.array(edge * 3 + [rng.below(field.q) for _ in range(48)])
    f = A.factors(c)
    if A.binary:
        assert f.dtype.itemsize == (1 if field.m <= 7 else
                                    2 if field.m <= 15 else 4)
        assert int(f[0]) == 2 * (field.q - 1)
        assert [int(v) for v in f[1:4]] == [field._log[x] for x in edge[1:]]
    else:
        assert (f == c).all()
    a = A.array([rng.below(field.q) for _ in range(12)] + edge)
    assert (A.mul_factors(a, f[:16]) == A.mul(a, c[:16])).all()
    assert (A.mul_factors(a[:, None], f[:16])
            == A.mul(a[:, None], c[:16])).all()
    # the form of the per-code matrices, entry by entry: up to q = 256
    # offsets i*q + b[i, j] into the product table's rows, past it (GF(2^9)
    # on) the elementwise factors; products with them are `dot` on the
    # elements, also with rows given by index, on columns, and with no rows
    b = c.reshape(15, 4)
    fb = A.matrix_factors(b)
    tabled = A.binary and field.q <= PRODUCT_TABLE_Q
    if tabled:
        assert fb.dtype == np.min_scalar_type(15 * field.q - 1)
        assert (fb == b + field.q * np.arange(15)[:, None]).all()
    else:
        assert (fb == A.factors(b)).all()
    assert (A.matrix_values(fb) == b).all()
    assert (A.dot_factors(a[:15], fb) == A.dot(a[:15], b)).all()
    rows = np.array([14, 3, 7, 0])
    assert (A.matrix_values(fb[rows]) == b[rows]).all()
    assert (A.matrix_values(fb[rows, 1:3]).T == b[rows, 1:3].T).all()
    assert (A.dot_factors(a[:4], fb, rows) == A.dot(a[:4], b[rows])).all()
    assert (A.dot_factors(a[:4], fb[:, 1:3], rows)
            == A.dot(a[:4], b[rows, 1:3])).all()
    none = A.dot_factors(a[:0], fb, rows[:0])
    assert none.shape == (4,) and none.dtype == A.dtype and not none.any()
    pairs = A.array([a[:4], a[4:8]])
    assert (A.dot_factors(pairs, fb, rows) == A.dot(pairs, b[rows])).all()
    assert (A.dot_factors(pairs, A.matrix_factors(b.T))
            == A.dot(pairs, b.T)).all()
    assert (A.dot_factors(a.reshape(8, 2), fb[:2, :3])
            == A.dot(a.reshape(8, 2), b[:2, :3])).all()
    assert (A._products is not None) == tabled


@pytest.mark.parametrize("field", [F16, Field(2, 8)])
def test_table_kernels_match_log_path(monkeypatch, field):
    # every product that Koetter's interpolation reads off the product
    # table, against the same kernel through logs, over all q x q pairs
    A = field.arrays()
    monkeypatch.setattr(fields, "PRODUCT_TABLE_Q", 0)
    logs = FieldArrays(field)
    monkeypatch.undo()
    assert A.narrow_dtype == np.uint8 and logs.narrow_dtype == logs.dtype
    q = field.q
    x = np.arange(q)
    every = logs.mul(x[:, None], x)
    assert every[3, 5] == field.mul(3, 5)
    # the axpy: a row of all elements times a column of all elements,
    # reversed, so that y[k, c] = (q - 1 - k) * c
    for arr in (A, logs):
        y = np.zeros((q, q), dtype=arr.narrow_dtype)
        arr.sub_scaled(y, x, x[::-1])
        assert (y == every[::-1]).all()   # -a*x = a*x in characteristic 2
    for c in range(q):
        # one scalar: on the table path its row of the table
        for arr in (A, logs):
            y = np.zeros(q, dtype=arr.narrow_dtype)
            arr.sub_scaled(y, c, x)
            assert (y == every[c]).all()
        assert (A.mul_scalar(c, x) == logs.mul_scalar(c, x)).all()
        assert A.mul_scalar(c, 7 % q) == every[c, 7 % q]
        assert bytes(map(A.scaler(c), range(q))) == bytes(every[c].tolist())
        assert list(map(logs.scaler(c), range(q))) == every[c].tolist()
    # one-entry slices: entry (0, t, g) is g * t
    slices = (x, np.zeros(q, dtype=np.intp), x)
    for arr in (A, logs):
        out = arr.slice_dot(x[:, None], x[None], x[:, None], slices)
        assert out.shape == (1, q, q) and out.dtype == arr.narrow_dtype
        assert (out[0] == every.T).all()
    # entry (i, j) of a (1, q, 1) by (1, q) product is i * j
    rows, cols = np.divmod(np.arange(q * q), q)
    for arr in (A, logs):
        out = arr.dot_entries(x[None, :, None], x[None], rows, cols)
        assert out.dtype == arr.narrow_dtype
        assert (out == every.reshape(1, -1)).all()


@pytest.mark.parametrize("field", [F7, F16, Field(2, 8), Field(2, 9),
                                   Field(2**31 - 1), Field(4294967291)])
def test_slice_dot_and_dot_entries_match_scalar_sums(field):
    # ragged slices of a's rows, padded with a row of zeros, against sums
    # of Field.mul; on GF(2^m) the columns of a and the rows of b split
    # into blocks of DOT_CHUNK terms, and a row of terms past it is one block
    A = field.arrays()
    rng = XorShift64Star(field.q + 11)

    def draw(*shape):
        return A.array([rng.below(field.q) for _ in range(prod(shape))]
                       ).reshape(shape)

    def total(terms):
        acc = 0
        for c, d in terms:
            acc = field.add(acc, field.mul(int(c), int(d)))
        return acc

    for rows_a, lengths, depth in [(3, [1], 1), (4, [5, 3, 3, 1], 2),
                                   (16, [40, 37, 20, 9], 7),
                                   (9, [DOT_CHUNK // 2 + 3, 700], 3),
                                   (2, [DOT_CHUNK + 9], 2)]:
        width, n = max(lengths), sum(lengths)
        a = draw(n + 1, rows_a)
        a[n] = 0                         # the row of zeros
        b = draw(width + 2, depth)       # its leading rows are read
        starts = np.cumsum(lengths) - lengths
        padded = np.full((len(lengths), width), n)
        for g, (lo, m) in enumerate(zip(starts, lengths)):
            padded[g, :m] = np.arange(lo, lo + m)
        pos = np.concatenate([np.arange(m) for m in lengths])
        out = A.slice_dot(a, b, padded, (np.arange(n), pos, starts))
        assert out.shape == (rows_a, depth, len(lengths))
        for r in range(rows_a):
            for t in range(depth):
                for g, (lo, m) in enumerate(zip(starts, lengths)):
                    want = total(zip(a[lo:lo + m, r], b[:m, t]))
                    assert out[r, t, g] == want, (lengths, r, t, g)
    for shape, k in [((3, 2, 4), 3), ((40, 7, 16), 7),
                     ((3, 2, DOT_CHUNK + 1), 2)]:
        a, b = draw(*shape), draw(shape[2], k)
        rows = np.array([i for i in range(shape[1]) for _ in range(k)][::2])
        cols = np.array([j for _ in range(shape[1]) for j in range(k)][::2])
        out = A.dot_entries(a, b, rows, cols)
        assert out.shape == (shape[0], len(rows))
        for r in range(shape[0]):
            for p, (i, j) in enumerate(zip(rows, cols)):
                assert out[r, p] == total(zip(a[r, i], b[:, j])), (shape, p)


@pytest.mark.parametrize("field", [F7, F16, Field(2, 4, 0b11001), Field(2, 8),
                                   Field(2, 9), Field(2**61 - 1)],
                         ids=["gf7", "gf16", "gf16-mod", "gf256", "gf512",
                              "mersenne61"])
def test_list_axpy_and_inner_match_scalar_sums(field):
    # Field.axpy, Field.shifted_axpy and Field.inner against Field.sub and
    # Field.mul term by term, on lists that hold zeros; axpy and inner read
    # the shorter of two widths, shifted_axpy's step writes d[i:i + len(v)]
    rng = XorShift64Star(field.m + field.p % 1000)
    lists = XorShift64Star(field.q + 3)   # shifted_axpy's targets

    def draw(width, rng=rng):   # about a third of the entries zero
        return [rng.below(field.q) if rng.below(3) else 0
                for _ in range(width)]

    for wd, wv in [(0, 0), (1, 1), (5, 5), (7, 4), (3, 9), (40, 40)]:
        d, v = draw(wd), draw(wv)
        for c in (1, field.q - 1, 1 + rng.below(field.q - 1)):
            assert field.axpy(c, d, v) == [field.sub(x, field.mul(c, y))
                                           for x, y in zip(d, v)], (wd, wv)
            step = field.shifted_axpy(v)
            for i in (0, 1, 3):
                got = draw(wv + i + 2, lists)
                want = got[:i] + [field.sub(x, field.mul(c, y)) for x, y in
                                  zip(got[i:], v)] + got[i + wv:]
                step(c, got, i)
                assert got == want, (wd, wv, i)
        want = 0
        for x, y in zip(d, v):
            want = field.add(want, field.mul(x, y))
        assert field.inner(d, v) == want, (wd, wv)
    assert field.axpy(2, [0, 0], [0, 0]) == [0, 0]
    assert field.inner([0, 1], [5, 0]) == 0


def test_field_pickles_after_its_list_steps_are_bound():
    field = Field(2, 4, 0b11001)
    field.axpy(3, [1, 2], [4, 5])
    copy = pickle.loads(pickle.dumps(field))
    assert copy == field and copy.axpy(3, [1, 2], [4, 5]) == field.axpy(
        3, [1, 2], [4, 5])
    with pytest.raises(AttributeError):
        field.no_such_attribute


def _gf2_dot(field, xs, ys):
    total = 0
    for x, y in zip(xs, ys):
        total = field.add(total, field.mul(x, y))
    return total


@pytest.mark.parametrize("field", [F7, Field(2, 4, 0b11001),
                                   Field(2**31 - 1), Field(4294967291)])
def test_array_indexed_values_match_evaluate(field):
    # row i - start is polynomial number i (its base-q digits, low to high)
    # at every point, times the multiplier; the multiplier has zeros
    A = field.arrays()
    q = field.q
    xs = [0, 1, 2, q - 1, q // 3]
    mult = [3, 0, 1, q - 2, 0]

    def expected(start, stop, width):
        rows = []
        for i in range(start, stop):
            poly = Polynomial(field, base_q_digits(i, q, width))
            rows.append([field.mul(poly.evaluate(x), m)
                         for x, m in zip(xs, mult)])
        return rows

    def values(start, stop, width):
        # the points' powers as the rows of a code's `point_powers`
        powers = A.matrix_factors(A.powers(A.array(xs), width).T)
        table = A.indexed_values(start, stop, powers, A.array(mult))
        assert table.shape == (stop - start, len(xs))
        assert table.dtype == A.dtype
        return [[int(v) for v in row] for row in table]

    # degree bound 0: the zero polynomial only
    assert values(0, 1, 0) == [[0] * len(xs)]
    spans = [(0, min(q ** 2, 60), 2), (q - 3, q + 4, 2), (q ** 2 - 2, q ** 2, 2),
             (q ** 3 - 5, q ** 3, 3)]
    if A.dtype == object:
        spans.append((2**64 + 5, 2**64 + 12, 3))   # past int64: no wrap
    elif q > 2**20:
        spans.append((2**63 - 3, 2**63 + 4, 3))    # digits found as Python ints
    for start, stop, width in spans:
        assert values(start, stop, width) == expected(start, stop, width)
        # split at a chunk boundary, the two halves make the whole
        mid = (start + stop) // 2
        assert values(start, mid, width) + values(mid, stop, width) == \
            expected(start, stop, width)


@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_prime_field_ring_axioms(a, b, c):
    F = Field(13)
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == 0


@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
def test_binary_field_ring_axioms(a, b, c):
    F = Field(2, 3)
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
