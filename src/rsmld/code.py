"""Reed-Solomon codes, received words, and the exhaustive ML oracle.

An (n, k) Reed-Solomon code over GF(q) evaluates message polynomials of
degree < k at n distinct field points.  The oracle returns the minimum
distance L of a received word r from the code and every message at it --
exhaustive but exact, which is what the fast decoders are tested against.
It has two exact enumerations and takes the one that is faster per word
for the code's (n, k, q), by a cost rule fitted to timings of both
(`SUBSET_PRODUCT_CELLS`, `SUBSET_WORD_CELLS`):

* the table scan: a table of the q**(k-1) codewords whose constant
  coefficient is 0 (q**(k-1) * n entries), and the agreements of all q
  constant coefficients of a row read off a histogram of the row's digits,
  q**(k-1) * (n + q) cells per word.  That counting kernel, `digit_counts`,
  also serves the level enumeration of `division`, which counts the
  constant term a_0 the same way; it takes at most HISTOGRAM_CHUNK cells at
  a time, and past q = HISTOGRAM_CHUNK it counts each row's own values by
  sorting the row;
* the information sets (Prange, 1962, taken exhaustively): one divided
  difference of r per (k+1)-subset of positions, C(n, k+1) * (k+1)
  products per word.

Why the information sets are exact.  An RS code is MDS with covering radius
n - k, so a nearest codeword c is at distance L <= n - k and agrees with r
on a set A of n - L >= k positions.  Any k points of A determine c, the
interpolant c_S of r on them.  r fits a polynomial of degree < k on
S + {i}, that is its divided difference there is 0, exactly when c_S agrees
with r at i.  Count u(S), the i > max S where it does.  For S the k lowest
positions of A every other agreement lies above max S, so u(S) = n - L - k;
for any k-subset S', u(S') <= (agreements of c_S') - k <= n - L - k, with
equality only when c_S' is a nearest codeword and S' its k lowest agreement
positions.  So the best agreement is k + max u, and the S with u(S) =
max u name every nearest codeword, each once.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from math import comb, isqrt
from typing import Iterable, Iterator, Sequence

import numpy as np

from .fields import Field, FieldMismatch, parse_field
from .polys import (Polynomial, base_q_digits, lagrange_interpolate,
                    vanishing_poly)
from .rng import XorShift64Star

JSON_VERSION = 1


# The oracle and the level enumeration work on about HISTOGRAM_CHUNK elements
# at a time: histogram cells (rows x digits) in `digit_counts`, table entries
# while the oracle builds its table, and divided-difference terms on the
# information sets, so no temporary grows with q**k or with q.
HISTOGRAM_CHUNK = 1 << 14

# The oracle's cost rule, in histogram cells of the table scan: one
# divided-difference product of the information sets costs about
# SUBSET_PRODUCT_CELLS cells, and each word about SUBSET_WORD_CELLS more, for
# their extra numpy calls and one interpolation per nearest message (the
# table scan reads a message off its index).  Fitted to in-process timings of
# both enumerations on 19 codes, k = 1 .. 5 and q = 7 .. 256: 2.8 ns a cell
# and 8.0 ns a product, 33 us more per word on the subsets.
SUBSET_PRODUCT_CELLS = 3
SUBSET_WORD_CELLS = 12_000


def histogram_rows(q: int) -> int:
    """The most rows of a block that `digit_counts` takes over GF(q)."""
    return HISTOGRAM_CHUNK // q or 1


@lru_cache(maxsize=8)
def _histogram_grid(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The row offsets i * q of a histogram block over GF(q), and every
    digit 0 .. q - 1 on every row (a read-only view), for `digit_counts`."""
    rows = histogram_rows(q)
    offsets = q * np.arange(rows, dtype=np.int64)[:, None]
    offsets.flags.writeable = False
    return offsets, np.broadcast_to(np.arange(q), (rows, q))


def digit_counts(q: int, blocks: Iterable[np.ndarray], spare=None
                 ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Digit counts of the rows of blocks of values in [0, q).

    Each block w has at most `histogram_rows(q)` rows.  For each it yields
    (lo, w, digits, counts): counts[i, c] is the number of columns of row
    i, other than the `spare` ones (an index, an index array or None),
    where w is digits[i, c], and lo is the index of w's first row among all
    the blocks' rows.

    Up to q = HISTOGRAM_CHUNK every digit has a cell: digits is 0 .. q - 1
    on every row, and counts is the row's histogram, one `bincount` per
    block with cell i * q + d for row i and digit d and one spare cell past
    them for the spare columns.  Past it a row holds at most as many
    distinct values as columns, and only they can count: digits is the row
    sorted, and counts holds each run's length at its first column and 0
    at the others, so no cell depends on q."""
    if q > HISTOGRAM_CHUNK:
        lo = 0
        for w in blocks:
            digits = np.sort(w if spare is None else np.delete(w, spare, axis=1),
                             axis=1)
            first = np.ones(digits.shape, dtype=bool)
            first[:, 1:] = digits[:, 1:] != digits[:, :-1]
            starts = np.flatnonzero(first)
            counts = np.zeros(digits.size, dtype=np.int64)
            counts[starts] = np.diff(starts, append=digits.size)
            yield lo, w, digits, counts.reshape(digits.shape)
            lo += len(w)
        return
    offsets, every = _histogram_grid(q)
    lo = 0
    for w in blocks:
        cells = len(w) * q
        idx = w + offsets[:len(w)]
        if spare is not None:
            idx[:, spare] = cells
        counts = np.bincount(idx.ravel(), minlength=cells + 1)[:cells]
        yield lo, w, every[:len(w)], counts.reshape(len(w), q)
        lo += len(w)


class OracleBudgetExceeded(ValueError):
    """Raised when q**k is too large for exhaustive enumeration."""


class RSCode:
    """An (n, k) Reed-Solomon code with explicit evaluation points."""

    __slots__ = ("field", "n", "k", "eval_points", "_constants")

    def __init__(self, field: Field, n: int, k: int,
                 eval_points: Sequence[int] | None = None):
        if not 1 <= k < n:
            raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
        if n > field.q:
            raise ValueError(f"n={n} exceeds field size q={field.q}")
        if eval_points is None:
            pts = tuple(range(n))  # first n elements in enumeration order
        else:
            pts = tuple(field.check(x) for x in eval_points)
            if len(pts) != n:
                raise ValueError(f"expected {n} evaluation points, got {len(pts)}")
            if len(set(pts)) != n:
                raise ValueError("evaluation points must be distinct")
        self.field = field
        self.n = n
        self.k = k
        self.eval_points = pts
        self._constants: CodeConstants | None = None

    # -- basic parameters ------------------------------------------------

    @property
    def d(self) -> int:
        """Minimum distance n - k + 1 (MDS)."""
        return self.n - self.k + 1

    def classical_radius(self) -> int:
        """Largest t with unique decoding guaranteed: t < d/2."""
        return (self.d - 1) // 2

    def johnson_radius_max(self) -> int:
        """Largest integer t with t < n - sqrt(n*(n-d))."""
        return self.n - isqrt(self.n * (self.n - self.d)) - 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, RSCode) and self.field == other.field
                and self.n == other.n and self.k == other.k
                and self.eval_points == other.eval_points)

    def __hash__(self):
        return hash((self.field, self.n, self.k, self.eval_points))

    def __repr__(self):
        return f"RSCode(({self.n},{self.k}) over {self.field.label()})"

    # -- encoding --------------------------------------------------------

    def message_poly(self, coeffs: Iterable[int] | Polynomial) -> Polynomial:
        if isinstance(coeffs, Polynomial):
            m = coeffs
            if m.field != self.field:
                raise FieldMismatch("message polynomial from a different field")
        else:
            m = Polynomial(self.field, [self.field.check(c) for c in coeffs])
        if m.degree() >= self.k:
            raise ValueError(f"message degree {m.degree()} >= k={self.k}")
        return m

    def encode(self, msg: Iterable[int] | Polynomial) -> "Word":
        m = self.message_poly(msg)
        consts = self.constants()
        arr = consts.arrays
        values = arr.dot(arr.array(m.coeffs), consts.vandermonde[:len(m.coeffs)])
        return Word(self, tuple(values.tolist()))

    def constants(self) -> "CodeConstants":
        """The code's decoding constants, cached; each is built on first use."""
        if self._constants is None:
            self._constants = CodeConstants(self)
        return self._constants

    # -- oracle ----------------------------------------------------------

    def _codeword_table(self) -> np.ndarray:
        """The oracle's table, `CodeConstants.codeword_table`."""
        return self.constants().codeword_table

    def _message_from_index(self, idx: int) -> Polynomial:
        return Polynomial(self.field, base_q_digits(idx, self.field.q, self.k))

    def ml_oracle(self, word: "Word", budget: int = 10_000_000) -> "DecodeOutcome":
        """Exact minimum-distance decoding by exhaustive enumeration.

        The budget bounds the q**k codewords whichever enumeration runs.
        The oracle takes the information sets (`_nearest_by_subsets`) when
        SUBSET_PRODUCT_CELLS * C(n, k + 1) * (k + 1) + SUBSET_WORD_CELLS,
        their cost in cells, is below the table scan's q**(k-1) * (n + q)
        cells (`_nearest_by_table`), and the table scan otherwise: a
        property of (n, k, q).  Both return every nearest message, sorted by
        coefficients.
        """
        self._check_word(word)
        n, k, q = self.n, self.k, self.field.q
        if q ** k > budget:
            raise OracleBudgetExceeded(
                f"q**k = {q}**{k} exceeds oracle budget {budget}")
        if (SUBSET_PRODUCT_CELLS * comb(n, k + 1) * (k + 1)
                + SUBSET_WORD_CELLS < q ** (k - 1) * (n + q)):
            best, msgs = self._nearest_by_subsets(word)
        else:
            best, msgs = self._nearest_by_table(word)
        msgs.sort(key=lambda p: p.coeffs)
        return DecodeOutcome(min_distance=n - best, messages=tuple(msgs),
                             method="oracle")

    def _nearest_by_table(self, word: "Word") -> tuple[int, list[Polynomial]]:
        """The best agreement with the word r and every message that reaches
        it, from the table scan.

        Every codeword is m_0 + c with c a row of `_codeword_table`.  At
        every point it agrees with r for exactly one constant coefficient,
        m_0 = r_i - c_i.  So the digit histograms of the rows of r - C
        (`digit_counts`) count the agreements of all q values of m_0 of
        every row: all q**k distances, HISTOGRAM_CHUNK cells at a time.  A
        row's best m_0 is one of its own digits, so the sorted counts past
        HISTOGRAM_CHUNK find it too.  A message's index is m_0 + q * row.
        """
        q = self.field.q
        table = self._codeword_table()
        arr = self.field.arrays()
        r = np.asarray(word.symbols, dtype=table.dtype)
        step = histogram_rows(q)
        blocks = (arr.sub(r, table[lo:lo + step])
                  for lo in range(0, len(table), step))
        best, hits = -1, []
        for lo, _, digits, counts in digit_counts(q, blocks):
            top = int(counts.max())
            if top >= best:
                if top > best:
                    best, hits = top, []
                row, col = np.nonzero(counts == top)
                hits.append(digits[row, col] + (lo + row) * q)
        return best, [self._message_from_index(int(i))
                      for i in np.concatenate(hits)]

    def _nearest_by_subsets(self, word: "Word") -> tuple[int, list[Polynomial]]:
        """The best agreement with the word r and every message that reaches
        it, from the information sets (`CodeConstants.information_sets`).

        r fits a polynomial of degree < k on a (k+1)-subset U exactly when
        its divided difference s_U = sum_j h_U,j * r_(u_j) is 0, that is when
        the interpolant c_S of r on S, U without its last position, agrees
        with r there.  The U's that extend one S are adjacent in lex order,
        so a run of zero s_U's counts u(S), the agreements of c_S above
        max S.  The longest runs name every nearest codeword once (see the
        module docstring); with no zero s_U every k-subset names one, at
        agreement k.  Each message is one interpolation on S.
        """
        n, k, F = self.n, self.k, self.field
        positions, weights = self.constants().information_sets
        arr = F.arrays()
        r = arr.array(word.symbols)
        step = max(1, HISTOGRAM_CHUNK // (k + 1))
        zero = np.concatenate([
            lo + np.flatnonzero(arr.factor_sums(
                weights[:, lo:lo + step], r, positions[:, lo:lo + step]) == 0)
            for lo in range(0, positions.shape[1], step)])
        if zero.size:
            heads = positions[:k, zero]
            new = np.ones(zero.size, dtype=bool)
            new[1:] = (heads[:, 1:] != heads[:, :-1]).any(axis=0)
            starts = np.flatnonzero(new)
            runs = np.diff(starts, append=zero.size)
            top = int(runs.max())
            subsets = heads[:, starts[runs == top]].T.tolist()
        else:
            top, subsets = 0, itertools.combinations(range(n), k)
        points, symbols = self.eval_points, word.symbols
        return k + top, [lagrange_interpolate(F, [points[i] for i in s],
                                              [symbols[i] for i in s])
                         for s in subsets]

    # -- helpers ---------------------------------------------------------

    def _check_word(self, word: "Word") -> None:
        if word.code != self:
            raise FieldMismatch("word belongs to a different code")


class CodeConstants:
    """Arrays and polynomials that depend only on the code, never on a word.

    Each attribute is computed on first access and then kept, so one RSCode
    reused across words pays for it once, and a decoder builds only the
    attributes it uses.  Every linear map from a word to a polynomial or a
    codeword is a matrix here, so a word costs one `FieldArrays.dot` per
    map.  The three that every word of a decoder multiplies, H^T, T and
    the point powers P, are kept as `FieldArrays.matrix_factors` and
    applied with `dot_factors`; how they are stored is the field's
    choice (offsets into rows of a product table up to GF(2^8), logs with
    a zero sentinel on larger GF(2^m), the elements on GF(p)):

    * `interpolation_matrix` (n x n): row j holds w_j * Pi / (x - x_j) with
      w_j = 1 / Pi'(x_j), so a word r has Lagrange interpolant L = r . B;
      only `mgb_euclid` reads it (`--dump-basis`, `rsmld repro`, tests);
    * `short_interpolation_matrix` ((n - k) x (n - k + 1)): the rows
      w_j * Pi_y / (x - x_j) at the first n - k points, for the re-encoded
      L_y = y . R; only `mgb_euclid_reencoded` reads it;
    * `tail_matrix` (k x k): the same over the tail, the last k points,
      with G_t = prod (x - x_j) there; the re-encoding shift is r_tail . T,
      from which every decoder's candidate check reads its messages;
    * `vandermonde` (k x n): x_i^e in row e, so a message m of length
      <= k encodes as m . V[:len m], and the shift's values at the first
      n - k points are shift . V[:, :n - k] (`division.reencode`);
    * `weighted_powers` (n x (n - k)): v_i * x_i^j in row i, column j,
      with v_i = 1 / Pi'(x_i).  It is H^T, the transposed parity-check
      matrix: a word r has syndromes S = r . H^T, all zero exactly on
      codewords; every decoder builds its basis from them;
    * `point_powers` ((n - k + 2) x n): x_i^e in row e <= n - k + 1, so
      the values at the points of polynomials of degree < d are their
      coefficients . P[:d] (`values_at_points`): the anchors, the zero
      sets of the level search and of the rational fit, and the values
      of every b and a - a_0 of a level (`FieldArrays.indexed_values`).
      It is not the Vandermonde matrix's first rows, which would give
      every decoder the kn entries that only encoding needs.

    Two attributes are not maps; each serves one of the oracle's
    enumerations, and only the one it takes is built:

    * `codeword_table` (q**(k-1) x n), the table of the codewords whose
      constant coefficient is 0: 16^4 x 15 int8 entries (0.98 MB) at
      (15, 5) over GF(16), 32^4 x 31 (32.5 MB) at (31, 5) over GF(32);
    * `information_sets`, the positions and divided-difference factors of
      every (k+1)-subset, 2 x (k + 1) x C(n, k + 1) entries: 2 x 6 x 5005
      bytes (60 KB) at (15, 5), 2 x 6 x 736 281 (8.8 MB) at (31, 5).

    Every decoder builds the tail matrix, the weighted powers and the
    point powers; encoding builds the Vandermonde matrix.

    Memory: an offset or a log takes two bytes per element (offsets are
    kept in the narrowest dtype that holds them, logs take four at
    m = 16), and an element 8 bytes as int64 (a Python int past that).  The
    k^2 + (n - k)n elements of T and H^T are 0.12 MB at (255, 223) over
    GF(2^8), 2.0 MB at (1023, 991) over GF(2^10) and 33 MB at
    (4095, 4063) over GF(2^12); the point powers' (n - k + 2)n add 17 KB,
    70 KB and 0.28 MB there (4.5 KB at (31, 15) over GF(31)); all six
    matrices, with the int64 short one, the kn of the Vandermonde matrix
    and the n^2 of the interpolation matrix, 1.1, 18.6 and 301 MB.
    GF(2^8)'s product table adds 64 KB per field.  At (4095, 4063) a
    prototype decoded a word no faster with the matrices than with a
    numpy step per point.
    """

    def __init__(self, code: RSCode):
        self.field = code.field
        self.eval_points = code.eval_points
        self.k = code.k
        self.split = code.n - code.k
        self.arrays = code.field.arrays()

    @cached_property
    def points(self) -> np.ndarray:
        """The evaluation points as a field array."""
        return _read_only(self.arrays.array(self.eval_points))

    @cached_property
    def vanishing(self) -> Polynomial:
        """Pi = prod (x - x_i) over all n points."""
        return vanishing_poly(self.field, self.eval_points)

    @cached_property
    def short_vanishing(self) -> Polynomial:
        """Pi_y = prod (x - x_i) over the first n - k + 1 points."""
        return vanishing_poly(self.field, self.eval_points[:self.split + 1])

    def _weights(self, vanishing: Polynomial, roots: np.ndarray) -> np.ndarray:
        """w_j = 1 / V'(x_j) at roots x_j of V, all of them or some."""
        F = self.field
        derivative = [F.mul(e % F.p, c) for e, c in enumerate(vanishing.coeffs)]
        return self.arrays.inv(self.arrays.evaluate(derivative[1:], roots))

    def _interpolator(self, vanishing: Polynomial,
                      roots: np.ndarray) -> np.ndarray:
        """Row j: the coefficients, low to high, of w_j * V / (x - x_j) with
        w_j = 1 / V'(x_j), for V = prod (x - x_j) over the roots."""
        return _read_only(self.arrays.barycentric(
            roots, vanishing.coeffs, self._weights(vanishing, roots)))

    @cached_property
    def interpolation_matrix(self) -> np.ndarray:
        """n x n: row j is w_j * Pi / (x - x_j), w_j = 1 / Pi'(x_j)."""
        return self._interpolator(self.vanishing, self.points)

    @cached_property
    def short_interpolation_matrix(self) -> np.ndarray:
        """(n - k) x (n - k + 1): row j is w_j * Pi_y / (x - x_j) for each of
        the first n - k points, w_j = 1 / Pi'(x_j).

        The re-encoded decoder interpolates y_j / G(x_j) at those points and
        0 at x_(n-k), with G = prod (x - x_i) over the last k - 1 points.
        Pi = Pi_y * G and Pi_y(x_j) = 0 give Pi'(x_j) = Pi_y'(x_j) * G(x_j),
        so that interpolant is y . R: the rows carry the 1 / G(x_j), and the
        zero at x_(n-k) needs no row."""
        head = self.points[:self.split]
        return _read_only(self.arrays.barycentric(
            head, self.short_vanishing.coeffs,
            self._weights(self.vanishing, head)))

    @cached_property
    def tail_matrix(self) -> np.ndarray:
        """k x k: row j is w_j * G_t / (x - x_j) over the tail points, with
        G_t = prod (x - x_i) there and w_j = 1 / G_t'(x_j); as matrix
        factors."""
        return _read_only(self.arrays.matrix_factors(self._interpolator(
            vanishing_poly(self.field, self.eval_points[self.split:]),
            self.points[self.split:])))

    @cached_property
    def vandermonde(self) -> np.ndarray:
        """k x n: x_i^e in row e, column i."""
        return _read_only(np.ascontiguousarray(
            self.arrays.powers(self.points, self.k).T))

    @cached_property
    def codeword_table(self) -> np.ndarray:
        """(q**(k-1)) x n: row j encodes the message whose coefficients of
        x^1 .. x^(k-1) are the base-q digits of j and whose constant is 0.

        Built from Vandermonde rows 1 .. k - 1, one block of (q, n) multiples
        per digit, about HISTOGRAM_CHUNK entries at a time; int8, int16 or
        int64 by q."""
        q, n, arr = self.field.q, len(self.eval_points), self.arrays
        # contrib[e][s][i] = -s * x_i^(e+1), negated so that one `sub` adds
        contrib = [arr.mul(np.arange(q)[:, None], arr.sub(0, row))
                   for row in self.vandermonde[1:]]
        dtype = np.int8 if q <= 127 else np.int16 if q <= 32768 else np.int64
        table = np.zeros((q ** (self.k - 1), n), dtype=dtype)
        chunk = max(1, HISTOGRAM_CHUNK // n)
        for lo in range(0, len(table), chunk):
            rest = np.arange(lo, min(lo + chunk, len(table)), dtype=np.int64)
            acc = np.zeros((len(rest), n), dtype=arr.dtype)
            for part in contrib:
                acc = arr.sub(acc, part[rest % q])
                rest //= q
            table[lo:lo + chunk] = acc
        return _read_only(table)

    @cached_property
    def information_sets(self) -> tuple[np.ndarray, np.ndarray]:
        """(positions, weights), each (k + 1) x C(n, k + 1): column c holds
        the positions u_0 < ... < u_k of the c-th (k+1)-subset U in lex
        order, and the factors (`FieldArrays.factors`) of the divided
        difference's h_U,j = 1 / prod_(l != j) (x_(u_j) - x_(u_l)).

        Built one size at a time from the 1-subsets.  Position a followed
        by each j-subset T above a, a ascending and T in lex order, gives the
        (j+1)-subsets in lex order, and the T's above a are a suffix of
        theirs.  T's h's gain the factor 1 / (x_(t_i) - x_a), and a's h is
        prod_i 1 / (x_a - x_(t_i)): one gather and one `mul` per row, on
        field values, which are then turned into factors about HISTOGRAM_CHUNK
        at a time.  Positions in the narrowest dtype that holds n - 1, values
        and factors in the one that holds q - 1; the temporaries are one row
        of the largest suffix, C(n - 1, k) entries."""
        n, arr = len(self.eval_points), self.arrays
        diff = arr.sub(self.points[:, None], self.points)
        np.fill_diagonal(diff, 1)
        inv = arr.inv(diff)  # inv[a, b]: 1 / (x_a - x_b)
        narrow = arr.dtype if arr.dtype == object else np.min_scalar_type(
            self.field.q - 1)
        positions = np.arange(n, dtype=np.min_scalar_type(n - 1))[None, :]
        weights = np.ones((1, n), dtype=narrow)
        for size in range(2, self.k + 2):
            grown = np.empty((size, comb(n, size)), dtype=positions.dtype)
            grown_weights = np.empty(grown.shape, dtype=narrow)
            lo = 0
            for a in range(n - size + 1):
                above = np.searchsorted(positions[0], a, side="right")
                tail, tail_weights = positions[:, above:], weights[:, above:]
                hi = lo + tail.shape[1]
                grown[0, lo:hi], grown[1:, lo:hi] = a, tail
                first = inv[a][tail[0]]
                for i, row in enumerate(tail):
                    grown_weights[i + 1, lo:hi] = arr.mul(
                        tail_weights[i], inv[:, a][row])
                    if i:
                        first = arr.mul(first, inv[a][row])
                grown_weights[0, lo:hi] = first
                lo = hi
            positions, weights = grown, grown_weights
        step = max(1, HISTOGRAM_CHUNK // (self.k + 1))
        for lo in range(0, weights.shape[1], step):
            weights[:, lo:lo + step] = arr.factors(weights[:, lo:lo + step])
        return _read_only(positions), _read_only(weights)

    @cached_property
    def point_powers(self) -> np.ndarray:
        """(n - k + 2) x n: x_i^e in row e, column i, for e <= n - k + 1,
        the degree of the short module's Pi_y; as matrix factors.  The
        decoders evaluate nothing of higher degree at the points: f2 has
        degree t <= n - k at every level, and so do the basis' second
        components, b (degree k2 <= t) and a - a_0 (degree k1 < t)."""
        return _read_only(self.arrays.matrix_factors(
            self.arrays.powers(self.points, self.split + 2).T))

    def values_at_points(self, polys: Sequence[Sequence[int]]) -> np.ndarray:
        """Row i: the values at the n points of the polynomial with
        coefficients polys[i] (low to high), all rows in one `dot_factors`
        with the first rows of `point_powers`."""
        arr, powers = self.arrays, self.point_powers
        width = max(map(len, polys), default=0)
        if width > len(powers):
            raise ValueError(f"degree {width - 1} past the point powers' "
                             f"{len(powers) - 1}")
        coeffs = np.zeros((len(polys), width), dtype=arr.dtype)
        for row, c in zip(coeffs, polys):
            row[:len(c)] = c
        return arr.dot_factors(coeffs, powers[:width])

    @cached_property
    def weighted_powers(self) -> np.ndarray:
        """H^T, n x (n - k): v_i * x_i^j in row i, column j < n - k, with
        v_i = 1 / Pi'(x_i); column 0 holds the v_i themselves.

        H checks the code: for a message m of degree < k and j < n - k,
        x^j * m has degree at most n - 2, and the sum over all points of
        p(x_i) / Pi'(x_i) is p's x^(n - 1) coefficient, zero here.  H has
        full rank n - k, so r . H^T = 0 exactly when r is a codeword.  Kept
        as matrix factors."""
        arr = self.arrays
        weights = self._weights(self.vanishing, self.points)
        return _read_only(arr.matrix_factors(arr.mul(
            arr.powers(self.points, self.split), weights[:, None])))


def _read_only(a: np.ndarray) -> np.ndarray:
    """Lock a cached array: every word of the code shares it."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Word:
    """A length-n vector over the code's field."""

    code: RSCode
    symbols: tuple[int, ...]

    def __post_init__(self):
        if len(self.symbols) != self.code.n:
            raise ValueError(
                f"word length {len(self.symbols)} != n={self.code.n}")
        symbols = tuple(self.code.field.check(s) for s in self.symbols)
        object.__setattr__(self, "symbols", symbols)

    def to_json(self) -> str:
        obj = {"v": JSON_VERSION, "field": self.code.field.label(),
               "n": self.code.n, "k": self.code.k,
               "symbols": list(self.symbols)}
        if self.code.eval_points != tuple(range(self.code.n)):
            obj["eval_points"] = list(self.code.eval_points)
        return json.dumps(obj, separators=(", ", ": "))

    @classmethod
    def from_json(cls, text: str) -> "Word":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("word JSON must be an object")
        if obj.get("v") != JSON_VERSION:
            raise ValueError(f"unsupported word schema version {obj.get('v')!r}")
        missing = [key for key in ("field", "n", "k", "symbols") if key not in obj]
        if missing:
            raise ValueError(f"word JSON lacks {', '.join(missing)}")
        if not isinstance(obj["field"], str):
            raise ValueError("word JSON field must be a label string")
        points = obj.get("eval_points")
        _json_ints("n and k", [obj["n"], obj["k"]])
        _json_ints("symbols", obj["symbols"])
        if points is not None:
            _json_ints("eval_points", points)
        if len(obj["symbols"]) != obj["n"]:  # before RSCode lists n points
            raise ValueError(f"word JSON symbols: word length "
                             f"{len(obj['symbols'])} != n={obj['n']}")
        try:
            code = RSCode(parse_field(obj["field"]), obj["n"], obj["k"], points)
        except ValueError as exc:
            raise ValueError(f"word JSON: {exc}") from None
        try:
            return cls(code, tuple(obj["symbols"]))
        except ValueError as exc:
            raise ValueError(f"word JSON symbols: {exc}") from None


def _json_ints(what: str, values) -> None:
    """Reject anything but a list of JSON integers (booleans included)."""
    if not isinstance(values, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise ValueError(f"word JSON {what} must be integers")


def hamming_distance(a: Word | Sequence[int], b: Word | Sequence[int]) -> int:
    sa = a.symbols if isinstance(a, Word) else tuple(a)
    sb = b.symbols if isinstance(b, Word) else tuple(b)
    if len(sa) != len(sb):
        raise ValueError("length mismatch")
    return sum(1 for x, y in zip(sa, sb) if x != y)


def corrupt(word: Word, weight: int, seed: int) -> Word:
    """Flip exactly `weight` positions of `word` to different symbols.

    Positions come from a partial Fisher-Yates shuffle; each hit symbol is
    replaced by (old + 1 + u) mod q with u uniform in [0, q-1), so the new
    symbol is never the old one.  Fully determined by the seed.
    """
    code = word.code
    if not 0 <= weight <= code.n:
        raise ValueError(f"weight {weight} out of range [0, {code.n}]")
    rng = XorShift64Star(seed)
    positions = rng.sample_indices(code.n, weight)
    q = code.field.q
    out = list(word.symbols)
    for pos in positions:
        out[pos] = (out[pos] + 1 + rng.below(q - 1)) % q
    return Word(code, tuple(out))


def random_word(code: RSCode, seed: int) -> Word:
    """A uniformly random received word (not necessarily near the code)."""
    rng = XorShift64Star(seed)
    return Word(code, tuple(rng.below(code.field.q) for _ in range(code.n)))


@dataclass
class DecodeOutcome:
    """Result of a minimal list decoding: the distance and every message at it.

    Equality compares (min_distance, messages) only; search metadata such as
    the level reached or the basis degrees is informational.
    """

    min_distance: int
    messages: tuple[Polynomial, ...]
    method: str = "?"
    search_level: int | None = None
    ell1: int | None = None
    ell2: int | None = None
    params_used: list = dc_field(default_factory=list)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DecodeOutcome):
            return NotImplemented
        return (self.min_distance == other.min_distance
                and set(self.messages) == set(other.messages))

    def message_coeff_lists(self) -> list[list[int]]:
        return [list(m.coeffs) for m in self.messages]

    def __repr__(self):
        polys = ", ".join(str(m) for m in self.messages)
        return (f"DecodeOutcome(d={self.min_distance}, "
                f"messages={{{polys}}}, method={self.method})")


def shifted_word(code: RSCode, r: Word, m: Polynomial) -> Word:
    """r - encode(m), used when decoding relative to a known codeword."""
    enc = code.encode(m)
    F = code.field
    return Word(code, tuple(F.sub(a, b) for a, b in zip(r.symbols, enc.symbols)))
