"""Minimal list decoding by a level search over basis combinations.

Given the reduced basis {g1, g2} of the interpolation module, every codeword
at distance t from the received word shows up as a combination
f = a*g1 + b*g2 (deg a <= ell2 - ell1 + j, b monic of degree j, t = ell2 -
k + 1 + j) whose second component vanishes at its t error positions; the
paper reads the message as m = -f1/f2.  Searching levels j = 0, 1, ... in
order finds the exact minimum distance and the complete list of messages at
it.

The search radius is capped: by default at the largest t below the Johnson
bound (where the level arithmetic is meaningful for every code), and at
n - k when `beyond_johnson` is set, which always terminates with the true
minimum distance because the covering radius of an RS code is at most n - k.

A pair matters only through the zero set Z of its f2 among the evaluation
points.  Since f2 = a*g1.f2 + b*g2.f2, it vanishes at x_i exactly when
a_0 = z_i*b(x_i) - (a - a_0)(x_i), with the anchor z_i = -g2.f2(x_i) /
g1.f2(x_i) of the rational fit (Wu, IEEE T-IT 54(8), 2008): the
enumeration is that fit done exhaustively.  The pair source computes that
value at the n points for every monic b and every a - a_0 of the level,
reading the values of every polynomial off the code's table of the points'
powers (`CodeConstants.point_powers`), and one digit histogram per row
(`code.digit_counts`, the oracle's counting kernel) gives the zero counts
of all q choices of a_0; the Z of each pair with at least t zeros goes to
the candidate check, which never sees f2, f1 or the pair.  The search
reads only the ell's and the second components g1.f2, g2.f2.  Every
decoder takes them from r's syndromes (`groebner.syndrome_pair`): the same
ell's and g1.f2 as M(r)'s basis, and a g2.f2 that may differ by c*g1.f2,
deg c <= ell2 - ell1.  So their pair (a, b) has the f2 of M(r)'s pair
(a + b*c, b) of the same level, a one-to-one map, and each level yields
the same zero sets.  The paper's re-encoded basis (`mgb_euclid_reencoded`
on the shifted word y = r - encode(shift), whose errors are those of r)
is the same pair in this sense: its ell's lifted by k - 1 are these, its
g1.f2 is this g1.f2 times a nonzero scalar, and its g2.f2 differs from
this one by c*g1.f2, deg c <= ell2 - ell1.  So the re-encoded decoder
runs this search unchanged (`decode_minimal_reencoded`).

Three facts make the search exact.  The degrees come from the basis: g2
leads in position 2, so deg(b*g2.f2) = j + ell2 - k + 1 = t for b monic of
degree j; g1 leads in position 1 (a tie would go to position 2), so
deg(a*g1.f2) <= t - 1.  Hence deg f2 = t, and f has weighted degree at most
ell2 + j, so deg f1 <= t + k - 1.

* The check is sound by construction: `CandidateCheck` returns m only when
  m's codeword differs from r exactly on Z, with |Z| = t <= n - k.
* It is complete: a codeword m at distance t, with the monic locator Lam
  of its errors, gives (-m*Lam, Lam) in the module, a*g1 + b*g2 for a pair
  (a, b) of level j (b monic, as Lam is; the rational fit finds it as a
  factor).  Its f2 = Lam vanishes exactly on the errors, so the filter
  passes that Z and the check, which fills Z as erasures, returns m.
  Levels below the minimum distance accept nothing, so the first level
  that accepts anything is the minimum distance, with every message there.
* A pair that passes the filter at a level the search reaches is coprime,
  and the check accepts its Z.  With deg f2 = t and at least t zeros, f2
  has exactly t, and f2 = lc * prod_Z (x - x_i); every f in the module has
  f1(x_i) + r_i*f2(x_i) = 0, so f1 vanishes on Z, f2 divides f1, and
  m = -f1/f2 has degree < k with m(x_i) = r_i off Z: a codeword within t.
  No codeword is closer at a level the search reaches, so this one differs
  from r on all of Z.  A common monic factor h of degree d >= 1 of a and b
  would make (a/h, b/h) a pair of level j - d whose f2/h, of degree t - d,
  vanishes at t - d or more of the points; by the same argument it gives
  the same m within t - d of r, which an earlier level would have found.
  So the pair source needs no gcd test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from .code import (DecodeOutcome, RSCode, Word, digit_counts, hamming_distance,
                   histogram_rows)
from .groebner import GroebnerPair, ModuleVector, syndrome_pair
# looked up here by the benchmark's tracer; nothing in this module calls them
from .groebner import mgb_iterative, mgb_iterative_reencoded  # noqa: F401
from .polys import Polynomial, vanishing_poly


class RadiusCapExceeded(Exception):
    """No codeword found within the allowed search radius."""

    def __init__(self, message: str, radius: int):
        super().__init__(message)
        self.radius = radius


def extract_message(f: ModuleVector) -> Polynomial | None:
    """The message -f1/f2 when f2 divides f1 exactly, else None: the exact
    test that `CandidateCheck` replaces in the search, kept as its reference
    for the tests and the benchmark's tracer.

    f must lead in position 2; its second component must be nonzero (a zero
    second component cannot encode a message and is rejected loudly so
    callers filter such combinations before testing divisibility).
    """
    if f.f2.is_zero():
        raise ValueError("second component is zero; no message to extract")
    q, rem = divmod(f.f1, f.f2)
    if not rem.is_zero():
        return None
    return -q


@dataclass
class LevelShape:
    """Search-space shape at level j: target distance and degree bounds."""

    level: int
    t: int
    a_max_deg: int  # k1 = ell2 - ell1 + j; negative means a = 0 only
    b_deg: int      # k2 = j


def level_shapes(pair: GroebnerPair, k: int, t_cap: int,
                 j_cap: int | None = None) -> list[LevelShape]:
    """Levels j = 0, 1, ... while the target distance stays <= t_cap."""
    if j_cap is not None and j_cap < 0:
        raise ValueError(f"level cap must be >= 0, got {j_cap}")
    base_t = pair.ell2 - (k - 1)
    last = t_cap - base_t if j_cap is None else min(t_cap - base_t, j_cap)
    return [LevelShape(j, base_t + j, pair.ell2 - pair.ell1 + j, j)
            for j in range(last + 1)]


def anchors(code: RSCode, pair: GroebnerPair) -> tuple[np.ndarray, np.ndarray]:
    """The anchors z_i = -g2.f2(x_i) / g1.f2(x_i) at the evaluation points,
    and the mask of the finite ones, g1.f2(x_i) != 0.  Where g1.f2(x_i) = 0
    the anchor is at infinity and z_i is -g2.f2(x_i), nonzero: both second
    components vanishing at a point would make the pair not coprime, which
    raises ArithmeticError.  Both components' values at the points are one
    product with the code's point powers (`values_at_points`)."""
    consts = code.constants()
    arr = consts.arrays
    den, num = consts.values_at_points([pair.g1.f2.coeffs, pair.g2.f2.coeffs])
    finite = den != 0
    if (~finite & (num == 0)).any():
        raise ArithmeticError("both second components vanish at a point; "
                              "basis not coprime")
    return arr.sub(0, arr.mul(num, arr.inv(np.where(finite, den, 1)))), finite


def combinations_at_level(code: RSCode, pair: GroebnerPair,
                          shape: LevelShape) -> Iterator[np.ndarray]:
    """The zero sets, as sorted arrays of positions, of the pairs (a, b) of
    one level, deg a <= shape.a_max_deg and b monic of degree shape.b_deg,
    whose f2 = a*g1.f2 + b*g2.f2 vanishes at shape.t or more of the
    evaluation points; no other pair can be accepted (see the module
    docstring).  When a's degree bound is negative the only combination
    left is g2 itself (a = 0, b = 1), at level 0, whose zero set is one
    product of g2.f2 with the code's point powers.

    Polynomial number i has the base-q digits of i as coefficients: the
    a - a_0 are x times the numbers 0 .. q^k1 - 1, and the monic b of
    degree k2 are q^k2 .. 2*q^k2 - 1 with k2 + 1 digits.  Each row of a
    block is one b and one a - a_0, with w = z*b(x) - (a - a_0)(x) at the
    points (the `anchors` z), b(x) and (a - a_0)(x) read off the first rows
    of `CodeConstants.point_powers` (`FieldArrays.indexed_values`); w_i is
    the one a_0 for which f2(x_i) = 0, so the row's digit counts
    (`digit_counts`) are the zero counts of the choices of a_0: every one
    of the q up to q = HISTOGRAM_CHUNK, and past it only the row's own
    values, at most n whatever q is.  At an anchor
    at infinity f2(x_i) = b(x_i)*g2.f2(x_i): a - a_0 is taken as 0 there,
    so w_i = z_i*b(x_i) is 0 exactly when the point counts for every a_0,
    which lowers the row's threshold."""
    consts = code.constants()
    arr, xs, powers = consts.arrays, consts.points, consts.point_powers
    if shape.a_max_deg < 0:
        zeros = np.flatnonzero(consts.values_at_points([pair.g2.f2.coeffs])[0]
                               == 0)
        if shape.level == 0 and len(zeros) >= shape.t:
            yield zeros
        return
    q, n, k1, k2 = code.field.q, code.n, shape.a_max_deg, shape.b_deg
    z, finite = anchors(code, pair)
    a_count, b_start = q ** k1, q ** k2
    a_step = min(a_count, histogram_rows(q))
    b_step = histogram_rows(q) // a_step

    def blocks() -> Iterator[np.ndarray]:
        for a_lo in range(0, a_count, a_step):
            a = arr.indexed_values(a_lo, min(a_lo + a_step, a_count),
                                   powers[:k1], xs * finite)
            for b_lo in range(b_start, 2 * b_start, b_step):
                zb = arr.indexed_values(b_lo, min(b_lo + b_step, 2 * b_start),
                                        powers[:k2 + 1], z)
                yield arr.sub(zb[:, None], a).reshape(-1, n)

    infinite = np.flatnonzero(~finite) if not finite.all() else None
    for _, w, digits, counts in digit_counts(q, blocks(), infinite):
        most = 0
        if infinite is not None:
            bonus = np.count_nonzero(w[:, infinite] == 0, axis=1)
            counts += bonus[:, None]
            most = int(bonus.max())
        if most >= shape.t:
            # rows whose zeros at infinity alone reach t count every a_0,
            # also those that the sorted counts past HISTOGRAM_CHUNK do not
            # list.  b has at most k2 roots and t > k2 at every level a
            # decoder enumerates, so only a shape given by hand gets here
            every = (np.zeros(len(w)) if infinite is None else bonus) >= shape.t
            for i in np.flatnonzero(every):
                for a_0 in range(q):
                    yield np.flatnonzero(np.where(finite, w[i] == a_0,
                                                  w[i] == 0))
            counts[every] = shape.t - 1
        for i, c in zip(*np.nonzero(counts >= shape.t)):
            yield np.flatnonzero(np.where(finite, w[i] == digits[i, c],
                                          w[i] == 0))


def combine(pair: GroebnerPair, a: Polynomial, b: Polynomial) -> ModuleVector:
    """The combination a*g1 + b*g2; the search never builds it (see
    `CandidateCheck`), the tests and the benchmark's tracer look it up.

    Its first component is M(r)'s only on M(r)'s basis (`mgb_euclid` or
    `mgb_iterative`): the decoders' pair carries the key equation's omega
    (`syndrome_pair`) in its first components.  The second component is
    right on every pair."""
    return ModuleVector(a * pair.g1.f1 + b * pair.g2.f1,
                        a * pair.g1.f2 + b * pair.g2.f2)


class CandidateCheck:
    """The candidate test of one word: given a set Z of t <= n - k
    positions, the message whose codeword differs from r at exactly the
    positions of Z, or None.  It is unique: it agrees with r at n - t >= k
    points.

    Z is erased.  Every product runs on the rows v_i * x_i^j of H^T,
    `CodeConstants.weighted_powers`, v_i = 1 / Pi'(x_i), which give the
    syndromes S = r . H^T once per word, as the check is made; every
    decoder builds its basis from them too (`groebner.syndrome_pair`), the
    re-encoded one included.
    An error e on Z has S_j = sum_Z u_i x_i^j with u_i = v_i e_i,
    and with the locator P = prod_Z (x - x_i) the first t syndromes give

        u_i = W(x_i) / P'(x_i),   W_d = sum_j S_j P_(j + d + 1)

    (Forney, IEEE T-IT 11(4), 1965, in a form with no reversed locator, so a
    point x_i = 0 needs no care).  Z's rows give v_i W(x_i) and
    v_i P'(x_i), so e_i = u_i / v_i.  The other n - k - t syndromes must
    agree, e_Z . H^T[Z] = S: r less e is then a codeword, and it must
    differ from r at every point of Z.  The message is that codeword's
    interpolant on the last k points: r's re-encoding shift r_tail . T
    (`reencode`), less e . T at the rows of the errors among those points,
    with T the code's `tail_matrix`."""

    def __init__(self, code: RSCode, r: Word):
        consts = code.constants()
        self.code, self.r, self.arr = code, r, consts.arrays
        self.symbols = self.arr.array(r.symbols)
        self.syndromes = self.arr.dot_factors(self.symbols,
                                              consts.weighted_powers)
        self.shift = _shift(code, self.symbols)

    def __call__(self, zeros: np.ndarray, t: int) -> Polynomial | None:
        if len(zeros) != t:
            return None
        if t > self.code.n - self.code.k:
            raise ValueError(f"the check needs t <= n - k = "
                             f"{self.code.n - self.code.k}, got t = {t}")
        arr, code, consts = self.arr, self.code, self.code.constants()
        parity = consts.weighted_powers
        locator = vanishing_poly(code.field, consts.points[zeros].tolist())
        e = self._erasure_values(arr.array(locator.coeffs),
                                 arr.matrix_values(parity[zeros, :t]), t)
        if (arr.dot_factors(e, parity, zeros) != self.syndromes).any():
            return None
        c = self.symbols.copy()
        c[zeros] = arr.sub(c[zeros], e)
        if hamming_distance(c.tolist(), self.r) != t:
            return None
        nk = code.n - code.k
        covered = zeros >= nk
        m = arr.sub(self.shift, arr.dot_factors(
            e[covered], consts.tail_matrix, zeros[covered] - nk))
        return Polynomial(code.field, m.tolist())

    def _erasure_values(self, locator: np.ndarray, h: np.ndarray,
                        t: int) -> np.ndarray:
        """e_i = W(x_i) / (P'(x_i) v_i) on the t roots of P = locator,
        whose rows of H^T have h as their first t columns."""
        arr, p = self.arr, self.code.field.p
        if not t:
            return locator[:0]
        # the Hankel matrix of P_1 .. P_t: entry (j, d) is P_(j + d + 1)
        hankel = np.zeros(2 * t, dtype=arr.dtype)
        hankel[:t] = locator[1:]
        steps = np.arange(t)
        w = arr.dot(self.syndromes[:t], hankel[steps[:, None] + steps])
        dp = arr.mul(np.arange(1, t + 1) % p, locator[1:])
        num, den = arr.dot(np.stack([w, dp]), h.T)
        return arr.mul(num, arr.inv(arr.mul(den, h[:, 0])))


def search_levels(check: CandidateCheck, pair: GroebnerPair,
                  zero_sets_of: Callable[[LevelShape], Iterable[np.ndarray]],
                  method: str, t_cap: int, j_cap: int | None) -> DecodeOutcome:
    """The level loop of every decoder: report the first level with any
    valid message.

    `zero_sets_of(shape)` gives the zero sets, as arrays of positions, of
    the f2 of the pairs to test at a level, with deg a <= shape.a_max_deg
    and deg b <= shape.b_deg: the zero-count filtered
    `combinations_at_level`, or the few pairs of a rational fit.  Each set
    goes through the word's `check`, which keeps the messages at exactly
    the level's distance from r."""
    for shape in level_shapes(pair, check.code.k, t_cap, j_cap):
        found: dict[tuple[int, ...], Polynomial] = {}
        for zeros in zero_sets_of(shape):
            m = check(zeros, shape.t)
            if m is not None:
                found.setdefault(tuple(m.coeffs), m)
        if found:
            msgs = tuple(sorted(found.values(), key=lambda p: p.coeffs))
            return DecodeOutcome(min_distance=shape.t, messages=msgs,
                                 method=method, search_level=shape.level,
                                 ell1=pair.ell1, ell2=pair.ell2)
    raise RadiusCapExceeded(
        f"no codeword within search radius {t_cap}"
        + (f" (level cap {j_cap})" if j_cap is not None else ""), t_cap)


def search_radius_cap(code: RSCode, beyond_johnson: bool) -> int:
    return code.n - code.k if beyond_johnson else min(
        code.johnson_radius_max(), code.n - code.k)


def decode_minimal(code: RSCode, r: Word, j_cap: int | None = None,
                   beyond_johnson: bool = False) -> DecodeOutcome:
    """Exact minimum distance and complete message list for word r."""
    check = CandidateCheck(code, r)
    pair = syndrome_pair(code, check.syndromes)
    return search_levels(check, pair,
                         lambda shape: combinations_at_level(code, pair, shape),
                         "division", search_radius_cap(code, beyond_johnson),
                         j_cap)


# ---------------------------------------------------------------------------
# Re-encoded path
# ---------------------------------------------------------------------------


@dataclass
class Reencoding:
    """A received word split as r = shift + y, with y supported on the first
    n - k positions."""

    shift: Polynomial       # interpolant of r on the last k points
    y: tuple[int, ...]      # r_i - shift(x_i) for the first n - k points


def _shift(code: RSCode, symbols: np.ndarray) -> np.ndarray:
    """The k coefficients, low to high, of the interpolant of the symbols
    on the last k points: r_tail . T, with the tail interpolation matrix
    T."""
    consts = code.constants()
    return consts.arrays.dot_factors(symbols[code.n - code.k:],
                                     consts.tail_matrix)


def reencode(code: RSCode, r: Word) -> Reencoding:
    """Split r as shift + y, with the shift interpolating r on the last k
    points.

    Two matrix products on `code.constants()`: the shift r_tail . T
    (`_shift`, which the candidate check computes too), and its values at
    the first n - k points, shift . V[:, :n - k] with the Vandermonde
    matrix V, for y_i = r_i - shift(x_i) there.  No decoder calls it: every
    decoder takes its basis from r's syndromes (`groebner.syndrome_pair`).
    The y of this split is what the paper-form reference
    `mgb_euclid_reencoded` takes.
    """
    consts = code.constants()
    arr, nk = consts.arrays, code.n - code.k
    symbols = arr.array(r.symbols)
    shift = _shift(code, symbols)
    y = arr.sub(symbols[:nk], arr.dot(shift, consts.vandermonde[:, :nk]))
    return Reencoding(Polynomial(code.field, shift.tolist()),
                      tuple(y.tolist()))


def decode_minimal_reencoded(code: RSCode, r: Word, j_cap: int | None = None,
                             beyond_johnson: bool = False) -> DecodeOutcome:
    """`decode_minimal`'s outcome, labelled "division-reencoded": the basis
    from r's n - k syndromes is the paper's re-encoded basis, lifted (see
    the module docstring).  Kept for `rsmld decode --method
    division-reencoded` and the benchmark's re-encoded workloads, which
    call it."""
    return replace(decode_minimal(code, r, j_cap, beyond_johnson),
                   method="division-reencoded")
