"""Minimal list decoding by divisibility search over basis combinations.

Given the reduced basis {g1, g2} of the interpolation module, every codeword
at distance t from the received word shows up as a combination
f = a*g1 + b*g2 (deg a <= ell2 - ell1 + j, b monic of degree j, t = ell2 -
k + 1 + j) whose first component is divisible by its second; the message is
m = -f1/f2.  Searching levels j = 0, 1, ... in order finds the exact minimum
distance and the complete list of messages at it.

The search radius is capped: by default at the largest t below the Johnson
bound (where the level arithmetic is meaningful for every code), and at
n - k when `beyond_johnson` is set, which always terminates with the true
minimum distance because the covering radius of an RS code is at most n - k.

Most pairs of a level fail the divisibility test, so the pair source drops
them first, without building a polynomial.  An accepted pair has
f1 = -m*f2, and every f in the module satisfies f1(x_i) + r_i*f2(x_i) = 0,
so f2(x_i) * (r_i - m(x_i)) = 0: f2 vanishes at each of the t error
positions.  Since f2 = a*g1.f2 + b*g2.f2, it vanishes at x_i exactly when
(a*g1.f2)(x_i) = -(b*g2.f2)(x_i).  The source tabulates both sides at the n
evaluation points, for every a and every monic b of the level, and one
broadcast comparison gives every pair's zero count; only the pairs with at
least t zeros become polynomials and reach the exact test.  The re-encoded
path meets the same condition, since its lifted (G*f1, f2) lies in the
module of r - shift.

At every level the search reaches, the exact test accepts every pair the
filter passes:

* g2 leads in position 2, so deg g2.f2 = ell2 - k + 1 and
  deg(b*g2.f2) = j + ell2 - k + 1 = t; g1 leads in position 1 (a tie would
  go to position 2), so deg g1.f2 <= ell1 - k and deg(a*g1.f2) <= t - 1.
  Hence deg f2 = t.
* So the t or more zeros that pass the filter are exactly t, and
  f2 = lc * prod (x - x_i) over the set Z of them.  At x_i in Z,
  f1(x_i) = -r_i*f2(x_i) = 0: f1 vanishes on Z, so f2 divides f1.
* f has weighted degree at most ell2 + j = t + k - 1, so deg f1 <= t + k - 1
  and m = -f1/f2 has degree < k.
* Off Z, f2(x_i) != 0 gives m(x_i) = r_i, so m lies within t of r, and a
  distance below t would have been found at an earlier level.

On the re-encoded path the same holds for r - shift and the lifted degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .code import DecodeOutcome, RSCode, Word, hamming_distance
from .groebner import (GroebnerPair, ModuleVector, mgb_euclid,
                       mgb_euclid_reencoded)
# looked up here by the benchmark's tracer; nothing in this module calls them
from .groebner import mgb_iterative, mgb_iterative_reencoded  # noqa: F401
from .polys import Polynomial, base_q_digits

# A level can hold q^(k1 + k2 + 1) pairs, so the pair source works a chunk
# of a's and b's at a time: a value table (rows x n) holds at most
# TABLE_CHUNK elements, and a pointwise comparison (a's x b's x n) at most
# COMPARE_CHUNK booleans, unless one row alone is larger.
TABLE_CHUNK = 1 << 13
COMPARE_CHUNK = 1 << 18


class RadiusCapExceeded(Exception):
    """No codeword found within the allowed search radius."""

    def __init__(self, message: str, radius: int):
        super().__init__(message)
        self.radius = radius


def extract_message(f: ModuleVector) -> Polynomial | None:
    """The message -f1/f2 when f2 divides f1 exactly, else None.

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
    shapes = []
    j = 0
    while base_t + j <= t_cap and (j_cap is None or j <= j_cap):
        shapes.append(LevelShape(j, base_t + j, pair.ell2 - pair.ell1 + j, j))
        j += 1
    return shapes


def combinations_at_level(code: RSCode, pair: GroebnerPair,
                          shape: LevelShape) -> Iterator[tuple[Polynomial, Polynomial]]:
    """The coprime pairs (a, b) of one level, deg a <= shape.a_max_deg and b
    monic of degree shape.b_deg, whose f2 = a*g1.f2 + b*g2.f2 vanishes at
    shape.t or more of the evaluation points; no other pair can be accepted
    (see the module docstring).  When a's degree bound is negative the only
    combination left is g2 itself (a = 0, b = 1), at level 0.

    Polynomial number i has the base-q digits of i as coefficients: the a
    are the numbers 0 .. q^(k1 + 1) - 1 (just 0 when k1 < 0), and the monic
    b of degree k2 are q^k2 .. 2*q^k2 - 1 with k2 + 1 digits.  Per chunk the
    tables A[a] = (a*g1.f2)(x_i) and -B[b] = -(b*g2.f2)(x_i) are compared
    pointwise, and each pair's count of equal entries is its f2's zero
    count."""
    if shape.a_max_deg < 0 and shape.level > 0:
        return
    field = pair.g1.field
    arr, xs = code.constants().arrays, code.constants().points
    q, n = field.q, code.n
    g1_f2 = arr.evaluate(pair.g1.f2.coeffs, xs)
    g2_f2 = arr.evaluate(pair.g2.f2.coeffs, xs)
    a_width, b_width = max(0, shape.a_max_deg + 1), shape.b_deg + 1
    a_stop, b_start = q ** a_width, q ** shape.b_deg
    rows = max(1, TABLE_CHUNK // n)
    b_step = min(b_start, rows)
    a_step = max(1, min(rows, COMPARE_CHUNK // (b_step * n)))
    for b_lo in range(b_start, 2 * b_start, b_step):
        b_hi = min(b_lo + b_step, 2 * b_start)
        neg_b = arr.sub(0, arr.indexed_values(b_lo, b_hi, b_width, xs, g2_f2))
        for a_lo in range(0, a_stop, a_step):
            a_vals = arr.indexed_values(a_lo, min(a_lo + a_step, a_stop),
                                        a_width, xs, g1_f2)
            zeros = np.count_nonzero(a_vals[:, None] == neg_b, axis=2)
            for i, j in zip(*np.nonzero(zeros >= shape.t)):
                a = Polynomial(field, base_q_digits(a_lo + int(i), q, a_width))
                b = Polynomial(field, base_q_digits(b_lo + int(j), q, b_width))
                if a.coprime(b):
                    yield a, b


def combine(pair: GroebnerPair, a: Polynomial, b: Polynomial) -> ModuleVector:
    return ModuleVector(a * pair.g1.f1 + b * pair.g2.f1,
                        a * pair.g1.f2 + b * pair.g2.f2)


def search_levels(code: RSCode, r: Word, pair: GroebnerPair,
                  pairs_of: Callable[[LevelShape],
                                     Iterable[tuple[Polynomial, Polynomial]]],
                  lift: Callable[[ModuleVector], Polynomial | None],
                  method: str, t_cap: int, j_cap: int | None) -> DecodeOutcome:
    """The level loop of every decoder: report the first level with any
    valid message.

    `pairs_of(shape)` gives the (a, b) pairs to test at a level, with
    deg a <= shape.a_max_deg and deg b <= shape.b_deg: the zero-count
    filtered `combinations_at_level`, or the few pairs of a rational fit.
    Each combination a*g1 + b*g2 is lifted to a message and kept when it has
    degree < k and lies at exactly the level's distance from r."""
    for shape in level_shapes(pair, code.k, t_cap, j_cap):
        found: dict[tuple[int, ...], Polynomial] = {}
        for a, b in pairs_of(shape):
            f = combine(pair, a, b)
            if f.f2.is_zero():
                continue
            m = lift(f)
            if m is None or m.degree() >= code.k:
                continue
            if hamming_distance(code.encode(m), r) != shape.t:
                continue
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
    pair = mgb_euclid(code, r)
    return search_levels(code, r, pair,
                         lambda shape: combinations_at_level(code, pair, shape),
                         extract_message, "division",
                         search_radius_cap(code, beyond_johnson), j_cap)


# ---------------------------------------------------------------------------
# Re-encoded path
# ---------------------------------------------------------------------------


@dataclass
class Reencoding:
    """A received word split as r = shift + y, with y supported on the first
    n - k positions."""

    shift: Polynomial       # interpolant of r on the last k points
    y: tuple[int, ...]      # r_i - shift(x_i) for the first n - k points


def reencode(code: RSCode, r: Word) -> Reencoding:
    """Split r as shift + y, with the shift interpolating r on the last k
    points.

    Both maps come from `code.constants()`, so a word costs two matrix
    products: the shift's coefficients are r_tail . T, with the tail
    interpolation matrix T, and its values at the first n - k points are
    shift . V[:, :n - k], with the Vandermonde matrix V.
    """
    consts = code.constants()
    arr = consts.arrays
    nk = code.n - code.k
    syms = arr.array(r.symbols)
    shift = arr.dot(syms[nk:], consts.tail_matrix)
    y = arr.sub(syms[:nk], arr.dot(shift, consts.vandermonde[:, :nk]))
    return Reencoding(Polynomial(code.field, shift.tolist()), tuple(y.tolist()))


def decode_minimal_reencoded(code: RSCode, r: Word, j_cap: int | None = None,
                             beyond_johnson: bool = False) -> DecodeOutcome:
    """Same search run on the short module of the shifted word.

    The short basis lifts to the full-module basis by multiplying first
    components with G, so the divisibility test becomes G*f1 divisible by
    f2 and the recovered message is shifted back by the re-encoding."""
    enc = reencode(code, r)
    short = mgb_euclid_reencoded(code, enc.y)
    # Lift the weighted degrees: each first component gains deg G = k - 1.
    lifted = GroebnerPair(short.g1, short.g2, short.ell1 + code.k - 1,
                          short.ell2 + code.k - 1, short.order)
    arr = code.field.arrays()
    G = arr.array(code.constants().multiplier.coeffs)

    def lift(f: ModuleVector) -> Polynomial | None:
        # G*f1 takes one array step per coefficient of the short f1
        g_f1 = arr.poly_mul(G, arr.array(f.f1.coeffs)).tolist()
        m_y = extract_message(ModuleVector(Polynomial(code.field, g_f1), f.f2))
        return None if m_y is None else m_y + enc.shift

    return search_levels(code, r, lifted,
                         lambda shape: combinations_at_level(code, lifted, shape),
                         lift, "division-reencoded",
                         search_radius_cap(code, beyond_johnson), j_cap)
