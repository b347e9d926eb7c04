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

Most pairs of a level fail the divisibility test, so the level loop first
drops them in batches without any polynomial arithmetic.  An accepted pair
has f1 = -m*f2, and every f in the module satisfies f1(x_i) + r_i*f2(x_i) = 0,
so f2(x_i) * (r_i - m(x_i)) = 0: f2 vanishes at each of the t error
positions.  The values of f2 = a*g1.f2 + b*g2.f2 at the n evaluation points
are one numpy matrix product per batch (the pairs' coefficients against
x_i^e * g.f2(x_i)), and only the pairs whose f2 has at least t zeros among
the points reach the exact test.  The re-encoded path meets the same
condition, since its lifted (G*f1, f2) lies in the module of r - shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .code import DecodeOutcome, RSCode, Word, hamming_distance
from .groebner import (GroebnerPair, ModuleVector, mgb_euclid,
                       mgb_euclid_reencoded, mgb_iterative,
                       mgb_iterative_reencoded)
from .polys import Polynomial, monic_polys

# Pairs per prefilter batch: a level can hold q^(k1 + k2 + 1) pairs, so the
# batch's values, a (batch, n) array, are all that is ever held at once.
PREFILTER_BATCH = 256


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


def enumerate_polys(field, max_deg: int) -> Iterator[Polynomial]:
    """All polynomials of degree <= max_deg, in a fixed order: the zero
    polynomial, then degree by degree, each monic polynomial's lower
    coefficients under every leading coefficient 1..q-1."""
    yield Polynomial.zero(field)
    for deg in range(max_deg + 1):
        for monic in monic_polys(field, deg):
            low = monic.coeffs[:-1]
            for lead in range(1, field.q):
                yield Polynomial(field, low + [lead])


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
    base_t = pair.ell2 - (k - 1)
    shapes = []
    j = 0
    while base_t + j <= t_cap and (j_cap is None or j <= j_cap):
        shapes.append(LevelShape(j, base_t + j, pair.ell2 - pair.ell1 + j, j))
        j += 1
    return shapes


def combinations_at_level(pair: GroebnerPair,
                          shape: LevelShape) -> Iterator[tuple[Polynomial, Polynomial]]:
    """Coefficient pairs (a, b) to test at one level, coprime and in a fixed
    deterministic order.  When a's degree bound is negative the only
    combination left is g2 itself (a = 0, b = 1)."""
    field = pair.g1.field
    if shape.a_max_deg < 0:
        if shape.level == 0:
            yield Polynomial.zero(field), Polynomial.one(field)
        return
    for b in monic_polys(field, shape.b_deg):
        for a in enumerate_polys(field, shape.a_max_deg):
            if a.coprime(b):
                yield a, b


def combine(pair: GroebnerPair, a: Polynomial, b: Polynomial) -> ModuleVector:
    return ModuleVector(a * pair.g1.f1 + b * pair.g2.f1,
                        a * pair.g1.f2 + b * pair.g2.f2)


def _padded(coeffs: list[int], width: int) -> list[int]:
    return coeffs + [0] * (width - len(coeffs))


def search_levels(code: RSCode, r: Word, pair: GroebnerPair,
                  pairs_of: Callable[[LevelShape],
                                     Iterable[tuple[Polynomial, Polynomial]]],
                  lift: Callable[[ModuleVector], Polynomial | None],
                  method: str, t_cap: int, j_cap: int | None) -> DecodeOutcome:
    """The level loop of every decoder: report the first level with any
    valid message.

    `pairs_of(shape)` gives the (a, b) pairs to test at a level, with
    deg a <= shape.a_max_deg and deg b <= shape.b_deg.  Pairs whose f2 has
    fewer than t zeros among the evaluation points are dropped in batches
    (see the module docstring); each remaining combination a*g1 + b*g2 is
    lifted to a message and kept when it has degree < k and lies at exactly
    the level's distance from r."""
    arr, xs = code.constants().arrays, code.constants().points
    g_f2 = [pair.g1.f2.coeffs, pair.g2.f2.coeffs]
    g_width = max(1, *map(len, g_f2))
    g1_f2, g2_f2 = arr.dot(arr.array([_padded(cs, g_width) for cs in g_f2]),
                           arr.powers(xs, g_width).T)
    for shape in level_shapes(pair, code.k, t_cap, j_cap):
        # f2(x_i) = sum_e (a_e * x_i^e * g1.f2(x_i) + b_e * x_i^e * g2.f2(x_i))
        a_width, b_width = max(0, shape.a_max_deg + 1), shape.b_deg + 1
        powers = arr.powers(xs, max(a_width, b_width)).T
        f2_basis = np.concatenate([arr.mul(powers[:a_width], g1_f2),
                                   arr.mul(powers[:b_width], g2_f2)])
        found: dict[tuple[int, ...], Polynomial] = {}
        pairs = iter(pairs_of(shape))
        while batch := list(islice(pairs, PREFILTER_BATCH)):
            coeffs = arr.array([_padded(a.coeffs, a_width)
                                + _padded(b.coeffs, b_width)
                                for a, b in batch])
            zeros = np.count_nonzero(arr.dot(coeffs, f2_basis) == 0, axis=1)
            for i in np.flatnonzero(zeros >= shape.t):
                a, b = batch[i]
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


def select_engine(engine: str, iterative, euclid):
    if engine == "iterative":
        return iterative
    if engine == "euclid":
        return euclid
    raise ValueError(f"unknown engine {engine!r}; pick 'iterative' or 'euclid'")


def decode_minimal(code: RSCode, r: Word, j_cap: int | None = None,
                   beyond_johnson: bool = False,
                   engine: str = "iterative") -> DecodeOutcome:
    """Exact minimum distance and complete message list for word r."""
    pair = select_engine(engine, mgb_iterative, mgb_euclid)(code, r)
    return search_levels(code, r, pair,
                         lambda shape: combinations_at_level(pair, shape),
                         extract_message, "division",
                         search_radius_cap(code, beyond_johnson), j_cap)


# ---------------------------------------------------------------------------
# Re-encoded path
# ---------------------------------------------------------------------------


@dataclass
class Reencoding:
    """A received word split as r = shift + y, with y supported on the first
    n - k positions."""

    code: RSCode
    shift: Polynomial       # interpolant of r on the last k points
    y: tuple[int, ...]      # r_i - shift(x_i) for the first n - k points
    multiplier: Polynomial  # G, vanishing on the last k - 1 points


def reencode(code: RSCode, r: Word) -> Reencoding:
    """Split r as shift + y, with the shift interpolating r on the last k
    points.

    Everything that depends only on the code comes from `code.constants()`,
    so a word costs array arithmetic.  With c = w * r_tail (barycentric
    weights times tail symbols), the shift's values at the head are D . c and
    y = r_head - D . c.  The shift's coefficients come from the same c:
    shift = sum_j c_j * G_t / (x - x_j), one synthetic-division step per
    degree (`FieldArrays.barycentric`).
    """
    consts = code.constants()
    arr = consts.arrays
    nk = code.n - code.k
    syms = arr.array(r.symbols)
    c = arr.mul(consts.tail_weights, syms[nk:])
    y = arr.sub(syms[:nk], arr.dot(consts.head_matrix, c[:, None])[:, 0])
    shift = arr.barycentric(consts.points[nk:], consts.tail_vanishing.coeffs, c)
    return Reencoding(code, Polynomial(code.field, shift), tuple(y.tolist()),
                      consts.multiplier)


def decode_minimal_reencoded(code: RSCode, r: Word, j_cap: int | None = None,
                             beyond_johnson: bool = False,
                             engine: str = "iterative") -> DecodeOutcome:
    """Same search run on the short module of the shifted word.

    The short basis lifts to the full-module basis by multiplying first
    components with G, so the divisibility test becomes G*f1 divisible by
    f2 and the recovered message is shifted back by the re-encoding."""
    enc = reencode(code, r)
    build = select_engine(engine, mgb_iterative_reencoded, mgb_euclid_reencoded)
    short = build(code, enc.y)
    # Lift the weighted degrees: each first component gains deg G = k - 1.
    lifted = GroebnerPair(short.g1, short.g2, short.ell1 + code.k - 1,
                          short.ell2 + code.k - 1, short.order)
    G = enc.multiplier

    def lift(f: ModuleVector) -> Polynomial | None:
        m_y = extract_message(ModuleVector(G * f.f1, f.f2))
        return None if m_y is None else m_y + enc.shift

    return search_levels(code, r, lifted,
                         lambda shape: combinations_at_level(lifted, shape),
                         lift, "division-reencoded",
                         search_radius_cap(code, beyond_johnson), j_cap)
