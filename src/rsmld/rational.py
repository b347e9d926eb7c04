"""Rational-interpolation decoding.

The second components of the reduced basis pair {g1, g2} turn the level
search into curve fitting: a combination f = a*g1 + b*g2 has its second
component vanishing at x_i exactly when the rational function z = a/b
passes through the anchor (x_i, z_i) with z_i = -g2.f2(x_i) / g1.f2(x_i)
(a point at infinity where g1.f2 vanishes; both cannot vanish at once since
the pair is coprime).  Instead of enumerating all (a, b), fit one bivariate
Q through every anchor with multiplicity s and caps (M, rho) chosen by the
parameter optimizer; every valid (a, b) at the level then appears as a
factor b*z - a of Q.  `rational_factorize` reads them off on arrays: b and
a's monic part from the divisors of the z-leading and z-constant slices
(remainders modulo all monic candidates of a degree at once), a's scalar
from the roots of Q at one point, a table of Q's values at the field's
points as the point test, and synthetic division in z as the exact test.

Radii at or beyond the feasible curve-fitting bound (above the Johnson-type
radius) fall back to direct enumeration, and are only searched when the
caller opts in.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import division
from .bivar import BivariatePolynomial, ProjectivePoint, koetter_interpolate
from .code import DecodeOutcome, RSCode, Word
from .division import (CandidateCheck, LevelShape, search_levels,
                       search_radius_cap)
from .groebner import GroebnerPair, syndrome_pair
# looked up here by the benchmark's tracer; nothing in this module calls them
from .code import hamming_distance  # noqa: F401
from .division import combine, extract_message  # noqa: F401
from .groebner import mgb_iterative  # noqa: F401
from .polys import (DIVISOR_CANDIDATE_LIMIT, Polynomial,
                    bounded_monic_divisors)
from .ratparams import (InterpParams, optimize_params,
                        single_multiplicity_params)


def anchor_points(code: RSCode, pair: GroebnerPair) -> list[ProjectivePoint]:
    """The projective anchors (x_i, -g2.f2(x_i) / g1.f2(x_i)), at infinity
    where g1.f2 vanishes (`division.anchors`)."""
    z, finite = division.anchors(code, pair)
    return [ProjectivePoint.finite(x, zi) if fin
            else ProjectivePoint.infinity(x)
            for x, zi, fin in zip(code.eval_points, z.tolist(), finite)]


def rational_factorize(Q: BivariatePolynomial, k1: int,
                       k2: int) -> list[tuple[Polynomial, Polynomial]]:
    """All coprime pairs (a, b), b monic, deg a <= k1, deg b <= k2, with
    b*z - a dividing Q, in the order of b's divisor list, then a's monic
    part's, then a's leading coefficient.

    A factor with a = 0 means z divides Q (reported once).  For the rest,
    b must divide the z-leading slice of Q and a the z-constant slice, so
    candidates come from `bounded_monic_divisors`.  With a = c*a_m, a_m
    monic, the scalar c comes from one point: at the first x0 with
    b(x0)*a_m(x0) != 0, z = c*a_m(x0)/b(x0) is a nonzero root of Q(x0, .),
    so c is one of at most zdeg Q values (all of 1..q-1 when no such x0
    exists).  The root table T[x, z] = Q(x, z), for every z and the first
    min(q, L // q) points x (L = DIVISOR_CANDIDATE_LIMIT, so every point
    while q^2 <= L), gives those roots, and then drops every c with
    T[x, c*a_m(x)/b(x)] != 0 at one of its x with b(x) != 0.  Each
    survivor is confirmed by synthetic division of Q by b*z - a.  Past
    q = L the table would not hold one row, and it raises ValueError.
    """
    if Q.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    F = Q.field
    arr = F.arrays()
    out: list[tuple[Polynomial, Polynomial]] = []
    deflate = min(j for _, j in Q.coeffs)
    if deflate:
        out.append((Polynomial.zero(F), Polynomial.one(F)))
    mz = Q.zdeg() - deflate
    if mz == 0:
        return out
    width = Q.xdeg() + 1
    rows = [[0] * width for _ in range(mz + 1)]
    for (i, j), c in Q.coeffs.items():
        rows[j - deflate][i] = c
    slices = [Polynomial(F, row) for row in rows]
    b_cands = bounded_monic_divisors(slices[mz], k2)
    a_monics = bounded_monic_divisors(slices[0], k1)
    points = min(F.q, DIVISOR_CANDIDATE_LIMIT // F.q)
    if not points:
        raise ValueError(f"root table too large ({F.q} field elements, "
                         f"limit {DIVISOR_CANDIDATE_LIMIT})")
    zs = arr.array(range(F.q))
    xs = zs[:points]
    # the slices' values at the points, then Horner in z on every row
    at_xs = arr.dot(arr.powers(xs, width), arr.array(rows).T)
    table = arr.evaluate(at_xs.T[:, :, None], zs)
    b_vals, a_vals = ([arr.evaluate(p.coeffs, xs) for p in ps]
                      for ps in (b_cands, a_monics))
    for b, b_at in zip(b_cands, b_vals):
        on = b_at.nonzero()[0]
        inv_b = arr.inv(b_at[on])
        for am, am_at in zip(a_monics, a_vals):
            ratio = arr.mul(am_at[on], inv_b)   # a_m(x)/b(x) where b(x) != 0
            x0 = ratio.nonzero()[0][:1]
            cs = zs[1:]
            if x0.size:   # c*ratio(x0) is a root of Q(x0, .)
                cs = cs[table[on[x0[0]], arr.mul(cs, ratio[x0[0]])] == 0]
            hits = cs[~table[on, arr.mul(cs[:, None], ratio)].any(axis=1)]
            if hits.size and am.coprime(b):
                out += [(a, b) for a in map(am.scale, hits.tolist())
                        if _divides(b, a, slices)]
    return out


def _divides(b: Polynomial, a: Polynomial, slices: list[Polynomial]) -> bool:
    """True when b*z - a divides sum_j slices[j] z^j: synthetic division
    from the top, P_(j-1) = (S_j + a*P_j) / b with P_mz = 0, each division
    exact, and S_0 + a*P_0 = 0.

    The coefficients are Python lists of ints, low to high: S + a*P is one
    list comprehension per coefficient of a, and each quotient coefficient
    c takes c*x^i times b's lower part off in place, over b's nonzero
    coefficients.  GF(2^m) goes through the field's log/antilog lists, GF(p)
    is exact on Python ints."""
    F = b.field
    bc, db = b.coeffs, b.degree()
    inv_lead = F.inv(bc[-1])
    if F.m > 1:
        exp, log = F._exp, F._log
        low = [(j, log[y]) for j, y in enumerate(bc[:db]) if y]

        def minus(c: int, d: list[int], v: list[int]) -> list[int]:
            """d - c*v, elementwise over v's width; c != 0."""
            lc = log[c]
            return [x ^ exp[lc + log[y]] if y else x for x, y in zip(d, v)]

        def take_off(t: list[int], i: int, c: int) -> None:
            """t <- t - c*x^i*(b - its leading term), in place; c != 0."""
            lc = log[c]
            for j, lb in low:
                t[i + j] ^= exp[lc + lb]
    else:
        p = F.p
        low = [(j, y) for j, y in enumerate(bc[:db]) if y]

        def minus(c: int, d: list[int], v: list[int]) -> list[int]:
            """d - c*v, elementwise over v's width."""
            return [(x - c * y) % p for x, y in zip(d, v)]

        def take_off(t: list[int], i: int, c: int) -> None:
            """t <- t - c*x^i*(b - its leading term), in place."""
            for j, y in low:
                t[i + j] = (t[i + j] - c * y) % p

    minus_a = [F.neg(c) for c in a.coeffs]

    def plus_a_times(s: Polynomial, quot: list[int]) -> list[int]:
        """S + a*P as a list, long enough for both terms."""
        t = s.coeffs + [0] * (len(minus_a) + len(quot) - 1 - len(s.coeffs))
        for i, c in enumerate(minus_a):
            if c and quot:
                t[i:i + len(quot)] = minus(c, t[i:i + len(quot)], quot)
        return t

    quot: list[int] = []
    for s in reversed(slices[1:]):
        t = plus_a_times(s, quot)
        quot = [0] * max(0, len(t) - db)
        for i in range(len(quot) - 1, -1, -1):
            if t[i + db]:
                quot[i] = c = F.mul(t[i + db], inv_lead)
                take_off(t, i, c)
        if any(t[:db]):
            return False
    return not any(plus_a_times(slices[0], quot))


def _fit_level(code: RSCode, pair: GroebnerPair,
               shape: LevelShape) -> tuple[InterpParams, list[np.ndarray]]:
    """Interpolation caps for one in-bound level, and the zero sets of the
    f2 of its factor pairs."""
    if shape.a_max_deg == 0 and shape.b_deg == 0:
        params = single_multiplicity_params(code.n, shape.t, 0, 0)
    else:
        params = optimize_params(code.n, code.k, shape.t,
                                 shape.a_max_deg, shape.b_deg).best
    Q = koetter_interpolate(code.field, anchor_points(code, pair), params.s,
                            params.M, params.w, params.rho)
    f2s = [(a * pair.g1.f2 + b * pair.g2.f2).coeffs
           for a, b in rational_factorize(Q, shape.a_max_deg, shape.b_deg)]
    return params, [np.flatnonzero(values == 0) for values in
                    code.constants().values_at_points(f2s)]


def decode_rational(code: RSCode, r: Word, j_cap: int | None = None,
                    beyond_johnson: bool = False) -> DecodeOutcome:
    """Exact minimum distance and message list via rational fitting.

    Levels whose target distance exceeds the Johnson-type radius cannot be
    handled by curve fitting; with `beyond_johnson` they run the direct
    enumeration instead (the search then always terminates by the covering
    radius bound n - k)."""
    check = CandidateCheck(code, r)
    pair = syndrome_pair(code, check.syndromes)
    fit_max = code.johnson_radius_max()
    params_used: list[InterpParams] = []

    def zero_sets_of(shape: LevelShape) -> Iterable[np.ndarray]:
        if shape.a_max_deg < 0 or shape.t > fit_max:
            return division.combinations_at_level(code, pair, shape)
        params, zero_sets = _fit_level(code, pair, shape)
        params_used.append(params)
        return zero_sets

    out = search_levels(check, pair, zero_sets_of, "rational",
                        search_radius_cap(code, beyond_johnson), j_cap)
    out.params_used = params_used
    return out
