"""Rational-interpolation decoding.

The second components of the reduced basis pair {g1, g2} turn the level
search into curve fitting: a combination f = a*g1 + b*g2 has its second
component vanishing at x_i exactly when the rational function z = a/b
passes through the anchor (x_i, z_i) with z_i = -g2.f2(x_i) / g1.f2(x_i)
(a point at infinity where g1.f2 vanishes; both cannot vanish at once since
the pair is coprime).  Instead of enumerating all (a, b), fit one bivariate
Q through every anchor with multiplicity s and caps (M, rho) chosen by the
parameter optimizer; every valid (a, b) at the level then appears as a
factor b*z - a of Q and is read off the z-leading and z-constant slices.

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
from .polys import Polynomial, bounded_monic_divisors
from .ratparams import (InterpParams, optimize_params,
                        single_multiplicity_params)


def anchor_points(code: RSCode, pair: GroebnerPair) -> list[ProjectivePoint]:
    """The projective anchors (x_i, -g2.f2(x_i) / g1.f2(x_i)), at infinity
    where g1.f2 vanishes; one array pass over the points."""
    arr, xs = code.constants().arrays, code.constants().points
    den = arr.evaluate(pair.g1.f2.coeffs, xs)
    num = arr.evaluate(pair.g2.f2.coeffs, xs)
    finite = den != 0
    both = (~finite & (num == 0)).nonzero()[0]
    if both.size:
        raise ArithmeticError(f"both second components vanish at "
                              f"{code.eval_points[both[0]]}; basis not coprime")
    z = iter(arr.sub(0, arr.mul(num[finite], arr.inv(den[finite]))).tolist())
    return [ProjectivePoint.finite(x, next(z)) if fin
            else ProjectivePoint.infinity(x)
            for x, fin in zip(code.eval_points, finite.tolist())]


def rational_factorize(Q: BivariatePolynomial, k1: int,
                       k2: int) -> list[tuple[Polynomial, Polynomial]]:
    """All coprime pairs (a, b), b monic, deg a <= k1, deg b <= k2, with
    b*z - a dividing Q.

    A factor with a = 0 means z divides Q (reported once).  For the rest,
    b must divide the z-leading slice of Q and a the z-constant slice, so
    candidates come from bounded divisor enumeration.  A candidate must make
    Q(x, a(x)/b(x)) vanish at every field point x with b(x) != 0; points are
    tried in turn until one rejects it, and the survivors are confirmed with
    an exact Horner evaluation of b^zdeg * Q(x, a/b).
    """
    if Q.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    F = Q.field
    out: list[tuple[Polynomial, Polynomial]] = []
    deflate = min(j for _, j in Q.coeffs)
    if deflate:
        out.append((Polynomial.zero(F), Polynomial.one(F)))
        Q = BivariatePolynomial(
            F, {(i, j - deflate): c for (i, j), c in Q.coeffs.items()})
    mz = Q.zdeg()
    if mz == 0:
        return out
    top = Q.slice_z(mz)
    low = Q.slice_z(0)
    slices = [Q.slice_z(j) for j in range(mz + 1)]
    b_cands = bounded_monic_divisors(top, k2)
    a_monics = bounded_monic_divisors(low, k1)
    scalars = range(1, F.q)
    # slice values S_mz(x), ..., S_0(x) per point, filled as points are reached
    at_point: dict[int, list[int]] = {}

    def vanishes_on_points(am: Polynomial, b: Polynomial, c: int) -> bool:
        for x in range(F.q):
            bx = b.evaluate(x)
            if not bx:
                continue
            if x not in at_point:
                at_point[x] = [sl.evaluate(x) for sl in reversed(slices)]
            z = F.div(F.mul(c, am.evaluate(x)), bx)
            acc = 0
            for sx in at_point[x]:
                acc = F.add(F.mul(acc, z), sx)
            if acc:
                return False
        return True

    for b in b_cands:
        bpow = [Polynomial.one(F)]
        for _ in range(mz):
            bpow.append(bpow[-1] * b)
        for am in a_monics:
            if not am.coprime(b):
                continue
            for c in scalars:
                if not vanishes_on_points(am, b, c):
                    continue
                a = am.scale(c)
                # b^mz * Q(x, a/b) via Horner in the z slices
                acc = slices[mz]
                for j in range(mz - 1, -1, -1):
                    acc = acc * a + slices[j] * bpow[mz - j]
                if acc.is_zero():
                    out.append((a, b))
    return out


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
    arr, xs = code.constants().arrays, code.constants().points
    return params, [
        np.flatnonzero(arr.evaluate((a * pair.g1.f2 + b * pair.g2.f2).coeffs,
                                    xs) == 0)
        for a, b in rational_factorize(Q, shape.a_max_deg, shape.b_deg)]


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
