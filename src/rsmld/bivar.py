"""Bivariate polynomials over a finite field and constrained interpolation.

Polynomials live in F[x, z] as sparse {(i, j): coeff} maps.  The rational
decoder needs one nontrivial operation: given anchor points (x_i, z_i) —
some possibly with z at infinity — find a nonzero Q with z-degree at most M
whose Hasse derivatives D_{u,v}Q vanish at every anchor for all u + v < s.
An infinity anchor constrains the z-reversal of Q at (x_i, 0) instead.
Koetter's update processes one constraint at a time over M + 1 candidates
ordered by (1, w)-weighted leading degree, and the smallest final candidate
meets the weighted-degree cap whenever the constraint count is below the
cap's coefficient budget.  The candidates are held densely, as one integer
numpy array indexed (candidate, z-degree, x-degree), and each anchor's
Hasse discrepancies are computed once and then updated incrementally
(McEliece, "The Guruswami-Sudan decoding algorithm for Reed-Solomon codes",
IPN PR 42-153, 2003); only the fit is returned as a sparse polynomial.

The same engine serves both module ranks: `koetter_candidates` returns all
M + 1 final candidates, the rational fit (`koetter_interpolate`) keeps the
smallest, and at s = 1, M = 1 the two candidates are the rank-2 Groebner
basis of the decoders' interpolation module (`groebner.mgb_iterative`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Field, FieldArrays
from .polys import Polynomial


@dataclass(frozen=True)
class ProjectivePoint:
    """An anchor (x, z) with z on the projective line: (z_num : z_den) is
    either (value : 1) or the point at infinity (1 : 0)."""

    x: int
    z_num: int
    z_den: int

    @classmethod
    def finite(cls, x: int, z: int) -> "ProjectivePoint":
        return cls(x, z, 1)

    @classmethod
    def infinity(cls, x: int) -> "ProjectivePoint":
        return cls(x, 1, 0)

    @property
    def is_infinite(self) -> bool:
        return self.z_den == 0

    def __repr__(self):
        return (f"({self.x}, inf)" if self.is_infinite
                else f"({self.x}, {self.z_num})")


class BivariatePolynomial:
    """Sparse polynomial in F[x, z]: {(x_exp, z_exp): coeff}."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: dict | None = None):
        cleaned = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                c = field.canon(c)
                if c:
                    cleaned[(i, j)] = c
        self.field = field
        self.coeffs = cleaned

    def is_zero(self) -> bool:
        return not self.coeffs

    def zdeg(self) -> int:
        return max((j for _, j in self.coeffs), default=-1)

    def xdeg(self) -> int:
        return max((i for i, _ in self.coeffs), default=-1)

    def wdeg(self, w: int) -> int:
        """(1, w)-weighted degree: max of i + j*w over the support."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no weighted degree")
        return max(i + j * w for i, j in self.coeffs)

    def slice_z(self, j: int) -> Polynomial:
        """Coefficient of z^j as a polynomial in x."""
        out = [0] * (self.xdeg() + 1)
        for (i, jj), c in self.coeffs.items():
            if jj == j:
                out[i] = c
        return Polynomial(self.field, out)

    def z_reverse(self, cap: int) -> "BivariatePolynomial":
        """z^cap * Q(x, 1/z), the z-reversal at degree cap >= zdeg."""
        if self.zdeg() > cap:
            raise ValueError("reversal cap below the z-degree")
        return BivariatePolynomial(
            self.field, {(i, cap - j): c for (i, j), c in self.coeffs.items()})

    def evaluate(self, x: int, z: int) -> int:
        F = self.field
        acc = 0
        for (i, j), c in self.coeffs.items():
            acc = F.add(acc, F.mul(c, F.mul(F.pow(x, i), F.pow(z, j))))
        return acc

    def __eq__(self, other) -> bool:
        return (isinstance(other, BivariatePolynomial)
                and self.field == other.field and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for (i, j) in sorted(self.coeffs, key=lambda m: (m[1], m[0])):
            c = self.coeffs[(i, j)]
            part = [] if c == 1 and (i or j) else [str(c)]
            if i:
                part.append("x" if i == 1 else f"x^{i}")
            if j:
                part.append("z" if j == 1 else f"z^{j}")
            terms.append("*".join(part))
        return " + ".join(terms)


def hasse_derivative_value(Q: BivariatePolynomial, u: int, v: int,
                           x: int, z: int) -> int:
    """D_{u,v}Q evaluated at (x, z): sum of C(i,u) C(j,v) q_ij x^(i-u) z^(j-v).

    The binomials are reduced mod the field characteristic (they are scalars
    from the prime subfield)."""
    F = Q.field
    p = F.p
    acc = 0
    for (i, j), c in Q.coeffs.items():
        if i < u or j < v:
            continue
        b = (math.comb(i, u) * math.comb(j, v)) % p
        if not b:
            continue
        term = F.mul(c, b)
        term = F.mul(term, F.pow(x, i - u))
        term = F.mul(term, F.pow(z, j - v))
        acc = F.add(acc, term)
    return acc


def hasse_constraints(s: int):
    """Constraint exponents (u, v) with u + v < s, in graded order."""
    return [(c - v, v) for c in range(s) for v in range(c + 1)]


def _hasse_matrix(A: FieldArrays, binom: np.ndarray, shift: np.ndarray,
                  powers: np.ndarray, rows: int) -> np.ndarray:
    """T[i, u] = C(i, u) * point^(i - u) for i < rows, u < s (0 when i < u),
    from the point's powers, binom[i, u] = C(i, u) and shift[i, u] =
    max(i - u, 0): a coefficient vector times T gives its Hasse derivatives
    at the point."""
    return A.mul(binom[:rows], powers[shift[:rows]])


def _lead_key(lmx: list[int], w: int, j: int) -> tuple[int, int]:
    """Order key of candidate j's leading monomial x^lmx[j] z^j: (1, w)-
    weighted degree, ties going to the lower z-degree."""
    return (lmx[j] + j * w, j)


def koetter_candidates(field: Field, anchors: list[ProjectivePoint], s: int,
                       M: int, w: int) -> tuple[np.ndarray, list[int]]:
    """Koetter's update over M + 1 candidates; returns the final candidates
    as G[candidate, z-degree, x-degree] and the x-exponent of each one's
    leading monomial (candidate j leads with z-degree j).

    Candidate j starts as z^j.  At each anchor all s(s+1)/2 Hasse
    discrepancies of every candidate are computed in one pass, then kept
    current by linearity as the candidates are updated: a combination of
    candidates combines their discrepancy rows, and multiplying by (x - x0)
    shifts a row one step in u.  Each constraint's pivot is the candidate
    with the smallest leading monomial among those it does not vanish on.
    """
    A = field.arrays()
    C = M + 1
    lmx = [0] * C  # x-exponent of the leading monomial (z-exp is j)

    # Every term x^i z^j' of candidate c has i + j'w <= lmx[c] + c*w, so its
    # x-degree is at most lmx[c] + c*w + spare.
    spare = max(0, -w) * M
    top = max(c * w for c in range(C)) + spare
    G = np.zeros((C, C, top + 1), dtype=A.dtype)
    G[range(C), range(C), 0] = 1

    def tables(width: int) -> tuple[np.ndarray, np.ndarray]:
        rows = max(width, C)
        binom = A.array([[math.comb(i, u) % field.p for u in range(s)]
                         for i in range(rows)])
        return binom, np.maximum(np.arange(rows)[:, None] - np.arange(s), 0)

    binom, shift = tables(top + 1)
    cons = hasse_constraints(s)
    for pt in anchors:
        x0 = pt.x
        cols = top + 1
        xpow, zpow = A.powers([x0, pt.z_num], max(cols, C))
        H = A.dot(G[:, :, :cols], _hasse_matrix(A, binom, shift, xpow, cols))
        if pt.is_infinite:
            # the z-reversal at z = 0: D_{u,v} reads slice M - v
            D = np.zeros((C, s, s), dtype=A.dtype)
            for v in range(min(s, C)):
                D[:, :, v] = H[:, M - v, :]
        else:
            D = A.dot(H.transpose(0, 2, 1),
                      _hasse_matrix(A, binom, shift, zpow, C))
        for i, (u, v) in enumerate(cons, 1):
            # D is rebuilt at the next anchor: after the last constraint
            # only G needs updating
            track = i < len(cons)
            d = D[:, u, v]
            hit = np.flatnonzero(d)
            if not hit.size:
                continue
            jstar = min(hit.tolist(), key=lambda j: _lead_key(lmx, w, j))
            dstar = d[jstar]
            rest = hit[hit != jstar]
            if rest.size:
                dj = d[rest][:, None, None]
                G[rest, :, :cols] = A.msub(dstar, G[rest, :, :cols],
                                           dj, G[jstar, :, :cols])
                if track:
                    D[rest] = A.msub(dstar, D[rest], dj, D[jstar])
            # g* <- (x - x0) g*, and D_{u,v}(g*) <- D_{u-1,v}(g*)
            lmx[jstar] += 1
            top = max(top, lmx[jstar] + jstar * w + spare)
            if top >= G.shape[2]:
                G = np.concatenate([G, np.zeros_like(G)], axis=2)
                binom, shift = tables(G.shape[2])
            cols = top + 1
            g = G[jstar, :, :cols]
            shifted = np.zeros_like(g)
            shifted[:, 1:] = g[:, :-1]
            G[jstar, :, :cols] = A.msub(1, shifted, x0, g) if x0 else shifted
            if track:
                D[jstar, 1:] = D[jstar, :-1].copy()
                D[jstar, 0] = 0
    return G, lmx


def koetter_interpolate(field: Field, anchors: list[ProjectivePoint], s: int,
                        M: int, w: int, rho: int | None = None) -> BivariatePolynomial:
    """Smallest nonzero Q (by (1, w)-weighted leading monomial, z-degree
    breaking ties) with zdeg <= M meeting every multiplicity-s constraint:
    the smallest of the candidates of `koetter_candidates`.

    When rho is given the result is checked against it: with the constraint
    count below the (M, rho) coefficient budget the minimum is guaranteed to
    fit, so a violation means the caps were inconsistent.
    """
    G, lmx = koetter_candidates(field, anchors, s, M, w)
    best = min(range(M + 1), key=lambda j: _lead_key(lmx, w, j))
    Q = BivariatePolynomial(field, {(int(i), int(j)): int(G[best, j, i])
                                    for j, i in zip(*np.nonzero(G[best]))})
    if rho is not None and Q.wdeg(w) > rho:
        raise ArithmeticError(
            f"interpolant weighted degree {Q.wdeg(w)} exceeds cap {rho}; "
            "caps are inconsistent with the constraint count")
    return Q
