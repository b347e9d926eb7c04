"""Bivariate polynomials over a finite field and constrained interpolation.

Polynomials live in F[x, z] as sparse {(i, j): coeff} maps.  The rational
decoder needs one nontrivial operation: given anchor points (x_i, z_i) —
some possibly with z at infinity — find a nonzero Q with z-degree at most M
whose Hasse derivatives D_{u,v}Q vanish at every anchor for all u + v < s.
An infinity anchor constrains the z-reversal of Q at (x_i, 0) instead.
Koetter's update processes one constraint at a time over M + 1 candidates
ordered by (1, w)-weighted leading degree, and the smallest final candidate
meets the weighted-degree cap whenever the constraint count is below the
cap's coefficient budget.  Each candidate is one row of one integer numpy
array: its Hasse discrepancies at the current anchor, computed once per
anchor and then updated incrementally (McEliece, "The Guruswami-Sudan
decoding algorithm for Reed-Solomon codes", IPN PR 42-153, 2003), followed
by its coefficients.  The rows are kept up to a scale per candidate, so that
the update of a constraint is one field axpy on the whole array; the scales
are multiplied in once at the end, and the result is exactly the
unnormalised update's.  Only the fit is returned as a sparse polynomial.

The same engine serves both module ranks: `koetter_candidates` returns all
M + 1 final candidates, the rational fit (`koetter_interpolate`) keeps the
smallest, and at s = 1, M = 1 the two candidates are the rank-2 Groebner
basis of the decoders' interpolation module (`groebner.mgb_iterative`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import DOT_CHUNK, Field
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


def _lead_keys(lmx: np.ndarray, w: int) -> np.ndarray:
    """Candidate c's leading monomial x^lmx[c] z^c packed in one int,
    (lmx[c] + c*w)*C + c over C candidates: ordered by (1, w)-weighted
    degree, ties going to the lower z-degree."""
    C = len(lmx)
    c = np.arange(C)
    return (lmx + c * w) * C + c


def koetter_candidates(field: Field, anchors: list[ProjectivePoint], s: int,
                       M: int, w: int) -> tuple[np.ndarray, list[int]]:
    """Koetter's update over C = M + 1 candidates; returns the final
    candidates as G[candidate, z-degree, x-degree] and the x-exponent of
    each one's leading monomial (candidate j leads with z-degree j).

    Candidate j starts as z^j.  Row c of one array R holds candidate c: s
    zeros, its s*s Hasse discrepancies D_{u,v} at the current anchor
    (u-major), C zeros, then its coefficients x-major (x^i z^j at column
    g0 + i*C + j), so that a larger x-degree only appends columns.  At each
    anchor all discrepancies are computed in one pass, from Hasse tables
    built for a block of anchors at a time, then kept current by linearity:
    a combination of candidates combines their rows, and multiplying by
    (x - x0) shifts the coefficients one step in x and the discrepancies
    one step in u, the zeros in front shifting in.  The pass is two field
    products, (C, C, x-width) by (x-width, s) and (C, s, C) by (C, s): many
    short products, which `FieldArrays.dot` sums along a contiguous axis.
    Each constraint's pivot j* is the candidate with the smallest leading
    monomial (`_lead_keys`) among those it does not vanish on.  The lead
    keys and the scales are lists of Python ints, and the pivot is chosen
    over the column's C discrepancies as a list: at M + 1 <= 16 rows that
    is cheaper than a numpy call per step.

    Rows are held up to a scale: candidate c is lam[c] * R[c], so its true
    discrepancy is d_c = lam[c] * e_c with e_c the stored one.  The update
    g_c <- d* g_c - d_c g* is then R_c <- R_c - (e_c / e*) R_j* with
    lam[c] <- lam[c] lam[j*] e*: one field axpy over every row at once,
    with coefficient 0 for the rows the constraint misses and for j*
    itself, and none when j* is the only candidate it hits (about one
    constraint in ten at s = 7).  The field is exact, so multiplying by lam
    once at the end gives the unnormalised update's candidates, bit for bit.
    """
    A = field.arrays()
    C, S = M + 1, s * s
    c = np.arange(C)
    key = _lead_keys(np.zeros(C, dtype=np.int64), w).tolist()
    lam = [1] * C

    # Every term x^i z^j' of candidate c has i + j'w <= lmx[c] + c*w, so its
    # x-degree is at most lmx[c] + c*w + spare.
    spare = max(0, -w) * M
    top = max(0, M * w) + spare
    cap = top + 1
    g0 = s + S + C
    R = np.zeros((C, g0 + cap * C), dtype=A.dtype)
    R[c, g0 + c] = 1

    cons = [s + u * s + v for u, v in hasse_constraints(s)]
    # D_{u,v} at infinity reads the z^(M - v) slice of the x-transform
    slices = M - np.arange(min(s, C))
    done = 0
    while done < len(anchors):
        # T[i, u] = C(i, u) * point^(i - u) (0 when i < u), i < rows, for
        # every anchor of a block: a coefficient vector times T gives its
        # Hasse derivatives at the point
        rows = max(cap, C)
        binom = A.array([[math.comb(i, u) % field.p for u in range(s)]
                         for i in range(rows)])
        shift = np.maximum(np.arange(rows)[:, None] - np.arange(s), 0)
        block = anchors[done:done + max(1, DOT_CHUNK // (rows * s))]
        tx = A.mul(binom, A.powers([pt.x for pt in block], rows)[:, shift])
        tz = A.mul(binom[:C],
                   A.powers([pt.z_num for pt in block], C)[:, shift[:C]])
        for b, pt in enumerate(block):
            if cap > rows:
                break  # the x-degree outgrew the tables
            done += 1
            x0, cols = pt.x, top + 1
            G = R[:, g0:g0 + cols * C].reshape(C, cols, C)
            H = A.dot(G.transpose(0, 2, 1), tx[b, :cols])
            if pt.is_infinite:
                D = np.zeros((C, s, s), dtype=A.dtype)
                D[:, :, :len(slices)] = H[:, slices].transpose(0, 2, 1)
            else:
                D = A.dot(H.transpose(0, 2, 1), tz[b])
            R[:, s:s + S] = D.reshape(C, S)
            for col in cons:
                e = R[:, col].tolist()
                hit = [i for i in range(C) if e[i]]
                if not hit:
                    continue
                j = min(hit, key=key.__getitem__)
                estar = e[j]
                others = [i for i in hit if i != j]
                if others:  # else the axpy's coefficients are all 0
                    coef = A.mul(R[:, col], field.inv(estar))
                    coef[j] = 0
                    used = g0 + cols * C
                    A.sub_scaled(R[:, :used], coef[:, None], R[j, :used])
                    scale = field.mul(lam[j], estar)
                    for i in others:
                        lam[i] = field.mul(lam[i], scale)
                # g* <- (x - x0) g*, and D_{u,v}(g*) <- D_{u-1,v}(g*)
                key[j] += C
                top = max(top, key[j] // C + spare)
                if top >= cap:
                    R = np.concatenate(
                        [R, np.zeros((C, cap * C), dtype=A.dtype)], axis=1)
                    cap *= 2
                cols = top + 1
                end = g0 + cols * C
                row = R[j]
                row[g0:end] = (A.sub(row[g0 - C:end - C],
                                     A.mul(x0, row[g0:end]))
                               if x0 else row[g0 - C:end - C])
                row[s:s + S] = row[:S]
    G = A.mul(A.array(lam)[:, None], R[:, g0:])
    G = G.reshape(C, cap, C).transpose(0, 2, 1)
    return G, [(k - i) // C - i * w for i, k in enumerate(key)]


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
    best = int(_lead_keys(np.array(lmx), w).argmin())
    Q = BivariatePolynomial(field, {(int(i), int(j)): int(G[best, j, i])
                                    for j, i in zip(*np.nonzero(G[best]))})
    if rho is not None and Q.wdeg(w) > rho:
        raise ArithmeticError(
            f"interpolant weighted degree {Q.wdeg(w)} exceeds cap {rho}; "
            "caps are inconsistent with the constraint count")
    return Q
