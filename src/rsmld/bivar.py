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
array, holding only what the update can make nonzero: its Hasse
discrepancies at the current anchor for the s(s+1)/2 constraints, computed
once per anchor and then updated incrementally (McEliece, "The
Guruswami-Sudan decoding algorithm for Reed-Solomon codes", IPN PR
42-153, 2003), one zero column, and its coefficients of the monomials whose
weighted degree is at most the largest lead's, in order of weighted
degree.  The rows are kept up to a scale per candidate, so that the update
of a constraint is one field axpy on the whole array; the scales are
multiplied in once at the end, and the result is exactly the unnormalised
update's.  Only the fit is returned as a sparse polynomial.

The same engine serves both module ranks: `koetter_candidates` returns all
M + 1 final candidates, the rational fit (`koetter_interpolate`) keeps the
smallest, and at s = 1, M = 1 the two candidates are the rank-2 Groebner
basis of the decoders' interpolation module (`groebner.mgb_iterative`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fields import Field
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


# A fit keeps the Hasse tables of all its anchors while they hold at most
# TABLE_CELLS entries (2 MB of int64), and builds each anchor's when it gets
# there otherwise: at the Johnson edge of (255,33) over GF(2^8) (s = 79) the
# whole tables would take gigabytes.
TABLE_CELLS = 1 << 18


@functools.lru_cache(maxsize=64)
def _binomials(p: int, s: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """C(i, u) mod p and the exponent max(i - u, 0), i < rows, u < s."""
    binom = np.array([[math.comb(i, u) % p for u in range(s)]
                      for i in range(rows)], dtype=np.int64)
    shift = np.maximum(np.arange(rows)[:, None] - np.arange(s), 0)
    binom.flags.writeable = shift.flags.writeable = False
    return binom, shift


def _hasse_tables(A, points, s: int, rows: int) -> np.ndarray:
    """T[b, i, u] = C(i, u) * points[b]^(i - u) (0 when i < u), i < rows,
    u < s: a coefficient vector times T[b] gives its Hasse derivatives at
    points[b]."""
    binom, shift = _binomials(A.p, s, rows)
    return A.mul(A.array(binom), A.powers(points, rows)[:, shift])


@functools.lru_cache(maxsize=8)
def _x_tables(field: Field, xs: tuple[int, ...], s: int,
              rows: int) -> np.ndarray:
    """`_hasse_tables` of the anchors' x, read-only: they depend on the
    points alone (a code's, for the rational decoder), so every fit on them
    shares one copy per s and row count."""
    T = _hasse_tables(field.arrays(), list(xs), s, rows)
    T.flags.writeable = False
    return T


@functools.lru_cache(maxsize=64)
def _row_layout(s: int, M: int, w: int,
                span: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Index maps, read-only, of a Koetter row (see `koetter_candidates`)
    that holds the monomials of weighted degree d_min .. d_min + span - 1,
    d_min = min(0, M*w).  Returns

    * view[j, i], the column of x^i z^j, i < span, or the zero column when
      the row does not hold it;
    * src, the column each column of the row takes when the candidate is
      multiplied by x: x^(i-1) z^j for x^i z^j and D_{u-1,v} for D_{u,v},
      the zero column when i = 0 or u = 0;
    * ends[n], one past the last column of weighted degree < d_min + n.
    """
    cons = hasse_constraints(s)
    P = len(cons)
    order = {uv: p for p, uv in enumerate(cons)}
    d = np.arange(span)[:, None] + min(0, M * w)
    j = np.arange(M + 1)
    i = d - j * w
    held = i >= 0
    mi, mj = i[held], np.broadcast_to(j, i.shape)[held]
    view = np.full((M + 1, span), P)
    view[mj, mi] = P + 1 + np.arange(mi.size)
    src = np.concatenate([[order[u - 1, v] if u else P for u, v in cons],
                          [P], np.where(mi > 0, view[mj, mi - 1], P)])
    ends = (P + 1 + np.cumsum([0] + held.sum(axis=1).tolist())).tolist()
    view.flags.writeable = src.flags.writeable = False
    return view, src, ends


def koetter_candidates(field: Field, anchors: list[ProjectivePoint], s: int,
                       M: int, w: int) -> tuple[np.ndarray, list[int]]:
    """Koetter's update over C = M + 1 candidates; returns the final
    candidates as G[candidate, z-degree, x-degree] and the x-exponent of
    each one's leading monomial (candidate j leads with z-degree j).

    Candidate j starts as z^j.  Row c of one array R holds candidate c and
    only what the update can make nonzero:
    * its Hasse discrepancies D_{u,v} at the current anchor for the
      P = s(s+1)/2 pairs u + v < s that `hasse_constraints` reads, in that
      order, so that constraint p reads column p;
    * one zero column;
    * its coefficients of the monomials x^i z^j, i >= 0, j <= M, of
      (1, w)-weighted degree d = i + j*w at most `top`, the weighted degree
      of the largest lead, ordered by d and then j (`_row_layout`).
    Every term of a candidate lies at or below its lead, so no other
    coefficient can be nonzero, and a larger `top` only appends columns.
    The array first holds the M|w| + 1 weighted degrees from d_min =
    min(0, M*w) to max(0, M*w), and twice as many each time `top`
    outgrows them: one copy per doubling.  The final candidates are read
    back over x-degrees 0 .. top - d_min.

    At each anchor all discrepancies are computed in one pass: the
    (candidate, z-degree, x-degree) view, x-width top - d_min + 1, is
    gathered through an index map, and two field products, (C, C, x-width)
    by (x-width, s) and (C, s, C) by (C, s), take Hasse tables of x and of
    z.  The x tables depend only on the anchors' x, so fits on the same
    points share them (`_x_tables`, while they fit in TABLE_CELLS).  Then
    the discrepancies are kept current by linearity: a combination of
    candidates combines their rows, and multiplying by (x - x0) takes each
    coefficient from the monomial one step lower in x and each D_{u,v}
    from D_{u-1,v}, through one index map whose zero column brings in the
    zeros.  Each constraint's pivot j* is the candidate with the smallest
    leading monomial (`_lead_keys`) among those it does not vanish on.  The
    lead keys and the scales are lists of Python ints, and the pivot is
    chosen over the column's C discrepancies as a list: at M + 1 <= 16
    rows that is cheaper than a numpy call per step.

    Rows are held up to a scale: candidate c is lam[c] * R[c], so its true
    discrepancy is d_c = lam[c] * e_c with e_c the stored one.  The update
    g_c <- d* g_c - d_c g* is then R_c <- R_c - (e_c / e*) R_j* with
    lam[c] <- lam[c] lam[j*] e*: one field axpy over every row at once,
    with coefficient 0 for the rows the constraint misses and for j*
    itself, and none when j* is the only candidate it hits (about one
    constraint in ten at s = 7).  It starts at the constraint's own column:
    every candidate already meets the earlier constraints of the anchor,
    so their columns are 0 in every row.  The field is exact, so
    multiplying by lam once at the end gives the unnormalised update's
    candidates, bit for bit.
    """
    A = field.arrays()
    C = M + 1
    cons = hasse_constraints(s)
    P = len(cons)
    key = _lead_keys(np.zeros(C, dtype=np.int64), w).tolist()
    lam = [1] * C

    # D_{u,v} at a finite anchor is entry u*s + v of the (s, s) product; at
    # infinity it reads the z^(M - v) slice of the x-transform, v <= M
    finite_cols = [u * s + v for u, v in cons]
    inf_at = [p for p, (u, v) in enumerate(cons) if v <= M]
    inf_cols = [(M - v) * s + u for u, v in cons if v <= M]

    d_min = min(0, M * w)
    top = max(0, M * w)
    span = top - d_min + 1
    view, src, ends = _row_layout(s, M, w, span)
    R = np.zeros((C, ends[-1]), dtype=A.dtype)
    R[np.arange(C), view[:, 0]] = 1

    xs = tuple(pt.x for pt in anchors)

    def x_tables(span: int) -> tuple[int, np.ndarray | None]:
        """The anchors' x tables for the x-degrees below a power of two
        rows >= span, or None when each anchor builds its own."""
        rows = 1 << (span - 1).bit_length()
        return rows, (_x_tables(field, xs, s, rows)
                      if len(xs) * rows * s <= TABLE_CELLS else None)

    rows, tx = x_tables(span)
    tz = (_hasse_tables(A, [pt.z_num for pt in anchors], s, C)
          if len(anchors) * C * s <= TABLE_CELLS else None)
    for b, pt in enumerate(anchors):
        x0, width = pt.x, top - d_min + 1
        G = np.take(R, view[:, :width], axis=1)
        T = tx[b] if tx is not None else _hasse_tables(A, [x0], s, rows)[0]
        H = A.dot(G, T[:width])
        if pt.is_infinite:
            D = np.zeros((C, P), dtype=A.dtype)
            D[:, inf_at] = H.reshape(C, C * s)[:, inf_cols]
        else:
            T = (tz[b] if tz is not None
                 else _hasse_tables(A, [pt.z_num], s, C)[0])
            D = A.dot(H.transpose(0, 2, 1), T).reshape(C, s * s)
            D = D if P == s * s else np.take(D, finite_cols, axis=1)
        R[:, :P] = D
        for col in range(P):
            e = R[:, col].tolist()
            hit = [i for i in range(C) if e[i]]
            if not hit:
                continue
            j = min(hit, key=key.__getitem__)
            estar = e[j]
            others = [i for i in hit if i != j]
            used = ends[top - d_min + 1]
            if others:  # else the axpy's coefficients are all 0
                coef = A.mul(R[:, col], field.inv(estar))
                coef[j] = 0
                A.sub_scaled(R[:, col:used], coef[:, None], R[j, col:used])
                scale = field.mul(lam[j], estar)
                for i in others:
                    lam[i] = field.mul(lam[i], scale)
            # g* <- (x - x0) g*, and D_{u,v}(g*) <- D_{u-1,v}(g*)
            key[j] += C
            top = max(top, key[j] // C)
            if top - d_min == span:  # one past the weighted degrees held
                span *= 2
                view, src, ends = _row_layout(s, M, w, span)
                R = np.concatenate([R, np.zeros(
                    (C, ends[-1] - R.shape[1]), dtype=A.dtype)], axis=1)
                if span > rows:
                    rows, tx = x_tables(span)
            end = ends[key[j] // C - d_min + 1]  # the pivot's own support
            row = R[j]
            moved = row.take(src[:end])
            row[P + 1:end] = (A.sub(moved[P + 1:], A.mul(x0, row[P + 1:end]))
                              if x0 else moved[P + 1:])
            row[:P] = moved[:P]
    width = top - d_min + 1
    G = A.mul(A.array(lam)[:, None, None], np.take(R, view[:, :width], axis=1))
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
