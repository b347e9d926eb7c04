"""Finite-field arithmetic for GF(p) and GF(2^m).

Two kinds of fields back everything else in this package:

* prime fields GF(p), elements stored as the least non-negative residue;
* binary extension fields GF(2^m) for 2 <= m <= 16, elements stored as the
  carrier integer whose bits are the coefficients of the residue polynomial
  (bit i <-> x^i), multiplication done through log/antilog tables built from
  a generator of the multiplicative group.

A field is written textually as ``p:7`` or ``2^4:0b10011`` (the part after
the colon is the modulus polynomial as a bit pattern, here x^4 + x + 1).
``parse_field`` accepts both, plus ``2^m`` alone to get the default modulus.

Elements are plain ints.  :class:`FieldArrays` (from :meth:`Field.arrays`)
does the same arithmetic elementwise on integer numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Field",
    "FieldArrays",
    "FieldMismatch",
    "parse_field",
    "DEFAULT_MODULI",
]


class FieldMismatch(ValueError):
    """Raised when combining values of two different fields or codes."""


# Default modulus polynomials for GF(2^m), m = 2..16, as bit patterns.
# All are primitive, so x (carrier 2) generates the multiplicative group.
DEFAULT_MODULI = {
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10000011,           # x^7 + x + 1
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011, # x^16 + x^12 + x^3 + x + 1
}


# Miller-Rabin with the prime bases up to 37 is exact for every n below
# 3.18 * 10^23 (Sorenson & Webster, Math. Comp. 86, 2017), past 2^63.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Trial division by the bases, enough below 41^2, then a deterministic
    Miller-Rabin test: one modular power per base."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
        if a * a > n:
            return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _gf2_mul(a: int, b: int) -> int:
    """Carryless product of two GF(2)[x] polynomials packed in ints."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _gf2_mod(a: int, mod: int) -> int:
    """Remainder of a GF(2)[x] division, both polynomials packed in ints."""
    dm = mod.bit_length()
    while a.bit_length() >= dm:
        a ^= mod << (a.bit_length() - dm)
    return a


def _gf2_irreducible(mod: int, m: int) -> bool:
    # Exhaustive trial division by every polynomial of degree 1..m//2;
    # cheap for m <= 16 and leaves no room for doubt.
    if mod.bit_length() - 1 != m or not (mod & 1):
        return False
    for d in range(1, m // 2 + 1):
        for cand in range(1 << d, 1 << (d + 1)):
            if _gf2_mod(mod, cand) == 0:
                return False
    return True


class Field:
    """A finite field GF(p) or GF(2^m) operating on canonical int values.

    The arithmetic methods (`add`, `mul`, `inv`, ...) take and return plain
    ints in ``range(q)``; that keeps the inner decoding loops free of object
    churn.
    """

    __slots__ = ("p", "m", "q", "modulus", "_exp", "_log", "_hash", "_arrays")

    def __init__(self, p: int, m: int = 1, modulus: int | None = None):
        if p >= 2**63:   # numpy takes p as an int64 scalar
            raise ValueError(f"field characteristic must be below 2^63, got {p}")
        if not _is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p}")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        if m > 1:
            if p != 2:
                raise ValueError("extension fields are supported for p = 2 only")
            if m > 16:
                raise ValueError(f"GF(2^m) supported for m <= 16, got m = {m}")
            if modulus is None:
                modulus = DEFAULT_MODULI[m]
            if not _gf2_irreducible(modulus, m):
                raise ValueError(
                    f"modulus {bin(modulus)} is not an irreducible degree-{m} "
                    "polynomial over GF(2)"
                )
        else:
            if modulus is not None:
                raise ValueError("prime fields take no modulus polynomial")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        self._hash = hash((p, m, modulus))
        self._arrays = None
        if m > 1:
            self._build_tables()
        else:
            self._exp = self._log = None

    # -- construction helpers -------------------------------------------

    def _build_tables(self) -> None:
        q = self.q
        mod = self.modulus
        # Find a generator of the multiplicative group.  x itself works for
        # every default modulus; user-supplied (merely irreducible) moduli
        # may need a short search.
        for g in range(2, q):
            exp = [0] * (2 * (q - 1))
            log = [0] * q
            x = 1
            ok = True
            for i in range(q - 1):
                if x == 1 and i > 0:
                    ok = False  # cycle shorter than q-1: not a generator
                    break
                exp[i] = x
                log[x] = i
                x = _gf2_mod(_gf2_mul(x, g), mod)
            if ok and x == 1:
                exp[q - 1 : 2 * (q - 1)] = exp[: q - 1]
                self._exp = exp
                self._log = log
                return
        raise ValueError("no multiplicative generator found (modulus not irreducible?)")

    # -- textual form ----------------------------------------------------

    def label(self) -> str:
        """Canonical textual form: ``p:7`` or ``2^4:0b10011``."""
        if self.m == 1:
            return f"p:{self.p}"
        return f"2^{self.m}:{bin(self.modulus)}"

    def __repr__(self) -> str:
        return f"Field({self.label()!r})"

    # -- identity --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return self._hash

    # -- arithmetic on canonical ints -------------------------------------

    def check(self, v: int) -> int:
        """Validate a canonical value (0 <= v < q), returning it."""
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < self.q:
            raise ValueError(f"{v!r} is not a canonical element of {self.label()}")
        return v

    def canon(self, v: int) -> int:
        """Map an arbitrary int onto a canonical element.

        Prime fields reduce mod p; binary fields reduce the bit pattern mod
        the modulus polynomial (negative values are rejected there, since a
        bit pattern has no sign).
        """
        if self.m == 1:
            return v % self.p
        if v < 0:
            raise ValueError("negative carrier for a binary field element")
        return _gf2_mod(v, self.modulus) if v >= self.q else v

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        return a ^ b

    def neg(self, a: int) -> int:
        if self.m == 1:
            return -a % self.p
        return a

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in {self.label()}")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.m == 1:
            return pow(a, e, self.p)
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def arrays(self) -> "FieldArrays":
        """Elementwise arithmetic on numpy arrays, built on first use."""
        if self._arrays is None:
            self._arrays = FieldArrays(self)
        return self._arrays


# Elements of one int64 temporary of a GF(2^m) `FieldArrays.dot`: 64 KB.
DOT_CHUNK = 1 << 13


class FieldArrays:
    """Field arithmetic on integer numpy arrays of canonical elements.

    GF(2^m) multiplies through log/antilog tables.  The log of 0 is a
    sentinel whose sums with any log index a zero tail of the antilog table,
    so products with 0 need no masking.  GF(p) reduces int64 products mod p;
    when (p - 1)^2 does not fit in int64 the arrays hold Python ints
    (``dtype=object``) and the same expressions stay exact.
    """

    __slots__ = ("field", "p", "binary", "dtype", "_exp", "_log",
                 "_factor_dtype")

    def __init__(self, field: Field):
        self.field = field
        self.p = field.p
        self.binary = field.m > 1
        if self.binary:
            self.dtype = np.dtype(np.int64)
            order = field.q - 1
            zero_log = 2 * order
            exp = np.zeros(2 * zero_log + 1, dtype=np.int64)
            exp[:zero_log] = field._exp
            log = np.array(field._log, dtype=np.int64)
            log[0] = zero_log
            self._exp, self._log = exp, log
            self._factor_dtype = np.min_scalar_type(zero_log)
        else:
            wide = (self.p - 1) ** 2 >= 2**63
            self.dtype = np.dtype(object if wide else np.int64)

    def array(self, values) -> np.ndarray:
        return np.asarray(values, dtype=self.dtype)

    def sub(self, a, b):
        """Elementwise a - b (broadcasting)."""
        if self.binary:
            return a ^ b
        return (a - b) % self.p

    def mul(self, a, b):
        """Elementwise a * b (broadcasting)."""
        if self.binary:
            return self._exp[self._log[a] + self._log[b]]
        return a * b % self.p

    def inv(self, a) -> np.ndarray:
        """Elementwise 1 / a; every element must be nonzero."""
        a = self.array(a)
        if np.any(a == 0):
            raise ZeroDivisionError(f"inverse of zero in {self.field.label()}")
        if self.binary:
            return self._exp[self.field.q - 1 - self._log[a]]
        # one extended-Euclid pow per element: on the short arrays the
        # decoders invert, faster than a numpy square-and-multiply
        return self.array([pow(x, -1, self.p)
                           for x in a.ravel().tolist()]).reshape(a.shape)

    def msub(self, a, x, b, y):
        """Elementwise a*x - b*y (broadcasting)."""
        if self.binary:
            return self._exp[self._log[a] + self._log[x]] ^ \
                self._exp[self._log[b] + self._log[y]]
        return (a * x - b * y) % self.p

    def sub_scaled(self, y: np.ndarray, a, x) -> None:
        """y <- y - a*x in place (broadcasting a*x to y's shape)."""
        if self.binary:
            y ^= self._exp[self._log[a] + self._log[x]]
        else:
            y -= a * x % self.p
            y %= self.p

    def factors(self, c) -> np.ndarray:
        """Elements as the factors that `factor_sums`, `mul_factors` and
        `dot_factors` take: on GF(2^m) their logs, in [0, q - 2], and the
        zero sentinel 2(q - 1) for 0, in the narrowest dtype that holds the
        sentinel (one byte up to m = 7, two up to m = 15, four at m = 16);
        the elements themselves on GF(p)."""
        c = self.array(c)
        return self._log[c].astype(self._factor_dtype) if self.binary else c

    def mul_factors(self, a, f):
        """Elementwise a * c (broadcasting), for the elements c whose
        `factors` are f."""
        if self.binary:
            return self._exp[self._log[a] + f]
        return a * f % self.p

    def factor_sums(self, f: np.ndarray, values: np.ndarray,
                    index: np.ndarray) -> np.ndarray:
        """Column sums of f * values[index], with f factors and index an
        integer array of f's shape: one product per entry, then a sum down
        axis 0."""
        if self.binary:
            terms = self._exp[f + self._log[values][index]]
            return np.bitwise_xor.reduce(terms, axis=0)
        return (f * values[index] % self.p).sum(axis=0) % self.p

    def dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product over the field: a's last axis against b's first.

        GF(2^m) gathers every product term from the antilog table and sums
        them with XOR, in one of two layouts picked by the operand shapes:

        * when a is not a vector and has more rows (the product of
          a.shape[:-1]) than b has columns (the product of b.shape[1:]),
          the terms of a chunk of a's rows lie along a contiguous last axis,
          one row of b's transpose per output column, and XOR runs down
          that axis: the layout for many short products, as in Koetter's
          discrepancies;
        * otherwise the terms of a chunk of b's rows lie along axis -2, and
          each chunk adds its rows into the whole output: the layout for a
          vector or a few rows against a wide matrix.

        Each int64 temporary holds at most DOT_CHUNK elements, or the least
        that one step takes when that is more: one term per output element
        in the second layout, one per column of b in the first, which then
        also splits the contraction axis into spans.  That is below
        glibc's default mmap threshold (128 KB): the allocator reuses heap
        memory instead of mapping, and faulting in, fresh pages on every
        call."""
        if self.binary:
            return self._log_dot(self._log[a], b, self._log.__getitem__)
        p = self.p
        if self.dtype == object or a.shape[-1] * (p - 1) ** 2 < 2**63:
            return a @ b % p
        # The int64 sum of the products could wrap.  Take a in base-2^s
        # digits, high to low, with s small enough that
        # acc * 2^s + digit . b stays below (n + 1)(p - 1) 2^s <= 2^62.
        s = 62 - ((a.shape[-1] + 1) * (p - 1)).bit_length()
        if s < 1:  # not even one bit per digit fits: sum Python ints
            return (a.astype(object) @ b.astype(object) % p).astype(self.dtype)
        acc = 0
        for shift in range((p.bit_length() - 1) // s * s, -1, -s):
            acc = (acc * (1 << s) + (a >> shift & (1 << s) - 1) @ b) % p
        return acc

    def dot_factors(self, a: np.ndarray, f: np.ndarray) -> np.ndarray:
        """`dot` of a with the matrix whose `factors` are f, the form of the
        per-code matrices that every word multiplies: on GF(2^m) only a's
        logs are gathered."""
        if self.binary:
            return self._log_dot(self._log[a], f, np.asarray)
        return self.dot(a, f)

    def _log_dot(self, log_a: np.ndarray, b: np.ndarray,
                 logs) -> np.ndarray:
        """The GF(2^m) `dot`, in the two layouts it describes, of a, given
        by its logs log_a, with b; logs(block) gives the logs of a block of
        b's rows."""
        lead, cols = log_a.shape[:-1], math.prod(b.shape[1:])
        if lead and math.prod(lead) > cols:
            rows_a, depth = math.prod(lead), log_a.shape[-1]
            log_a = log_a.reshape(rows_a, depth)
            log_bt = logs(b).reshape(depth, cols).T.copy()
            span = max(1, min(depth, DOT_CHUNK // max(1, cols)))
            rows = max(1, DOT_CHUNK // max(1, cols * span))
            out = np.zeros((rows_a, cols), dtype=self.dtype)
            for lo in range(0, rows_a, rows):
                for k in range(0, depth, span):
                    out[lo:lo + rows] ^= np.bitwise_xor.reduce(self._exp[
                        log_a[lo:lo + rows, None, k:k + span]
                        + log_bt[:, k:k + span]], axis=-1)
            return out.reshape(lead + b.shape[1:])
        out = np.zeros(lead + b.shape[1:], dtype=self.dtype)
        rows = max(1, DOT_CHUNK // max(1, out.size))
        for lo in range(0, len(b), rows):
            terms = self._exp[log_a[..., lo:lo + rows, None]
                              + logs(b[lo:lo + rows])]
            out ^= np.bitwise_xor.reduce(terms, axis=-2)
        return out

    def evaluate(self, coeffs, x: np.ndarray) -> np.ndarray:
        """Values at every point of x of the polynomial with coefficients
        `coeffs` (low to high), by Horner's rule: one step per coefficient."""
        acc = np.zeros(x.shape, dtype=self.dtype)
        if self.binary:
            log_x = self._log[x]
            for c in reversed(coeffs):
                acc = self._exp[self._log[acc] + log_x] ^ c
            return acc
        for c in reversed(coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def monic_remainders(self, coeffs, g: np.ndarray) -> np.ndarray:
        """Row i: the d coefficients, low to high, of the remainder of the
        polynomial with coefficients `coeffs` (low to high) modulo the monic
        x^d + g[i, d-1] x^(d-1) + ... + g[i, 0], for every row of the
        (rows, d) array g at once.

        Long division one coefficient at a time, high to low: the register
        r becomes r*x + c, and its x^d term t is replaced by -t*g.  The top
        d coefficients enter with t = 0, so r starts as them.  At d = 1 the
        remainder is the value at -g[i, 0]: Horner at every root at once.
        """
        d = g.shape[1]
        coeffs = list(coeffs) + [0] * (d - len(coeffs))
        r = np.broadcast_to(self.array(coeffs[-d:]), g.shape)
        for c in reversed(coeffs[:-d]):
            shifted = np.empty_like(g)
            shifted[:, 0] = c
            shifted[:, 1:] = r[:, :-1]
            r = self.sub(shifted, self.mul(r[:, -1:], g))
        return r

    def barycentric(self, roots: np.ndarray, vanishing,
                    c: np.ndarray) -> np.ndarray:
        """The matrix whose row j holds the deg V coefficients, low to high,
        of c_j * V(x) / (x - x_j), where the monic V with coefficients
        `vanishing` has every x_j among its roots.

        With V = prod (x - x_j) and c_j = 1 / V'(x_j) it interpolates: the
        values r_j at the roots have the interpolant r . B, one `dot` per
        word.  Synthetic division of V by every (x - x_j) at once runs from
        the top degree down: at step e, u_j is c_j times the x^e coefficient
        of V / (x - x_j), and it becomes column e.  One step per degree.
        """
        u = c
        out = np.zeros((len(roots), len(vanishing) - 1), dtype=self.dtype)
        for e in range(len(vanishing) - 2, -1, -1):
            out[:, e] = u
            if e:  # the next quotient coefficient is v_e + x_j * this one
                u = self.msub(roots, u, self.field.neg(vanishing[e]), c)
        return out

    def indexed_values(self, start: int, stop: int, powers: np.ndarray,
                       mult: np.ndarray) -> np.ndarray:
        """Values at some points x, times mult(x), of the polynomials
        numbered start..stop-1, one row each.

        powers holds the `factors` of x^0 .. x^(width-1) at the points, one
        row per exponent (the first rows of `CodeConstants.point_powers`),
        and mult the multiplier's values there.  Polynomial number i has as
        coefficients, low to high, the `width` lowest base-q digits of i, so
        row i - start holds sum_e digit_e(i) * x^e * mult(x): one multiply
        and add per digit.  Numbers past int64 are split into digits as
        Python ints.
        """
        q = self.field.q
        wide = self.dtype == object or stop > 2**63
        rest = np.arange(start, stop, dtype=object if wide else np.int64)
        rows = self.factors(self.mul_factors(mult, powers))
        acc = np.zeros((len(rest), powers.shape[1]), dtype=self.dtype)
        for row in rows:
            part = self.mul_factors(self.array(rest % q)[:, None], row)
            rest = rest // q
            acc = acc ^ part if self.binary else (acc + part) % self.p
        return acc

    def trim(self, a: np.ndarray) -> np.ndarray:
        """The coefficient array a (low to high) without its trailing
        zeros; the zero polynomial is the empty array."""
        nz = np.flatnonzero(a)
        return a[:nz[-1] + 1] if nz.size else a[:0]

    def powers(self, x, n: int) -> np.ndarray:
        """x^0, x^1, ..., x^(n-1) along a new last axis, for a point x or
        an array of points."""
        x = self.array(x)
        if self.binary:
            # x^e = exp[log x * e mod (q - 1)]; the log sentinel of 0 would
            # read as 1, so x = 0 is masked to 0^e
            e = np.arange(n)
            out = self._exp[self._log[x][..., None] * e % (self.field.q - 1)]
            return np.where((x[..., None] == 0) & (e > 0), 0, out)
        p = self.p
        rows = []
        for xi in x.ravel().tolist():
            row = [1] * n
            for i in range(1, n):
                row[i] = row[i - 1] * xi % p
            rows.append(row)
        return self.array(rows).reshape(x.shape + (n,))


def parse_field(text: str) -> Field:
    """Parse a field label: ``p:7``, ``2^4``, ``2^4:0b10011`` or ``2^4:19``."""
    text = text.strip()
    if text.startswith("p:"):
        try:
            p = int(text[2:])
        except ValueError:
            raise ValueError(f"bad prime field label {text!r}") from None
        return Field(p)
    if text.startswith("2^"):
        body = text[2:]
        mod = None
        if ":" in body:
            mtxt, modtxt = body.split(":", 1)
            mod = int(modtxt, 0)
        else:
            mtxt = body
        try:
            m = int(mtxt)
        except ValueError:
            raise ValueError(f"bad extension field label {text!r}") from None
        return Field(2, m, mod)
    raise ValueError(f"unrecognized field label {text!r} (want 'p:7' or '2^m:0b...')")
