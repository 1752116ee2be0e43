"""Exact finite sections of the averaging operator and its derived operators.

Everything here is lower triangular, so the first N coordinates of any of
these operators applied to a vector depend only on the first N coordinates of
the vector.  Finite sections therefore carry no truncation error: the N-by-N
block *is* the operator on those coordinates.

Two arithmetic modes are supported throughout:

``rational``
    Exact arithmetic over rationals (complex rationals where needed).  Used
    for oracle checks at small dimensions.  The loops hold their values as
    integer numerators over one common denominator and take no gcd; a
    Fraction or QC is built, reduced, only when a value is returned.  Floats
    read from the exact values (int-by-int true division) are correctly
    rounded, so they do not depend on how the values are reduced.

``float``
    complex128 with log-magnitude/unit-phase product accumulation where naive
    products would overflow or underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from numbers import Rational
from typing import Sequence, Union

import numpy as np

from .weights import NEG_INF, WeightSpec

__all__ = [
    "QC",
    "SectionError",
    "FiniteSection",
    "SIGMA_PROXIMITY_EPS",
    "distance_to_limit_set",
    "nearest_limit_point",
    "cesaro_section",
    "cumulative_means",
    "apply_power",
    "kernel_power_entry",
    "resolvent_section",
    "eigenvector",
    "dual_eigenvector",
    "dual_apply",
    "shifted_inverse_section",
    "weighted_norm",
]

#: sections above this dimension are refused (every section is stored dense)
DENSE_DIMENSION_CAP = 4096
#: exact rational sections above this dimension are refused (cost blows up)
RATIONAL_DIMENSION_CAP = 512
#: default rejection distance around the closed candidate-eigenvalue set
SIGMA_PROXIMITY_EPS = 1e-9


class SectionError(ValueError):
    """Bad dimension, mode, or an operator evaluated at an excluded point."""


# ---------------------------------------------------------------------------
# complex rationals


@dataclass(frozen=True)
class QC:
    """A complex number with exact rational real and imaginary parts.

    The rational resolvent section returns its entries as QC, and the
    benchmark's exact-iterate check recomputes R (C - lam I) = I with it.
    """

    re: Fraction
    im: Fraction = Fraction(0)

    @classmethod
    def from_number(cls, z) -> "QC":
        if isinstance(z, QC):
            return z
        if isinstance(z, complex):
            return cls(Fraction(z.real), Fraction(z.imag))
        if isinstance(z, Rational):
            return cls(Fraction(z), Fraction(0))
        if isinstance(z, float):
            return cls(Fraction(z), Fraction(0))
        raise TypeError(f"cannot build an exact complex from {type(z).__name__}")

    def __add__(self, other: "QC") -> "QC":
        return QC(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QC") -> "QC":
        return QC(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "QC") -> "QC":
        return QC(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "QC") -> "QC":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by exact complex zero")
        return QC((self.re * other.re + self.im * other.im) / d,
                  (self.im * other.re - self.re * other.im) / d)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    __complex__ = to_complex

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.im == 0:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"


_QC_ONE = QC(Fraction(1))


def _log_abs(x) -> float:
    """log |x| for ints, Fractions, floats, complex, QC; -inf at zero.

    Big integers and huge Fractions are handled without intermediate float
    conversion, so nothing overflows.
    """
    if isinstance(x, QC):
        a2 = x.abs2()
        if a2 == 0:
            return NEG_INF
        return 0.5 * (math.log(a2.numerator) - math.log(a2.denominator))
    if isinstance(x, Fraction):
        if x == 0:
            return NEG_INF
        return math.log(abs(x.numerator)) - math.log(x.denominator)
    if isinstance(x, int):
        return math.log(abs(x)) if x else NEG_INF
    if isinstance(x, complex):
        m = abs(x)
        return math.log(m) if m else NEG_INF
    m = abs(float(x))
    return math.log(m) if m else NEG_INF


# ---------------------------------------------------------------------------
# sections and weighted norms


@dataclass(frozen=True)
class FiniteSection:
    """An N-by-N lower-triangular operator block.

    ``rows[n-1]`` holds the n entries of row n (columns 1..n).  Float-mode
    rows are numpy complex arrays; rational-mode rows are tuples of Fractions
    or exact complex rationals; entries above the diagonal are zero and
    not stored.  The benchmark reads ``N``, ``mode`` and ``rows``.
    """

    N: int
    mode: str
    rows: tuple


def weighted_norm(coords: Sequence, w: WeightSpec) -> float:
    """Sum of w(n) |x_n|, accumulated through the log domain per term.

    Each term is exp(log w(n) + log |x_n|), so weights far below float range
    cannot poison the sum, and huge exact coordinates are read without
    overflow.  A term or sum beyond the float range gives ``inf``.
    An oracle: ``test_averages_rational_mode_exact`` holds the traced
    average norms against it.
    """
    logs = {i: la for i, la in enumerate(map(_log_abs, coords), 1)
            if la != NEG_INF}
    if not logs:
        return 0.0
    lw = w.log_eval(np.fromiter(logs, dtype=np.int64))
    try:
        return math.fsum(math.exp(float(a) + la)
                         for a, la in zip(lw, logs.values()))
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# the averaging section and its powers


def _check_mode(mode: str) -> None:
    if mode not in ("rational", "float"):
        raise SectionError(f"unknown arithmetic mode {mode!r}")


def _check_rational_dim(N: int, mode: str) -> None:
    if mode == "rational" and N > RATIONAL_DIMENSION_CAP:
        raise SectionError(
            f"rational mode is capped at N = {RATIONAL_DIMENSION_CAP}; "
            f"use float mode for larger sections")


def cesaro_section(N: int, mode: str = "rational") -> FiniteSection:
    """The N-by-N averaging section: row n is n copies of 1/n.

    An oracle: ``test_exact_algebra_suite`` multiplies it by the rational
    resolvent section and must get the identity exactly.
    """
    _check_mode(mode)
    if N < 1:
        raise SectionError("dimension must be >= 1")
    if N > DENSE_DIMENSION_CAP:
        raise SectionError(f"dense averaging sections are capped at "
                           f"N = {DENSE_DIMENSION_CAP}")
    _check_rational_dim(N, mode)
    if mode == "rational":
        rows = tuple(tuple(Fraction(1, n + 1) for _ in range(n + 1))
                     for n in range(N))
    else:
        rows = tuple(np.full(n + 1, 1.0 / (n + 1)) for n in range(N))
    return FiniteSection(N, mode, rows)


def _exact_parts(x) -> tuple:
    """(re, im) Fractions of one rational-mode coordinate; im is None when
    the coordinate is real.  A QC counts as complex even when its imaginary
    part is zero, a Python complex only when it is not."""
    if isinstance(x, QC):
        return x.re, x.im
    if isinstance(x, complex):
        return Fraction(x.real), (Fraction(x.imag) if x.imag else None)
    if isinstance(x, (Rational, float)):
        return Fraction(x), None
    raise TypeError(f"cannot use {type(x).__name__} in rational mode")


def cumulative_means(x: Sequence, steps: int):
    """Yield the first ``steps`` averaging iterates of x, held exactly.

    Each iterate is held as common-denominator integers ``(re, im, den)``:
    coordinate n is ``(re[n] + i im[n]) / den``, with ``im`` None for real
    input.  With L = lcm(1..N) one step is ``a <- prefix sums of a times
    L // n`` and ``den <- den * L``, so no gcd is ever taken.  The values
    are not reduced, but ``re[n] / den`` (int-by-int true division) is the
    correctly rounded float of the exact coordinate, bit for bit equal to
    ``float`` of the reduced Fraction.
    """
    parts = [_exact_parts(v) for v in x]
    fracs = [re for re, _ in parts]
    if any(im is not None for _, im in parts):
        fracs += [Fraction(0) if im is None else im for _, im in parts]
    den = math.lcm(*(f.denominator for f in fracs))
    nums = [f.numerator * (den // f.denominator) for f in fracs]
    N = len(parts)
    re, im = nums[:N], (nums[N:] or None)
    L = math.lcm(*range(1, N + 1))
    q = [L // n for n in range(1, N + 1)]
    for _ in range(steps):
        re = [s * c for s, c in zip(accumulate(re), q)]
        if im is not None:
            im = [s * c for s, c in zip(accumulate(im), q)]
        den *= L
        yield re, im, den


def apply_power(x: Sequence, m: int, N: int,
                mode: str = "float") -> tuple:
    """First N coordinates of the m-th power of the averaging operator at x.

    Rational mode runs the exact kernel ``cumulative_means`` on
    common-denominator integers and reduces once, at the end: the result
    is a tuple of Fractions, or of QC when any input coordinate is complex
    (a QC, or a complex with nonzero imaginary part).  Float mode runs
    vectorized cumulative means.  Triangularity makes the result
    independent of coordinates beyond N.
    """
    _check_mode(mode)
    if m < 1:
        raise SectionError("power must be >= 1")
    if N < 1:
        raise SectionError("dimension must be >= 1")
    if len(x) < N:
        raise SectionError("need at least N input coordinates")
    if mode == "rational":
        for re, im, den in cumulative_means(x[:N], m):
            pass
        if im is None:
            return tuple(Fraction(a, den) for a in re)
        return tuple(QC(Fraction(a, den), Fraction(b, den))
                     for a, b in zip(re, im))
    arr = np.asarray([complex(v) for v in x[:N]], dtype=complex)
    ns = np.arange(1, N + 1, dtype=float)
    for _ in range(m):
        arr = np.cumsum(arr) / ns
    if np.all(arr.imag == 0.0):
        return tuple(float(v) for v in arr.real)
    return tuple(complex(v) for v in arr)


def kernel_power_entry(n: int, k: int, m: int) -> Fraction:
    """Exact (n, k) entry of the m-th power of the averaging operator.

    Closed form: binom(n-1, k-1) * sum_{j=0}^{n-k} (-1)^j binom(n-k, j) /
    (k+j)^m.  The sum is taken in integers over one common denominator
    lcm(k..n)^m, and the Fraction is reduced once, at the end.
    """
    if k < 1 or n < 1 or m < 1:
        raise SectionError("indices and power must be >= 1")
    if k > n:
        raise SectionError("column index exceeds row index")
    L = math.lcm(*range(k, n + 1))
    total = sum((-1) ** j * math.comb(n - k, j) * (L // (k + j)) ** m
                for j in range(n - k + 1))
    return Fraction(math.comb(n - 1, k - 1) * total, L ** m)


# ---------------------------------------------------------------------------
# the resolvent section


def nearest_limit_point(re, im) -> tuple:
    """Distance from re + i*im to {0} union {1/m : m >= 1}, and the nearest m.

    Works elementwise on arrays (or scalars) and returns (distance, m) with
    m the positive integer minimizing |z - 1/m|, ties going to the smaller
    m.  Only m = 1, 2 and the four integers around 1/re can be nearest, so
    those six candidates are all that is tried.
    """
    re, im = np.broadcast_arrays(np.asarray(re, dtype=float),
                                 np.asarray(im, dtype=float))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = 1.0 / re
    near = (re > 1e-18) & (t < 1e18)
    base = np.floor(np.where(near, t, 1.0)).astype(np.int64)
    m_best = np.ones_like(base)
    d_best = np.hypot(re - 1.0, im)
    # tried in ascending order of first appearance, so the strict < keeps
    # the smaller m on ties; off the near set the four integers around 1/re
    # fall back to m = 1, already tried
    for k in (None, -1, 0, 1, 2):
        m = (np.full_like(base, 2) if k is None
             else np.where(near, np.maximum(1, base + k), 1))
        d = np.hypot(re - 1.0 / m, im)
        closer = d < d_best
        m_best = np.where(closer, m, m_best)
        d_best = np.where(closer, d, d_best)
    return np.minimum(np.hypot(re, im), d_best), m_best


def distance_to_limit_set(lam: complex) -> float:
    """Distance from lam to {0} union {1/m : m a positive integer}."""
    z = complex(lam)
    return float(nearest_limit_point(z.real, z.imag)[0])


def resolvent_section(lam, N: int, mode: str = "float") -> FiniteSection:
    """Exact N-by-N section of the inverse of (averaging operator - lam I).

    The diagonal is 1/(1/n - lam); strictly below it the entries are
    -(1/lam^2) / (n * prod_{k=m}^{n} (1 - 1/(lam k))).  Row products are
    accumulated as log-magnitude plus unit phase in float mode, so deep rows
    neither overflow nor underflow.  Rational mode forms them in integers,
    a Gaussian-integer numerator over one integer denominator per entry, and
    returns rows of QC with reduced parts.  Values of lam within
    ``SIGMA_PROXIMITY_EPS`` of the excluded set {0} union {1/m} are
    rejected.
    """
    _check_mode(mode)
    if N < 1:
        raise SectionError("dimension must be >= 1")
    if N > DENSE_DIMENSION_CAP:
        raise SectionError(f"dense resolvent sections are capped at "
                           f"N = {DENSE_DIMENSION_CAP}")
    lam_c = complex(lam)
    if distance_to_limit_set(lam_c) <= SIGMA_PROXIMITY_EPS:
        dist, m = nearest_limit_point(lam_c.real, lam_c.imag)
        nearest = "0" if abs(lam_c) <= dist else f"1/{m}"
        raise SectionError(
            f"lam = {lam_c} is within {SIGMA_PROXIMITY_EPS} of the excluded "
            f"point {nearest}")
    if mode == "rational":
        _check_rational_dim(N, mode)
        lq = QC.from_number(lam if isinstance(lam, (QC, Fraction)) else lam_c)
        return FiniteSection(N, "rational", _rational_resolvent_rows(lq, N))
    ks = np.arange(1, N + 1, dtype=float)
    factors = 1.0 - 1.0 / (lam_c * ks)
    mags = np.abs(factors)
    log_cum = np.concatenate(([0.0], np.cumsum(np.log(mags))))
    phase_cum = np.concatenate(([1.0 + 0.0j],
                                np.cumprod(factors / mags)))
    inv_lam2 = 1.0 / (lam_c * lam_c)
    rows = []
    for n in range(1, N + 1):
        row = np.zeros(n, dtype=complex)
        row[n - 1] = 1.0 / (1.0 / n - lam_c)
        if n > 1:
            ms = np.arange(1, n, dtype=np.int64)
            log_mag = log_cum[ms - 1] - log_cum[n] - math.log(n)
            phases = phase_cum[ms - 1] / phase_cum[n]
            row[:n - 1] = -inv_lam2 * np.exp(log_mag) * phases
        rows.append(row)
    return FiniteSection(N, "float", tuple(rows))


def _recip(re: int, im: int) -> tuple:
    """1/(re + i im) as (numerator re, numerator im, integer denominator)."""
    if im == 0:
        return 1, 0, re
    return re, -im, re * re + im * im


def _gauss_mul(u: tuple, v: tuple) -> tuple:
    """Product of two (re, im, den) Gaussian-integer fractions, unreduced."""
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0],
            u[2] * v[2])


def _rational_resolvent_rows(lq: QC, N: int) -> tuple:
    """Rows of the exact resolvent section, built in integers.

    Write lam = z/d with z a Gaussian integer and d a positive integer, and
    let P[j] be the prefix product of f_k = 1 - d/(k z) over k <= j.  Entry
    (n, m) below the diagonal is c_n P[m-1] with c_n = -lam^-2 / (n P[n]);
    along row n it is the running quotient V_m = V_{m+1} * m z / (m z - d),
    started at V_n = -d^2 / (z (n z - d)).  Each V is held as a
    Gaussian-integer numerator over an integer denominator, so no gcd is
    taken until an entry is stored as a QC of reduced Fractions.
    """
    d = math.lcm(lq.re.denominator, lq.im.denominator)
    a, b = int(lq.re * d), int(lq.im * d)
    # 1 / f_m = m z / (m z - d), one (re, im, den) triple per column m
    inv_f = [_gauss_mul((m * a, m * b, 1), _recip(m * a - d, m * b))
             for m in range(1, N + 1)]
    rows = []
    for n in range(1, N + 1):
        row = [None] * n
        dr, di, dd = _gauss_mul((n * d, 0, 1), _recip(d - n * a, -n * b))
        row[n - 1] = QC(Fraction(dr, dd), Fraction(di, dd))
        zr, zi, _ = _gauss_mul((a, b, 1), (n * a - d, n * b, 1))
        v = _gauss_mul((-d * d, 0, 1), _recip(zr, zi))
        for m in range(n - 1, 0, -1):
            v = _gauss_mul(v, inv_f[m - 1])
            row[m - 1] = QC(Fraction(v[0], v[2]), Fraction(v[1], v[2]))
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# eigenvectors, dual vectors, shifted inverses


def eigenvector(m: int, N: int, mode: str = "rational") -> tuple:
    """First N coordinates of the eigenvector with eigenvalue 1/m.

    Coordinate n is binom(n-1, m-1): row n of the averaging section maps it
    to exactly 1/m times itself.
    """
    if m < 1:
        raise SectionError("eigenvalue index must be >= 1")
    if N < 1:
        raise SectionError("dimension must be >= 1")
    _check_mode(mode)
    coords = [math.comb(n - 1, m - 1) for n in range(1, N + 1)]
    if mode == "rational":
        return tuple(Fraction(c) for c in coords)
    return tuple(float(c) for c in coords)


def dual_eigenvector(lam, N: int, mode: str = "rational") -> tuple:
    """First N coordinates of the dual eigenvector at lam (nonzero).

    Starts at 1 and multiplies by (1 - 1/(lam k)); for lam = 1/m the factor
    at k = m vanishes and the vector terminates after m coordinates.
    """
    if N < 1:
        raise SectionError("dimension must be >= 1")
    _check_mode(mode)
    if mode == "rational":
        lq = QC.from_number(lam)
        if lq.is_zero:
            raise SectionError("lam must be nonzero")
        out = [_QC_ONE]
        cur = _QC_ONE
        for k in range(1, N):
            cur = cur * (_QC_ONE - _QC_ONE / (lq * QC(Fraction(k))))
            out.append(cur)
        if all(q.is_real for q in out):
            return tuple(q.re for q in out)
        return tuple(out)
    lam_c = complex(lam)
    if lam_c == 0:
        raise SectionError("lam must be nonzero")
    out = [1.0 + 0.0j]
    cur = 1.0 + 0.0j
    for k in range(1, N):
        cur = cur * (1.0 - 1.0 / (lam_c * k))
        out.append(cur)
    if all(z.imag == 0.0 for z in out):
        return tuple(z.real for z in out)
    return tuple(out)


def dual_apply(y: Sequence) -> tuple:
    """Apply the dual operator to a finitely supported vector.

    Coordinate n of the image is sum_{k>=n} y_k / k; with finite support the
    sums are finite and exact for rational input.
    """
    n = len(y)
    exact = all(isinstance(v, (int, Fraction, QC)) for v in y)
    if exact:
        complex_in = any(isinstance(v, QC) for v in y)
        acc: Union[Fraction, QC] = QC(Fraction(0)) if complex_in else Fraction(0)
        res = [acc] * n
        for k in range(n, 0, -1):
            v = y[k - 1]
            if complex_in:
                term = (v if isinstance(v, QC) else QC(Fraction(v))) \
                    / QC(Fraction(k))
            else:
                term = Fraction(v) / k
            acc = acc + term
            res[k - 1] = acc
        return tuple(res)
    acc_c = 0.0 + 0.0j
    res_c = [0.0 + 0.0j] * n
    for k in range(n, 0, -1):
        acc_c += complex(y[k - 1]) / k
        res_c[k - 1] = acc_c
    if all(z.imag == 0.0 for z in res_c):
        return tuple(z.real for z in res_c)
    return tuple(res_c)


def shifted_inverse_section(N: int, mode: str = "rational"
                            ) -> tuple[FiniteSection, FiniteSection]:
    """The forward-difference operator section and its exact inverse.

    The first section has diagonal n/(n+1) and constant off-diagonal
    -1/(n+1) in row n; the second has diagonal (n+1)/n and entry 1/m in
    column m below the diagonal.  Their product is the identity, exactly in
    rational mode.
    """
    if N < 1:
        raise SectionError("dimension must be >= 1")
    _check_mode(mode)
    _check_rational_dim(N, mode)
    if mode == "rational":
        a_rows = []
        b_rows = []
        for n in range(1, N + 1):
            a_row = [Fraction(-1, n + 1)] * (n - 1) + [Fraction(n, n + 1)]
            b_row = [Fraction(1, m) for m in range(1, n)] + [Fraction(n + 1, n)]
            a_rows.append(tuple(a_row))
            b_rows.append(tuple(b_row))
        return (FiniteSection(N, "rational", tuple(a_rows)),
                FiniteSection(N, "rational", tuple(b_rows)))
    a_rows = []
    b_rows = []
    for n in range(1, N + 1):
        a_row = np.full(n, -1.0 / (n + 1))
        a_row[n - 1] = n / (n + 1.0)
        b_row = 1.0 / np.arange(1, n + 1, dtype=float)
        b_row[n - 1] = (n + 1.0) / n
        a_rows.append(a_row)
        b_rows.append(b_row)
    return (FiniteSection(N, "float", tuple(a_rows)),
            FiniteSection(N, "float", tuple(b_rows)))
