"""Iterate and averaging dynamics of the operator on weighted sequences.

Everything operates on the first N coordinates, which triangularity makes
exact: coordinate n of any iterate depends only on coordinates 1..n of the
start vector.  Norm truncation is the one honest gap, and it is closed with
a certified weight-tail bound whenever the weight carries one.

Traces iterate only the weight's float support, the first K
coordinates, K the last n <= N with float w(n) != 0.0; summable weights
such as geom underflow to 0.0 after about a thousand indices.  By
triangularity those K coordinates are exact, and the norms keep their
bits: the K products sit in a length-N buffer of zeros, which holds the
same values as the full product w(n)|v_n| (past K it was 0.0 * |v_n| =
+0.0), so np.sum runs the same pairwise tree over the same numbers.  A
guard falls back to K = N whenever a coordinate past K could be
non-finite (see ``_orbit_norms``).  The work budget still charges the
requested M * N.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .weights import WeightSpec
from .sections import apply_power, cumulative_means

__all__ = [
    "ErgodicError",
    "BudgetError",
    "BudgetParseError",
    "IterateTrace",
    "kernel_bound_am",
    "iterate_trace",
    "cesaro_averages_trace",
    "range_identity_check",
    "ergodic_identity_check",
    "trace_to_csv",
]

DEFAULT_WORK_BUDGET = 2_000_000_000


class ErgodicError(ValueError):
    """Bad arguments or a computation beyond the configured work budget."""


class BudgetError(ErgodicError):
    """The requested work exceeds the configured budget."""


class BudgetParseError(ErgodicError):
    """CESARO_BUDGET is set to something other than a finite number."""


def work_budget() -> int:
    """Work ceiling (coordinate updates) honored by trace operations.

    Overridable through the CESARO_BUDGET environment variable.
    """
    raw = os.environ.get("CESARO_BUDGET", "")
    if raw:
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise BudgetParseError(f"CESARO_BUDGET is not a number: {raw!r}")
        return max(1, int(value))
    return DEFAULT_WORK_BUDGET


def _check_budget(work: int) -> None:
    budget = work_budget()
    if work > budget:
        raise BudgetError(
            f"requested work {work} exceeds the budget {budget}; lower M or "
            f"N, or raise CESARO_BUDGET")


def kernel_bound_am(m: int) -> float:
    """The decreasing kernel majorant ((m-1)/e)^(m-1) / (m-1)!.

    Dominates every coordinate of the m-th iterate of any basis vector e_r
    with r >= 2, after scaling by 1/(r-1).  No command reads it yet: it is
    the bound ``test_kernel_bound_dominates_entries`` checks against exact
    kernel entries, kept for a power-bounded verdict.
    """
    if m < 1:
        raise ErgodicError("power must be >= 1")
    if m == 1:
        return 1.0
    k = m - 1
    return math.exp(k * (math.log(k) - 1.0) - math.lgamma(m))


def _tail_mass(w: WeightSpec, N: int) -> Optional[float]:
    """Certified upper bound on sum_{n>N} w(n), or None if the tail is open
    or its bound is beyond the float range."""
    tail = w.log_tail(N + 1, 1.0)
    if tail is None or tail == float("inf"):
        return None
    try:
        return math.exp(tail)
    except OverflowError:
        return None


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class IterateTrace:
    """Norm and residual history of a vector driven by repeated averaging.

    ``limit_scalar`` encodes the limit candidate: c means the constant
    vector with every coordinate c (c = 0 is the zero vector), None means
    no candidate was asserted and residuals are absent.
    """

    probe_id: str
    records: tuple  # ((m, norm, residual-or-None), ...)
    limit_scalar: Optional[float]
    N: int
    tail_residual_bound: Optional[float]
    notes: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "probe_id": self.probe_id,
            "records": [
                {"m": m, "norm": norm, "residual": residual}
                for m, norm, residual in self.records
            ],
            "limit_scalar": self.limit_scalar,
            "N": self.N,
            "tail_residual_bound": self.tail_residual_bound,
            "notes": list(self.notes),
        }


def trace_to_csv(trace: IterateTrace) -> str:
    lines = ["m,norm,residual"]
    for m, norm, residual in trace.records:
        res = "" if residual is None else repr(residual)
        lines.append(f"{m},{norm!r},{res}")
    return "\n".join(lines) + "\n"


def _weight_values(w: WeightSpec, N: int) -> np.ndarray:
    ns = np.arange(1, N + 1, dtype=np.int64)
    return np.exp(w.log_eval(ns))


def _pick_candidate(w: WeightSpec, x: Sequence) -> Optional[float]:
    """Limit candidate: x1 times the constant-one vector needs a summable
    weight; probes starting at zero in the first coordinate decay to zero.
    """
    x1 = float(x[0]) if len(x) else 0.0
    if x1 == 0.0:
        return 0.0
    if w.is_summable:
        return x1
    return None


def iterate_trace(w: WeightSpec, x: Sequence, M: int, N: int,
                  probe_id: str = "custom",
                  mode: str = "float") -> IterateTrace:
    """Record weighted norms and residuals of the first M iterates.

    The limit candidate is x1 times the constant-one vector when the
    weight is summable, zero when the probe starts at zero, and otherwise
    none, so no residuals are recorded (``_pick_candidate``).
    Residuals are closed with the certified weight tail beyond N, so a
    small recorded residual is a certified bound, not a truncation hope.
    Rational mode keeps the iterate coordinates exact; norms are float
    sums of the exact coordinates either way.
    """
    if M < 1 or N < 1:
        raise ErgodicError("M and N must be >= 1")
    _check_budget(M * N)
    return _trace(w, x, M, N, probe_id, mode, averages=False)


def _trace(w: WeightSpec, x: Sequence, steps: int, N: int, probe_id: str,
           mode: str, averages: bool) -> IterateTrace:
    """The records of ``iterate_trace`` (or, with ``averages``, of
    ``cesaro_averages_trace``) over coordinates 1..N; the orbit itself runs
    on the weight's float support only (``_orbit_norms``)."""
    arr = _start_vector(x, N, mode)
    floats = _as_float(arr)
    limit_scalar = _pick_candidate(w, floats)
    sup_abs = float(np.max(np.abs(floats))) if N else 0.0
    wvals = _weight_values(w, N)
    tail_term = None
    notes = []
    if limit_scalar is not None:
        mass = _tail_mass(w, N)
        if mass is None:
            notes.append("no certified weight tail; residuals cover only "
                         "the first N coordinates")
        else:
            tail_term = (sup_abs + abs(limit_scalar)) * mass
    records = []
    for m, (norm, residual) in enumerate(_orbit_norms(
            wvals, arr, sup_abs, mode, steps, averages, limit_scalar), 1):
        if residual is not None and tail_term is not None:
            residual += tail_term
        records.append((m, norm, residual))
    return IterateTrace(probe_id, tuple(records), limit_scalar, N,
                        tail_term, tuple(notes))


def _orbit_norms(wvals: np.ndarray, arr, sup_abs: float, mode: str,
                 steps: int, averages: bool, limit: Optional[float]):
    """Yield (norm, residual) for the first ``steps`` iterates of ``arr``
    or, with ``averages``, for their running averages: the weighted norm
    sum w(n)|v_n| over n <= N and, when ``limit`` is not None, the same
    sum of |v_n - limit| (else None).  ``sup_abs`` is max |arr_n|.

    Only the float support is iterated: the first K coordinates, where K
    is the last n with float w(n) != 0.0.  Triangularity makes coordinates
    1..K of every iterate and average depend on arr_1..arr_K alone.  The
    products w(n)|v_n| go into the first K entries of one length-N buffer
    of zeros, and the sum runs over the whole buffer.  Past K the full
    computation had 0.0 * |v_n| = +0.0, so the buffer holds the same
    values as the full-length product and np.sum, with the same pairwise
    tree over the same length, gives the same bits.

    The guard: that identity needs every v_n past K to be finite, or
    0.0 * inf would have made NaN (and an exact coordinate too large for
    a float would have raised).  Partial sums are at most N sup_abs and
    running sums at most steps * sup_abs, so K = N (the full loop, not a
    second path) unless twice max(N, steps) * (sup_abs + |limit|) is
    finite.
    """
    N = wvals.size
    support = np.flatnonzero(wvals)
    K = int(support[-1]) + 1 if support.size else 1
    if not math.isfinite(2.0 * max(N, steps)
                         * (sup_abs + abs(0.0 if limit is None else limit))):
        K = N
    buf = np.zeros(N)
    head, w_head = buf[:K], wvals[:K]

    def total(vals) -> float:
        np.multiply(w_head, np.abs(vals), out=head)
        return float(np.sum(buf))

    for vals in _orbit(arr[:K], mode, steps, averages):
        yield total(vals), None if limit is None else total(vals - limit)


def _orbit(arr, mode: str, steps: int, averages: bool):
    """Float coordinates of the first ``steps`` iterates of ``arr`` or, with
    ``averages``, of their running averages.  Coordinate n depends on
    arr_1..arr_n only, so a prefix of ``arr`` gives the same prefix of
    every iterate: ``_orbit_norms`` passes the weight's float support.

    Rational mode takes the iterates from the exact kernel
    ``sections.cumulative_means``, held as integers over one common
    denominator; the running sums are kept over that denominator too.  Each
    float is the correctly rounded value of the exact coordinate, however
    the exact value is reduced.
    """
    if mode == "rational":
        acc, prev = [0] * len(arr), 1
        for n, (nums, _, den) in enumerate(cumulative_means(arr, steps), 1):
            if averages:
                scale, prev = den // prev, den
                acc = [s * scale + v for s, v in zip(acc, nums)]
                nums, den = acc, n * den
            yield np.array([v / den for v in nums], dtype=float)
        return
    ns = np.arange(1, len(arr) + 1, dtype=float)
    acc = np.zeros(len(arr), dtype=float)
    for n in range(1, steps + 1):
        arr = np.cumsum(arr) / ns
        if not averages:
            yield arr
        else:
            acc += arr
            yield acc / n


def _start_vector(x: Sequence, N: int, mode: str):
    if mode == "rational":
        vals = _as_fractions(x[:N])
        return vals + [Fraction(0)] * (N - len(vals))
    if mode != "float":
        raise ErgodicError(f"unknown arithmetic mode {mode!r}")
    arr = np.zeros(N, dtype=float)
    arr[:min(len(x), N)] = _as_float(x[:N])
    return arr


def _as_float(values, what: str = "the start vector") -> np.ndarray:
    """``values`` as a float array: the one place ``ergodic`` turns caller
    coordinates into floats.  A coordinate beyond the float range, such as
    an exact ``Fraction(10**400)``, raises ErgodicError naming it; float
    infinities and NaN pass through unchanged."""
    if isinstance(values, np.ndarray) and values.dtype == float:
        return values
    out = np.empty(len(values), dtype=float)
    for i, v in enumerate(values):
        try:
            out[i] = float(v)
        except OverflowError as exc:
            raise ErgodicError(f"coordinate {i + 1} of {what} is too large "
                               "for a float") from exc
    return out


def _as_fractions(values) -> list:
    """``values`` as exact Fractions: the one place ``ergodic`` turns caller
    coordinates into rationals.  A coordinate with no exact value, such as
    a float infinity or NaN, raises ErgodicError naming it."""
    out = []
    for i, v in enumerate(values):
        try:
            out.append(v if isinstance(v, Fraction) else Fraction(v))
        except (OverflowError, ValueError) as exc:
            raise ErgodicError(f"coordinate {i + 1} of the start vector has "
                               f"no exact rational value: {exc}") from exc
    return out


def cesaro_averages_trace(w: WeightSpec, x: Sequence, n_max: int, N: int,
                          probe_id: str = "custom",
                          mode: str = "float") -> IterateTrace:
    """Record norms and residuals of the running averages of the iterates.

    Single pass: the n-th record reuses the partial sum of the first n
    iterates, so the cost matches one iterate trace.  The limit candidate
    is that of ``iterate_trace``.
    """
    if n_max < 1 or N < 1:
        raise ErgodicError("n_max and N must be >= 1")
    _check_budget(n_max * N)
    return _trace(w, x, n_max, N, probe_id, mode, averages=True)


# ---------------------------------------------------------------------------
# exact operator identities


def range_identity_check(r: int, N: int) -> float:
    """Residual of the range identity that exhibits e_{r+1} as a difference.

    Applying (identity - averaging) to e_{r+1} minus the uniform spread of
    the first r basis vectors returns e_{r+1} exactly; computed in exact
    rationals, so the residual is genuinely zero, not merely small.
    """
    if r < 1:
        raise ErgodicError("index must be >= 1")
    if r + 1 > N:
        raise ErgodicError("need r + 1 <= N")
    y = [Fraction(0)] * N
    y[r] = Fraction(1)
    for k in range(r):
        y[k] -= Fraction(1, r)
    cy = apply_power(y, 1, N, "rational")
    worst = Fraction(0)
    for n in range(N):
        got = y[n] - cy[n]
        want = Fraction(1) if n == r else Fraction(0)
        worst = max(worst, abs(got - want))
    return float(worst)


def ergodic_identity_check(w: WeightSpec, x: Sequence, n: int, N: int,
                           mode: str = "float") -> tuple:
    """Residual pair for the two averaging identities.

    First: (I - T) applied to the n-th running average equals
    (T - T^{n+1}) / n.  Second: T^n / n equals the n-th running average
    minus (n-1)/n times the (n-1)-st.  Exact zero in rational mode.
    """
    if n < 1 or N < 1:
        raise ErgodicError("n and N must be >= 1")
    _check_budget((n + 1) * N)
    if mode == "rational":
        cur = tuple(_as_fractions(list(x[:N]) + [0] * max(0, N - len(x))))
        zero = Fraction(0)
    else:
        cur = tuple(_start_vector(x, N, "float").tolist())
        zero = 0.0
    powers = [cur]  # T^0 x
    for _ in range(n + 1):
        powers.append(apply_power(powers[-1], 1, N, mode))
    own = [zero] * N
    prev_avg = None
    for k in range(1, n + 1):
        own = [a + b for a, b in zip(own, powers[k])]
        if k == n - 1:
            prev_avg = [v / k for v in own]
    avg_n = [v / n for v in own]
    t_avg = apply_power(avg_n, 1, N, mode)
    lhs1 = [a - b for a, b in zip(avg_n, t_avg)]
    rhs1 = [(a - b) / n for a, b in zip(powers[1], powers[n + 1])]
    res1 = _residual_norm(w, [a - b for a, b in zip(lhs1, rhs1)])
    if n == 1:
        # the second identity degenerates to "the first average is T"
        diff2 = [a - b for a, b in zip(avg_n, powers[1])]
    else:
        lhs2 = [v / n for v in powers[n]]
        rhs2 = [a - Fraction(n - 1, n) * b if mode == "rational"
                else a - (n - 1) / n * b
                for a, b in zip(avg_n, prev_avg)]
        diff2 = [a - b for a, b in zip(lhs2, rhs2)]
    res2 = _residual_norm(w, diff2)
    return res1, res2


def _residual_norm(w: WeightSpec, diff: Sequence) -> float:
    wvals = _weight_values(w, len(diff))
    return float(np.sum(wvals * np.abs(_as_float(diff, "the residual"))))

