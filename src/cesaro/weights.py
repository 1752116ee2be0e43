"""Weight sequences on the positive integers, with certified decay metadata.

A weight is a bounded positive sequence w(1), w(2), ... evaluated in the log
domain so that extremely fast decay (w(n) = n^-n and similar) never underflows.
Each catalog family ships the analytic facts the criteria engine needs:

* ``log_tail``       -- certified upper bounds for tails  sum_{n>=m} w(n) n^(beta-1):
                        a closed form from the family's start, plus exact terms
* ``*_env``          -- certified sup-envelopes for the continuity / resolvent /
                        averaging quantities, each from its own ``valid_from``
* ``*_lower``        -- certified lower envelopes (constant or diverging) used
                        for Fails verdicts
* ``minorant_log_c`` -- constants c(s) with w(n) >= c(s) n^-s for all n
* ``diverges_beta``  -- exact knowledge of when sum w(n) n^(beta-1) diverges

Everything here is pure and deterministic.  Each weight has one array
evaluator, ``log_eval_array``, and it must be elementwise and keep no
history: w(n) depends on n alone.  Every family, table and constructed
weight meets this, and ``WeightSpec.log_eval`` relies on it to evaluate any
index array in blocks of ``_EVAL_BLOCK`` indices, so that a formula's
temporaries stay block-sized however long the array is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

LN2 = math.log(2.0)
NEG_INF = float("-inf")
#: widest admissible prefix that must be certified index-by-index
_BRIDGE_CAP = 10**6
#: the smallest horizon a criterion scans, and so the fewest rows a table
#: may have
MIN_HORIZON = 2
#: indices per call of an array evaluator: every temporary of a family's
#: formula stays this long, whatever the length of the index array
_EVAL_BLOCK = 1 << 16

class WeightError(ValueError):
    """Bad weight family, parameter, or custom table."""


# ---------------------------------------------------------------------------
# small log-domain helpers


def _log_at(log_array: Callable[[np.ndarray], np.ndarray], k: int) -> float:
    """log w(k) read through the array evaluator, so single values and scans
    agree bit for bit."""
    return float(log_array(np.array([k], dtype=np.int64))[0])


def _logsumexp(values) -> float:
    vals = [v for v in values if v != NEG_INF]
    if not vals:
        return NEG_INF
    m = max(vals)
    if m == float("inf"):
        return m
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))


def _log_pseries_tail(m: int, delta: float) -> float:
    """Certified log upper bound for sum_{n>=m} n^-(1+delta), delta > 0, m >= 1.

    For m >= 2 the bound 1/(delta (m-1)^delta) is used; m = 1 adds the first
    term explicitly and bounds the rest from 2.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if m >= 2:
        return -math.log(delta) - delta * math.log(m - 1)
    # term at n=1 is 1, tail from 2 bounded by 1/delta
    return math.log1p(1.0 / delta)


def _log_block_powersum(a: int, b: int, beta: float) -> float:
    """Certified log upper bound for sum_{n=a}^{b} n^(beta-1), 1 <= a <= b."""
    if a > b:
        return NEG_INF
    count = b - a + 1
    anchor = a if beta <= 1.0 else b
    return math.log(count) + (beta - 1.0) * math.log(anchor)


def _geom_power_factor_log(r: float, beta: float) -> tuple[float, float]:
    """Return (log_S, r_used) with sum_{j>=0} r^j (1+j)^(max(beta-1,0)) <= S.

    For beta <= 1 this is the plain geometric sum.  For beta > 1 the polynomial
    factor is absorbed into a slightly larger ratio r' = (1+r)/2 via
    (1+j)^(beta-1) (r/r')^j <= C with C evaluated at the integer maximizer.
    """
    if beta <= 1.0:
        return -math.log1p(-r), r
    rp = (1.0 + r) / 2.0
    q = r / rp
    # maximize f(j) = (beta-1) ln(1+j) + j ln q over integers j >= 0
    jstar = (beta - 1.0) / math.log(1.0 / q) - 1.0
    candidates = {0, max(0, math.floor(jstar)), max(0, math.ceil(jstar))}
    log_c = max((beta - 1.0) * math.log1p(j) + j * math.log(q) for j in candidates)
    return log_c - math.log1p(-rp), rp


# ---------------------------------------------------------------------------
# envelope records


@dataclass(frozen=True)
class SupEnvelope:
    """Certified bound: quantity(index) <= exp(log_sup) for all index >= valid_from.

    ``vanishes`` asserts additionally that the quantity tends to 0 along the
    envelope (required for compactness certificates).
    """

    valid_from: int
    log_sup: float
    vanishes: bool
    note: str = ""


@dataclass(frozen=True)
class LowerEnvelope:
    """Certified lower bounds along a subsequence of probe indices.

    ``index_at(i)`` (i >= 1, strictly increasing) gives the probe index and
    ``log_value_at(i)`` a certified log lower bound of the quantity there.
    ``diverging`` asserts the values tend to +infinity along the subsequence;
    otherwise the envelope only witnesses a positive liminf.  ``max_index``
    limits i when the construction is horizon-bound (block tables).
    """

    index_at: Callable[[int], int]
    log_value_at: Callable[[int], float]
    diverging: bool
    note: str = ""
    max_index: Optional[int] = None


# ---------------------------------------------------------------------------
# the weight record


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """A positive weight sequence plus certified analytic metadata.

    Only ``id`` and ``log_eval_array`` are mandatory.  The array evaluator
    maps an integer array of indices >= 1 to log w elementwise, keeping the
    shape; it is the one evaluator, and single values are read through it.
    It must keep no history: w(n) depends on n alone, not on the other
    indices of the array nor on earlier calls, because ``log_eval`` cuts
    every array into blocks of ``_EVAL_BLOCK`` indices.
    Metadata is optional; criteria degrade to Inconclusive verdicts when
    it is absent.
    ``tail_hook(m, beta)`` gives ``(start, log_closed)`` or None: start >= m,
    and log_closed bounds sum_{n>=start} w(n) n^(beta-1) from start alone.
    Every other ``*_hook`` is a function of s, beta or alpha alone, and
    ``cont_upper``, ``uw_upper``, ``cont_lower``, ``uw_lower`` are values.
    A sup envelope holds from its own ``valid_from``; ``cont_env()``,
    ``uw_env()`` and ``res_env(alpha)`` fall back to the ratio bound's.
    """

    id: str
    log_eval_array: Callable[[np.ndarray], np.ndarray]
    decreasing_from: Optional[int] = None
    ratio_bound: Optional[tuple[int, float]] = None
    rapidly_decreasing: Optional[bool] = None
    log_sup_bound: Optional[float] = None  # certified: log w(n) <= this for all n
    # certified metadata (all optional, all log-domain)
    tail_hook: Optional[Callable[[int, float], Optional[tuple[int, float]]]] = None
    minorant_log_c_hook: Optional[Callable[[float], Optional[float]]] = None
    diverges_beta_hook: Optional[Callable[[float], Optional[bool]]] = None
    res_env_hook: Optional[Callable[[float], Optional[SupEnvelope]]] = None
    cont_upper: Optional[SupEnvelope] = None
    cont_lower: Optional[LowerEnvelope] = None
    uw_upper: Optional[SupEnvelope] = None
    uw_lower: Optional[LowerEnvelope] = None
    sw_lower_hook: Optional[Callable[[float], Optional[LowerEnvelope]]] = None
    table_size: Optional[int] = None  # set for table-backed weights

    # -- evaluation ---------------------------------------------------------

    def log_eval(self, n):
        """Log of w at a positive integer or an integer numpy array.

        An array is evaluated ``_EVAL_BLOCK`` indices at a time into one
        float output.  Evaluators are elementwise and keep no history, so
        the blocks give the same bits as one call on the whole array.
        The benchmark's tracer wraps this method by name.
        """
        if isinstance(n, np.ndarray):
            if n.size and n.min() < 1:
                raise ValueError("weight index must be >= 1")
            flat = n.reshape(-1)
            out = np.empty(flat.size, dtype=float)
            for a in range(0, flat.size, _EVAL_BLOCK):
                out[a:a + _EVAL_BLOCK] = self.log_eval_array(
                    flat[a:a + _EVAL_BLOCK])
            return out.reshape(n.shape)
        k = int(n)
        if k < 1:
            raise ValueError("weight index must be >= 1")
        return _log_at(self.log_eval_array, k)

    # -- certified tails ----------------------------------------------------

    def log_tail(self, m: int, beta: float) -> Optional[float]:
        """Certified log upper bound for sum_{n>=m} w(n) n^(beta-1), or None.

        The one place a tail is composed: ``_closed_tail`` covers n >= start
        and the terms over [m, start) are summed exactly.  The benchmark's
        tracer wraps this method by name.
        """
        if m < 1:
            raise ValueError("tail start must be >= 1")
        found = self._closed_tail(m, beta)
        if found is None:
            return None
        start, closed = found
        if start == m:
            return closed
        return _logsumexp([self._bridge(m, start, beta), closed])

    def _closed_tail(self, m: int, beta: float) -> Optional[tuple[int, float]]:
        """First (start, log_closed) of the family hook, the ratio bound and
        monotone decrease whose bridge from m fits under _BRIDGE_CAP."""
        for supplier in (self.tail_hook, self._ratio_closed, self._decreasing_closed):
            found = supplier and supplier(m, beta)
            if found is not None and found[0] - m <= _BRIDGE_CAP:
                return found
        return None

    def _bridge(self, m: int, stop: int, beta: float) -> float:
        """Exact log sum of terms for n in [m, stop): the sound path of
        ``log_tail`` when a tail supplier starts after m."""
        ns = np.arange(m, stop, dtype=np.int64)
        logs = self.log_eval(ns) + (beta - 1.0) * np.log(ns.astype(float))
        return _logsumexp(logs.tolist())

    def _ratio_closed(self, m: int, beta: float) -> Optional[tuple[int, float]]:
        if self.ratio_bound is None:
            return None
        nfrom, r = self.ratio_bound
        if not (0.0 < r < 1.0):
            return None
        start = max(m, nfrom)
        log_s, _ = _geom_power_factor_log(r, beta)
        return start, self.log_eval(start) + (beta - 1.0) * math.log(start) + log_s

    def _decreasing_closed(self, m: int, beta: float) -> Optional[tuple[int, float]]:
        if beta >= 0.0 or self.decreasing_from is None:
            return None
        start = max(m, self.decreasing_from, 2)
        return start, self.log_eval(start) + _log_pseries_tail(start, -beta)

    # -- divergence / minorants ---------------------------------------------

    def minorant_log_c(self, s: float) -> Optional[float]:
        """log c with w(n) >= c n^-s for all n >= 1, or None."""
        if self.minorant_log_c_hook is not None:
            return self.minorant_log_c_hook(s)
        return None

    def diverges_beta(self, beta: float) -> Optional[bool]:
        """True when sum_{n>=n0} w(n) n^(beta-1) certifiably diverges (any n0),
        False when it certifiably converges, None when nothing decides.

        The family's divergence hook is asked first: a minorant constant
        can cost far more to build than the hook's closed-form answer.
        Certified rapid decay makes every such series converge.
        """
        if self.diverges_beta_hook is not None:
            v = self.diverges_beta_hook(beta)
            if v is not None:
                return v
        if self.rapidly_decreasing:
            return False
        if self.minorant_log_c(beta) is not None:
            # terms >= c n^(beta-1-beta) = c / n: harmonic divergence
            return True
        if self._closed_tail(max(self.decreasing_from or 1, 1), beta) is not None:
            return False
        return None

    @property
    def is_summable(self) -> bool:
        """sum w(n) is certified finite."""
        return self.diverges_beta(1.0) is False

    # -- envelopes ------------------------------------------------------------

    def cont_env(self) -> Optional[SupEnvelope]:
        if self.cont_upper is not None:
            return self.cont_upper
        return self._ratio_env(0.0, 0, "geometric-ratio envelope 1/(n(1-r))")

    def res_env(self, alpha: float) -> Optional[SupEnvelope]:
        if self.res_env_hook is not None:
            env = self.res_env_hook(alpha)
            if env is not None:
                return env
        return self._ratio_env(alpha, 0, "geometric-ratio resolvent envelope")

    def uw_env(self) -> Optional[SupEnvelope]:
        if self.uw_upper is not None:
            return self.uw_upper
        return self._ratio_env(1.0, 1, "geometric-ratio averaging envelope 1/(m(1-r))")

    def _ratio_env(self, alpha: float, shift: int, note: str) -> Optional[SupEnvelope]:
        """The ratio bound's envelope at exponent alpha, from max(nfrom - shift, 1):
        sum_{j>=1} r^j ((m+j)/m)^(alpha-1) <= sum_{j>=0} r^j (1+j)^(max(alpha-1,0))."""
        if self.ratio_bound is None or not 0.0 < self.ratio_bound[1] < 1.0:
            return None
        nfrom, r = self.ratio_bound
        v = max(nfrom - shift, 1)
        log_s, _ = _geom_power_factor_log(r, alpha)
        return SupEnvelope(v, log_s - math.log(v), True, note)

    def sw_lower(self, s: float) -> Optional[LowerEnvelope]:
        if self.sw_lower_hook is not None:
            return self.sw_lower_hook(s)
        return None


# ---------------------------------------------------------------------------
# catalog families


def _poly(alpha: float) -> WeightSpec:
    if alpha <= 0:
        raise WeightError("poly: alpha must be > 0")
    a = float(alpha)

    def log_array(n: np.ndarray) -> np.ndarray:
        return -a * np.log(n.astype(float))

    def tail(m: int, beta: float) -> Optional[tuple[int, float]]:
        delta = a - beta
        if delta <= 0:
            return None
        return m, _log_pseries_tail(m, delta)

    def res_env(al: float) -> Optional[SupEnvelope]:
        delta = a - al
        if delta <= 0:
            return None
        return SupEnvelope(1, -math.log(delta), False,
                           "power resolvent envelope 1/(a-alpha)")

    def sw_low(s: float) -> Optional[LowerEnvelope]:
        if s >= a:
            return None
        return LowerEnvelope(lambda i: i, lambda i: (a - s) * math.log(i), True,
                             "n^(a-s) grows without bound")

    return WeightSpec(
        id=f"poly:alpha={alpha:g}",
        log_eval_array=log_array,
        decreasing_from=1,
        rapidly_decreasing=False,
        log_sup_bound=0.0,
        tail_hook=tail,
        minorant_log_c_hook=lambda s: 0.0 if s >= a else None,
        diverges_beta_hook=lambda beta: beta >= a,
        res_env_hook=res_env,
        # n^a sum_{m>=n} m^-(1+a) <= (n/(n-1))^a / a, decreasing in n, from n = 2
        cont_upper=SupEnvelope(2, a * LN2 - math.log(a), False, "power tail envelope"),
        cont_lower=LowerEnvelope(lambda i: i, lambda i: -math.log(a), False,
                                 "integral comparison keeps the quantity >= 1/alpha"),
        # ((m+1)/m)^a / (a-1) is largest at m = 1
        uw_upper=SupEnvelope(1, a * LN2 - math.log(a - 1), False,
                             "averaging envelope ((m+1)/m)^a/(a-1)") if a > 1 else None,
        sw_lower_hook=sw_low,
    )


def _loggamma(gamma: float) -> WeightSpec:
    if gamma <= 0:
        raise WeightError("loggamma: gamma must be > 0")
    g = float(gamma)

    def log_array(n: np.ndarray) -> np.ndarray:
        return -g * np.log(np.log(n.astype(float) + 1.0))

    def tail(m: int, beta: float) -> Optional[tuple[int, float]]:
        if beta == 0.0 and g > 1.0:
            mm = max(m, 2)
            # sum_{n>=mm} 1/(n log^g(n+1)) <= w(mm)/mm + log(mm)^(1-g)/(g-1)
            head = _log_at(log_array, mm) - math.log(mm)
            integral = (1.0 - g) * math.log(math.log(mm)) - math.log(g - 1.0)
            return mm, _logsumexp([head, integral])
        return None  # beta < 0 falls through to the decreasing fallback

    def minorant(s: float) -> Optional[float]:
        if s <= 0:
            return None
        # log(x+1) <= (2x)^(s/g) * (g/s) pointwise for x >= 1, hence
        # w(n) >= (s/g)^g 2^-s n^-s
        return g * (math.log(s) - math.log(g)) - s * LN2

    def diverges(beta: float) -> Optional[bool]:
        if beta > 0:
            return True
        if beta == 0.0:
            return g <= 1.0
        return False

    cont_low = None
    if g > 1.0:
        cont_low = LowerEnvelope(
            lambda i: i,
            lambda i: math.log(math.log(i + 1)) - math.log(g - 1.0),
            True,
            "quantity grows like log(n+1)/(gamma-1)",
        )

    def sw_low(s: float) -> Optional[LowerEnvelope]:
        if s > 0:
            return None
        return LowerEnvelope(lambda i: i + 1,
                             lambda i: g * math.log(math.log(i + 2)) - s * math.log(i + 1),
                             True, "log^gamma(n+1) n^-s is unbounded for s <= 0")

    return WeightSpec(
        id=f"loggamma:gamma={gamma:g}",
        log_eval_array=log_array,
        decreasing_from=1,
        rapidly_decreasing=False,
        log_sup_bound=-g * math.log(math.log(2.0)),
        tail_hook=tail,
        minorant_log_c_hook=minorant,
        diverges_beta_hook=diverges,
        cont_lower=cont_low,
        sw_lower_hook=sw_low,
    )


def _geom(r: float, beta: float) -> WeightSpec:
    if not (0.0 < r < 1.0):
        raise WeightError("geom: need 0 < r < 1")
    bg = float(beta)
    log_r = math.log(r)

    def log_array(n: np.ndarray) -> np.ndarray:
        nf = n.astype(float)
        return bg * np.log(nf) + nf * log_r

    if bg <= 0:
        rb = (1, r)
        dec = 1
    else:
        rp = (1.0 + r) / 2.0
        nfrom = max(1, math.ceil(bg / math.log(rp / r)))
        rb = (nfrom, rp)
        # w(n+1) <= w(n) iff n >= 1 / (r^(-1/beta) - 1); r^(-1/beta) = e^x
        # overflows for small beta, and for x > 1 the bound is below 1 anyway
        x = -log_r / bg
        dec = math.ceil(1.0 / math.expm1(x)) if 0.0 < x <= 1.0 else 1

    # sup of w: unimodal; check the stationary point and n=1
    candidates = {1}
    if bg > 0:
        nstar = -bg / log_r
        candidates.update({max(1, math.floor(nstar)), max(1, math.ceil(nstar))})
    sup_log = max(_log_at(log_array, c) for c in candidates)

    def sw_low(s: float) -> LowerEnvelope:
        return LowerEnvelope(lambda i: i,
                             lambda i: -_log_at(log_array, i) - s * math.log(i),
                             True, "r^-n dominates every power")

    return WeightSpec(
        id=f"geom:r={r:g},beta={beta:g}",
        log_eval_array=log_array,
        decreasing_from=dec,
        ratio_bound=rb,
        rapidly_decreasing=True,
        log_sup_bound=sup_log,
        sw_lower_hook=sw_low,
    )


def _superfact() -> WeightSpec:
    def log_array(n: np.ndarray) -> np.ndarray:
        nf = n.astype(float)
        return -nf * np.log(np.maximum(nf, 1.0))

    def sw_low(s: float) -> LowerEnvelope:
        return LowerEnvelope(lambda i: i + 1,
                             lambda i: (i + 1) * math.log(i + 1) - s * math.log(i + 1),
                             True, "n^(n-s) grows without bound")

    return WeightSpec(
        id="superfact",
        log_eval_array=log_array,
        decreasing_from=1,
        ratio_bound=(1, 0.25),  # (n/(n+1))^n / (n+1) <= 1/4 from n = 1
        rapidly_decreasing=True,
        log_sup_bound=0.0,
        sw_lower_hook=sw_low,
    )


def _factorial(a: float) -> WeightSpec:
    if a <= 0:
        raise WeightError("factorial: a must be > 0")
    av = float(a)
    log_a = math.log(av)

    def log_array(n: np.ndarray) -> np.ndarray:
        nf = n.astype(float)
        return nf * log_a - _lgamma_vec(nf)

    nfrom = math.floor(av) + 1  # ratio a/(n+1) < 1 from here on
    rb = (nfrom, av / (nfrom + 1))
    candidates = {1, max(1, math.floor(av)), max(1, math.ceil(av))}
    sup_log = max(_log_at(log_array, c) for c in candidates)

    def sw_low(s: float) -> LowerEnvelope:
        return LowerEnvelope(lambda i: i,
                             lambda i: math.lgamma(i + 1) - i * log_a - s * math.log(i),
                             True, "n!/(a^n n^s) grows without bound")

    return WeightSpec(
        id=f"factorial:a={a:g}",
        log_eval_array=log_array,
        decreasing_from=max(1, math.ceil(av - 1.0)),
        ratio_bound=rb,
        rapidly_decreasing=True,
        log_sup_bound=sup_log,
        sw_lower_hook=sw_low,
    )


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _lgamma_vec(n: np.ndarray) -> np.ndarray:
    """log Gamma(n+1) for positive float arrays.

    Stirling's series with three correction terms for n >= 10, exact
    math.lgamma for the small prefix.  Against math.lgamma over n <= 10^6 the
    relative error is at most 2.0e-12 (at n = 10); the absolute error is
    3.0e-11 at n = 10 (series truncation) and grows with the value to
    5.6e-9 near n = 8.5e5 (rounding).
    """
    out = np.empty_like(n)
    small = n < 10.0
    if np.any(small):
        out[small] = [math.lgamma(v + 1.0) for v in n[small]]
    big = ~small
    if np.any(big):
        x = n[big] + 1.0
        out[big] = ((x - 0.5) * np.log(x) - x + _LOG_SQRT_2PI
                    + 1.0 / (12.0 * x) - 1.0 / (360.0 * x ** 3)
                    + 1.0 / (1260.0 * x ** 5))
    return out


def _expbeta(beta: float) -> WeightSpec:
    if beta <= 0:
        raise WeightError("expbeta: beta must be > 0")
    b = float(beta)

    def log_array(n: np.ndarray) -> np.ndarray:
        return -n.astype(float) ** b

    rb = None
    cont_upper = None
    tail_hook = None
    if b >= 1.0:
        # increments (n+1)^b - n^b are nondecreasing, so the ratio peaks at n=1
        rb = (1, math.exp(1.0 - 2.0 ** b))
    else:
        cont_upper = SupEnvelope(2, (2.0 ** b - 1.0) - math.log(b) - b * LN2, True,
                                 "integral envelope e^(n^b-(n-1)^b)/(b n^b)")

        def tail_hook(m: int, beta_q: float) -> Optional[tuple[int, float]]:
            if beta_q != 0.0:
                return None
            mm = max(m, 2)
            # sum_{n>=mm} e^-(n^b)/n <= (1/mm^b) int_{mm-1}^inf e^-(x^b) x^(b-1) dx
            return mm, -float(mm - 1) ** b - math.log(b) - b * math.log(mm)

    def sw_low(s: float) -> LowerEnvelope:
        return LowerEnvelope(lambda i: i,
                             lambda i: float(i) ** b - s * math.log(i),
                             True, "e^(n^b) n^-s grows without bound")

    return WeightSpec(
        id=f"expbeta:beta={beta:g}",
        log_eval_array=log_array,
        decreasing_from=1,
        ratio_bound=rb,
        rapidly_decreasing=True,
        log_sup_bound=-1.0,
        tail_hook=tail_hook,
        cont_upper=cont_upper,
        sw_lower_hook=sw_low,
    )


def _explog(gamma: float) -> WeightSpec:
    if gamma <= 1:
        raise WeightError("explog: gamma must be > 1")
    g = float(gamma)

    def log_array(n: np.ndarray) -> np.ndarray:
        return -np.log(n.astype(float)) ** g

    n_env = max(4, math.ceil(math.exp(g - 1.0)) + 2)
    lt_env = math.log(n_env - 1)
    gprime = g * lt_env ** (g - 1.0) / (n_env - 1)

    def tail_hook(m: int, beta_q: float) -> Optional[tuple[int, float]]:
        if beta_q != 0.0:
            return None
        mm = max(m, 3)
        # f(n) = e^-(log^g n)/n decreases, so sum_{n>=mm} f(n) <= f(mm) + int_mm^inf f
        lt = math.log(mm)
        head = _log_at(log_array, mm) - lt
        integral = -lt ** g - math.log(g) - (g - 1.0) * math.log(lt)
        return mm, _logsumexp([head, integral])

    def sw_low(s: float) -> LowerEnvelope:
        return LowerEnvelope(lambda i: i + 2,
                             lambda i: math.log(i + 2) ** g - s * math.log(i + 2),
                             True, "e^(log^g n) n^-s grows without bound")

    return WeightSpec(
        id=f"explog:gamma={gamma:g}",
        log_eval_array=log_array,
        decreasing_from=1,
        rapidly_decreasing=True,
        log_sup_bound=0.0,
        tail_hook=tail_hook,
        cont_upper=SupEnvelope(n_env, gprime - math.log(g) - (g - 1.0) * math.log(lt_env),
                               True, "integral envelope e^(dlog^g)/(g log^(g-1)(n-1))"),
        sw_lower_hook=sw_low,
    )


def _spike() -> WeightSpec:
    def log_array(n: np.ndarray) -> np.ndarray:
        ni = n.astype(np.int64)
        out = -np.log(ni.astype(float))
        out[(ni & (ni - 1)) == 0] = 0.0  # powers of two, n = 1 included
        return out

    def tail_hook(m: int, beta: float) -> Optional[tuple[int, float]]:
        if beta >= 1.0:
            return None
        mm = max(m, 2)
        # non-power part: sum_{n>=mm} n^(beta-2)
        nonpower = _log_pseries_tail(mm, 1.0 - beta)
        # power part: sum over 2^k >= mm of 2^(k(beta-1))
        k0 = math.ceil(math.log2(mm))
        q_log = (beta - 1.0) * LN2
        return mm, _logsumexp([nonpower, k0 * q_log - math.log1p(-math.exp(q_log))])

    def res_hook(a: float) -> Optional[SupEnvelope]:
        if a >= 1.0:
            return None
        q = 2.0 ** (a - 1.0)
        b1 = 1.0 / (1.0 - a) + q / (1.0 - q)
        bp = 0.5 / (1.0 - a) + q / (2.0 * (1.0 - q))
        bm = 1.0 / (1.0 - a) + 1.0 / (1.0 - q)
        return SupEnvelope(1, math.log(max(b1, bp, bm)), False,
                           "case bounds: start, powers of two, between powers")

    def sw_low(s: float) -> Optional[LowerEnvelope]:
        if s >= 1.0:
            return None
        return LowerEnvelope(lambda i: 2 ** i + 1,
                             lambda i: (1.0 - s) * math.log(2 ** i + 1),
                             True, "off-power indices have 1/(n^s w(n)) = n^(1-s)")

    return WeightSpec(
        id="spike",
        log_eval_array=log_array,
        decreasing_from=None,
        rapidly_decreasing=False,
        log_sup_bound=0.0,
        tail_hook=tail_hook,
        minorant_log_c_hook=lambda s: 0.0 if s >= 1.0 else None,
        diverges_beta_hook=lambda beta: beta >= 1.0,
        res_env_hook=res_hook,
        cont_upper=SupEnvelope(1, math.log(4.0), False,
                               "pi^2/6+1 at powers, n/(n-1)+2 between"),
        cont_lower=LowerEnvelope(lambda i: 2 ** i + 1,
                                 lambda i: math.log((2 ** i + 1) / 2 ** (i + 1)),
                                 False, "single spike term keeps the quantity above 1/2"),
        sw_lower_hook=sw_low,
    )


# -- dyadic block families ---------------------------------------------------


def _block_index_scalar(n: int) -> int:
    """Block number i >= 1 with 2^i + 1 <= n <= 2^(i+1); requires n >= 3."""
    return (n - 1).bit_length() - 1


def _block_index_array(n: np.ndarray) -> np.ndarray:
    return np.floor(np.log2(n.astype(float) - 1.0)).astype(np.int64)


# the continuity quantity of both block families, from the first block on
_BLOCK_CONT_UPPER = SupEnvelope(3, LN2, False,
                                "within-block harmonic <= 1 plus cross-block <= 1")
_BLOCK_CONT_LOWER = LowerEnvelope(
    lambda i: 2 ** i + 1,
    lambda i: math.log(math.log((2.0 ** (i + 1) + 1.0) / (2.0 ** i + 1.0))),
    False, "own-block harmonic sum stays above log(5/3)")


def _log2_sigma(i) -> "np.ndarray | float":
    """log2 of the block-3.13 value on block i."""
    if isinstance(i, np.ndarray):
        return -(i.astype(float) + (i.astype(float) + 1.0) * np.exp2(i + 1.0))
    return -float(i + (i + 1) * 2 ** (i + 1))


def _block313() -> WeightSpec:
    def log_array(n: np.ndarray) -> np.ndarray:
        out = np.zeros(n.shape, dtype=float)
        big = n > 2
        if np.any(big):
            i = _block_index_array(n[big])
            out[big] = _log2_sigma(i) * LN2
        return out

    def log_b(j: int, beta: float) -> float:
        # certified log bound for the block-j contribution to sum w(n) n^(beta-1)
        if beta <= 1.0:
            c = (beta - 1.0) * (j * LN2 + math.log1p(2.0 ** (-j)))
        else:
            c = (j + 1) * (beta - 1.0) * LN2
        return _log2_sigma(j) * LN2 + j * LN2 + c

    def tail_from_blocks(jfrom: int, beta: float) -> float:
        excess = max(0.0, beta - 1.0)
        j1 = jfrom
        while 2.0 ** (j1 + 1) * (j1 + 3) < 1.0 + excess:
            j1 += 1
        parts = [log_b(j, beta) for j in range(jfrom, j1)]
        parts.append(log_b(j1, beta) + LN2)  # consecutive ratios <= 1/2 from j1
        return _logsumexp(parts)

    def tail_hook(m: int, beta: float) -> tuple[int, float]:
        start = max(m, 3)
        i0 = _block_index_scalar(start)
        own = _log2_sigma(i0) * LN2 + _log_block_powersum(start, 2 ** (i0 + 1), beta)
        return start, _logsumexp([own, tail_from_blocks(i0 + 1, beta)])

    def res_hook(a: float) -> Optional[SupEnvelope]:
        if a >= 1.0:
            i0 = max(1, math.ceil(math.log2(2.0 * a)))
            v = 2 ** i0 + 1
            if v > _BRIDGE_CAP:
                return None
            return SupEnvelope(v, a * LN2, False,
                               "block envelope 2^alpha from block i0(alpha)")
        q = 2.0 ** (a - 1.0)
        val = 1.0 + 2.0 ** (max(0.0, -a) + a - 1.0 - 16.0) / (1.0 - q)
        return SupEnvelope(3, math.log(val), False,
                           "block envelope 1 + O(2^-16) for alpha < 1")

    def sw_low(s: float) -> LowerEnvelope:
        return LowerEnvelope(
            lambda i: 2 ** i + 1,
            lambda i: -_log2_sigma(i) * LN2 - s * (i * LN2 + math.log1p(2.0 ** (-i))),
            True, "block decay outruns every power")

    return WeightSpec(
        id="block313",
        log_eval_array=log_array,
        decreasing_from=1,
        rapidly_decreasing=True,
        log_sup_bound=0.0,
        tail_hook=tail_hook,
        diverges_beta_hook=lambda beta: False,
        res_env_hook=res_hook,
        cont_upper=_BLOCK_CONT_UPPER,
        cont_lower=_BLOCK_CONT_LOWER,
        uw_upper=SupEnvelope(2, LN2, False, "averaging quantity <= 1 + 2^-15 from m >= 2"),
        sw_lower_hook=sw_low,
    )


def _block413(alpha: float) -> WeightSpec:
    if alpha <= 1:
        raise WeightError("block413: alpha must be > 1")
    a = float(alpha)

    def log_omega(i) -> "np.ndarray | float":
        if isinstance(i, np.ndarray):
            fi = i.astype(float)
            return -a * np.log(fi) - (fi - 1.0) * LN2
        return -a * math.log(i) - (i - 1) * LN2

    def log_array(n: np.ndarray) -> np.ndarray:
        out = np.zeros(n.shape, dtype=float)
        big = n > 2
        if np.any(big):
            out[big] = log_omega(_block_index_array(n[big]))
        return out

    def tail_hook(m: int, beta: float) -> Optional[tuple[int, float]]:
        if beta > 1.0:
            return None
        start = max(m, 3)
        i0 = _block_index_scalar(start)
        own = log_omega(i0) + _log_block_powersum(start, 2 ** (i0 + 1), beta)
        # full blocks j >= i0+1: contribution <= 2 j^-a c_j with c_j decreasing
        jf = i0 + 1
        c_log = (beta - 1.0) * (jf * LN2 + math.log1p(2.0 ** (-jf)))
        jsum = _logsumexp([-a * math.log(jf),
                           -math.log(a - 1.0) - (a - 1.0) * math.log(jf)])
        return start, _logsumexp([own, LN2 + c_log + jsum])

    def minorant(s: float) -> Optional[float]:
        if s <= 1.0:
            return None

        def g(j: int) -> float:
            return -a * math.log(j) - (j - 1) * LN2 + s * (j * LN2 + math.log1p(2.0 ** (-j)))

        j0 = 1
        while (s - 1.0) * LN2 < s * 2.0 ** (-j0) + a / j0:
            j0 += 1
            if j0 > 10 ** 7:
                return None
        best = min(g(j) for j in range(1, j0 + 1))
        return min(best, 0.0)  # head n in {1,2} needs c <= 1

    def res_hook(al: float) -> Optional[SupEnvelope]:
        if al >= 1.0:
            return None
        q = 2.0 ** (al - 1.0)
        val = 1.0 + 2.0 ** max(0.0, -al) * q / (1.0 - q)
        return SupEnvelope(3, math.log(val), False,
                           "within-block <= 1 plus geometric cross-block sum")

    def sw_low(s: float) -> Optional[LowerEnvelope]:
        if s > 1.0:
            return None
        return LowerEnvelope(
            lambda i: 2 ** i + 1,
            lambda i: a * math.log(i) + (i - 1) * LN2 - s * (i * LN2 + math.log1p(2.0 ** (-i))),
            True, "block starts give 1/(n^s w(n)) ~ i^alpha 2^((1-s)i)")

    uw_low = LowerEnvelope(
        lambda i: 2 ** i + 1,
        lambda i: (math.log(i) - math.log(a - 1.0)
                   + (a - 1.0) * (math.log(i) - math.log(i + 1))
                   + i * LN2 - (i * LN2 + math.log1p(2.0 ** -i))),
        True, "averaging quantity grows like i/(alpha-1) along m = 2^i + 1")

    return WeightSpec(
        id=f"block413:alpha={alpha:g}",
        log_eval_array=log_array,
        decreasing_from=1,
        rapidly_decreasing=False,
        log_sup_bound=0.0,
        tail_hook=tail_hook,
        minorant_log_c_hook=minorant,
        diverges_beta_hook=lambda beta: beta > 1.0,
        res_env_hook=res_hook,
        cont_upper=_BLOCK_CONT_UPPER,
        cont_lower=_BLOCK_CONT_LOWER,
        uw_lower=uw_low,
        sw_lower_hook=sw_low,
    )


_FAMILY_BUILDERS: dict[str, tuple[Callable[..., WeightSpec], tuple[str, ...], str]] = {
    "poly": (_poly, ("alpha",), "w(n) = n^-alpha, alpha > 0"),
    "loggamma": (_loggamma, ("gamma",), "w(n) = log(n+1)^-gamma, gamma > 0"),
    "geom": (_geom, ("r", "beta"), "w(n) = n^beta r^n, 0 < r < 1"),
    "superfact": (_superfact, (), "w(n) = n^-n"),
    "factorial": (_factorial, ("a",), "w(n) = a^n/n!, a > 0"),
    "expbeta": (_expbeta, ("beta",), "w(n) = exp(-n^beta), beta > 0"),
    "explog": (_explog, ("gamma",), "w(n) = exp(-log^gamma n), gamma > 1"),
    "spike": (_spike, (), "w(n) = 1 at powers of two, else 1/n"),
    "block313": (_block313, (), "dyadic blocks with double-exponential decay"),
    "block413": (_block413, ("alpha",), "dyadic blocks i^-alpha 2^-(i-1), alpha > 1"),
}

_FAMILY_DEFAULTS: dict[str, dict[str, float]] = {
    "geom": {"beta": 0.0},
}


def catalog_families() -> list[dict]:
    """Metadata listing for every built-in family."""
    out = []
    for name, (_, params, doc) in sorted(_FAMILY_BUILDERS.items()):
        probe = None
        try:
            defaults = {"alpha": 2.0, "gamma": 2.0, "r": 0.5, "beta": 0.5, "a": 1.0}
            probe = catalog_weight(name, {p: defaults[p] for p in params})
        except WeightError:
            pass
        hooks = []
        if probe is not None:
            for label, have in [
                ("tail", probe._closed_tail(2, 0.0) is not None
                 or probe._closed_tail(2, -1.0) is not None),
                ("sup-envelope", probe.cont_env() is not None),
                ("lower-envelope", probe.cont_lower is not None),
                ("minorant", probe.minorant_log_c(4.0) is not None),
                ("ratio", probe.ratio_bound is not None),
            ]:
                if have:
                    hooks.append(label)
        out.append({"family": name, "params": list(params), "doc": doc,
                    "metadata": hooks})
    return out


def catalog_weight(family: str, params: Optional[dict] = None) -> WeightSpec:
    """Build a catalog weight from a {name: value} dict; raises WeightError
    for an unknown family or parameter."""
    if family not in _FAMILY_BUILDERS:
        raise WeightError(f"unknown weight family {family!r}")
    builder, names, _ = _FAMILY_BUILDERS[family]
    given = dict(_FAMILY_DEFAULTS.get(family, {}))
    given.update(params or {})
    extra = set(given) - set(names)
    if extra:
        raise WeightError(f"{family}: unexpected parameter(s) {sorted(extra)}")
    missing = [p for p in names if p not in given]
    if missing:
        raise WeightError(f"{family}: missing parameter(s) {missing}")
    return builder(**{p: float(given[p]) for p in names})


# ---------------------------------------------------------------------------
# custom weights


def custom_weight(wid: str, log_fn: Callable[[int], float], **metadata) -> WeightSpec:
    """Wrap a scalar log-evaluation function as a WeightSpec.

    This is the one place a scalar function becomes an evaluator: it is
    lifted to an array evaluator by a python loop that keeps the shape.
    Fine for scans, because the engine sub-samples beyond a dense prefix;
    pass ``log_eval_array`` in ``metadata`` to supply a vectorised one.
    A ``tail_hook`` in ``metadata`` gives ``(start, log_closed)``, a closed
    form from start alone; ``log_tail`` adds the exact terms below start.
    """

    def log_array(n: np.ndarray) -> np.ndarray:
        return np.array([log_fn(int(k)) for k in n.ravel()], dtype=float).reshape(n.shape)

    metadata.setdefault("log_eval_array", log_array)
    return WeightSpec(id=wid, **metadata)


def load_weight_table(path: str) -> WeightSpec:
    """Load a custom weight, id ``custom:path=PATH``, from a two-column
    text table ``n ln_w``.

    Indices must be 1, 2, 3, ... with no gaps, every ``ln_w`` must be
    finite, and there must be at least ``MIN_HORIZON`` rows.  Evaluation
    beyond the table raises, so callers clamp their horizons to the table
    length.  A table certifies nothing past its last row, so it declares
    no metadata, not even a sup: its maximum bounds w only up to the last
    row.
    """
    ns: list[int] = []
    logs: list[float] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                parts = body.split()
                if len(parts) != 2:
                    raise WeightError(f"{path}:{lineno}: expected two "
                                      "columns 'n ln_w'")
                try:
                    n = int(parts[0])
                    lv = float(parts[1])
                except ValueError as exc:
                    raise WeightError(f"{path}:{lineno}: {exc}") from exc
                if not math.isfinite(lv):
                    raise WeightError(f"{path}:{lineno}: ln_w must be "
                                      f"finite, got {parts[1]}")
                ns.append(n)
                logs.append(lv)
    except (OSError, UnicodeDecodeError) as exc:
        raise WeightError(f"{path}: cannot read the weight table: "
                          f"{exc}") from exc
    if not ns:
        raise WeightError(f"{path}: empty weight table")
    if ns != list(range(1, len(ns) + 1)):
        raise WeightError(f"{path}: indices must be 1..L with no gaps")
    if len(ns) < MIN_HORIZON:
        raise WeightError(f"{path}: a table needs at least {MIN_HORIZON} "
                          f"rows, this one has {len(ns)}")
    arr = np.array(logs, dtype=float)
    size = arr.size

    def log_array(n: np.ndarray) -> np.ndarray:
        if n.min() < 1 or n.max() > size:
            bad = n[(n < 1) | (n > size)].flat[0]
            raise WeightError(f"custom table index {bad} outside 1..{size}")
        return arr[n.astype(np.int64) - 1]

    return WeightSpec(
        id=f"custom:path={path}",
        log_eval_array=log_array,
        table_size=size,
    )


# ---------------------------------------------------------------------------
# constructed weights: failing block minorant


def build_failing_minorant(v: WeightSpec) -> WeightSpec:
    """Greedy block minorant on which the averaging operator cannot act.

    Walks phi(n) = min_{k<=n} v(k) and closes block j at the smallest index
    making the block harmonic sum exceed j.  Block j spans (bp[j-1], bp[j]]
    and carries the constant value phi(bp[j]); w(1) = v(1), and the last
    value continues past the last block.  The completed block harmonic
    sums are the weight's certified continuity lower envelope.  The walk
    reads v up to index 10^6.  Raises WeightError when fewer than two
    blocks complete inside it or when v shows no decay (running min never
    falls below 0.001).
    """
    horizon = 10 ** 6
    breakpoints = [1]
    values: list[float] = []
    sums: list[float] = []
    head_log = v.log_eval(1)
    phi = head_log
    j = 1
    hsum = 0.0
    chunk = 65536
    n = 2
    last_phi = phi
    while n <= horizon:
        stop = min(horizon, n + chunk - 1)
        ns = np.arange(n, stop + 1, dtype=np.int64)
        logs = v.log_eval(ns)
        mins = np.minimum.accumulate(np.concatenate(([last_phi], logs)))[1:]
        last_phi = float(mins[-1])
        recip = 1.0 / ns.astype(float)
        local = hsum + np.cumsum(recip)
        while True:
            hit = np.nonzero(local > j)[0]
            if hit.size == 0:
                break
            k = int(hit[0])
            kj1 = int(ns[k])
            breakpoints.append(kj1)
            values.append(float(mins[k]))
            sums.append(float(local[k]))
            # next block restarts just past kj1
            base = local[k]
            local = local - base
            j += 1
        hsum = float(local[-1])
        n = stop + 1
    if len(values) < 2:
        raise WeightError(
            f"fewer than two blocks completed by index {horizon}")
    if last_phi > math.log(1e-3):
        raise WeightError("no decay detected: running min of v stayed above "
                          f"0.001 up to index {horizon}")
    bps = np.asarray(breakpoints)
    padded = np.concatenate(([head_log], values, [values[-1]]))

    def log_array(n: np.ndarray) -> np.ndarray:
        # j is the block containing n; 0 is the head, len(values)+1 beyond
        j = np.searchsorted(bps, n - 1, side="right")
        return padded[np.clip(j, 0, len(values) + 1)]

    env = LowerEnvelope(
        lambda i: breakpoints[i - 1] + 1,
        lambda i: math.log(sums[i - 1]),
        True,
        "completed block harmonic sums exceed the block index",
        max_index=len(sums),
    )
    return WeightSpec(
        id=f"blockmin({v.id})",
        log_eval_array=log_array,
        decreasing_from=1,
        rapidly_decreasing=None,
        log_sup_bound=max(head_log, values[0]),
        cont_lower=env,
    )


# ---------------------------------------------------------------------------
# constructed weights: compact minorant


def build_compact_minorant(v: WeightSpec) -> WeightSpec:
    """Largest u <= v with u(n+1) <= u(n)/(n+1): u(1) = v(1),
    u(n+1) = min(v(n+1), u(n)/(n+1)).

    The factorial-speed ratio makes the averaging operator compact on the
    resulting space.  Evaluation is lazy and cached; chunks assume the product
    branch and restart at indices where v dips below it.  The cache grows
    from its end in steps of ``_EVAL_BLOCK`` indices whatever the caller
    asked for, so every chunk starts where v alone puts it and u(n) is a
    function of n, not of the order of the calls.
    """
    head = float(v.log_eval(1))
    cache = [np.array([head])]  # u(1..len), boxed so the closure can grow it

    def log_array(n: np.ndarray) -> np.ndarray:
        top = int(n.max())
        u = cache[0]
        while u.size < top:
            start = u.size + 1
            stop = start + _EVAL_BLOCK - 1
            if v.table_size is not None:  # a table ends; v raises past it
                stop = max(start, min(stop, v.table_size))
            ns = np.arange(start, stop + 1, dtype=np.int64)
            vlogs = v.log_eval(ns)
            cand = u[-1] - np.cumsum(np.log(ns.astype(float)))
            dips = np.nonzero(vlogs < cand)[0]
            k = int(dips[0]) if dips.size else cand.size
            u = np.concatenate((u, cand[:k], vlogs[k:k + 1]))
        cache[0] = u
        return u[n.astype(np.int64) - 1]

    return WeightSpec(
        id=f"compactmin({v.id})",
        log_eval_array=log_array,
        decreasing_from=1,
        ratio_bound=(1, 0.5),
        rapidly_decreasing=True,
        log_sup_bound=head,
    )


# ---------------------------------------------------------------------------
# weight grammar


def parse_weight(text: str) -> WeightSpec:
    """Parse ``family[:key=val[,key=val]...]`` or ``custom:path=FILE``."""
    text = text.strip()
    if not text:
        raise WeightError("empty weight expression")
    name, _, rest = text.partition(":")
    name = name.strip()
    params: dict[str, str] = {}
    if rest:
        for piece in rest.split(","):
            key, eq, val = piece.partition("=")
            if not eq:
                raise WeightError(f"bad parameter {piece!r} (expected key=value)")
            params[key.strip()] = val.strip()
    if name == "custom":
        path = params.pop("path", None)
        if path is None or params:
            raise WeightError("custom weights take exactly custom:path=FILE")
        return load_weight_table(path)
    numeric: dict[str, float] = {}
    for key, val in params.items():
        try:
            numeric[key] = float(val)
        except ValueError as exc:
            raise WeightError(f"parameter {key}={val!r} is not a number") from exc
    return catalog_weight(name, numeric)
