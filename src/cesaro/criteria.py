"""Certified three-valued verdicts for scalar summability and boundedness tests.

Every criterion here has the same shape: a nonnegative quantity indexed by the
positive integers whose supremum (or limit, or series sum) must be classified.
Finite scanning alone cannot decide an infinite supremum, so each verdict
separates what was proved from what was merely sampled:

``Holds``
    A finite certified bound exists.  It combines an analytic sup-envelope
    declared by the weight with per-index tail closures of the scanned head,
    so it dominates the true supremum, not just the sampled values.

``Fails``
    A certified divergence route fired: the inner series is known to diverge,
    a certified lower envelope grows without bound or stays above a positive
    constant, or a certified rapidly decreasing weight forces the quantity
    up.  Every ``Fails`` names one of these routes in its witness; large
    partial sums at the horizon alone never produce one.

``Inconclusive``
    Neither certificate applies; the empirical scan is still reported.

Raising the horizon only sharpens empirical data or resolves an
``Inconclusive``; certified verdicts never flip.

Sup-type criteria share one engine, ``_sup_verdict``, and every ``Holds`` here
passes one guard, ``_certify``, which refuses a bound the scan contradicts.
Compactness is not a separate test: it is the vanishing question on the
continuity quantity, the same engine asked whether the quantity tends to
zero rather than whether it stays bounded.

Every suffix sum is a power row, sum over n >= m of w(n) n^(beta-1): the
continuity quantity (beta = 0), the tail mass of uw (beta = 1), the
moments behind the eigenvalues 1/m (beta = m) and the resolvent quantity
(beta = Re 1/lambda).  One streamed kernel, ``_power_log_sums``, sums
any set of rows of one weight: chunks of indices run down from the
horizon, log w and log n are evaluated once per chunk, and each row, with
its exponent c = beta - 1, is summed in the log domain at its own
targets.  log w is evaluated in blocks (``WeightSpec.log_eval``) and
log n in place, so a chunk costs its two rows of values plus the scratch
rows, whatever the weight's formula.  ``scan_reports`` streams the
continuity, uw and moment rows of ``analyze`` in that one pass.  Rows are
independent, order-fixed sums, so a chunk's rows are shared between the
caller and at most one helper thread, and every result is bit-identical
whatever the number of cores.  Shifted terms that ``exp`` would round to
exactly 0.0 (below ``_EXP_DEAD``) are written as 0.0 without calling it.

The kernel also skips terms that provably cannot change a bit.  For each
block of ``_TAIL_BLOCK`` indices, a row's bound b_j is computed with the
same float operations as its terms, c log n + log w, from the block's
maximum of log w and extreme of log n; rounding is monotone, so b_j
bounds every computed term of the block.

- Dead tail.  A one-segment row computes its terms only up to the last
  block with fl(b_j - m0) >= ``_EXP_DEAD``, m0 being its first block's
  maximum.  Every later computed term t has fl(t - shift) <= fl(b_j - m0)
  < ``_EXP_DEAD``, because the shift is at least m0: so t is below m0,
  the shift is that of the full row, and the term is the 0.0 the dead
  mask writes anyway.  The buffer keeps its length, so the summation tree
  is unchanged.
- Negligible upper chunks.  The lowest chunk runs first.  A row whose
  targets all lie in it sits out an upper chunk when its values v satisfy
  logaddexp(v, B) == v, with B = max_j b_j + ln(chunk length) + ln(number
  of upper chunks) + 1 at least the computed carry of all upper chunks.
  logaddexp(v, x) is non-decreasing in x and never below v, so the carry
  could not change v.  A row that sat out one upper chunk and fails on a
  higher one is summed again over every chunk, with this rule off.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .weights import (
    _BRIDGE_CAP,
    MIN_HORIZON,
    NEG_INF,
    LowerEnvelope,
    SupEnvelope,
    WeightError,
    WeightSpec,
    _log_pseries_tail,
)

__all__ = [
    "DEFAULT_HORIZON",
    "Witness",
    "Verdict",
    "CriterionReport",
    "Bracket",
    "continuity_criterion",
    "compactness_criterion",
    "continuity_and_compactness",
    "ratio_limsup_test",
    "uw_quantity",
    "rw_memberships",
    "scan_reports",
    "t0_estimate",
    "s1_estimate",
    "table_horizon",
]

DEFAULT_HORIZON = 10**6
#: every index up to here is scanned; beyond it the grid is geometric
DENSE_SCAN_LIMIT = 10**4
GEOMETRIC_STEP = 1.05
#: chunk length for streaming suffix sums
_CHUNK = 1 << 19
#: terms per block when several segments are shifted by their maxima
_SHIFT_BLOCK = 1 << 15
#: indices per block of the term bounds that let the suffix kernel skip work
_TAIL_BLOCK = 1 << 12
#: exp(x) is exactly 0.0 for every x below -745.1332...; below this bound the
#: suffix kernel writes the 0.0 itself
_EXP_DEAD = -746.0
#: a report keeps about this many evenly spaced scan samples
_SAMPLE_CAP = 400
#: when rapid decay certifies that 1/(n^s w(n)) is unbounded, the witness is
#: the first scanned value this many times the value at index 1
DIVERGENCE_FACTOR = 1.0e6
_LOG_DIVERGENCE = math.log(DIVERGENCE_FACTOR)
#: diverging lower envelopes are walked until the certified value reaches this
WITNESS_TARGET = 100.0
BISECTION_TOL = 1.0e-3
PROBE_CEILING = 64.0
#: bracket estimates probe memberships at this reduced horizon
ESTIMATE_HORIZON = 10**5
_BOUND_SLACK = 1.0 + 1e-9
_HUGE = 1.0e300
_LOG_HUGE = math.log(_HUGE)


def _exp_clamped(a):
    return np.exp(np.minimum(a, _LOG_HUGE))


def _exp_clamped_scalar(a: float) -> float:
    return math.exp(min(a, _LOG_HUGE))


# ---------------------------------------------------------------------------
# verdict types

_WITNESS_KINDS = frozenset(("diverging-inner-series", "analytic-lower-bound",
                            "liminf-lower-bound", "sup-exceeds"))


@dataclass(frozen=True)
class Witness:
    """A reproducible index/value pair backing a Fails verdict.

    ``kind`` names the certified route that produced it; no other kind is
    accepted:

    * ``analytic-lower-bound``   certified lower envelope, grows without bound
    * ``liminf-lower-bound``     certified lower envelope, positive constant
    * ``diverging-inner-series`` the summed series itself is certifiably infinite
    * ``sup-exceeds``            certified rapid decay makes the quantity
                                 unbounded; the index is where the scan first
                                 shows it
    """

    index: int
    value: float
    kind: str
    detail: str = ""

    def __post_init__(self):
        if self.kind not in _WITNESS_KINDS:
            raise ValueError(f"unknown witness kind {self.kind!r}")

    def to_json_dict(self) -> dict:
        return {
            "index": int(self.index),
            "value": float(self.value),
            "kind": self.kind,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Verdict:
    """Three-valued certified outcome of one criterion evaluation."""

    kind: str  # 'Holds' | 'Fails' | 'Inconclusive'
    certified_bound: Optional[float]
    witness: Optional[Witness]
    empirical_sup: float
    scan_horizon: int
    notes: tuple = ()

    @property
    def is_holds(self) -> bool:
        return self.kind == "Holds"

    @property
    def is_fails(self) -> bool:
        return self.kind == "Fails"

    @property
    def is_inconclusive(self) -> bool:
        return self.kind == "Inconclusive"

    @classmethod
    def holds(cls, certified_bound, empirical_sup, horizon, notes=()):
        return cls("Holds", float(certified_bound), None, float(empirical_sup),
                   int(horizon), tuple(notes))

    @classmethod
    def fails(cls, witness, empirical_sup, horizon, notes=()):
        return cls("Fails", None, witness, float(empirical_sup), int(horizon),
                   tuple(notes))

    @classmethod
    def inconclusive(cls, empirical_sup, horizon, notes=()):
        return cls("Inconclusive", None, None, float(empirical_sup),
                   int(horizon), tuple(notes))

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "certified_bound": None if self.certified_bound is None
            else float(self.certified_bound),
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "empirical_sup": float(self.empirical_sup),
            "scan_horizon": int(self.scan_horizon),
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class CriterionReport:
    """A verdict plus the sparse sample trace that produced it."""

    criterion: str
    params: dict
    verdict: Verdict
    samples: tuple  # ((index, value), ...)
    horizon: int

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "params": dict(self.params),
            "verdict": self.verdict.to_json_dict(),
            "samples": [{"n": int(n), "value": float(v)} for n, v in self.samples],
            "horizon": int(self.horizon),
        }


@dataclass(frozen=True)
class Bracket:
    """Outcome of a boundary estimate for a one-sided exponent set.

    ``kind`` is ``bracket`` (certified endpoints; the non-member one is None
    when no probe certified a non-member), ``infinite`` (certified to hold
    for every exponent, or up to the probe ceiling), ``empty`` (certified
    empty set), or ``inconclusive``.  ``member_side`` says which endpoint
    carries certified membership: ``lo`` for downward-closed sets, ``hi``
    for upward-closed.  ``tol`` is hi - lo when both endpoints are
    certified.  ``_boundary`` builds every ``bracket``, ``inconclusive``
    and ceiling ``infinite``.
    """

    kind: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    member_side: Optional[str] = None
    tol: Optional[float] = None
    notes: tuple = ()

    @property
    def point(self) -> Optional[float]:
        """The certified-membership endpoint (None unless kind == 'bracket')."""
        if self.kind != "bracket":
            return None
        return self.hi if self.member_side == "hi" else self.lo

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lo": self.lo,
            "hi": self.hi,
            "member_side": self.member_side,
            "tol": self.tol,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# scan grid and streaming suffix sums


def scan_indices(horizon: int) -> np.ndarray:
    """Deterministic scan grid: dense head, geometric spacing, and the
    power-of-two edges where block-structured weights peak."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    dense_top = min(horizon, DENSE_SCAN_LIMIT)
    idx = set(range(1, dense_top + 1))
    n = dense_top
    while n < horizon:
        n = min(max(n + 1, int(n * GEOMETRIC_STEP)), horizon)
        idx.add(n)
    for i in range(1, (horizon + 1).bit_length()):
        idx.update(edge for edge in ((1 << i) - 1, 1 << i, (1 << i) + 1)
                   if edge <= horizon)
    return np.array(sorted(idx), dtype=np.int64)


def _segment_log_sums(buf: np.ndarray, starts: np.ndarray,
                      live: int) -> np.ndarray:
    """log of sum(exp(buf[a:b])) for each segment [starts[i], starts[i+1]).

    Each segment is shifted by its own maximum before exponentiating, so no
    dynamic range can overflow or underflow it.  The work happens in ``buf``
    itself, which is left holding scratch values.  A single segment is
    shifted by a scalar; several are shifted by a repeated copy of their
    maxima, built one block of ``_SHIFT_BLOCK`` terms at a time so that it
    stays small, the same elementwise subtraction either way.  Shifted terms
    below ``_EXP_DEAD`` are set to 0.0 without calling ``exp``, which returns
    exactly 0.0 there; NaN fails the comparison and still goes through
    ``exp``.  The array keeps its length, so the pairwise summation tree of
    every segment, and with it every bit of the result, is unchanged.

    ``live`` says that ``buf[:live]`` holds the terms and, for one segment,
    that every term past it is known to be dead after the shift: only the
    head is shifted and exponentiated, and the rest is written as 0.0.
    With ``live`` = ``buf.size`` every term is live.
    """
    if starts.size == buf.size:  # one term per segment: nothing to reduce
        return buf
    head = buf[:live]
    with np.errstate(invalid="ignore", divide="ignore"):
        shift = np.maximum.reduceat(head, starts)
        shift[~np.isfinite(shift)] = 0.0
        if starts.size == 1:
            head -= shift[0]
        else:
            for a in range(0, buf.size, _SHIFT_BLOCK):
                b = min(a + _SHIFT_BLOCK, buf.size)
                i0 = np.searchsorted(starts, a, side="right") - 1
                edges = np.clip(starts[i0:np.searchsorted(starts, b)], a, b)
                buf[a:b] -= np.repeat(shift[i0:i0 + edges.size],
                                      np.diff(edges, append=b))
        dead = head < _EXP_DEAD
        if dead.any():  # a masked exp costs more when nothing is dead
            np.exp(head, out=head, where=~dead)
            np.copyto(head, 0.0, where=dead)
        else:
            np.exp(head, out=head)
        buf[head.size:] = 0.0
        return np.log(np.add.reduceat(buf, starts)) + shift


def _power_terms(c: float, shared: tuple, buf: np.ndarray) -> None:
    """Write c log n + log w(n), the log-terms of the power row with
    exponent c = beta - 1, at the chunk's first ``buf.size`` indices."""
    np.multiply(shared[1][:buf.size], c, out=buf)
    buf += shared[0][:buf.size]


def _block_bounds(c: float, shared: tuple) -> np.ndarray:
    """For each block of ``_TAIL_BLOCK`` indices of the chunk, a bound on
    every computed term of the row with exponent c: the two operations of
    ``_power_terms`` on the block's maximum of log w and extreme of log n."""
    _, _, lw_max, ln_max, ln_min = shared
    return (ln_max if c >= 0.0 else ln_min) * c + lw_max


def _row_log_sums(c: float, shared: tuple, buf: np.ndarray,
                  starts: np.ndarray) -> np.ndarray:
    """Segment log-sums (``_segment_log_sums``) over one chunk of the row
    with exponent c; a one-segment row computes no dead tail: only the
    blocks up to the last with fl(b_j - m0) >= ``_EXP_DEAD``."""
    done, k = 0, buf.size
    if starts.size == 1 and k > _TAIL_BLOCK:
        done = _TAIL_BLOCK
        _power_terms(c, shared, buf[:done])
        m0 = buf[:done].max()
        if np.isfinite(m0):
            live = np.flatnonzero(~(_block_bounds(c, shared) - m0 < _EXP_DEAD))
            k = min(k, (int(live[-1]) + 1) * _TAIL_BLOCK)
    if k > done:
        _power_terms(c, shared, buf[:k])
    return _segment_log_sums(buf, starts, k)


def _worker_count(rows: int) -> int:
    """Threads that share a chunk's rows: the caller plus at most one helper,
    and no more than the process may run at once."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(2, rows, cpus))


def _chunk_values(w: WeightSpec, lo: int, hi: int, memo: dict) -> tuple:
    """(log w, log n, and per block of ``_TAIL_BLOCK`` indices the maximum
    of log w and the maximum and minimum of log n) over indices lo..hi.
    ``memo`` holds the last chunk's values under (lo, hi)."""
    if (lo, hi) not in memo:
        # ns first, then the last chunk is freed: log w and log n reuse
        # its memory instead of faulting in fresh pages
        ns = np.arange(lo, hi + 1, dtype=np.int64)
        memo.clear()  # hold one chunk at a time
        lw = w.log_eval(ns)
        ln = ns.astype(float)
        np.log(ln, out=ln)
        blocks = np.arange(0, ns.size, _TAIL_BLOCK)
        memo[lo, hi] = (lw, ln, np.maximum.reduceat(lw, blocks),
                        np.maximum.reduceat(ln, blocks),
                        np.minimum.reduceat(ln, blocks))
    return memo[lo, hi]


def _power_log_sums(w: WeightSpec, rows, horizon: int,
                    memo: Optional[dict] = None,
                    skip_upper: bool = True) -> list:
    """log of sum_{n=m}^{horizon} n^(beta-1) w(n) for every (beta, targets)
    row in ``rows`` and every target m of it (ascending), in one pass.
    Returns one array per row; targets past the horizon get -inf.

    Chunks of indices run down from the horizon to the smallest target of
    any row.  For each chunk, log w and log n are evaluated once on the
    caller (``_chunk_values``) and shared by every row; each row writes
    its terms into a chunk-sized scratch row and reduces the segments
    between its consecutive targets in place (``_row_log_sums``).  A short
    log-domain suffix over the segment sums, plus the carry from the
    chunks above, gives each target.  A row sits out the chunks below its
    smallest target; in the chunk that holds it, the indices below it form
    one extra segment that no target reads.

    Both skipping rules of the module docstring apply.  The lowest chunk
    runs first; with ``skip_upper``, a row whose targets all lie in it may
    sit out the upper ones, and a row that sat out one and fails the test
    on a higher one is summed again over every chunk by a second call with
    ``skip_upper`` off.  Each chunk writes its segment suffixes into
    ``out`` and keeps only its totals; the carries are folded from the top
    chunk down afterwards, with the same ``logaddexp`` calls as a top-down
    stream.  ``memo`` (``_chunk_values``') lets a caller that passes the
    same dict to every pass over ``w`` evaluate a single-chunk horizon
    once.
    """
    targets = [np.asarray(t, dtype=np.int64) for _, t in rows]
    exps = [float(beta) - 1.0 for beta, _ in rows]
    out = [np.full(t.size, NEG_INF, dtype=float) for t in targets]
    firsts = [max(1, int(t[0])) for t in targets if t.size]
    if horizon < 1 or not firsts:
        return out
    memo = {} if memo is None else memo
    tmin = min(firsts)
    chunks = []
    hi = horizon
    while hi >= tmin:
        lo = max(tmin, hi - _CHUNK + 1)
        chunks.append((lo, hi))
        hi = lo - 1
    chunks.reverse()  # the lowest chunk first
    upper = len(chunks) - 1
    # rows that may sit out the upper chunks, and those that sat one out
    quiet = {r for r, t in enumerate(targets) if t.size
             and t[-1] <= chunks[0][1]} if skip_upper and upper else set()
    sat_out, redo = set(), []
    totals = []
    for k, (lo, hi) in enumerate(chunks):
        shared = _chunk_values(w, lo, hi, memo)
        # segments start at the chunk's first index and at each distinct
        # target; pos maps every target to its segment
        jobs = []
        for r, t in enumerate(targets):
            i0, i1 = np.searchsorted(t, (lo, hi + 1))
            if i1 == 0 or r in redo:  # targets above the chunk, or redone
                continue
            if k and r in quiet:
                v = out[r]
                bound = (np.max(_block_bounds(exps[r], shared))
                         + math.log(hi - lo + 1) + math.log(upper) + 1.0)
                with np.errstate(invalid="ignore"):  # NaN refuses
                    negligible = np.all(np.logaddexp(v, bound) == v)
                if negligible:
                    sat_out.add(r)
                    continue
                quiet.discard(r)
                if r in sat_out:
                    redo.append(r)
                    continue
            rel = t[i0:i1] - lo
            fresh = np.diff(rel, prepend=0) != 0
            jobs.append((r, exps[r], np.concatenate(([0], rel[fresh])), i0,
                         i1, np.cumsum(fresh)))
        # scratch is allocated after evaluation and dropped with it before
        # the next chunk, so evaluation temporaries and scratch never coexist
        scratch = [np.empty(hi - lo + 1)
                   for _ in range(_worker_count(len(jobs)))]
        segs = _run_rows(jobs, shared, scratch)
        del shared, scratch
        for (r, _, _, i0, i1, pos), seg in zip(jobs, segs):
            out[r][i0:i1] = seg[pos]
        totals.append([(r, i0, i1, seg[0])
                       for (r, _, _, i0, i1, _), seg in zip(jobs, segs)])
        del segs
    carry = np.full(len(targets), NEG_INF, dtype=float)
    with np.errstate(invalid="ignore"):  # NaN in log w
        for chunk in reversed(totals):
            for r, i0, i1, total in chunk:
                out[r][i0:i1] = np.logaddexp(out[r][i0:i1], carry[r])
                carry[r] = np.logaddexp(total, carry[r])
    if redo:
        again = _power_log_sums(w, [
            (beta, t if r in redo else t[:0])
            for r, ((beta, _), t) in enumerate(zip(rows, targets))],
            horizon, memo, skip_upper=False)
        for r in redo:
            out[r] = again[r]
    return out


def _run_rows(jobs: list, shared: tuple, scratch: list) -> list:
    """Reversed log-domain suffix of the segment sums of every job (a row,
    its exponent and its segment starts first) over the chunk's values
    ``shared``.  Jobs are handed out one at a time to the caller and, given
    a second scratch buffer, to one helper thread that runs under the
    caller's numpy error state; the helper is joined before this returns,
    and the first error of either is re-raised here.  Rows are
    independent, order-fixed sums, so the result does not depend on which
    thread ran a row; both threads call numpy only, so public functions
    and ``WeightSpec`` methods stay on the caller."""
    segs = [None] * len(jobs)
    errors = []
    pending = iter(enumerate(jobs))
    lock = threading.Lock()
    errstate = np.geterr()

    def work(buf):
        try:
            with np.errstate(**errstate):
                while True:
                    with lock:
                        job = next(pending, None)
                    if job is None:
                        return
                    j, (_, c, starts, *_) = job
                    seg = _row_log_sums(c, shared, buf, starts)
                    with np.errstate(invalid="ignore"):  # NaN in log w
                        segs[j] = np.logaddexp.accumulate(seg[::-1])[::-1]
        except BaseException as exc:  # re-raised after the join
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(buf,), daemon=True)
               for buf in scratch[1:]]
    for t in threads:
        t.start()
    work(scratch[0])
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return segs


# ---------------------------------------------------------------------------
# the shared sup-criterion engine


@dataclass(frozen=True)
class SupProfile:
    """One sup-type criterion: quantity(m) = inner-series(m) / denominator(m).

    The inner series sums ``w(n) * n**(beta-1)`` for n from
    ``m + start_offset`` to infinity, w the weight the profile is scanned
    with; ``log_denominator`` maps an index array to log-denominators.
    ``envelope``/``lower``/``diverges`` carry the weight's certified
    metadata for this quantity.
    """

    name: str
    beta: float
    start_offset: int
    log_denominator: Callable[[np.ndarray], np.ndarray]
    envelope: Optional[SupEnvelope] = None
    lower: Optional[LowerEnvelope] = None
    diverges: Optional[bool] = None
    diverges_note: str = ""


@dataclass
class _ScanData:
    scan: np.ndarray
    partial_log: np.ndarray
    closed_log: Optional[np.ndarray]
    tail_log: Optional[float]
    #: suffix sums at the envelope bridge starts, from the same single pass
    bridge_suffix_log: np.ndarray


def _bridge_indices(profile: SupProfile, horizon: int) -> np.ndarray:
    """Indices below the envelope start that are certified one by one; none
    when the envelope cannot be used at this horizon."""
    env = profile.envelope
    if (env is None or env.valid_from > horizon
            or env.valid_from - 1 > _BRIDGE_CAP):
        return np.arange(0, dtype=np.int64)
    return np.arange(1, env.valid_from, dtype=np.int64)


def _scan_sup_quantities(w: WeightSpec, profiles, betas,
                         horizon: int) -> tuple[list, list]:
    """One pass over ``w`` for every profile (a power row at its scan and
    bridge starts) and every moment log sum_{n<=horizon} n^(beta-1) w(n)
    (a row at target 1).  Returns (one _ScanData per profile, the moment
    log-sums)."""
    scan = scan_indices(horizon) if profiles else None
    bridges = [_bridge_indices(p, horizon) for p in profiles]
    rows = [(p.beta, np.union1d(scan, bridge) + p.start_offset)
            for p, bridge in zip(profiles, bridges)]
    sums = _power_log_sums(w, rows + [(beta, [1]) for beta in betas], horizon)
    data = []
    for p, bridge, (_, targets), joint in zip(profiles, bridges, rows, sums):
        suffix_log = joint[np.searchsorted(targets, scan + p.start_offset)]
        den_log = np.asarray(p.log_denominator(scan), dtype=float)
        partial_log = suffix_log - den_log
        partial_log = np.where(np.isnan(partial_log), NEG_INF, partial_log)
        tail_log = w.log_tail(horizon + 1, p.beta)
        if tail_log is not None and tail_log < float("inf"):
            closed_log = np.logaddexp(suffix_log, tail_log) - den_log
            closed_log = np.where(np.isnan(closed_log), NEG_INF, closed_log)
        else:
            closed_log = None
            tail_log = None
        data.append(_ScanData(scan, partial_log, closed_log, tail_log, joint[
            np.searchsorted(targets, bridge + p.start_offset)]))
    return data, [float(total[0]) for total in sums[len(profiles):]]


def _witness_from_lower(lower: LowerEnvelope, kind: str) -> Witness:
    """Walk a certified lower envelope out to a representative witness.

    Diverging envelopes are walked (doubling) until the certified value
    reaches WITNESS_TARGET; constant ones use a fixed deep level.  Indices may
    be huge integers; only the certified value matters for reproducibility.
    """
    if lower.diverging:
        target = math.log(WITNESS_TARGET)
        level = 1
        best_level = 1
        best_log = lower.log_value_at(1)
        iters = 0
        while True:
            if lower.max_index is not None and level > lower.max_index:
                cap = lower.max_index
                lg = lower.log_value_at(cap)
                if lg > best_log:
                    best_log, best_level = lg, cap
                break
            lg = lower.log_value_at(level)
            if lg > best_log:
                best_log, best_level = lg, level
            iters += 1
            if lg >= target or level > 10**45 or iters >= 160:
                break
            level *= 2
        level, claim = best_level, ("certified lower bound grows without "
                                    "bound along this subsequence")
    else:
        level = 100 if lower.max_index is None else min(100, lower.max_index)
        claim = "subsequence stays above a positive certified constant"
    idx = lower.index_at(level)
    detail = "; ".join(filter(None, (lower.note, claim)))
    return Witness(int(idx), _exp_clamped_scalar(lower.log_value_at(level)),
                   kind, detail)


def _diverging_series_witness(profile: SupProfile, data: _ScanData) -> Witness:
    value = _exp_clamped_scalar(float(data.partial_log[0]))
    detail = ("summed series is certified divergent, so the quantity is "
              "infinite at every index; the value shown is the partial sum "
              "at the scan horizon")
    if profile.diverges_note:
        detail += " (" + profile.diverges_note + ")"
    return Witness(int(data.scan[0]), value, "diverging-inner-series", detail)


def _certified_sup_log(profile: SupProfile, data: _ScanData, horizon: int,
                       notes: list) -> Optional[float]:
    """Certified log bound on the full supremum, or None.

    Combines the declared envelope (valid beyond some index) with closed
    per-index values on the dense prefix below it.
    """
    env = profile.envelope
    if env is None:
        return None
    if env.valid_from > horizon:
        notes.append("sup envelope starts beyond the scan horizon; raise the "
                     "horizon to certify")
        return None
    if env.valid_from - 1 > _BRIDGE_CAP:
        notes.append("sup envelope starts too late to certify the prefix "
                     "index-by-index")
        return None
    pieces = [env.log_sup]
    if env.valid_from > 1:
        if data.tail_log is None:
            notes.append("no certified tail closure; indices below the "
                         "envelope start cannot be certified")
            return None
        bden = np.asarray(profile.log_denominator(
            _bridge_indices(profile, horizon)), dtype=float)
        bclosed = np.logaddexp(data.bridge_suffix_log, data.tail_log) - bden
        bclosed = np.where(np.isnan(bclosed), NEG_INF, bclosed)
        pieces.append(float(np.max(bclosed)))
    if data.closed_log is not None:
        pieces.append(float(np.max(data.closed_log)))
    if env.note:
        notes.append("sup envelope: " + env.note)
    return max(pieces)


def _certify(bound: float, emp: float, horizon: int, notes,
             what: str) -> Verdict:
    """Holds with a certified ``bound``, unless the scan contradicts it.

    ``emp`` is the scanned value the bound must dominate.  When it exceeds
    the bound (beyond float slack), or either side is NaN, the declared
    ``what`` is wrong somewhere and the verdict is Inconclusive.  A Holds
    reports ``max(bound, emp)``, so its bound is never below its empirical
    value.
    """
    if not emp <= bound * _BOUND_SLACK:
        return Verdict.inconclusive(emp, horizon, list(notes) + [
            f"scan contradicts the declared {what}; refusing to certify"])
    return Verdict.holds(max(bound, emp), emp, horizon, notes)


def _sup_verdict(profile: SupProfile, data: _ScanData, horizon: int,
                 vanishing: bool) -> tuple[Verdict, np.ndarray]:
    """Classify the supremum of one scanned quantity, or with ``vanishing``
    whether it tends to zero.

    Fails needs certified divergence of the inner series or a diverging
    lower envelope; under ``vanishing`` any lower envelope, which keeps a
    subsequence above a positive constant, also Fails.  Holds needs the
    declared sup envelope, which under ``vanishing`` must itself vanish,
    and passes through ``_certify``.  Returns (verdict, per-scan log values
    used for samples).
    """
    partial = "samples are partial sums up to the horizon"
    emp = float(np.max(_exp_clamped(data.partial_log)))
    low = profile.lower
    if profile.diverges is True:
        wit = _diverging_series_witness(profile, data)
        return Verdict.fails(wit, emp, horizon, [partial]), data.partial_log
    if low is not None and (low.diverging or vanishing):
        wit = _witness_from_lower(low, "analytic-lower-bound" if low.diverging
                                  else "liminf-lower-bound")
        return Verdict.fails(wit, emp, horizon, [partial]), data.partial_log

    notes: list = []
    env = profile.envelope
    cert_log = None
    if env is not None and (env.vanishes or not vanishing):
        cert_log = _certified_sup_log(profile, data, horizon, notes)
    if cert_log is None:
        notes += [partial,
                  "no certificate in either direction at this horizon"]
        return Verdict.inconclusive(emp, horizon, notes), data.partial_log
    if data.closed_log is not None:
        used = data.closed_log
        notes.append("samples include the certified tail closure beyond the "
                     "horizon")
    else:
        used = data.partial_log
        notes.append(partial)
    verdict = _certify(_exp_clamped_scalar(cert_log),
                       float(np.max(_exp_clamped(used))), horizon, notes,
                       "envelope")
    if vanishing and verdict.is_holds:
        verdict = replace(verdict, notes=verdict.notes + (
            "certified envelope vanishes, so the quantity tends to zero",))
    return verdict, used


def _thin_samples(scan: np.ndarray, log_vals: np.ndarray):
    n = len(scan)
    keep = {0, n - 1, int(np.argmax(log_vals))}
    step = max(1, n // _SAMPLE_CAP)
    keep.update(range(0, n, step))
    return tuple((int(scan[i]), float(_exp_clamped_scalar(float(log_vals[i]))))
                 for i in sorted(keep))


def _reports(w: WeightSpec, horizon: int, jobs, ts=()) -> tuple[list, list]:
    """Sup reports and rw memberships of weight ``w`` from one pass.

    Each job is (profile, params, report names); a report named
    ``compactness`` asks whether the quantity vanishes.  Returns (the
    reports in job and name order, one membership verdict per t in ts).
    """
    if horizon < MIN_HORIZON:
        raise ValueError(f"horizon must be >= {MIN_HORIZON}")
    ts = [float(t) for t in ts]
    data, totals = _scan_sup_quantities(w, [job[0] for job in jobs],
                                        [t + 1.0 for t in ts], horizon)
    return ([_sup_report(w, profile, d, horizon, params, name)
             for (profile, params, names), d in zip(jobs, data)
             for name in names],
            [_rw_verdict(w, t, horizon, total)
             for t, total in zip(ts, totals)])


def _sup_report(w: WeightSpec, profile: SupProfile, data: _ScanData,
                horizon: int, params: dict, name: str) -> CriterionReport:
    verdict, used_log = _sup_verdict(profile, data, horizon,
                                     name == "compactness")
    samples = _thin_samples(data.scan, used_log)
    p = dict(params)
    p.setdefault("weight", w.id)
    p.setdefault("horizon", int(horizon))
    return CriterionReport(name, p, verdict, samples, int(horizon))


# ---------------------------------------------------------------------------
# continuity and compactness


def _continuity_profile(w: WeightSpec) -> SupProfile:
    def den(ms: np.ndarray) -> np.ndarray:
        return w.log_eval(ms)

    return SupProfile(
        name="continuity",
        beta=0.0,
        start_offset=0,
        log_denominator=den,
        envelope=w.cont_env(),
        lower=w.cont_lower,
        diverges=w.diverges_beta(0.0),
        diverges_note="sum of weight(n)/n diverges",
    )


def _uw_job(w: WeightSpec, horizon: int) -> tuple:
    """The ``_reports`` job of the ``tail_mass_ratio`` report."""
    def den(ms: np.ndarray) -> np.ndarray:
        return np.log(ms.astype(float)) + w.log_eval(ms + 1)

    return (SupProfile(
        name="tail_mass_ratio",
        beta=1.0,
        start_offset=1,
        log_denominator=den,
        envelope=w.uw_env(),
        lower=w.uw_lower,
        diverges=w.diverges_beta(1.0),
        diverges_note="the weight itself is not summable",
    ), {"w": w.id, "horizon": int(horizon)}, ("tail_mass_ratio",))


def _continuity_job(w: WeightSpec, horizon: int, names) -> tuple:
    """The ``_reports`` job of the ``continuity`` and ``compactness``
    reports named in ``names``: both read one quantity, continuity asks for
    its supremum, compactness whether it vanishes."""
    return (_continuity_profile(w),
            {"v": w.id, "w": w.id, "horizon": int(horizon)}, names)


def continuity_criterion(w: WeightSpec,
                         horizon: int = DEFAULT_HORIZON) -> CriterionReport:
    """Certify sup over n of (1/w(n)) * sum_{m>=n} w(m)/m.

    Holds means the averaging operator maps the w-weighted summable space
    boundedly into itself, and the certified bound dominates its operator
    norm.
    """
    return _reports(w, horizon, [_continuity_job(w, horizon,
                                                 ("continuity",))])[0][0]


def compactness_criterion(w: WeightSpec,
                          horizon: int = DEFAULT_HORIZON) -> CriterionReport:
    """Certify that (1/w(n)) * sum_{m>=n} w(m)/m tends to zero.

    This is the continuity quantity asked the vanishing question.  Holds
    requires a certified vanishing envelope; Fails requires either a
    certified positive lower bound along a subsequence or outright divergence.
    """
    return _reports(w, horizon, [_continuity_job(w, horizon,
                                                 ("compactness",))])[0][0]


def continuity_and_compactness(
        w: WeightSpec, horizon: int = DEFAULT_HORIZON) -> tuple[
            CriterionReport, CriterionReport]:
    """The continuity and compactness reports of w from one scan.

    Both criteria read the same quantity, so callers that need both should
    use this instead of scanning it twice.
    """
    return tuple(_reports(w, horizon, [_continuity_job(
        w, horizon, ("continuity", "compactness"))])[0])


# ---------------------------------------------------------------------------
# ratio test


def ratio_limsup_test(w: WeightSpec,
                      horizon: int = DEFAULT_HORIZON) -> CriterionReport:
    """Certify limsup w(n+1)/w(n) < 1 from declared ratio metadata.

    Only a sufficient test: a certified ratio bound below one yields Holds;
    without one the verdict is Inconclusive (never Fails), with the empirical
    limsup estimate from the top half of the scan.
    """
    if horizon < MIN_HORIZON:
        raise ValueError(f"horizon must be >= {MIN_HORIZON}")
    scan = scan_indices(horizon - 1)
    log_ratio = w.log_eval(scan + 1) - w.log_eval(scan)
    params = {"w": w.id, "horizon": int(horizon)}
    # the scan ends at horizon - 1, so every window below is nonempty
    nfrom, r = w.ratio_bound or (horizon, 0.0)
    if 0.0 < r < 1.0 and nfrom < horizon:
        win = scan >= max(nfrom, horizon // 2)
        verdict = _certify(r, float(np.max(np.exp(log_ratio[win]))), horizon, [
            f"certified: w(n+1)/w(n) <= {r} for all n >= {nfrom}",
            "empirical limsup estimate taken over the top of the scan window"],
            "ratio bound")
    else:
        emp = float(np.max(np.exp(log_ratio[scan >= horizon // 2])))
        verdict = Verdict.inconclusive(emp, horizon, [
            "declared ratio bound unusable at this horizon" if w.ratio_bound
            else "no certified ratio bound; the test is only sufficient, so "
            "no Fails verdict is possible"])
    samples = _thin_samples(scan, log_ratio)
    return CriterionReport("ratio_limsup", params, verdict, samples,
                           int(horizon))


# ---------------------------------------------------------------------------
# tail-mass averaging quantity


def uw_quantity(w: WeightSpec,
                horizon: int = DEFAULT_HORIZON) -> CriterionReport:
    """Certify sup over m of (1/(m w(m+1))) * sum_{n>m} w(n).

    A finite certified value bounds the normalized tail mass of the weight
    and feeds the averaging/ergodic layer.
    """
    return _reports(w, horizon, [_uw_job(w, horizon)])[0][0]


def scan_reports(w: WeightSpec, horizon: int, ts) -> tuple:
    """(continuity, compactness, uw, memberships) of one weight from one
    streamed pass: ``continuity_and_compactness(w)``, ``uw_quantity(w)``
    and ``rw_memberships(w, ts)`` read suffix sums of the same power row
    w(n) n^(beta-1), so their rows share log w and the chunks."""
    reports, memberships = _reports(w, horizon, [
        _continuity_job(w, horizon, ("continuity", "compactness")),
        _uw_job(w, horizon)], ts)
    return (*reports, memberships)


# ---------------------------------------------------------------------------
# exponent-set memberships and their boundary brackets


def rw_memberships(w: WeightSpec, ts,
                   horizon: int = DEFAULT_HORIZON) -> list:
    """Decide, for every exponent t in ``ts``, whether sum over n of
    n^t * w(n) is finite, from one streamed pass over the weight.

    Holds closes the series with a certified tail bound (or, for t < -1,
    with the certified sup of the weight); Fails uses the certified
    divergence metadata (minorants and family rules).  Without either the
    verdict is Inconclusive, however large the partial sum has grown.
    """
    return _rw_verdicts(w, ts, horizon)


def _rw_verdicts(w: WeightSpec, ts, horizon: int,
                 memo: Optional[dict] = None) -> list:
    """``rw_memberships``; a caller that probes ``w`` again passes one
    ``memo`` (``_power_log_sums``') to every probe."""
    if horizon < MIN_HORIZON:
        raise ValueError(f"horizon must be >= {MIN_HORIZON}")
    ts = [float(t) for t in ts]
    sums = _power_log_sums(w, [(t + 1.0, [1]) for t in ts], horizon, memo)
    return [_rw_verdict(w, t, horizon, float(total[0]))
            for t, total in zip(ts, sums)]


def _rw_verdict(w: WeightSpec, t: float, horizon: int,
                partial_log: float) -> Verdict:
    """The membership verdict from the log partial sum through the horizon."""
    beta = t + 1.0
    emp = _exp_clamped_scalar(partial_log)
    if w.diverges_beta(beta) is True:
        wit = Witness(1, emp, "diverging-inner-series",
                      "series certified divergent; the value shown is the "
                      "partial sum at the scan horizon")
        return Verdict.fails(wit, emp, horizon,
                             ("certified divergence from weight metadata",))

    tail_log = w.log_tail(horizon + 1, beta)
    if tail_log is not None and tail_log < float("inf"):
        total_log = float(np.logaddexp(partial_log, tail_log))
        return _certify(_exp_clamped_scalar(total_log), emp, horizon, (
            "series closed: partial sum plus certified tail bound",),
            "tail bound")
    if t < -1.0 and w.log_sup_bound is not None:
        total_log = w.log_sup_bound + _log_pseries_tail(1, -1.0 - t)
        return _certify(_exp_clamped_scalar(total_log), emp, horizon, (
            "series closed: certified weight sup times a certified "
            "power-series tail",), "weight sup")
    return Verdict.inconclusive(
        emp, horizon, ("no certificate in either direction at this horizon",))


def _sw1_scan(w: WeightSpec, horizon: int) -> tuple:
    """(scan grid, log n, log w(n)) at the scan indices of ``horizon``: what
    every sw1 verdict at this horizon reads of the weight."""
    if horizon < MIN_HORIZON:
        raise ValueError(f"horizon must be >= {MIN_HORIZON}")
    scan = scan_indices(horizon)
    return scan, np.log(scan.astype(float)), w.log_eval(scan)


def _sw1_verdict(w: WeightSpec, s: float, horizon: int, scan: np.ndarray,
                 log_n: np.ndarray, log_w: np.ndarray) -> Verdict:
    """Decide whether sup over n of 1/(n^s * w(n)) is finite, from
    ``_sw1_scan``.

    Holds comes from a certified minorant constant c(s) with
    w(n) >= c(s) n^-s (bound 1/c(s)); Fails from a certified diverging lower
    envelope or, for certified rapidly decreasing weights, from the decay
    class itself.
    """
    log_g = -s * log_n - log_w
    emp = float(np.max(_exp_clamped(log_g)))

    log_c = w.minorant_log_c(s)
    if log_c is not None:
        bound = _exp_clamped_scalar(-log_c)
        return _certify(bound, emp, horizon, (
            f"certified minorant: w(n) >= c * n^-s with 1/c = {bound:.6g}",),
            "minorant")

    low = w.sw_lower(s)
    if low is not None and low.diverging:
        wit = _witness_from_lower(low, "analytic-lower-bound")
        return Verdict.fails(wit, emp, horizon,
                             ("certified diverging lower envelope for "
                              "1/(n^s w(n))",))

    if w.rapidly_decreasing:
        threshold = max(math.log(WITNESS_TARGET),
                        float(log_g[0]) + _LOG_DIVERGENCE)
        over = np.nonzero(log_g >= threshold)[0]
        if over.size:
            i0 = int(over[0])
            wit = Witness(int(scan[i0]),
                          _exp_clamped_scalar(float(log_g[i0])),
                          "sup-exceeds",
                          "weight is certified rapidly decreasing, so "
                          "1/(n^s w(n)) grows without bound for every s")
            return Verdict.fails(wit, emp, horizon,
                                 ("certified rapid decay forces divergence",))
    return Verdict.inconclusive(
        emp, horizon, ("no certificate in either direction at this horizon",))


#: the probe ladders of t0 and s1; both end at the probe ceiling
_T_LADDER = (-64.0, -16.0, -4.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5,
             2.0, 4.0, 8.0, 16.0, 32.0, PROBE_CEILING)
_S_LADDER = (-8.0, -4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0,
             8.0, 16.0, 32.0, PROBE_CEILING)


def _boundary(member: Callable[[float], Verdict], ladder, member_side: str,
              cache: Optional[dict] = None) -> Bracket:
    """The one search for the boundary of a one-sided exponent set.

    ``member_side`` is ``lo`` for a downward-closed set and ``hi`` for an
    upward-closed one.  The ladder is walked first; between its outermost
    certified member and innermost certified non-member, bisection runs to
    width ``BISECTION_TOL`` (at most 200 steps), retrying an Inconclusive
    midpoint at 3/8 and 5/8 of the bracket.  The result is ``inconclusive``
    without a member, ``infinite`` for a downward-closed set that holds at
    ``PROBE_CEILING``, a member-only ``bracket`` without a non-member, and
    otherwise the full bracket.  ``cache`` may arrive prefilled with
    verdicts (the ladder's, say); ``member`` runs only for the rest.
    """
    cache = {} if cache is None else cache

    def probe(x: float) -> Verdict:
        if x not in cache:
            cache[x] = member(x)
        return cache[x]

    down = member_side == "lo"
    notes: list = []
    inside = None
    outside = None
    for x in ladder:
        v = probe(x)
        if v.is_holds:
            inside = x if inside is None else (
                max(inside, x) if down else min(inside, x))
        elif v.is_fails:
            outside = x if outside is None else (
                min(outside, x) if down else max(outside, x))
    lo, hi = (inside, outside) if down else (outside, inside)
    if inside is not None and outside is not None and lo >= hi:
        notes.append("membership verdicts are inconsistent across the "
                     "ladder; metadata conflict")
        inside = None
    elif inside is not None and outside is not None:
        iters = 0
        while hi - lo > BISECTION_TOL and iters < 200:
            iters += 1
            for mid in (0.5 * (lo + hi), lo + 0.375 * (hi - lo),
                        lo + 0.625 * (hi - lo)):
                v = probe(mid)
                if not v.is_inconclusive:
                    break
            else:
                notes.append("membership undecided inside the bracket; "
                             "stopped tightening early")
                break
            if v.is_holds == down:
                lo = mid
            else:
                hi = mid
    if inside is None:
        return Bracket("inconclusive", notes=tuple(
            notes + ["no certified member found on the probe ladder"]))
    if down and lo == PROBE_CEILING:
        return Bracket("infinite", lo=lo, member_side="lo", notes=tuple(
            notes + [f"membership holds at every probe up to "
                     f"{PROBE_CEILING}"]))
    if outside is None:
        return Bracket("bracket", lo=lo, hi=hi, member_side=member_side,
                       notes=tuple(notes + [
                           "no certified non-member found "
                           f"{'above' if down else 'below'}; "
                           "only the member endpoint is certified"]))
    return Bracket("bracket", lo=lo, hi=hi, member_side=member_side,
                   tol=hi - lo, notes=tuple(notes))


def table_horizon(w: WeightSpec, horizon: int, what: str = "estimate",
                  reach: int = 0) -> tuple[int, tuple]:
    """(horizon, notes): the ``what`` horizon of a table-backed weight cut
    so that it reads w no further than the table's last row, with a note
    when it was cut.  A scan at horizon h reads w up to h + ``reach``;
    ``analyze`` has reach 1, because its uw quantity reads w(m + 1).
    Raises WeightError when the cut leaves less than ``MIN_HORIZON``."""
    size = w.table_size
    if size is None or horizon + reach <= size:
        return horizon, ()
    if size - reach < MIN_HORIZON:
        raise WeightError(
            f"{what} reads w up to index horizon + {reach}, so it needs a "
            f"table of at least {MIN_HORIZON + reach} rows; this one has "
            f"{size}")
    if reach == 0:
        return size, (f"{what} horizon {horizon} clamped to the table's "
                      f"last row {size}",)
    return size - reach, (f"{what} horizon {horizon} clamped to "
                          f"{size - reach}: it reads w up to index horizon "
                          f"+ {reach}, and the table's last row is {size}",)


def t0_estimate(w: WeightSpec, *, horizon: int = ESTIMATE_HORIZON) -> Bracket:
    """Bracket the supremum of the exponents t with sum n^t w(n) finite.

    The set is downward closed, so the bracket's low endpoint is a certified
    member and the high endpoint, when one was found, a certified
    non-member.  Certified rapidly decreasing weights make the set every
    exponent (``infinite``); any other weight goes to ``_boundary``, which
    gives ``infinite`` only when the probe at ``PROBE_CEILING`` itself is a
    certified member.  The whole ladder is probed in one pass over the
    weight and each bisection midpoint in another; every pass reads the
    log w and log n that the first one evaluated.  A table-backed weight
    is probed only up to its last row.
    """
    horizon, notes = table_horizon(w, horizon)
    memo: dict = {}

    def member(t: float) -> Verdict:
        return _rw_verdicts(w, (t,), horizon, memo)[0]

    if w.rapidly_decreasing:
        notes += ("certified rapid decay: every exponent is summable",)
        if member(PROBE_CEILING).is_holds:
            notes += ("verified membership at the probe ceiling "
                      f"{PROBE_CEILING}",)
        return Bracket("infinite", notes=notes)
    ladder_verdicts = _rw_verdicts(w, _T_LADDER, horizon, memo)
    b = _boundary(member, _T_LADDER, "lo",
                  dict(zip(_T_LADDER, ladder_verdicts)))
    return replace(b, notes=notes + b.notes)


def s1_estimate(w: WeightSpec, *, horizon: int = ESTIMATE_HORIZON) -> Bracket:
    """Bracket the infimum of the exponents s with sup 1/(n^s w(n)) finite.

    The set is upward closed, so the bracket's high endpoint is a certified
    member.  Certified rapidly decreasing weights make the set empty; any
    other weight goes to ``_boundary``, as for ``t0_estimate``.  The weight
    is evaluated once, at the scan indices; each probe is array arithmetic
    on those values.  A table-backed weight is scanned only up to its last
    row.
    """
    horizon, notes = table_horizon(w, horizon)
    grid = _sw1_scan(w, horizon)

    def member(s: float) -> Verdict:
        return _sw1_verdict(w, s, horizon, *grid)

    if w.rapidly_decreasing:
        notes += ("certified rapid decay: no polynomial minorant exists, the "
                  "set is empty",)
        if not member(PROBE_CEILING).is_fails:
            notes += ("probe at the ceiling did not contradict the metadata",)
        return Bracket("empty", notes=notes)
    b = _boundary(member, _S_LADDER, "hi")
    return replace(b, notes=notes + b.notes)
