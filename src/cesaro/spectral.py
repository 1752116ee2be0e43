"""Classify complex points against the averaging operator's spectrum.

A point is classified by a cascade of certificates, cheapest first:
membership in the closed candidate set {0} union {1/m}, the certified
spectral disk derived from the polynomial-minorant boundary, the
compactness shortcut (compact operators have no spectrum off the candidate
set), and finally the resolvent sup-criterion, decided from the weight's
certified envelopes and divergence flags.  Every label is backed by
evidence from the criteria layer; when certificates disagree the
classification degrades to Unknown instead of picking a side.  The
cascade describes the spectrum of a bounded operator, so it runs only
when continuity Holds; otherwise every point is Unknown.

The cascade runs over arrays of points: each rule is a mask, and since the
resolvent criterion depends only on alpha = Re(1/lam), it is decided once
per distinct alpha.  Its result is a GridScan: per-node code columns plus
one resolvent table row per distinct alpha, read as a sequence of
SpectralClassification rows built on demand.  A single point is a
one-node scan.
"""

from __future__ import annotations

import collections.abc
import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .weights import _BRIDGE_CAP, WeightSpec
from .criteria import (
    Bracket,
    CriterionReport,
    DEFAULT_HORIZON,
    SupProfile,
    Verdict,
    Witness,
    _reports,
    continuity_and_compactness,
    rw_memberships,
    s1_estimate,
)
from .sections import (
    SIGMA_PROXIMITY_EPS,
    distance_to_limit_set,
    nearest_limit_point,
)

__all__ = [
    "SpectralError",
    "SpectralClassification",
    "GridScan",
    "SpectralContext",
    "GridSpec",
    "build_context",
    "resolvent_condition",
    "point_spectrum",
    "classify_point",
    "region_scan",
    "scan_to_csv",
]

LABEL_POINT = "PointSpectrum"
LABEL_SPECTRUM = "SpectrumCertified"
LABEL_RESOLVENT = "ResolventCertified"
LABEL_UNKNOWN = "Unknown"

RULE_SIGMA0 = "sigma0-membership"
RULE_POINT = "point-spectrum"
RULE_DISK = "s1-disk"
RULE_COMPACT = "compact-resolvent"
RULE_RESOLVENT = "resolvent-criterion"
RULE_CONFLICT = "conflicting-certificates"
RULE_NONE = "unclassified"

MAX_GRID_POINTS = 10 ** 6
#: largest 2-D block (rows x terms) one batched bridge or witness evaluates
_BATCH_ELEMENTS = 1 << 16
#: points per block of the cascade's rule masks
_NODE_BLOCK = 4096
#: a GridScan's rule and label codes index these
RULES = (RULE_SIGMA0, RULE_POINT, RULE_DISK, RULE_COMPACT, RULE_RESOLVENT,
         RULE_CONFLICT, RULE_NONE)
LABELS = (LABEL_POINT, LABEL_SPECTRUM, LABEL_RESOLVENT, LABEL_UNKNOWN)
_SIGMA0, _POINT, _DISK, _COMPACT, _RESOLVENT, _CONFLICT, _NONE = range(7)
_L_POINT, _L_SPECTRUM, _L_RESOLVENT, _L_UNKNOWN = range(4)
#: the label of each rule; the resolvent rule's Fails nodes are Spectrum
_RULE_LABEL = np.array([_L_SPECTRUM, _L_POINT, _L_SPECTRUM, _L_RESOLVENT,
                        _L_RESOLVENT, _L_UNKNOWN, _L_UNKNOWN], dtype=np.int8)
#: whether the nodes of each rule carry a sup_value
_RULE_HAS_SUP = np.array([r not in (RULE_CONFLICT, RULE_NONE) for r in RULES])
#: the resolvent rule's certificate kinds, per distinct alpha
_NO_CERT, _HOLDS, _FAILS = range(3)
_ORIGIN_EVIDENCE = (
    (RULE_SIGMA0, "0 is an accumulation point of the candidate set and "
                  "always belongs to the spectrum"),)
_WITNESS_TOP = 4096
_CLIP = 700.0
#: below the smallest normal float, |lam|^2 loses bits or underflows to 0;
#: scaling lam by _RESCALE brings it back (|lam|^2 < _TINY means
#: |Re lam|, |Im lam| < 2^-511, and the smallest subnormal is 2^-1074)
_TINY = sys.float_info.min
_RESCALE = 2.0 ** 600


class SpectralError(ValueError):
    """Raised when an operation is evaluated at an excluded point."""


def _alphas(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Re(1/lam) = Re(lam)/|lam|^2 for lam = re + i*im, NaN at lam = 0.

    Where |lam|^2 falls below the smallest normal float, lam is first
    scaled by 2^600, which is exact and gives normal squares, and
    Re(1/lam) = 2^600 Re(1/(2^600 lam)); the result is +-inf where
    Re(1/lam) exceeds the float range.
    """
    nonzero = (re != 0.0) | (im != 0.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d2 = re * re + im * im
        a = np.where(nonzero, re / d2, np.nan)
        tiny = nonzero & (d2 < _TINY)
        if tiny.any():
            r, i = re[tiny] * _RESCALE, im[tiny] * _RESCALE
            a[tiny] = r / (r * r + i * i) * _RESCALE
    return a


def _check_context_args(m_max: int, eps: float) -> None:
    if m_max < 1:
        raise SpectralError("m_max must be >= 1")
    if not (math.isfinite(eps) and eps >= 0.0):
        raise SpectralError(f"eps must be finite and non-negative, got {eps!r}")


# ---------------------------------------------------------------------------
# classification containers


@dataclass(frozen=True, slots=True)
class SpectralClassification:
    """Label for one complex point, with the evidence that produced it.

    A GridScan builds one each time a node is read.
    """

    lam: complex
    alpha: Optional[float]
    label: str
    rule_id: str
    sup_value: Optional[float] = None
    evidence: tuple = ()


@dataclass(frozen=True)
class SpectralContext:
    """Shared read-only reports consumed by the classification cascade.

    The eigenvalue verdicts (``points``) cost a moment pass over the weight
    and only candidate-set points read them, so they are computed on first
    use and kept.
    """

    weight: WeightSpec
    continuity: CriterionReport
    compactness: CriterionReport
    s1: Bracket
    m_max: int
    horizon: int
    eps: float = SIGMA_PROXIMITY_EPS

    def __post_init__(self):
        _check_context_args(self.m_max, self.eps)

    @functools.cached_property
    def points(self) -> tuple:
        """The verdict of 1/m at index m - 1, for m = 1..m_max."""
        return tuple(verdict for _, verdict in point_spectrum(
            self.weight, self.m_max, self.horizon))


def point_spectrum(w: WeightSpec, m_max: int = 20,
                   horizon: int = DEFAULT_HORIZON) -> list:
    """Eigenvalue candidates 1/m with the verdict for each m = 1..m_max.

    1/m is an eigenvalue exactly when the weighted moment series of order
    m - 1 converges; m = 1 reduces to plain summability of the weight.
    """
    if m_max < 1:
        raise SpectralError("m_max must be >= 1")
    verdicts = rw_memberships(w, [float(m - 1) for m in range(1, m_max + 1)],
                              horizon=horizon)
    return [(1.0 / m, verdict) for m, verdict in enumerate(verdicts, start=1)]


def build_context(w: WeightSpec, *, horizon: int = DEFAULT_HORIZON,
                  m_max: int = 20,
                  eps: float = SIGMA_PROXIMITY_EPS) -> SpectralContext:
    """Compute the shared reports once so grid scans stay cheap per node.

    Continuity, compactness and the boundary bracket are computed here;
    the eigenvalue verdicts for 1/m, m <= m_max, are scanned on first use
    (only points within ``eps`` of the candidate set read them).  A bad
    ``m_max`` or ``eps`` raises SpectralError before any scan.
    """
    _check_context_args(m_max, eps)
    continuity, compactness = continuity_and_compactness(w, horizon=horizon)
    return SpectralContext(
        weight=w,
        continuity=continuity,
        compactness=compactness,
        s1=s1_estimate(w),
        m_max=m_max,
        horizon=horizon,
        eps=eps,
    )


# ---------------------------------------------------------------------------
# the resolvent criterion


def _resolvent_profile(w: WeightSpec, alpha: float) -> SupProfile:
    def den(ms: np.ndarray) -> np.ndarray:
        ms = np.asarray(ms)
        return alpha * np.log(ms.astype(float)) + w.log_eval(ms)

    return SupProfile(
        name="resolvent_sup",
        inner=w,
        beta=alpha,
        start_offset=1,
        log_denominator=den,
        envelope=w.res_env(alpha),
        diverges=w.diverges_beta(alpha),
        diverges_note="inner series diverges for this exponent; the first "
                      "row already witnesses it",
    )


def resolvent_condition(w: WeightSpec, lam: complex,
                        horizon: int = DEFAULT_HORIZON,
                        eps: float = SIGMA_PROXIMITY_EPS) -> CriterionReport:
    """Full report for the resolvent sup-criterion at one point.

    The quantity scanned is sum_{n>m} w(n) n^(alpha-1) / (m^alpha w(m))
    with alpha = Re(1/lam); finiteness of its sup characterizes membership
    in the resolvent set for points off the candidate set.

    The cascade never calls it: it is the full-scan oracle that
    ``test_cascade_agrees_with_full_scan_reference`` holds the cascade's
    resolvent verdicts against.
    """
    z = complex(lam)
    if distance_to_limit_set(z) <= eps:
        raise SpectralError(
            f"lam = {z} lies within {eps} of the excluded candidate set")
    alpha = float(_alphas(np.array([z.real]), np.array([z.imag]))[0])
    if not math.isfinite(alpha):
        raise SpectralError(
            f"the exponent Re(1/lam) = {alpha} at lam = {z} is not finite")
    params = {"lambda_re": z.real, "lambda_im": z.imag, "alpha": alpha}
    return _reports(w, horizon, [(_resolvent_profile(w, alpha), params,
                                  ("resolvent_sup",))])[0][0]


def _witness_log_ratios(w: WeightSpec, alphas: Sequence[float]) -> list:
    """log of the inner partial sum over n = 2..4096, measured against the
    first row, for each alpha; log w and log n are evaluated once and the
    exponents run as row blocks."""
    if not alphas:
        return []
    ns = np.arange(2, _WITNESS_TOP + 1, dtype=np.int64)
    lw = w.log_eval(ns)
    ln = np.log(ns.astype(float))
    log_first = float(w.log_eval(1))
    out: list = []
    step = max(1, _BATCH_ELEMENTS // ns.size)
    for i in range(0, len(alphas), step):
        a = np.asarray(alphas[i:i + step], dtype=float)[:, np.newaxis]
        lt = lw + (a - 1.0) * ln
        top = np.max(lt, axis=1)
        sums = np.sum(np.exp(lt - top[:, np.newaxis]), axis=1)
        out.extend(t + math.log(s) - log_first
                   for t, s in zip(top.tolist(), sums.tolist()))
    return out


def _bridge_log_sups(w: WeightSpec, v0: int, alphas: Sequence[float],
                     tails: Sequence[float]) -> list:
    """For each (alpha, tail): the log sup over rows m < v0 of the exact
    partial over n in [m+1, v0] plus the certified tail beyond, divided by
    m^alpha w(m).  One evaluation of log w and log n serves every row; the
    rows run as blocks of at most _BATCH_ELEMENTS terms."""
    ns = np.arange(1, v0 + 1, dtype=np.int64)
    lw = w.log_eval(ns)
    ln = np.log(ns.astype(float))
    out: list = []
    step = max(1, _BATCH_ELEMENTS // v0)
    for i in range(0, len(alphas), step):
        a = np.asarray(alphas[i:i + step], dtype=float)[:, np.newaxis]
        tail = np.asarray(tails[i:i + step], dtype=float)[:, np.newaxis]
        lt = lw[1:] + (a - 1.0) * ln[1:]
        rev = np.logaddexp.accumulate(lt[:, ::-1], axis=1)[:, ::-1]
        den = a * ln[:-1] + lw[:-1]
        closed = np.logaddexp(rev, tail) - den
        out.extend(np.max(closed, axis=1).tolist())
    return out


class _ResolventTable(NamedTuple):
    """The resolvent rule's outcome per distinct alpha: the certificate kind
    (_HOLDS, _FAILS or _NO_CERT), its log value (the certified log bound,
    or the log of the divergence witness's partial sum) and sup_value =
    exp(min(log, _CLIP)), NaN where no certificate applies."""

    kind: np.ndarray
    log: np.ndarray
    sup: np.ndarray


def _resolvent_verdicts(w: WeightSpec, alphas: Sequence[float]
                        ) -> _ResolventTable:
    """The cascade's resolvent rule: one table row per distinct alpha, in
    the order of ``alphas``.

    Holds comes from the weight's certified envelope plus exact closures of
    the finitely many rows below the envelope's validity (at most
    _BRIDGE_CAP of them); Fails comes from a certified divergence flag.
    The metadata hooks (``diverges_beta``, ``res_env``, ``log_tail``) run
    once per exponent; the closures run as one batched bridge per distinct
    envelope start and the divergence witnesses as one batch, so nothing
    here depends on a scan horizon.  ``_resolvent_verdict`` turns a row
    into its Verdict.
    """
    kind = [_NO_CERT] * len(alphas)
    log = [math.nan] * len(alphas)
    diverging: list = []
    bridges: dict = {}  # envelope start -> [(slot, log_sup, tail), ...]
    for i, alpha in enumerate(alphas):
        if w.diverges_beta(alpha):
            diverging.append(i)
            continue
        env = w.res_env(alpha)
        if env is None:
            continue
        v0 = int(env.valid_from)
        if v0 <= 1:
            kind[i], log[i] = _HOLDS, env.log_sup
        elif v0 <= _BRIDGE_CAP:
            tail = w.log_tail(v0 + 1, alpha)
            if tail is not None and tail != float("inf"):
                bridges.setdefault(v0, []).append((i, env.log_sup, tail))
    log_qs = _witness_log_ratios(w, [alphas[i] for i in diverging])
    for i, log_q in zip(diverging, log_qs):
        kind[i], log[i] = _FAILS, log_q
    for v0, rows in bridges.items():
        slots, log_sups, tails = zip(*rows)
        closed = _bridge_log_sups(w, v0, [alphas[i] for i in slots], tails)
        for i, log_sup, c in zip(slots, log_sups, closed):
            kind[i], log[i] = _HOLDS, max(log_sup, c)
    sup = [math.exp(min(v, _CLIP)) if k != _NO_CERT else math.nan
           for k, v in zip(kind, log)]
    return _ResolventTable(np.array(kind, dtype=np.int8), np.array(log),
                           np.array(sup))


def _resolvent_verdict(kind: int, sup: float) -> Optional[Verdict]:
    """The Verdict of one resolvent table row; None without a certificate."""
    if kind == _HOLDS:
        return Verdict.holds(sup, 0.0, 0,
                             notes=("envelope-certified without a numeric "
                                    "scan",))
    if kind == _FAILS:
        witness = Witness(
            index=1, value=sup, kind="diverging-inner-series",
            detail="partial sum of the divergent inner series through "
                   f"n = {_WITNESS_TOP}, measured against the first row")
        return Verdict.fails(
            witness, witness.value, _WITNESS_TOP,
            notes=("certified divergence of the inner series",))
    return None


# ---------------------------------------------------------------------------
# the classification cascade


def _candidate_outcome(m: int, ctx: SpectralContext) -> tuple:
    """(rule code, evidence) of a node within eps of 1/m."""
    verdict = ctx.points[m - 1] if m <= ctx.m_max else None
    if verdict is not None and verdict.is_holds:
        return _POINT, ((RULE_POINT, verdict),)
    evidence = [(RULE_SIGMA0,
                 f"1/{m} belongs to the candidate set, hence to the "
                 f"spectrum")]
    if verdict is not None:
        evidence.append((RULE_POINT, verdict))
    return _SIGMA0, tuple(evidence)


class GridScan(collections.abc.Sequence):
    """The cascade's labels for the nodes of a grid, kept as columns.

    Node k is ``xs[k % nx] + 1j * ys[k // nx]``, row-major over im then re.
    Per node: ``alpha`` (NaN where the row's alpha is None, at points
    within eps of 0), ``rule`` and ``label`` codes (indices into ``RULES``
    and ``LABELS``), ``group``, the node's row of the resolvent ``table``
    (-1 for nodes the resolvent rule did not decide), and ``sup``, the
    row's sup_value where ``_RULE_HAS_SUP`` gives it one.  Nodes within eps
    of the candidate set keep their evidence in ``candidates``.  When the
    context's continuity is not Holds, every row is unclassified and its
    evidence is that continuity verdict.

    Read as a sequence it is the list of SpectralClassification rows; a
    row, and its Verdict, is built only when it is read.
    """

    __slots__ = ("xs", "ys", "alpha", "rule", "label", "group", "sup",
                 "table", "candidates", "context", "_verdicts")

    def __init__(self, xs, ys, alpha, rule, label, group, sup, table,
                 candidates, context):
        self.xs, self.ys = xs, ys
        self.alpha, self.rule, self.label, self.group, self.sup = (
            alpha, rule, label, group, sup)
        self.table, self.candidates, self.context = table, candidates, context
        self._verdicts: dict = {}

    def __len__(self) -> int:
        return self.alpha.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(len(self)))]
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("grid scan index out of range")
        lam = complex(self.xs[k % self.xs.size], self.ys[k // self.xs.size])
        a = float(self.alpha[k])
        rule = RULES[self.rule[k]]
        return SpectralClassification(
            lam, None if math.isnan(a) else a, LABELS[self.label[k]], rule,
            float(self.sup[k]) if _RULE_HAS_SUP[self.rule[k]] else None,
            self._evidence(k, rule))

    def _evidence(self, k: int, rule: str) -> tuple:
        ctx = self.context
        if not ctx.continuity.verdict.is_holds:
            return (("continuity", ctx.continuity.verdict),)
        if k in self.candidates:
            return self.candidates[k]
        if rule == RULE_DISK:
            return ((RULE_DISK, ctx.s1),)
        compact = ctx.compactness.verdict
        if rule == RULE_COMPACT:
            return ((RULE_COMPACT, compact),)
        if rule == RULE_CONFLICT:
            return ((RULE_DISK, ctx.s1), (RULE_COMPACT, compact),
                    (RULE_CONFLICT,
                     "a compact operator admits no spectrum off the candidate "
                     "set, yet the disk certificate claims this point; the "
                     "context reports are inconsistent"))
        verdict = self._verdict(int(self.group[k]))
        return () if verdict is None else ((RULE_RESOLVENT, verdict),)

    def _verdict(self, g: int) -> Optional[Verdict]:
        if g < 0:
            return None
        if g not in self._verdicts:
            self._verdicts[g] = _resolvent_verdict(
                int(self.table.kind[g]), float(self.table.sup[g]))
        return self._verdicts[g]

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, collections.abc.Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"GridScan({self.xs.size} x {self.ys.size} nodes)"

    def label_counts(self) -> dict:
        """{label: number of nodes} over the labels that occur."""
        return _counts(self.label, LABELS)

    def rule_counts(self) -> dict:
        """{rule_id: number of nodes} over the rules that fired."""
        return _counts(self.rule, RULES)


def _counts(codes: np.ndarray, names: tuple) -> dict:
    counts = np.bincount(codes, minlength=len(names)).tolist()
    return {name: c for name, c in zip(names, counts) if c}


def _classify_nodes(w: WeightSpec, xs: np.ndarray, ys: np.ndarray,
                    ctx: Optional[SpectralContext]) -> GridScan:
    """The certificate cascade over the nodes xs[k % nx] + i*ys[k // nx].

    Rules, in order: candidate-set membership (with point-spectrum
    upgrade), the certified spectral disk, the compactness shortcut (a
    point claimed by both is a conflict), the resolvent criterion (at
    finite alpha only: a nonzero lam next to 0 can have alpha = +-inf),
    Unknown.
    The first four are masks, applied to blocks of _NODE_BLOCK points so
    the array temporaries stay small.  The resolvent criterion depends on
    alpha = Re(1/lam) alone, so it runs once per distinct alpha over all
    points it receives, from envelope certificates.  Every rule describes
    a bounded operator: unless the context's continuity Holds, every node
    is unclassified and Unknown, with no sup_value.  A context built for
    another weight raises SpectralError; with no nodes the context is not
    read.
    """
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise SpectralError("points to classify must be finite")
    if ctx is not None and ctx.weight.id != w.id:
        raise SpectralError(f"the context was built for {ctx.weight.id!r}, "
                            f"not for {w.id!r}")
    re, im = np.tile(xs, ys.size), np.repeat(ys, xs.size)
    bounded = re.size > 0 and ctx.continuity.verdict.is_holds
    alpha = np.empty(re.size)
    rule = np.empty(re.size, dtype=np.int8)
    near, near_m = [], []  # the nodes within eps of the candidate set
    for lo in range(0, re.size, _NODE_BLOCK):
        r = re[lo:lo + _NODE_BLOCK]
        i = im[lo:lo + _NODE_BLOCK]
        a = alpha[lo:lo + _NODE_BLOCK] = _alphas(r, i)
        dist, nearest_m = nearest_limit_point(r, i)
        live = dist > ctx.eps
        s_mem, compact = ctx.s1.point, ctx.compactness.verdict.is_holds
        disk_hit = a >= s_mem if s_mem is not None else np.zeros_like(live)
        # np.select takes the first condition that holds: the rule order;
        # the resolvent rule reads alpha, so a non-finite one stays Unknown
        rule[lo:lo + _NODE_BLOCK] = np.select(
            [~live, disk_hit & compact, disk_hit, compact, ~np.isfinite(a)],
            [_SIGMA0, _CONFLICT, _DISK, _COMPACT, _NONE],
            _RESOLVENT) if bounded else _NONE
        near.append(lo + np.flatnonzero(~live))
        near_m.append(nearest_m[~live])
    candidates: dict = {}
    if near:
        for k, m in zip(np.concatenate(near).tolist(),
                        np.concatenate(near_m).tolist()):
            if abs(complex(re[k], im[k])) <= ctx.eps:
                alpha[k] = np.nan
                if bounded:
                    candidates[k] = _ORIGIN_EVIDENCE
            elif bounded:
                rule[k], candidates[k] = _candidate_outcome(m, ctx)
    idx = np.flatnonzero(rule == _RESOLVENT)
    distinct, group_of = np.unique(alpha[idx], return_inverse=True)
    table = _resolvent_verdicts(w, distinct.tolist())
    group = np.full(re.size, -1, dtype=np.intp)
    kind = table.kind[group_of]
    decided = kind != _NO_CERT
    group[idx[decided]] = group_of[decided]
    rule[idx[~decided]] = _NONE
    label = _RULE_LABEL[rule]
    label[idx[kind == _FAILS]] = _L_SPECTRUM
    # sup_value by rule: 0 on the candidate set, alpha in the disk, the
    # compactness bound, or the resolvent table's bound
    sup = np.zeros(re.size)
    disk, compact = rule == _DISK, rule == _COMPACT
    sup[disk] = alpha[disk]
    if compact.any():
        sup[compact] = ctx.compactness.verdict.certified_bound
    grouped = group >= 0
    sup[grouped] = table.sup[group[grouped]]
    return GridScan(xs, ys, alpha, rule, label, group, sup, table, candidates,
                    ctx)


def classify_point(w: WeightSpec, lam: complex,
                   context: Optional[SpectralContext] = None
                   ) -> SpectralClassification:
    """Label one complex point through the certificate cascade.

    Rules, in order: candidate-set membership (with point-spectrum
    upgrade), the certified spectral disk, the compactness shortcut, the
    resolvent criterion from envelope certificates, Unknown; every point
    is Unknown unless continuity Holds.  ``context`` must be built for
    ``w`` (SpectralError otherwise).  This is the one-node case of the
    scan ``region_scan`` runs; the full-scan report at one point is
    ``resolvent_condition``.
    """
    ctx = context if context is not None else build_context(w)
    z = complex(lam)
    return _classify_nodes(w, np.array([z.real]), np.array([z.imag]),
                           ctx)[0]


# ---------------------------------------------------------------------------
# region scans


@dataclass(frozen=True)
class GridSpec:
    """Rectangle [re0, re1] x [im0, im1] sampled at nx-by-ny nodes."""

    re0: float
    re1: float
    im0: float
    im1: float
    nx: int
    ny: int

    def axes(self) -> tuple:
        """The grid's real parts (nx of them) and imaginary parts (ny)."""
        return (np.linspace(self.re0, self.re1, self.nx),
                np.linspace(self.im0, self.im1, self.ny))


def region_scan(w: WeightSpec, grid: GridSpec,
                context: Optional[SpectralContext] = None) -> GridScan:
    """Classify every node of the grid, row-major over im then re.

    The whole grid goes through the cascade as arrays: one verdict per
    distinct alpha = Re(1/lam), and the eigenvalue points scanned on first
    use (only nodes within eps of the candidate set need them).  The output
    order is a pure function of the grid, never of evaluation order.
    Every node is Unknown unless continuity Holds, and ``context`` must be
    built for ``w`` (SpectralError otherwise).  Empty grids give an empty
    scan, without building a context.
    """
    if grid.nx < 0 or grid.ny < 0:
        raise SpectralError("grid resolution must be non-negative")
    if grid.nx * grid.ny > MAX_GRID_POINTS:
        raise SpectralError(
            f"grid exceeds {MAX_GRID_POINTS} points")
    ctx = context
    if ctx is None and grid.nx * grid.ny > 0:
        ctx = build_context(w)
    return _classify_nodes(w, *grid.axes(), ctx)


def _repr_columns(*columns) -> list:
    """For each (values, present) pair, the repr of each present value and
    "" elsewhere.  repr runs once per distinct bit pattern over all the
    columns, so 0.0 and -0.0 keep their own strings."""
    picked = [values[present] for values, present in columns]
    bits, at = np.unique(np.concatenate(picked).view(np.int64),
                         return_inverse=True)
    strings = np.array(["", *map(repr, bits.view(np.float64).tolist())],
                       dtype=object)
    out, lo = [], 0
    for (values, present), chosen in zip(columns, picked):
        idx = np.zeros(values.size, dtype=np.intp)
        idx[present] = at[lo:lo + chosen.size] + 1
        lo += chosen.size
        out.append(strings[idx].tolist())
    return out


def scan_to_csv(scan: GridScan) -> str:
    """Render a scan as CSV with a fixed header and row order.

    The rows are joined from strings made once per grid column value, per
    grid row value and per distinct alpha or sup_value.
    """
    rule, nx = scan.rule, scan.xs.size
    alpha_col, sup_col = _repr_columns(
        (scan.alpha, ~np.isnan(scan.alpha)), (scan.sup, _RULE_HAS_SUP[rule]))
    outcome = np.array([f"{label},{r}" for label in LABELS for r in RULES],
                       dtype=object)
    rows = map(",".join, zip(
        list(map(repr, scan.xs.tolist())) * scan.ys.size,
        [y for y in map(repr, scan.ys.tolist()) for _ in range(nx)],
        alpha_col,
        outcome[scan.label.astype(np.intp) * len(RULES) + rule].tolist(),
        sup_col))
    return "\n".join(["re,im,alpha,label,rule_id,sup_value", *rows]) + "\n"
