"""Classify complex points against the averaging operator's spectrum.

A point is classified by a cascade of certificates, cheapest first:
membership in the closed candidate set {0} union {1/m}, the certified
spectral disk derived from the polynomial-minorant boundary, the
compactness shortcut (compact operators have no spectrum off the candidate
set), and finally the resolvent sup-criterion, decided from the weight's
certified envelopes and divergence flags.  Every label is backed by
evidence from the criteria layer; when certificates disagree the
classification degrades to Unknown instead of picking a side.

The cascade runs over arrays of points: each rule is a mask, and since the
resolvent criterion depends only on alpha = Re(1/lam), it is decided once
per distinct alpha.  A single point is a one-element array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .weights import WeightSpec
from .criteria import (
    _BRIDGE_CAP,
    Bracket,
    CriterionReport,
    DEFAULT_HORIZON,
    SupProfile,
    Verdict,
    Witness,
    evaluate_sup_profile,
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
    "LABEL_POINT",
    "LABEL_SPECTRUM",
    "LABEL_RESOLVENT",
    "LABEL_UNKNOWN",
    "SpectralError",
    "SpectralClassification",
    "SpectralContext",
    "GridSpec",
    "build_context",
    "reciprocal_real_part",
    "resolvent_condition",
    "point_spectrum",
    "classify_point",
    "region_scan",
    "scan_to_csv",
    "distance_to_limit_set",
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
#: the cascade's rules, as codes of its mask stage
_SIGMA0, _CONFLICT, _DISK, _COMPACT, _RESOLVENT = range(5)
_WITNESS_TOP = 4096
_CLIP = 700.0


class SpectralError(ValueError):
    """Raised when an operation is evaluated at an excluded point."""


def reciprocal_real_part(lam: complex) -> float:
    """Re(1/lam), computed as Re(lam)/|lam|^2; lam must be nonzero."""
    z = complex(lam)
    d = z.real * z.real + z.imag * z.imag
    if d == 0.0:
        raise SpectralError("the exponent Re(1/lam) is undefined at lam = 0")
    return z.real / d


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

    Slotted: a grid scan keeps one of these per node.
    """

    lam: complex
    alpha: Optional[float]
    label: str
    rule_id: str
    sup_value: Optional[float] = None
    evidence: tuple = ()

    def to_json_dict(self) -> dict:
        ev = []
        for rule, payload in self.evidence:
            if hasattr(payload, "to_json_dict"):
                ev.append({"rule": rule, "detail": payload.to_json_dict()})
            else:
                ev.append({"rule": rule, "detail": str(payload)})
        return {
            "lambda": {"re": self.lam.real, "im": self.lam.imag},
            "alpha": self.alpha,
            "label": self.label,
            "rule_id": self.rule_id,
            "sup_value": self.sup_value,
            "evidence": ev,
        }


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
        """((m, Verdict), ...) for m = 1..m_max."""
        return tuple((m, verdict) for m, (_, verdict) in enumerate(
            point_spectrum(self.weight, self.m_max, self.horizon), start=1))

    @property
    def s1_member(self) -> Optional[float]:
        """A certified member of the boundary-exponent set, if one exists."""
        return self.s1.point

    def point_verdict(self, m: int) -> Optional[Verdict]:
        for mm, verdict in self.points:
            if mm == m:
                return verdict
        return None


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
        return (alpha * np.log(ms.astype(float))
                + np.asarray(w.log_eval(ms), dtype=float))

    return SupProfile(
        name="resolvent_sup",
        inner=w,
        beta=alpha,
        start_offset=1,
        log_denominator=den,
        envelope=w.res_env(alpha, 1),
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
    """
    z = complex(lam)
    if distance_to_limit_set(z) <= eps:
        raise SpectralError(
            f"lam = {z} lies within {eps} of the excluded candidate set")
    alpha = reciprocal_real_part(z)
    profile = _resolvent_profile(w, alpha)
    params = {"lambda_re": z.real, "lambda_im": z.imag, "alpha": alpha}
    return evaluate_sup_profile(profile, horizon, params)


def _witness_log_ratios(w: WeightSpec, alphas: Sequence[float]) -> list:
    """log of the inner partial sum over n = 2..4096, measured against the
    first row, for each alpha; log w and log n are evaluated once and the
    exponents run as row blocks."""
    if not alphas:
        return []
    ns = np.arange(2, _WITNESS_TOP + 1, dtype=np.int64)
    lw = np.asarray(w.log_eval(ns), dtype=float)
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
    lw = np.asarray(w.log_eval(ns), dtype=float)
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


def _envelope_holds(cert_log: float) -> Verdict:
    return Verdict.holds(
        math.exp(min(cert_log, _CLIP)), 0.0, 0,
        notes=("envelope-certified without a numeric scan",))


def _resolvent_verdicts(w: WeightSpec, alphas: Sequence[float]) -> list:
    """The cascade's resolvent rule: one verdict per distinct alpha, in the
    order of ``alphas``; None means no certificate applies.

    Holds comes from the weight's certified envelope plus exact closures of
    the finitely many rows below the envelope's validity (at most
    _BRIDGE_CAP of them); Fails comes from a certified divergence flag.
    The metadata hooks (``diverges_beta``, ``res_env``, ``log_tail``) run
    once per exponent; the closures run as one batched bridge per distinct
    envelope start and the divergence witnesses as one batch, so nothing
    here depends on a scan horizon.
    """
    out: list = [None] * len(alphas)
    diverging: list = []
    bridges: dict = {}  # envelope start -> [(slot, log_sup, tail), ...]
    for i, alpha in enumerate(alphas):
        if w.diverges_beta(alpha):
            diverging.append(i)
            continue
        env = w.res_env(alpha, 1)
        if env is None:
            continue
        v0 = int(env.valid_from)
        if v0 <= 1:
            out[i] = _envelope_holds(env.log_sup)
        elif v0 <= _BRIDGE_CAP:
            tail = w.log_tail(v0 + 1, alpha)
            if tail is not None and tail != float("inf"):
                bridges.setdefault(v0, []).append((i, env.log_sup, tail))
    log_qs = _witness_log_ratios(w, [alphas[i] for i in diverging])
    for i, log_q in zip(diverging, log_qs):
        witness = Witness(
            index=1, value=math.exp(min(log_q, _CLIP)),
            kind="diverging-inner-series",
            detail="partial sum of the divergent inner series through "
                   f"n = {_WITNESS_TOP}, measured against the first row")
        out[i] = Verdict.fails(
            witness, witness.value, _WITNESS_TOP,
            notes=("certified divergence of the inner series",))
    for v0, rows in bridges.items():
        slots, log_sups, tails = zip(*rows)
        closed = _bridge_log_sups(w, v0, [alphas[i] for i in slots], tails)
        for i, log_sup, c in zip(slots, log_sups, closed):
            out[i] = _envelope_holds(max(log_sup, c))
    return out


# ---------------------------------------------------------------------------
# the classification cascade


def _sigma0_classification(z: complex, alpha: Optional[float], m: int,
                           ctx: SpectralContext) -> SpectralClassification:
    if abs(z) <= ctx.eps:
        return SpectralClassification(
            z, None, LABEL_SPECTRUM, RULE_SIGMA0, 0.0,
            (("sigma0-membership",
              "0 is an accumulation point of the candidate set and always "
              "belongs to the spectrum"),))
    verdict = ctx.point_verdict(m)
    if verdict is not None and verdict.is_holds:
        return SpectralClassification(
            z, alpha, LABEL_POINT, RULE_POINT, 0.0,
            ((RULE_POINT, verdict),))
    evidence = [(RULE_SIGMA0,
                 f"1/{m} belongs to the candidate set, hence to the "
                 f"spectrum")]
    if verdict is not None:
        evidence.append((RULE_POINT, verdict))
    return SpectralClassification(
        z, alpha, LABEL_SPECTRUM, RULE_SIGMA0, 0.0, tuple(evidence))


def _resolvent_outcome(verdict: Optional[Verdict]) -> tuple:
    """(label, rule_id, sup_value, evidence) from a resolvent verdict."""
    if verdict is not None and verdict.is_holds:
        return (LABEL_RESOLVENT, RULE_RESOLVENT, verdict.certified_bound,
                ((RULE_RESOLVENT, verdict),))
    if verdict is not None and verdict.is_fails:
        sup_val = verdict.witness.value if verdict.witness else None
        return (LABEL_SPECTRUM, RULE_RESOLVENT, sup_val,
                ((RULE_RESOLVENT, verdict),))
    evidence = ((RULE_RESOLVENT, verdict),) if verdict is not None else ()
    return (LABEL_UNKNOWN, RULE_NONE, None, evidence)


def _classify_nodes(w: WeightSpec, re: np.ndarray, im: np.ndarray,
                    ctx: SpectralContext) -> list:
    """The certificate cascade over the points re + i*im, in input order.

    Rules, in order: candidate-set membership (with point-spectrum
    upgrade), the certified spectral disk, the compactness shortcut (a
    point claimed by both is a conflict), the resolvent criterion, Unknown.
    The first four are masks, applied to blocks of _NODE_BLOCK points so
    the array temporaries stay small.  The resolvent criterion depends on
    alpha = Re(1/lam) alone, so it runs once per distinct alpha over all
    points it receives, from envelope certificates.
    """
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise SpectralError("points to classify must be finite")
    s_mem = ctx.s1_member
    compact = ctx.compactness.verdict
    fixed = {
        _CONFLICT: (
            LABEL_UNKNOWN, RULE_CONFLICT, None,
            ((RULE_DISK, ctx.s1), (RULE_COMPACT, compact),
             (RULE_CONFLICT,
              "a compact operator admits no spectrum off the candidate "
              "set, yet the disk certificate claims this point; the "
              "context reports are inconsistent"))),
        _COMPACT: (LABEL_RESOLVENT, RULE_COMPACT, compact.certified_bound,
                   ((RULE_COMPACT, compact),)),
    }
    disk_ev = ((RULE_DISK, ctx.s1),)
    rows: list = [None] * re.size
    pending, pending_alpha = [], []  # the rows left to the resolvent rule
    for lo in range(0, re.size, _NODE_BLOCK):
        r = re[lo:lo + _NODE_BLOCK]
        i = im[lo:lo + _NODE_BLOCK]
        nonzero = (r != 0.0) | (i != 0.0)
        d2 = r * r + i * i
        if np.any(nonzero & (d2 == 0.0)):
            raise SpectralError(
                "the exponent Re(1/lam) is undefined at lam = 0")
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(nonzero, r / d2, np.nan)
        dist, nearest_m = nearest_limit_point(r, i)
        live = dist > ctx.eps
        disk_hit = (alpha >= s_mem if s_mem is not None
                    else np.zeros_like(live))
        # np.select takes the first condition that holds: the rule order
        rule = np.select(
            [~live, disk_hit & compact.is_holds, disk_hit, compact.is_holds],
            [_SIGMA0, _CONFLICT, _DISK, _COMPACT], _RESOLVENT)
        left = np.flatnonzero(rule == _RESOLVENT)
        pending.append(lo + left)
        pending_alpha.append(alpha[left])
        nodes = zip(r.tolist(), i.tolist(), alpha.tolist(), nonzero.tolist(),
                    rule.tolist())
        for k, (x, y, a, nz, code) in enumerate(nodes, start=lo):
            if code == _RESOLVENT:
                continue
            lam, a = complex(x, y), (a if nz else None)
            if code == _SIGMA0:
                rows[k] = _sigma0_classification(
                    lam, a, int(nearest_m[k - lo]), ctx)
            elif code == _DISK:
                rows[k] = SpectralClassification(
                    lam, a, LABEL_SPECTRUM, RULE_DISK, a, disk_ev)
            else:
                rows[k] = SpectralClassification(lam, a, *fixed[code])
    idx = np.concatenate(pending)
    if idx.size == 0:
        return rows
    alpha = np.concatenate(pending_alpha)
    distinct, group = np.unique(alpha, return_inverse=True)
    outcomes = [_resolvent_outcome(v)
                for v in _resolvent_verdicts(w, distinct.tolist())]
    for lo in range(0, idx.size, _NODE_BLOCK):
        k = idx[lo:lo + _NODE_BLOCK]
        for row, x, y, a, g in zip(k.tolist(), re[k].tolist(),
                                   im[k].tolist(),
                                   alpha[lo:lo + _NODE_BLOCK].tolist(),
                                   group[lo:lo + _NODE_BLOCK].tolist()):
            rows[row] = SpectralClassification(complex(x, y), a, *outcomes[g])
    return rows


def classify_point(w: WeightSpec, lam: complex,
                   context: Optional[SpectralContext] = None
                   ) -> SpectralClassification:
    """Label one complex point through the certificate cascade.

    Rules, in order: candidate-set membership (with point-spectrum
    upgrade), the certified spectral disk, the compactness shortcut, the
    resolvent criterion from envelope certificates, Unknown.  This is the
    one-point case of the cascade ``region_scan`` runs; the full-scan
    report at one point is ``resolvent_condition``.
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

    def node_arrays(self) -> tuple:
        """Real and imaginary parts of the nodes, row-major over im then re."""
        res = np.linspace(self.re0, self.re1, self.nx)
        ims = np.linspace(self.im0, self.im1, self.ny)
        return np.tile(res, self.ny), np.repeat(ims, self.nx)

    def nodes(self) -> list:
        re, im = self.node_arrays()
        return [complex(r, i) for r, i in zip(re.tolist(), im.tolist())]


def region_scan(w: WeightSpec, grid: GridSpec,
                context: Optional[SpectralContext] = None) -> list:
    """Classify every node of the grid, row-major over im then re.

    The whole grid goes through the cascade as arrays: one verdict per
    distinct alpha = Re(1/lam), and the eigenvalue points scanned on first
    use (only nodes within eps of the candidate set need them).  The output
    order is a pure function of the grid, never of evaluation order.
    Empty grids give empty output.
    """
    if grid.nx < 0 or grid.ny < 0:
        raise SpectralError("grid resolution must be non-negative")
    if grid.nx * grid.ny > MAX_GRID_POINTS:
        raise SpectralError(
            f"grid exceeds {MAX_GRID_POINTS} points")
    if grid.nx == 0 or grid.ny == 0:
        return []
    ctx = context if context is not None else build_context(w)
    re, im = grid.node_arrays()
    return _classify_nodes(w, re, im, ctx)


def scan_to_csv(classifications: Sequence[SpectralClassification]) -> str:
    """Render scan results as CSV with a fixed header and row order."""
    lines = ["re,im,alpha,label,rule_id,sup_value"]
    for c in classifications:
        alpha = "" if c.alpha is None else repr(c.alpha)
        sup = "" if c.sup_value is None else repr(c.sup_value)
        lines.append(f"{c.lam.real!r},{c.lam.imag!r},{alpha},"
                     f"{c.label},{c.rule_id},{sup}")
    return "\n".join(lines) + "\n"
