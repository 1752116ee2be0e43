"""Classify complex points against the averaging operator's spectrum.

A point is classified by a cascade of certificates, cheapest first:
membership in the closed candidate set {0} union {1/m}, the certified
spectral disk derived from the polynomial-minorant boundary, the
compactness shortcut (compact operators have no spectrum off the candidate
set), and finally the resolvent sup-criterion itself.  Every label is
backed by evidence from the criteria layer; when certificates disagree the
classification degrades to Unknown instead of picking a side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .weights import WeightSpec
from .criteria import (
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
from .sections import SIGMA_PROXIMITY_EPS, distance_to_limit_set

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
_FAST_BRIDGE_CAP = 1 << 16
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


def _nearest_candidate_m(lam: complex) -> int:
    """Positive integer m minimizing |lam - 1/m|."""
    z = complex(lam)
    candidates = {1, 2}
    if z.real > 1e-18:
        t = 1.0 / z.real
        if t < 1e18:
            base = int(t)
            candidates.update({max(1, base - 1), max(1, base),
                               base + 1, base + 2})
    return min(sorted(candidates), key=lambda m: abs(z - 1.0 / m))


# ---------------------------------------------------------------------------
# classification containers


@dataclass(frozen=True)
class SpectralClassification:
    """Label for one complex point, with the evidence that produced it."""

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
    """Shared read-only reports consumed by the classification cascade."""

    weight: WeightSpec
    continuity: CriterionReport
    compactness: CriterionReport
    s1: Bracket
    points: tuple  # ((m, Verdict), ...) for m = 1..m_max
    m_max: int
    horizon: int
    eps: float = SIGMA_PROXIMITY_EPS

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
    """Compute the shared reports once so grid scans stay cheap per node."""
    pts = tuple((m, verdict)
                for m, (_, verdict) in enumerate(point_spectrum(
                    w, m_max, horizon), start=1))
    continuity, compactness = continuity_and_compactness(w, horizon=horizon)
    return SpectralContext(
        weight=w,
        continuity=continuity,
        compactness=compactness,
        s1=s1_estimate(w),
        points=pts,
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


def _fast_divergence_witness(w: WeightSpec, alpha: float) -> Witness:
    ns = np.arange(2, 4097, dtype=np.int64)
    lt = (np.asarray(w.log_eval(ns), dtype=float)
          + (alpha - 1.0) * np.log(ns.astype(float)))
    top = float(np.max(lt))
    log_sum = top + math.log(float(np.sum(np.exp(lt - top))))
    log_q = log_sum - float(w.log_eval(1))
    return Witness(index=1, value=math.exp(min(log_q, _CLIP)),
                   kind="partial-sum-growth",
                   detail="partial sum of the divergent inner series "
                          "through n = 4096, measured against the first row")


def _fast_resolvent(w: WeightSpec, alpha: float) -> Optional[Verdict]:
    """Envelope-only verdict for grid scans; None means scan the hard way.

    Holds comes from the weight's certified envelope plus exact closures of
    the finitely many rows below the envelope's validity; Fails comes from
    a certified divergence flag.  Nothing here depends on a scan horizon,
    so a grid node costs microseconds.
    """
    if w.diverges_beta(alpha):
        witness = _fast_divergence_witness(w, alpha)
        return Verdict.fails(
            witness, witness.value, 4096,
            notes=("certified divergence of the inner series",))
    env = w.res_env(alpha, 1)
    if env is None:
        return None
    pieces = [env.log_sup]
    v0 = int(env.valid_from)
    if v0 > 1:
        if v0 > _FAST_BRIDGE_CAP:
            return None
        tail = w.log_tail(v0 + 1, alpha)
        if tail is None or tail == float("inf"):
            return None
        ns = np.arange(2, v0 + 1, dtype=np.int64)
        lt = (np.asarray(w.log_eval(ns), dtype=float)
              + (alpha - 1.0) * np.log(ns.astype(float)))
        rev = np.logaddexp.accumulate(lt[::-1])[::-1]
        ms = np.arange(1, v0, dtype=np.int64)
        den = (alpha * np.log(ms.astype(float))
               + np.asarray(w.log_eval(ms), dtype=float))
        # exact partial over n in [m+1, v0], then the certified tail beyond
        closed = np.logaddexp(rev[ms - 1], tail) - den
        pieces.append(float(np.max(closed)))
    cert_log = max(pieces)
    return Verdict.holds(
        math.exp(min(cert_log, _CLIP)), 0.0, 0,
        notes=("envelope-certified without a numeric scan",))


# ---------------------------------------------------------------------------
# the classification cascade


def _sigma0_classification(w: WeightSpec, z: complex, alpha: Optional[float],
                           ctx: SpectralContext) -> SpectralClassification:
    if abs(z) <= ctx.eps:
        return SpectralClassification(
            z, None, LABEL_SPECTRUM, RULE_SIGMA0, 0.0,
            (("sigma0-membership",
              "0 is an accumulation point of the candidate set and always "
              "belongs to the spectrum"),))
    m = _nearest_candidate_m(z)
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


def classify_point(w: WeightSpec, lam: complex,
                   context: Optional[SpectralContext] = None,
                   *, fast: bool = False,
                   horizon: Optional[int] = None) -> SpectralClassification:
    """Label one complex point through the certificate cascade.

    Rules, in order: candidate-set membership (with point-spectrum
    upgrade), the certified spectral disk, the compactness shortcut, the
    resolvent criterion, Unknown.  In fast mode the last rule uses only
    envelope certificates, which is what grid scans rely on.
    """
    ctx = context if context is not None else build_context(w)
    z = complex(lam)
    alpha = reciprocal_real_part(z) if abs(z) > 0.0 else None
    if distance_to_limit_set(z) <= ctx.eps:
        return _sigma0_classification(w, z, alpha, ctx)

    s_mem = ctx.s1_member
    disk_hit = s_mem is not None and alpha is not None and alpha >= s_mem
    compact_holds = ctx.compactness.verdict.is_holds
    if disk_hit and compact_holds:
        return SpectralClassification(
            z, alpha, LABEL_UNKNOWN, RULE_CONFLICT, None,
            ((RULE_DISK, ctx.s1), (RULE_COMPACT, ctx.compactness.verdict),
             (RULE_CONFLICT,
              "a compact operator admits no spectrum off the candidate "
              "set, yet the disk certificate claims this point; the "
              "context reports are inconsistent")))
    if disk_hit:
        return SpectralClassification(
            z, alpha, LABEL_SPECTRUM, RULE_DISK, alpha,
            ((RULE_DISK, ctx.s1),))
    if compact_holds:
        return SpectralClassification(
            z, alpha, LABEL_RESOLVENT, RULE_COMPACT,
            ctx.compactness.verdict.certified_bound,
            ((RULE_COMPACT, ctx.compactness.verdict),))

    if fast:
        verdict = _fast_resolvent(w, alpha)
    else:
        report = resolvent_condition(w, z, horizon or ctx.horizon,
                                     eps=ctx.eps)
        verdict = report.verdict
    if verdict is not None and verdict.is_holds:
        return SpectralClassification(
            z, alpha, LABEL_RESOLVENT, RULE_RESOLVENT,
            verdict.certified_bound, ((RULE_RESOLVENT, verdict),))
    if verdict is not None and verdict.is_fails:
        sup_val = verdict.witness.value if verdict.witness else None
        return SpectralClassification(
            z, alpha, LABEL_SPECTRUM, RULE_RESOLVENT, sup_val,
            ((RULE_RESOLVENT, verdict),))
    evidence = ((RULE_RESOLVENT, verdict),) if verdict is not None else ()
    return SpectralClassification(
        z, alpha, LABEL_UNKNOWN, RULE_NONE, None, evidence)


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

    def nodes(self) -> list:
        res = np.linspace(self.re0, self.re1, self.nx)
        ims = np.linspace(self.im0, self.im1, self.ny)
        return [complex(r, i) for i in ims for r in res]


def region_scan(w: WeightSpec, grid: GridSpec,
                context: Optional[SpectralContext] = None,
                *, fast: bool = True) -> list:
    """Classify every node of the grid, row-major over im then re.

    The output order is a pure function of the grid, never of evaluation
    order.  Empty grids give empty output.
    """
    if grid.nx < 0 or grid.ny < 0:
        raise SpectralError("grid resolution must be non-negative")
    if grid.nx * grid.ny > MAX_GRID_POINTS:
        raise SpectralError(
            f"grid exceeds {MAX_GRID_POINTS} points")
    if grid.nx == 0 or grid.ny == 0:
        return []
    ctx = context if context is not None else build_context(w)
    return [classify_point(w, z, ctx, fast=fast) for z in grid.nodes()]


def scan_to_csv(classifications: Sequence[SpectralClassification]) -> str:
    """Render scan results as CSV with a fixed header and row order."""
    lines = ["re,im,alpha,label,rule_id,sup_value"]
    for c in classifications:
        alpha = "" if c.alpha is None else repr(c.alpha)
        sup = "" if c.sup_value is None else repr(c.sup_value)
        lines.append(f"{c.lam.real!r},{c.lam.imag!r},{alpha},"
                     f"{c.label},{c.rule_id},{sup}")
    return "\n".join(lines) + "\n"
