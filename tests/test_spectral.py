"""Tests for the spectral classifier.

The oracles come from independently evaluated closed forms: p-series tail
bounds for the resolvent criterion, hand-computed disk memberships, and the
point-spectrum tables recomputed through the membership bracket on each
weight.  Scan-level invariants (conjugate symmetry, determinism, proximity
snapping) are exercised on small grids.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import hashlib
import math
import sys
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cesaro import criteria, sections, spectral
from cesaro.criteria import compactness_criterion, s1_estimate
from cesaro.weights import WeightSpec, custom_weight, parse_weight
from cesaro.spectral import (
    LABEL_POINT,
    LABEL_RESOLVENT,
    LABEL_SPECTRUM,
    LABEL_UNKNOWN,
    MAX_GRID_POINTS,
    RULE_COMPACT,
    RULE_CONFLICT,
    RULE_DISK,
    RULE_NONE,
    RULE_POINT,
    RULE_RESOLVENT,
    RULE_SIGMA0,
    GridScan,
    GridSpec,
    SpectralError,
    build_context,
    classify_point,
    point_spectrum,
    region_scan,
    resolvent_condition,
    scan_to_csv,
)

HORIZON = 10 ** 5


def grid_nodes(grid):
    """The grid's nodes in the documented order: row-major over im, then
    re, each axis evenly spaced from its first bound to its last."""
    res = np.linspace(grid.re0, grid.re1, grid.nx).tolist()
    ims = np.linspace(grid.im0, grid.im1, grid.ny).tolist()
    return [complex(x, y) for y in ims for x in res]


def alpha_of(lam):
    """Re(1/lam) as the cascade computes it; NaN at lam = 0."""
    z = complex(lam)
    return float(spectral._alphas(np.array([z.real]), np.array([z.imag]))[0])


@pytest.fixture(scope="module")
def ctx_poly2(poly2):
    return build_context(poly2, horizon=HORIZON, m_max=8)


@pytest.fixture(scope="module")
def ctx_geom(geom05):
    return build_context(geom05, horizon=HORIZON, m_max=8)


@pytest.fixture(scope="module")
def ctx_spike(spike):
    return build_context(spike, horizon=HORIZON, m_max=8)


@pytest.fixture(scope="module")
def ctx_block313(block313):
    return build_context(block313, horizon=HORIZON, m_max=8)


# ---------------------------------------------------------------------------
# the resolvent criterion


def test_resolvent_condition_poly_converging(poly2):
    report = resolvent_condition(poly2, 0.9, horizon=HORIZON)
    assert report.verdict.is_holds
    beta = (1.0 / 0.9)
    assert report.verdict.certified_bound <= 2.0 ** (2 - beta) / (2 - beta)


def test_resolvent_condition_poly_diverging(poly2):
    # Re(1/(0.2+0.1i)) = 4 > 2, so the inner series already diverges at m=1
    report = resolvent_condition(poly2, 0.2 + 0.1j, horizon=HORIZON)
    assert report.verdict.is_fails
    assert report.verdict.witness is not None
    assert report.verdict.witness.kind == "diverging-inner-series"


def test_resolvent_condition_block_left_halfplane(block313):
    report = resolvent_condition(block313, -1.0, horizon=HORIZON)
    assert report.verdict.is_holds


def test_resolvent_condition_rejects_excluded_points(poly2):
    for lam in (0.5, 0.0, 1.0, 1.0 / 7 + 5e-10):
        with pytest.raises(SpectralError):
            resolvent_condition(poly2, lam, horizon=HORIZON)
    # a wider exclusion radius rejects more
    with pytest.raises(SpectralError):
        resolvent_condition(poly2, 0.5 + 1e-4j, horizon=HORIZON, eps=1e-3)


# ---------------------------------------------------------------------------
# the classification cascade


def test_classify_reciprocal_is_point_spectrum(poly2, ctx_poly2):
    c = classify_point(poly2, 1.0, ctx_poly2)
    assert c.label == LABEL_POINT
    assert c.rule_id == RULE_POINT
    assert c.alpha == pytest.approx(1.0)
    assert len(c.evidence) > 0
    assert c.evidence[0][1].is_holds


def test_classify_reciprocal_outside_point_set(poly2, ctx_poly2):
    c = classify_point(poly2, 1.0 / 3, ctx_poly2)
    assert c.label == LABEL_SPECTRUM
    assert c.rule_id == RULE_SIGMA0


def test_classify_origin(poly2, ctx_poly2):
    c = classify_point(poly2, 0.0, ctx_poly2)
    assert c.label == LABEL_SPECTRUM
    assert c.rule_id == RULE_SIGMA0
    assert c.alpha is None


def test_classify_snaps_to_nearby_excluded_point(poly2, ctx_poly2):
    for lam in (1.0 / 3 + 1e-12, 1e-11 + 0j):
        c = classify_point(poly2, lam, ctx_poly2)
        assert c.label == LABEL_SPECTRUM
        assert c.rule_id == RULE_SIGMA0


def test_classify_inside_certified_disk(poly2, ctx_poly2):
    # |0.25 + 0.2i - 1/4| = 0.2 <= 1/4, the disk at center 1/(2 s1)
    c = classify_point(poly2, 0.25 + 0.2j, ctx_poly2)
    assert c.label == LABEL_SPECTRUM
    assert c.rule_id == RULE_DISK


def test_classify_compact_weight_resolvent(geom05, ctx_geom):
    c = classify_point(geom05, 0.4, ctx_geom)
    assert c.label == LABEL_RESOLVENT
    assert c.rule_id == RULE_COMPACT


def test_classify_disk_boundary_point(spike, ctx_spike):
    c = classify_point(spike, 0.5 + 0.5j, ctx_spike)
    assert c.label == LABEL_SPECTRUM
    assert c.rule_id == RULE_DISK


def test_classify_by_resolvent_criterion(poly2, ctx_poly2):
    c = classify_point(poly2, 0.6 + 0.3j, ctx_poly2)
    assert c.label == LABEL_RESOLVENT
    assert c.rule_id == RULE_RESOLVENT
    assert c.sup_value is not None and c.sup_value > 0


def test_classify_conflicting_certificates(geom05, ctx_geom, ctx_poly2):
    # splice a resolved boundary bracket into a compact weight's context:
    # two sound rules then disagree and the point must surface the conflict
    forced = dataclasses.replace(ctx_geom, s1=ctx_poly2.s1)
    c = classify_point(geom05, 0.3 + 0.1j, forced)
    assert c.label == LABEL_UNKNOWN
    assert c.rule_id == RULE_CONFLICT
    rules = [rule for rule, _ in c.evidence]
    assert RULE_DISK in rules and RULE_COMPACT in rules


def test_context_of_another_weight_is_rejected(poly2, geom05, ctx_geom):
    # geom's context would label this point by compactness, where poly's
    # own context certifies it in the spectrum
    with pytest.raises(SpectralError, match="context was built for"):
        classify_point(poly2, 0.3 + 0.1j, ctx_geom)
    with pytest.raises(SpectralError, match="context was built for"):
        region_scan(poly2, GridSpec(0.2, 0.8, -0.1, 0.1, 3, 3), ctx_geom)
    assert classify_point(geom05, 0.3 + 0.1j, ctx_geom).rule_id == RULE_COMPACT


def test_unbounded_operator_gets_no_label(monkeypatch):
    # continuity Fails for loggamma:gamma=1.5 while s1's bracket starts at
    # 0: the disk would claim nearly the whole right half-plane
    w = parse_weight("loggamma:gamma=1.5")
    ctx = build_context(w, horizon=10 ** 4)
    assert ctx.continuity.verdict.is_fails and ctx.s1.point is not None
    handed = []
    original = spectral._resolvent_verdicts

    def counted(w, alphas):
        handed.extend(alphas)
        return original(w, alphas)

    monkeypatch.setattr(spectral, "_resolvent_verdicts", counted)
    grid = GridSpec(-0.2, 1.2, -0.7, 0.7, 20, 20)
    scan = region_scan(w, grid, ctx)
    assert handed == []
    assert scan.rule_counts() == {RULE_NONE: 400}
    assert scan.label_counts() == {LABEL_UNKNOWN: 400}
    assert "points" not in vars(ctx)  # no eigenvalue scan for 1/m nodes
    for row in (scan[0], classify_point(w, 0.5, ctx),
                classify_point(w, 0, ctx)):
        assert row.sup_value is None
        assert row.evidence == (("continuity", ctx.continuity.verdict),)
    assert {line.rsplit(",", 1)[1]
            for line in scan_to_csv(scan).splitlines()[1:]} == {""}


@pytest.mark.parametrize("lam", [0.6 + 0.3j, -0.4 + 0.25j, 0.25 + 0.2j,
                                 0.9 + 0.55j])
def test_classification_conjugate_symmetry(poly2, ctx_poly2, lam):
    upper = classify_point(poly2, lam, ctx_poly2)
    lower = classify_point(poly2, lam.conjugate(), ctx_poly2)
    assert upper.label == lower.label
    assert upper.rule_id == lower.rule_id
    if upper.alpha is not None:
        assert upper.alpha == pytest.approx(lower.alpha, rel=1e-12)


# ---------------------------------------------------------------------------
# point spectrum tables


def test_point_spectrum_harmonic_weight_empty(poly1):
    table = point_spectrum(poly1, m_max=6, horizon=HORIZON)
    assert [lam for lam, v in table if v.is_holds] == []
    assert all(v.is_fails for _, v in table)


def test_point_spectrum_poly_two_and_a_half(poly25):
    table = point_spectrum(poly25, m_max=6, horizon=HORIZON)
    held = [lam for lam, v in table if v.is_holds]
    assert held == [1.0, 0.5]
    assert all(v.is_fails for lam, v in table if lam < 0.5)


def test_point_spectrum_block413_only_one(block413a2):
    table = point_spectrum(block413a2, m_max=6, horizon=HORIZON)
    held = [lam for lam, v in table if v.is_holds]
    assert held == [1.0]


def test_point_spectrum_superfact_full(superfact):
    table = point_spectrum(superfact, m_max=20, horizon=HORIZON)
    assert len(table) == 20
    assert all(v.is_holds for _, v in table)
    assert table[0][0] == 1.0 and table[19][0] == pytest.approx(1 / 20)


def test_point_spectrum_explog_claims_no_fails():
    # explog is rapidly decreasing, so every 1/m is an eigenvalue; without a
    # certified moment tail the verdicts may stay open, but none is Fails
    table = point_spectrum(parse_weight("explog:gamma=2"), 20, 10 ** 4)
    assert not any(v.is_fails for _, v in table)


def test_point_spectrum_block313_full(block313):
    table = point_spectrum(block313, m_max=6, horizon=HORIZON)
    assert all(v.is_holds for _, v in table)


def test_point_spectrum_monotone_in_m(poly1, poly2, poly25, geom05, spike,
                                      block313, block413a2, superfact):
    # membership is inherited downward: once a verdict departs from Holds,
    # no later m may come back to Holds
    for w in (poly1, poly2, poly25, geom05, spike, block313, block413a2,
              superfact):
        kinds = [v.kind for _, v in point_spectrum(w, m_max=8,
                                                   horizon=HORIZON)]
        seen_non_holds = False
        for kind in kinds:
            if kind != "Holds":
                seen_non_holds = True
            else:
                assert not seen_non_holds, (w.id, kinds)


# ---------------------------------------------------------------------------
# region scans


def test_region_scan_empty_grid(geom05, ctx_geom):
    assert region_scan(geom05, GridSpec(0, 1, 0, 1, 0, 3), ctx_geom) == []


def test_region_scan_single_origin_node(geom05, ctx_geom):
    rows = region_scan(geom05, GridSpec(0.0, 0.0, 0.0, 0.0, 1, 1), ctx_geom)
    assert len(rows) == 1
    assert rows[0].label == LABEL_SPECTRUM
    assert rows[0].rule_id == RULE_SIGMA0
    assert rows[0].alpha is None


def test_region_scan_is_deterministic(poly2, ctx_poly2):
    grid = GridSpec(-0.2, 1.2, -0.7, 0.7, 9, 7)
    first = region_scan(poly2, grid, ctx_poly2)
    second = region_scan(poly2, grid, ctx_poly2)
    assert scan_to_csv(first) == scan_to_csv(second)


def test_region_scan_compact_weight_all_resolvent(geom05, ctx_geom):
    grid = GridSpec(-0.2, 1.2, -0.7, 0.7, 20, 20)
    rows = region_scan(geom05, grid, ctx_geom)
    assert len(rows) == 400
    for row in rows:
        if row.rule_id == RULE_SIGMA0:
            continue
        assert row.label == LABEL_RESOLVENT


def test_region_scan_block313_matches_compact_labels(geom05, block313,
                                                     ctx_geom, ctx_block313):
    # same classifications as a compact weight on the same nodes, even
    # though the compactness verdicts differ
    assert compactness_criterion(geom05, horizon=HORIZON).verdict.is_holds
    assert compactness_criterion(block313, horizon=HORIZON).verdict.is_fails
    grid = GridSpec(-0.2, 1.2, -0.7, 0.7, 20, 20)
    rows_g = region_scan(geom05, grid, ctx_geom)
    rows_b = region_scan(block313, grid, ctx_block313)
    for rg, rb in zip(rows_g, rows_b):
        assert rg.lam == rb.lam
        assert rg.label == rb.label


def test_region_scan_conjugate_symmetric_grid(poly2, ctx_poly2):
    grid = GridSpec(-0.2, 1.2, -0.6, 0.6, 8, 7)
    rows = region_scan(poly2, grid, ctx_poly2)
    by_node = {(round(r.lam.real, 12), round(r.lam.imag, 12)): r.label
               for r in rows}
    for (re, im), label in by_node.items():
        assert by_node[(re, -im)] == label


def test_region_scan_rejects_oversized_grid(geom05, ctx_geom):
    side = int(math.isqrt(int(MAX_GRID_POINTS))) + 2
    with pytest.raises(SpectralError):
        region_scan(geom05, GridSpec(0, 1, 0, 1, side, side), ctx_geom)


def test_scan_to_csv_format(poly2, ctx_poly2):
    rows = region_scan(poly2, GridSpec(0.3, 0.7, 0.2, 0.4, 2, 2), ctx_poly2)
    text = scan_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "re,im,alpha,label,rule_id,sup_value"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.3)
    assert float(first[1]) == pytest.approx(0.2)
    assert first[3] in {LABEL_POINT, LABEL_SPECTRUM, LABEL_RESOLVENT,
                        LABEL_UNKNOWN}


# ---------------------------------------------------------------------------
# consistency with the criteria layer


def test_boundary_bracket_positive_when_continuous(poly05, poly2, spike,
                                                   block413a2):
    # a certified continuity bound forces the boundary parameter away from 0
    for w in (poly05, poly2, spike, block413a2):
        bracket = s1_estimate(w, horizon=HORIZON)
        if bracket.kind == "bracket":
            assert bracket.lo > 0


def test_labels_are_exhaustive_and_evidence_backed(poly2, ctx_poly2):
    grid = GridSpec(-0.2, 1.2, -0.7, 0.7, 6, 6)
    for row in region_scan(poly2, grid, ctx_poly2):
        assert row.label in {LABEL_POINT, LABEL_SPECTRUM, LABEL_RESOLVENT,
                             LABEL_UNKNOWN}
        if row.label != LABEL_UNKNOWN:
            assert len(row.evidence) > 0
        if row.label == LABEL_POINT:
            assert min(abs(row.lam - 1.0 / m) for m in range(1, 40)) < 1e-9


# ---------------------------------------------------------------------------
# the array cascade: pinned bytes and work counts

#: a small grid holding 0, 1/4, 1/2, 1 and an im = 0 row
PINNED_GRID = GridSpec(0.0, 1.0, -0.5, 0.5, 41, 21)
#: sha256 of scan_to_csv(region_scan(...)) with build_context(w,
#: horizon=10**4), recorded with the per-node cascade the array cascade
#: replaced; the block313 grid near 0 has envelope starts up to 2^15 + 1,
#: so its batched bridges run in several row blocks
PINNED_SCANS = [
    ("poly:alpha=2", PINNED_GRID,
     "a7b5991ba82e651ec3f7b170a60e0d908e46328c7ddcb73a6fb4157341b58d32"),
    ("spike", PINNED_GRID,
     "00b43e66701d43fb3fad92543306aff9d1724864862ce64b0358a7d73ea055c3"),
    # continuity Fails, so every node is unclassified and Unknown
    ("loggamma:gamma=2", PINNED_GRID,
     "6ace766f4b546ec8cfac84df4d3710fb730d59c0146e3af585233f67ab6b3287"),
    ("block413:alpha=2", PINNED_GRID,
     "f6d09cb2ce1bad16aa2e3f47dd994700e9791fb9be09fb84163e936e2a9ec81d"),
    ("block313", PINNED_GRID,
     "ecb6b19cbd3231d8d73be1be472116ea2451a239efe18e1f582b09f716f8c85c"),
    ("block313", GridSpec(5e-5, 3e-4, -2e-4, 2e-4, 11, 9),
     "87417c20c9dac821af826178cf93137e5ad866dc4585130733b7db5d714bd492"),
    ("geom:r=0.5,beta=0.3", PINNED_GRID,
     "2eeee52ada32896205f4a46dbf6e43ed22c6b8ff18d8b9e2483d378e96a7d948"),
]

DEFAULT_GRID = GridSpec(-0.2, 1.2, -0.7, 0.7, 200, 200)


@pytest.mark.parametrize("spec,grid,digest", PINNED_SCANS)
def test_region_scan_pinned_bytes(spec, grid, digest):
    w = parse_weight(spec)
    ctx = build_context(w, horizon=10 ** 4)
    rows = region_scan(w, grid, ctx)
    assert hashlib.sha256(scan_to_csv(rows).encode()).hexdigest() == digest
    # the one-point call runs the same cascade
    assert rows == [classify_point(w, z, ctx) for z in grid_nodes(grid)]


def test_full_resolvent_rule_once_per_distinct_alpha(monkeypatch, poly2,
                                                      ctx_poly2):
    full_scans, handed = [], []
    original = spectral._resolvent_verdicts

    def counted(w, alphas):
        handed.extend(alphas)
        return original(w, alphas)

    monkeypatch.setattr(spectral, "resolvent_condition",
                        lambda *args, **kwargs: full_scans.append(args))
    monkeypatch.setattr(spectral, "_resolvent_verdicts", counted)
    grid = GridSpec(0.3, 0.9, -0.3, 0.3, 4, 5)
    rows = region_scan(poly2, grid, ctx_poly2)
    alphas = {r.alpha for r in rows if r.rule_id in (RULE_RESOLVENT,
                                                     RULE_NONE)}
    assert full_scans == []
    assert alphas and sorted(handed) == sorted(alphas)
    assert rows == [classify_point(poly2, z, ctx_poly2)
                    for z in grid_nodes(grid)]


def test_heuristic_growth_is_not_a_spectrum_certificate():
    # the inner series of w = n^-2 at alpha = 4.7 diverges, but a custom
    # weight declares no divergence flag: only heuristic partial-sum growth
    # is seen, and the cascade labels no certificate from it
    n2 = custom_weight("n2", lambda n: -2 * np.log(n))
    c = classify_point(n2, 0.2 + 0.05j, build_context(n2, horizon=10 ** 5))
    assert c.label == LABEL_UNKNOWN
    assert c.rule_id == RULE_NONE


def test_resolvent_fails_names_the_certified_route(block413a2):
    # 1 < alpha < s1's member end: inside the divergence range of the inner
    # series and outside the certified disk, so the resolvent rule decides
    ctx = build_context(block413a2, horizon=10 ** 4)
    grid = GridSpec(1 / 1.0008, 1 / 1.0003, 0.0, 0.0, 5, 1)
    for row in region_scan(block413a2, grid, ctx):
        assert (row.label, row.rule_id) == (LABEL_SPECTRUM, RULE_RESOLVENT)
        (_, verdict), = row.evidence
        assert verdict.is_fails
        assert verdict.witness.kind == "diverging-inner-series"


REFERENCE_FAMILIES = ["poly:alpha=2", "loggamma:gamma=1",
                      "geom:r=0.3,beta=1", "superfact", "factorial:a=2.5",
                      "expbeta:beta=0.5", "explog:gamma=2", "spike",
                      "block313", "block413:alpha=2"]


def test_cascade_agrees_with_full_scan_reference():
    """resolvent_condition, the one-point full-scan report, is the
    reference: where it certifies, the cascade's label agrees, and every
    resolvent-rule bound dominates the exact partial sums of the scan.
    Without continuity Holds there is no bounded operator, and every
    label is Unknown."""
    horizon = 10 ** 4
    grid = GridSpec(-0.2, 1.2, -0.7, 0.7, 9, 9)
    decided = {"Holds": 0, "Fails": 0}
    unbounded = []
    for spec in REFERENCE_FAMILIES:
        w = parse_weight(spec)
        ctx = build_context(w, horizon=horizon)
        rows = region_scan(w, grid, ctx)
        if not ctx.continuity.verdict.is_holds:
            assert rows.label_counts() == {LABEL_UNKNOWN: len(rows)}, spec
            unbounded.append(spec)
            continue
        reference = {}
        for row in rows:
            if row.rule_id in (RULE_SIGMA0, RULE_POINT):
                continue
            if row.alpha not in reference:
                reference[row.alpha] = resolvent_condition(
                    w, row.lam, horizon).verdict
            verdict = reference[row.alpha]
            if verdict.is_holds:
                decided["Holds"] += 1
                assert row.label == LABEL_RESOLVENT, (spec, row)
            elif (verdict.is_fails
                  and verdict.witness.kind == "diverging-inner-series"):
                decided["Fails"] += 1
                assert row.label == LABEL_SPECTRUM, (spec, row)
            if row.rule_id == RULE_RESOLVENT and row.label == LABEL_RESOLVENT:
                (data,), _ = criteria._scan_sup_quantities(
                    w, [spectral._resolvent_profile(w, row.alpha)], (),
                    horizon)
                assert row.sup_value >= math.exp(np.max(data.partial_log)), (
                    spec, row)
    assert min(decided.values()) > 0, decided
    assert unbounded == ["loggamma:gamma=1"]


@pytest.mark.parametrize("kwargs", [{"eps": -1.0}, {"eps": float("nan")},
                                    {"eps": float("inf")}, {"m_max": 0}])
def test_build_context_rejects_bad_arguments(poly2, ctx_poly2, kwargs):
    with pytest.raises(SpectralError):
        build_context(poly2, horizon=10 ** 4, **kwargs)
    with pytest.raises(SpectralError):
        dataclasses.replace(ctx_poly2, **kwargs)


@pytest.fixture
def spectral_work(monkeypatch):
    """Counts log_eval calls, point_spectrum calls and scalar
    distance_to_limit_set calls, wherever the cascade binds them."""
    counts = {"log_eval": 0, "point_spectrum": 0, "distance": 0}
    log_eval = WeightSpec.log_eval
    point_spectrum_fn = spectral.point_spectrum
    distance = sections.distance_to_limit_set

    def counted_log_eval(self, n):
        counts["log_eval"] += 1
        return log_eval(self, n)

    def counted_point_spectrum(*args, **kwargs):
        counts["point_spectrum"] += 1
        return point_spectrum_fn(*args, **kwargs)

    def counted_distance(lam):
        counts["distance"] += 1
        return distance(lam)

    monkeypatch.setattr(WeightSpec, "log_eval", counted_log_eval)
    monkeypatch.setattr(spectral, "point_spectrum", counted_point_spectrum)
    monkeypatch.setattr(sections, "distance_to_limit_set", counted_distance)
    monkeypatch.setattr(spectral, "distance_to_limit_set", counted_distance)
    return counts


def test_region_scan_work_counts(spectral_work, block413a2):
    ctx = build_context(block413a2, horizon=10 ** 4)
    spectral_work.update(log_eval=0, distance=0)
    rows = region_scan(block413a2, DEFAULT_GRID, ctx)
    assert len(rows) == 40000
    assert sum(r.rule_id == RULE_RESOLVENT for r in rows) > 10000
    # one bridge and one witness batch, not a bridge per node
    assert spectral_work["log_eval"] <= 16
    assert spectral_work["distance"] == 0


def test_points_scanned_on_first_use(spectral_work, poly2):
    ctx = build_context(poly2, horizon=10 ** 4)
    region_scan(poly2, DEFAULT_GRID, ctx)
    # no default-grid node lies within eps of a 1/m
    assert spectral_work["point_spectrum"] == 0
    rows = region_scan(poly2, PINNED_GRID, ctx)
    assert any(r.lam == 0.5 for r in rows)
    assert spectral_work["point_spectrum"] == 1
    region_scan(poly2, PINNED_GRID, ctx)
    assert spectral_work["point_spectrum"] == 1


# ---------------------------------------------------------------------------
# the columnar scan: rows on demand, one CSV renderer


def reference_csv(rows) -> str:
    """The per-row rendering the columnar scan_to_csv must reproduce."""
    lines = ["re,im,alpha,label,rule_id,sup_value"]
    for c in rows:
        alpha = "" if c.alpha is None else repr(c.alpha)
        sup = "" if c.sup_value is None else repr(c.sup_value)
        lines.append(f"{c.lam.real!r},{c.lam.imag!r},{alpha},"
                     f"{c.label},{c.rule_id},{sup}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def reference_context(spec):
    w = parse_weight(spec)
    return w, build_context(w, horizon=10 ** 4)


#: axis ends that put nodes on 0, next to it, and on 1/m
ANCHORS = [0.0, 1e-12, 0.25, 0.5, 1.0, 1.0 / 3]


@st.composite
def small_grids(draw):
    nx, ny = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        # [0, 1] or [1/3, 1/2]-like spans with a symmetric im range: nodes
        # on 0 and 1/m, an im = 0 row when ny is odd
        re0, re1 = sorted(draw(st.lists(st.sampled_from(ANCHORS),
                                        min_size=2, max_size=2)))
        h = draw(st.sampled_from([0.0, 0.25, 0.5, 0.7]))
        return GridSpec(re0, re1, -h, h, nx, ny)
    coords = st.floats(-0.3, 1.3, allow_nan=False)
    re0, re1 = sorted(draw(st.lists(coords, min_size=2, max_size=2)))
    im0, im1 = sorted(draw(st.lists(coords, min_size=2, max_size=2)))
    return GridSpec(re0, re1, im0 - 0.5, im1 - 0.5, nx, ny)


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(REFERENCE_FAMILIES), grid=small_grids())
@example(spec="superfact", grid=GridSpec(0.0, 1.0, -0.5, 0.5, 5, 3))
@example(spec="poly:alpha=2", grid=GridSpec(0.0, 1.0, -0.2, 0.2, 5, 3))
@example(spec="poly:alpha=2",
         grid=GridSpec(-1.1125369292536007e-308, 0.0, -0.5, 0.5, 1, 3))
def test_scan_to_csv_matches_per_row_rendering(spec, grid):
    w, ctx = reference_context(spec)
    rows = [classify_point(w, z, ctx) for z in grid_nodes(grid)]
    assert scan_to_csv(region_scan(w, grid, ctx)) == reference_csv(rows)


def correctly_rounded(q: Fraction) -> float:
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


@settings(max_examples=200, deadline=None)
@given(re=st.floats(-1e-154, 1e-154), im=st.floats(-1e-154, 1e-154))
@example(re=-1.1125369292536007e-308, im=0.0)
@example(re=5e-324, im=0.0)
@example(re=-5e-324, im=5e-324)
@example(re=0.0, im=-5e-324)
@example(re=1e-160, im=1e-170)
def test_reciprocal_real_part_below_normal_squares(re, im):
    # |lam|^2 loses bits or underflows here; Re(lam)/|lam|^2 is four
    # roundings from the exact value, so within 4 ulp of its correctly
    # rounded float, and +-inf only at the edge of the float range
    assume((re != 0.0 or im != 0.0) and re * re + im * im < sys.float_info.min)
    x, y = Fraction(re), Fraction(im)
    exact = x / (x * x + y * y)
    got, want = alpha_of(complex(re, im)), correctly_rounded(exact)
    if math.isinf(got) or math.isinf(want):
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert abs(exact) >= Fraction(sys.float_info.max) * (
            1 - Fraction(1, 2 ** 50))
    else:
        assert abs(got - want) <= 4 * math.ulp(want)


def test_resolvent_condition_rejects_infinite_exponent(poly2):
    assert alpha_of(5e-324) == math.inf
    with pytest.raises(SpectralError, match="not finite"):
        resolvent_condition(poly2, 5e-324, eps=0.0)
    # at lam = 0 the exponent is undefined, and 0 is in the candidate set
    assert math.isnan(alpha_of(0j))
    with pytest.raises(SpectralError, match="excluded candidate set"):
        resolvent_condition(poly2, 0j, eps=0.0)


@pytest.mark.parametrize("spec", REFERENCE_FAMILIES)
def test_subnormal_grid_scan_is_quiet(spec):
    # with eps = 0 every nonzero node of the grid is off the candidate set,
    # and off the imaginary axis its alpha is +-inf, which the resolvent
    # hooks must not see
    w, ctx = reference_context(spec)
    ctx = dataclasses.replace(ctx, eps=0.0)
    grid = GridSpec(-5e-324, 5e-324, -5e-324, 5e-324, 3, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = region_scan(w, grid, ctx)
        text = scan_to_csv(scan)
        rows = [classify_point(w, z, ctx) for z in grid_nodes(grid)]
    assert text == reference_csv(rows)
    for z, row in zip(grid_nodes(grid), scan):
        if z == 0:
            assert row.rule_id == (RULE_SIGMA0 if ctx.continuity.verdict
                                   .is_holds else RULE_NONE)
            continue
        assert row.alpha == alpha_of(z)
        assert math.isinf(row.alpha) or z.real == 0.0
        if math.isinf(row.alpha):
            assert row.rule_id != RULE_RESOLVENT


def test_scan_to_csv_keeps_signed_zeros(poly2, ctx_poly2):
    # 0.0 and -0.0 are equal but print differently, so strings are shared
    # by bit pattern, not by value
    scan = spectral._classify_nodes(poly2, np.array([-0.0, 0.0]),
                                    np.array([0.5, -0.0]), ctx_poly2)
    text = scan_to_csv(scan)
    assert text == reference_csv(list(scan))
    assert [line.split(",")[:3] for line in text.splitlines()[1:]] == [
        ["-0.0", "0.5", "-0.0"], ["0.0", "0.5", "0.0"],
        ["-0.0", "-0.0", ""], ["0.0", "-0.0", ""]]


def test_grid_scan_sequence_contract(poly2, ctx_poly2):
    # the sequence a caller counting rules and labels row by row reads
    empty = region_scan(poly2, GridSpec(0, 1, 0, 1, 4, 0), ctx_poly2)
    assert len(empty) == 0 and empty == [] and [] == empty
    assert list(empty) == [] and scan_to_csv(empty) == reference_csv([])
    grid = GridSpec(0.0, 1.0, -0.2, 0.2, 5, 3)  # 0, 1/4, 1/2, 1, disk
    scan = region_scan(poly2, grid, ctx_poly2)
    rows = [classify_point(poly2, z, ctx_poly2) for z in grid_nodes(grid)]
    assert isinstance(scan, GridScan)
    assert isinstance(scan, collections.abc.Sequence)
    assert len(scan) == len(rows) == 15
    assert scan == rows and rows == scan and list(scan) == rows
    assert scan[0] == rows[0] and scan[-1] == rows[-1]
    assert scan[3:9] == rows[3:9]
    assert scan != rows[:-1] and scan != rows[::-1]
    with pytest.raises(IndexError):
        scan[15]
    assert {r.rule_id for r in scan} == {RULE_SIGMA0, RULE_POINT, RULE_DISK,
                                         RULE_RESOLVENT}
    for row in scan:
        assert row.rule_id in spectral.RULES
        assert row.label in spectral.LABELS
    assert scan.rule_counts() == Counter(r.rule_id for r in rows)
    assert scan.label_counts() == Counter(r.label for r in rows)


def test_scan_and_csv_build_no_rows_or_verdicts(monkeypatch, block413a2):
    ctx = build_context(block413a2, horizon=10 ** 4)
    built = Counter()
    for cls in (spectral.SpectralClassification, criteria.Verdict,
                criteria.Witness):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__,
                    **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    scan = region_scan(block413a2, DEFAULT_GRID, ctx)
    text = scan_to_csv(scan)
    assert built == Counter()
    assert len(text.splitlines()) == 40001
    # reading a row builds it and its verdict, with the evidence the
    # per-node cascade gave
    k = int(np.flatnonzero(
        scan.rule == spectral.RULES.index(RULE_RESOLVENT))[0])
    row = scan[k]
    assert built == Counter(SpectralClassification=1, Verdict=1)
    assert (row.label, row.rule_id) == (LABEL_RESOLVENT, RULE_RESOLVENT)
    assert row.evidence == ((RULE_RESOLVENT, criteria.Verdict.holds(
        row.sup_value, 0.0, 0,
        notes=("envelope-certified without a numeric scan",))),)
    assert row.sup_value == math.exp(min(
        float(scan.table.log[scan.group[k]]), spectral._CLIP))

