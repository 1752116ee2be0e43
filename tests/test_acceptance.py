"""Acceptance gate: the end-to-end guarantees this package ships with.

Each test pins one deliverable at the committed tolerance: certified norm
windows for the polynomial family, verdict tables for compactness and the
point spectrum, region-scan disks scored against their closed-form
geometry, the exact-algebra oracle suite in rational mode, averaging
quantities, ergodic fixtures, and a sweep of cross-module properties.
Tolerances and fixtures are frozen here; loosening them is a contract
change, not a test fix.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cesaro.cli import EXIT_OK, main
from cesaro.criteria import (
    compactness_criterion,
    continuity_criterion,
    s1_estimate,
    t0_estimate,
    uw_quantity,
)
from cesaro.ergodic import ergodic_identity_check, iterate_trace, \
    range_identity_check
from cesaro.sections import (
    QC,
    apply_power,
    cesaro_section,
    distance_to_limit_set,
    eigenvector,
    kernel_power_entry,
    resolvent_section,
    shifted_inverse_section,
)
from cesaro.spectral import (
    LABEL_RESOLVENT,
    LABEL_SPECTRUM,
    RULE_SIGMA0,
    GridSpec,
    build_context,
    classify_point,
    point_spectrum,
    region_scan,
)
from cesaro.weights import (
    build_compact_minorant,
    build_failing_minorant,
    catalog_weight,
)

FULL_HORIZON = 10 ** 6
RECT = (-0.2, 1.2, -0.7, 0.7)


# ---------------------------------------------------------------------------
# 1. certified norm windows for the polynomial family


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_polynomial_norm_window(alpha, tmp_path):
    out = tmp_path / "report.json"
    start = time.monotonic()
    code = main(["analyze", "-w", f"poly:alpha={alpha}", "--m-max", "5",
                 "--horizon", str(FULL_HORIZON), "--out", str(out)])
    elapsed = time.monotonic() - start
    assert code == EXIT_OK
    assert elapsed < 10.0
    verdict = json.loads(out.read_text())["results"]["continuity"]["verdict"]
    assert verdict["kind"] == "Holds"
    assert verdict["certified_bound"] <= 2.0 ** alpha / alpha + 1e-12
    assert verdict["empirical_sup"] >= 1.0 / alpha - 1e-6


# ---------------------------------------------------------------------------
# 2. continuity failure regressions


def test_continuity_failures(loggamma1, loggamma2, poly1):
    for w in (loggamma1, loggamma2):
        report = continuity_criterion(w, horizon=FULL_HORIZON)
        assert report.verdict.is_fails
    minorant = build_failing_minorant(poly1)
    report = continuity_criterion(minorant, horizon=FULL_HORIZON)
    assert report.verdict.is_fails
    assert report.verdict.witness is not None


# ---------------------------------------------------------------------------
# 3. the compactness verdict table


def test_compactness_table(poly05, poly1, poly2, geom05, superfact, spike,
                           block313, block413a2):
    holds = [geom05, superfact,
             catalog_weight("factorial", {"a": 1.0}),
             catalog_weight("expbeta", {"beta": 0.5}),
             catalog_weight("explog", {"gamma": 2.0}),
             build_compact_minorant(poly1),
             build_compact_minorant(spike)]
    fails = [poly05, poly1, poly2, catalog_weight("poly", {"alpha": 3.0}),
             spike, block313, block413a2]
    for w in holds:
        assert compactness_criterion(w, horizon=FULL_HORIZON).verdict.is_holds, w.id
    for w in fails:
        assert compactness_criterion(w, horizon=FULL_HORIZON).verdict.is_fails, w.id


# ---------------------------------------------------------------------------
# 4. certified spectral disks on a dense grid


@pytest.mark.parametrize("family,params,center", [
    ("poly", {"alpha": 2.0}, 0.25),
    ("spike", {}, 0.5),
])
def test_certified_disk_regions(family, params, center):
    w = catalog_weight(family, params)
    start = time.monotonic()
    context = build_context(w, horizon=FULL_HORIZON, m_max=20)
    grid = GridSpec(*RECT, 200, 200)
    rows = region_scan(w, grid, context)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert context.s1.point == pytest.approx(1.0 / (2 * center), rel=1e-9)
    radius = center
    scored = correct = 0
    for row in rows:
        lam = row.lam
        if abs(abs(lam - center) - radius) <= 0.01:
            continue
        if distance_to_limit_set(lam) <= 0.01:
            continue
        scored += 1
        expected = LABEL_SPECTRUM if abs(lam - center) < radius \
            else LABEL_RESOLVENT
        if row.label == expected:
            correct += 1
    assert scored > 0
    assert correct / scored >= 0.99


# ---------------------------------------------------------------------------
# 5. compact-case spectrum labels


def test_compact_case_spectrum(geom05, block313):
    grid = GridSpec(*RECT, 50, 50)
    ctx_g = build_context(geom05, horizon=FULL_HORIZON, m_max=20)
    ctx_b = build_context(block313, horizon=FULL_HORIZON, m_max=20)
    rows_g = region_scan(geom05, grid, ctx_g)
    rows_b = region_scan(block313, grid, ctx_b)
    assert len(rows_g) == len(rows_b) == 2500
    for rg, rb in zip(rows_g, rows_b):
        if rg.rule_id != RULE_SIGMA0:
            assert rg.label == LABEL_RESOLVENT
        assert rg.lam == rb.lam
        assert rg.label == rb.label
    assert ctx_g.compactness.verdict.is_holds
    assert ctx_b.compactness.verdict.is_fails


# ---------------------------------------------------------------------------
# 6. the point-spectrum table


@pytest.mark.parametrize("family,params,expected_holds", [
    ("poly", {"alpha": 1.0}, []),
    ("poly", {"alpha": 2.5}, [1, 2]),
    ("block413", {"alpha": 2.0}, [1]),
    ("superfact", {}, list(range(1, 21))),
])
def test_point_spectrum_table(family, params, expected_holds):
    w = catalog_weight(family, params)
    table = point_spectrum(w, m_max=20, horizon=FULL_HORIZON)
    t0 = t0_estimate(w)
    held = []
    for m, (lam, verdict) in enumerate(table, 1):
        assert lam == pytest.approx(1.0 / m, rel=1e-12)
        if verdict.is_holds:
            held.append(m)
        elif verdict.is_inconclusive:
            # undecided verdicts are tolerated only at the boundary order
            assert t0.kind == "bracket"
            assert t0.lo - 1e-3 <= m - 1 <= t0.hi + 1e-3
    assert held == expected_holds


# ---------------------------------------------------------------------------
# 7. the exact-algebra oracle suite


def test_exact_algebra_suite(geom05):
    start = time.monotonic()

    # closed-form kernel vs repeated application, all orders up to 6
    for m in range(1, 7):
        powers = {k: apply_power([Fraction(1 if i == k else 0)
                                  for i in range(1, 26)], m, 25)
                  for k in range(1, 26)}
        for n in range(1, 26):
            for k in range(1, n + 1):
                assert kernel_power_entry(n, k, m) == powers[k][n - 1]

    # resolvent identity, exactly zero in rational arithmetic
    N = 50
    ces = cesaro_section(N)
    for lam in (Fraction(2), Fraction(-1), QC(Fraction(1), Fraction(1))):
        lam_q = QC.from_number(lam)
        res = resolvent_section(lam, N, mode="rational")
        for n in range(1, N + 1):
            for k in range(1, n + 1):
                acc = QC(Fraction(0))
                for j in range(k, n + 1):
                    c_entry = QC.from_number(ces.rows[n - 1][j - 1]) \
                        - (lam_q if n == j else QC(Fraction(0)))
                    acc = acc + c_entry * QC.from_number(
                        res.rows[j - 1][k - 1])
                assert (acc - QC(Fraction(1 if n == k else 0))).is_zero

    # eigen identities
    for m in range(1, 11):
        vec = eigenvector(m, N)
        assert apply_power(vec, 1, N) == \
            tuple(Fraction(1, m) * v for v in vec)

    # rank-one range identity
    for r in range(1, 21):
        assert range_identity_check(r, 60) == 0.0

    # the shifted difference operator against its inverse
    A, B = shifted_inverse_section(N)
    for n in range(1, N + 1):
        for k in range(1, n + 1):
            ab = sum(A.rows[n - 1][j - 1] * B.rows[j - 1][k - 1]
                     for j in range(k, n + 1))
            assert ab == Fraction(1 if n == k else 0)

    # both averaging identities, exactly zero
    x = [Fraction(1), Fraction(-1, 2), Fraction(2)] + [Fraction(0)] * 37
    for n in (1, 2, 5, 8):
        res1, res2 = ergodic_identity_check(geom05, x, n, 40)
        assert res1 == 0.0 and res2 == 0.0

    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 8. averaging quantity values


def test_averaging_quantity_values(geom05, block313, block413a2, poly2):
    geom_report = uw_quantity(geom05, horizon=FULL_HORIZON)
    assert geom_report.verdict.is_holds
    assert abs(geom_report.verdict.certified_bound - 2.0) <= 1e-9

    block_report = uw_quantity(block313, horizon=FULL_HORIZON)
    assert block_report.verdict.is_holds
    assert block_report.verdict.certified_bound <= 2.0 + 1e-12

    growth_report = uw_quantity(block413a2, horizon=FULL_HORIZON)
    assert growth_report.verdict.is_fails
    witness = growth_report.verdict.witness
    assert witness is not None
    assert (witness.index - 1) & (witness.index - 2) == 0

    poly_report = uw_quantity(poly2, horizon=FULL_HORIZON)
    assert poly_report.verdict.is_holds
    assert poly_report.verdict.certified_bound <= 4.0 + 1e-12


# ---------------------------------------------------------------------------
# 9. ergodic convergence fixtures


def test_ergodic_convergence_fixtures(geom05, poly05):
    # committed fixtures: N = 400 with m* = 10 for the first basis vector
    # and m = 6 for the third
    e1 = [1.0] + [0.0] * 399
    trace1 = iterate_trace(geom05, e1, 10, 400, probe_id="e1")
    assert trace1.limit_scalar == 1.0
    assert trace1.records[-1][2] < 1e-3

    e3 = [0.0, 0.0, 1.0] + [0.0] * 397
    trace3 = iterate_trace(geom05, e3, 6, 400, probe_id="e3")
    assert trace3.records[-1][1] < 1e-3

    # committed fixture: M = 5 at five million coordinates captures the
    # doubling of iterate norms before truncation bites
    x = np.zeros(5_000_000)
    x[0] = 1.0
    trace = iterate_trace(poly05, x, 5, 5_000_000, probe_id="e1")
    ms = np.array([m for m, _, _ in trace.records], dtype=float)
    norms = np.array([norm for _, norm, _ in trace.records])
    half = len(ms) // 2
    slope = np.polyfit(ms[half:], np.log(norms[half:]), 1)[0]
    assert math.exp(slope) >= 1.9


# ---------------------------------------------------------------------------
# 10. the cross-module property sweep


def test_property_sweep(poly2, geom05, spike, poly05, block313, loggamma1):
    # certified tails dominate continued partial sums of w(n) n^(beta-1)
    for w, start in ((poly2, 11), (geom05, 5)):
        log_bound = w.log_tail(start, 0.0)
        ns = np.arange(start, 10 ** 5, dtype=np.int64)
        partial = float((np.exp(w.log_eval(ns)) / ns).sum())
        assert partial <= math.exp(log_bound + 1e-12)

    # p-series tails against the closed cap
    for delta, m in ((0.5, 10), (1.0, 10), (2.0, 2)):
        ns = np.arange(m, 10 ** 6, dtype=float)
        assert (ns ** -(1.0 + delta)).sum() <= 1.0 / (delta * (m - 1) ** delta)

    # dyadic block harmonic sums stay inside the committed band
    for i in range(1, 21):
        ns = np.arange(2 ** i + 1, 2 ** (i + 1) + 1, dtype=float)
        block = (1.0 / ns).sum()
        assert 0.55 <= block <= 1.0

    # refinement never flips a decided verdict
    for w in (poly2, loggamma1):
        kinds = [continuity_criterion(w, horizon=h).verdict.kind
                 for h in (10 ** 4, 10 ** 5, 10 ** 6)]
        decided = [k for k in kinds if k != "Inconclusive"]
        assert len(set(decided)) <= 1

    # classification is symmetric under conjugation
    context = build_context(poly2, horizon=10 ** 5, m_max=8)
    for lam in (0.6 + 0.3j, 0.25 + 0.2j, -0.3 + 0.5j):
        up = classify_point(poly2, lam, context)
        down = classify_point(poly2, lam.conjugate(), context)
        assert up.label == down.label

    # bracket consistency: the tail exponent never exceeds the boundary one
    for w in (poly2, poly05, spike):
        t0 = t0_estimate(w)
        s1 = s1_estimate(w)
        if t0.kind == "bracket" and s1.kind == "bracket":
            assert t0.lo <= s1.hi + 1e-9

    # a certified averaging quantity keeps continuity from failing
    for w in (geom05, block313, poly2):
        if uw_quantity(w, horizon=10 ** 5).verdict.is_holds:
            assert not continuity_criterion(w, horizon=10 ** 5).verdict.is_fails
