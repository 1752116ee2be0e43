"""Certified criteria: verdict oracles, brackets, soundness properties."""

import json
import math
import pathlib
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from cesaro import criteria
from cesaro.cli import main
from cesaro.spectral import build_context, point_spectrum
from cesaro.weights import (SupEnvelope, WeightSpec, _log_pseries_tail,
                            build_compact_minorant, catalog_weight,
                            custom_weight, load_weight_table, parse_weight)
from cesaro.criteria import (
    compactness_criterion,
    continuity_and_compactness,
    continuity_criterion,
    ratio_limsup_test,
    rw_memberships,
    s1_estimate,
    scan_reports,
    t0_estimate,
    uw_quantity,
)

HORIZONS = (10 ** 4, 10 ** 5, 10 ** 6)


def sw1_verdict(w, s, horizon=criteria.DEFAULT_HORIZON):
    """The verdict of one s1 probe at exponent s, as s1_estimate runs it."""
    return criteria._sw1_verdict(w, s, horizon,
                                 *criteria._sw1_scan(w, horizon))


def empirical_continuity(w, n, horizon=10 ** 6):
    """Independent recomputation of the sup quantity at one index."""
    ns = np.arange(n, horizon + 1, dtype=np.int64)
    inner = float(np.sum(np.exp(w.log_eval(ns)) / ns.astype(float)))
    return inner / math.exp(w.log_eval(n))


def empirical_uw(w, m, horizon=10 ** 6):
    ns = np.arange(m + 1, horizon + 1, dtype=np.int64)
    inner = float(np.sum(np.exp(w.log_eval(ns))))
    return inner / (m * math.exp(w.log_eval(m + 1)))


# ---------------------------------------------------------------------------
# continuity


def test_continuity_poly2(poly2):
    report = continuity_criterion(poly2)
    v = report.verdict
    assert v.is_holds
    assert 0.5 <= v.certified_bound <= 2.0
    assert v.empirical_sup <= v.certified_bound
    assert v.empirical_sup >= 0.5 - 1e-9


def test_continuity_loggamma1_diverges(loggamma1):
    report = continuity_criterion(loggamma1)
    v = report.verdict
    assert v.is_fails
    assert v.witness is not None
    assert v.witness.kind == "diverging-inner-series"


def test_continuity_loggamma2_growth(loggamma2):
    report = continuity_criterion(loggamma2)
    v = report.verdict
    assert v.is_fails
    assert v.witness is not None
    # quantity at index n certifiably exceeds ln(n+1)/(gamma-1)
    idx = v.witness.index
    assert v.witness.value >= math.log(idx + 1.0) / 1.0 - 1e-9


def test_continuity_spike(spike):
    report = continuity_criterion(spike)
    v = report.verdict
    assert v.is_holds
    assert v.certified_bound <= math.pi ** 2 / 6.0 + 3.0


def test_continuity_samples_recomputable(poly2):
    """Samples equal the partial sum plus the certified remainder: they are
    sandwiched between a bare partial recomputation and partial + tail."""
    horizon = 10 ** 5
    report = continuity_criterion(poly2, horizon=horizon)
    closure = math.exp(poly2.log_tail(horizon + 1, 0.0) + 1e-12)
    for n, value in report.samples[:12]:
        partial = empirical_continuity(poly2, n, horizon)
        ceiling = partial + closure / math.exp(poly2.log_eval(n))
        assert partial * (1.0 - 1e-12) <= value <= ceiling * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# compactness


def test_compactness_poly2_fails(poly2):
    report = compactness_criterion(poly2)
    v = report.verdict
    assert v.is_fails
    assert v.witness is not None
    # the quantity stays above 1/alpha = 0.5
    assert v.witness.value >= 0.5 - 1e-9


def test_compactness_block313_fails(block313):
    report = compactness_criterion(block313)
    assert report.verdict.is_fails


def test_compactness_expbeta_holds():
    w = catalog_weight("expbeta", {"beta": 0.5})
    report = compactness_criterion(w)
    assert report.verdict.is_holds


def test_compactness_growth_without_metadata_is_inconclusive():
    # an increasing custom weight declares no metadata: its partial sums
    # grow, but growth up to the horizon certifies nothing
    w = custom_weight("n^2", lambda n: 2.0 * math.log(n))
    v = compactness_criterion(w, horizon=10 ** 4).verdict
    assert v.is_inconclusive
    assert v.witness is None
    assert v.notes == ("samples are partial sums up to the horizon",
                       "no certificate in either direction at this horizon")


# ---------------------------------------------------------------------------
# ratio tests


def test_ratio_geom_holds():
    w = catalog_weight("geom", {"r": 0.5, "beta": 3.0})
    report = ratio_limsup_test(w)
    assert report.verdict.is_holds
    assert report.verdict.certified_bound < 1.0
    # the limit ratio is r = 0.5; the scan-top estimate sits right on it
    assert report.verdict.empirical_sup == pytest.approx(0.5, abs=1e-4)


def test_ratio_alternating_holds():
    """Ratios alternate 1/4, 1/2; the certified limsup bound is 1/2."""
    w = custom_weight(
        "alternating", lambda n: -(n + n // 2) * math.log(2.0),
        ratio_bound=(1, 0.5))
    ratios = [math.exp(w.log_eval(n + 1) - w.log_eval(n))
              for n in range(1, 40)]
    assert max(ratios) == pytest.approx(0.5)
    assert sorted(set(round(r, 12) for r in ratios)) == [0.25, 0.5]
    report = ratio_limsup_test(w)
    assert report.verdict.is_holds
    assert report.verdict.certified_bound == pytest.approx(0.5)


def test_ratio_expbeta_inconclusive():
    w = catalog_weight("expbeta", {"beta": 0.5})
    report = ratio_limsup_test(w)
    assert report.verdict.is_inconclusive


# ---------------------------------------------------------------------------
# averaged-tail quantity


def test_uw_geom_exact(geom05):
    report = uw_quantity(geom05)
    v = report.verdict
    assert v.is_holds
    assert abs(v.certified_bound - 2.0) <= 1e-9
    assert v.empirical_sup == pytest.approx(2.0, abs=1e-9)
    # u_m = 2/m exactly: spot-check the formula behind the certificate
    assert empirical_uw(geom05, 1, 2000) == pytest.approx(2.0, abs=1e-12)
    assert empirical_uw(geom05, 4, 2000) == pytest.approx(0.5, abs=1e-12)


def test_uw_block313_bounded(block313):
    report = uw_quantity(block313)
    assert report.verdict.is_holds
    assert report.verdict.certified_bound <= 2.0 + 1e-12


def test_uw_block413_fails(block413a2):
    report = uw_quantity(block413a2)
    v = report.verdict
    assert v.is_fails
    assert v.witness is not None
    # witness sits at a block start m = 2^i + 1 (far out: analytic route)
    m = v.witness.index
    assert m >= 3 and (m - 1) & (m - 2) == 0
    assert v.witness.kind == "analytic-lower-bound"
    # independent derivation of the certified lower envelope: keep only the
    # cross-block mass, bound the block sum by its integral, and divide by
    # the denominator at the block start:
    #   u_m >= i (i/(i+1))^(alpha-1) 2^i / ((alpha-1)(2^i+1)),  m = 2^i + 1
    env = block413a2.uw_lower
    alpha = 2.0
    for i in range(3, 41):
        expected = (i * (i / (i + 1.0)) ** (alpha - 1.0) * 2.0 ** i
                    / ((alpha - 1.0) * (2.0 ** i + 1.0)))
        assert math.exp(env.log_value_at(i)) == pytest.approx(expected,
                                                              rel=1e-12)
    assert env.diverging
    # finite enumeration undershoots the certified value only through its
    # truncated cross-block tail; at small i it lands within a factor two
    for i in range(3, 9):
        certified = math.exp(env.log_value_at(i))
        assert empirical_uw(block413a2, 2 ** i + 1) >= certified * 0.5


def test_uw_poly2_bound(poly2):
    report = uw_quantity(poly2)
    assert report.verdict.is_holds
    assert report.verdict.certified_bound <= 4.0 + 1e-12


# ---------------------------------------------------------------------------
# exponent sets and brackets


def test_rw_membership_poly2(poly2):
    assert rw_memberships(poly2, [0.5])[0].is_holds
    assert rw_memberships(poly2, [1.0])[0].is_fails
    assert rw_memberships(poly2, [-3.0])[0].is_holds


def test_rw_membership_block413(block413a2):
    assert rw_memberships(block413a2, [1.0])[0].is_fails
    assert rw_memberships(block413a2, [-0.5])[0].is_holds


def test_t0_poly2(poly2):
    b = t0_estimate(poly2)
    assert b.kind == "bracket"
    assert b.lo <= 1.0 <= b.hi
    assert b.hi - b.lo <= 2e-3


@pytest.mark.parametrize("spec", ["geom:r=0.5,beta=1", "superfact",
                                  "factorial:a=2.5", "expbeta:beta=0.5",
                                  "explog:gamma=2", "block313"])
def test_t0_rapidly_decreasing_is_infinite(spec):
    b = t0_estimate(parse_weight(spec))
    assert b.kind == "infinite"


def test_t0_without_a_certified_non_member_leaves_hi_open():
    # w = n^-2: sum n^t w(n) is finite exactly for t < 1, but without a tail
    # or divergence hook only t < -1 is certified (by the weight's sup)
    w = custom_weight("n^-2", lambda n: -2.0 * math.log(n), decreasing_from=1,
                      log_sup_bound=0.0)
    b = t0_estimate(w)
    assert (b.kind, b.lo, b.hi, b.member_side) == ("bracket", -1.5, None, "lo")
    assert b.point == -1.5
    assert "only the member endpoint is certified" in b.notes[-1]


def test_nan_sup_bound_is_not_certified():
    # the t < -1 closure multiplies the declared weight sup into its bound;
    # a NaN sup must be refused, not reported as a NaN certified bound
    w = custom_weight("n^-2", lambda n: -2.0 * math.log(n),
                      log_sup_bound=float("nan"))
    v = rw_memberships(w, [-2.0])[0]
    assert not v.is_holds
    assert v.notes[-1] == ("scan contradicts the declared weight sup; "
                           "refusing to certify")


def test_table_certifies_no_sup_past_its_last_row(tmp_path):
    # w(n) = n^2 on 1..100: the table's maximum bounds w only up to its
    # last row, and sum n^-2 n^2 diverges
    path = tmp_path / "square.txt"
    path.write_text("".join(f"{n} {2.0 * math.log(n)!r}\n"
                            for n in range(1, 101)))
    w = load_weight_table(str(path))
    assert rw_memberships(w, [-2.0], horizon=99)[0].is_inconclusive
    assert t0_estimate(w, horizon=99).kind == "inconclusive"


@pytest.mark.parametrize("valid_from,bridge_cap,note", [
    (5000, None, "sup envelope starts beyond the scan horizon; raise the "
                 "horizon to certify"),
    (500, 10, "sup envelope starts too late to certify the prefix "
              "index-by-index"),
    (5, None, "no certified tail closure; indices below the envelope start "
              "cannot be certified"),
])
def test_sup_envelope_refusals(monkeypatch, valid_from, bridge_cap, note):
    """An envelope that cannot cover the whole index range certifies
    nothing, and the verdict says which part it could not cover."""
    if bridge_cap is not None:
        monkeypatch.setattr(criteria, "_BRIDGE_CAP", bridge_cap)
    w = custom_weight("n^-2", _log_n2,
                      cont_upper=SupEnvelope(valid_from, 0.0, False))
    v = continuity_criterion(w, horizon=1000).verdict
    assert v.is_inconclusive
    assert v.notes[0] == note


def test_sw1_rapid_decay_forces_divergence():
    w = build_compact_minorant(parse_weight("poly:alpha=2"))
    v = sw1_verdict(w, 1.0, horizon=1000)
    assert v.is_fails
    assert (v.witness.kind, v.witness.index) == ("sup-exceeds", 11)
    assert v.notes == ("certified rapid decay forces divergence",)


def test_witness_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown witness kind"):
        criteria.Witness(1, 2.0, "partial-sum-growth")


def test_t0_loggamma2(loggamma2):
    b = t0_estimate(loggamma2)
    assert b.kind == "bracket"
    assert b.lo <= -1.0 <= b.hi + 1e-9


def test_sw1_poly2(poly2):
    assert sw1_verdict(poly2, 2.5).is_holds
    assert sw1_verdict(poly2, 1.5).is_fails
    b = s1_estimate(poly2)
    assert b.kind == "bracket"
    assert b.member_side == "hi"
    assert b.lo <= 2.0 <= b.hi
    assert b.point == pytest.approx(2.0, abs=2e-3)


def test_s1_spike(spike):
    b = s1_estimate(spike)
    assert b.kind == "bracket"
    assert b.lo <= 1.0 <= b.hi
    assert b.point == pytest.approx(1.0, abs=2e-3)


def test_s1_block413_open(block413a2):
    b = s1_estimate(block413a2)
    assert b.kind == "bracket"
    assert b.lo <= 1.0 + 1e-9
    assert b.hi >= 1.0 - 2e-3
    # membership is open at the boundary: s = 1 itself is not certified
    assert not sw1_verdict(block413a2, 1.0).is_holds


def test_s1_superfact_empty(superfact):
    b = s1_estimate(superfact)
    assert b.kind == "empty"
    assert b.point is None


# ---------------------------------------------------------------------------
# numeric lemmas frozen as regressions


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("m", [2, 10, 100])
def test_pseries_tail_lemma(delta, m):
    """Partial sums of sum_{n>=m} n^(-1-delta) stay below 1/(delta (m-1)^delta)."""
    ns = np.arange(m, 10 ** 7, dtype=np.float64)
    partial = float(np.sum(ns ** (-1.0 - delta)))
    assert partial <= 1.0 / (delta * (m - 1) ** delta)


def test_dyadic_block_harmonic_sums():
    """Own-block harmonic sums sit inside [0.55, 1] for the first 20 blocks."""
    for i in range(1, 21):
        js = np.arange(2 ** i + 1, 2 ** (i + 1) + 1, dtype=np.float64)
        s = float(np.sum(1.0 / js))
        assert 0.55 <= s <= 1.0


# ---------------------------------------------------------------------------
# cross-criterion invariants


RANK = {"Holds": 1, "Fails": -1, "Inconclusive": 0}


@pytest.mark.parametrize("family,params", [
    ("poly", {"alpha": 2.0}), ("geom", {"r": 0.5, "beta": 0.0}),
    ("spike", {}), ("block313", {}), ("block413", {"alpha": 2.0}),
    ("loggamma", {"gamma": 2.0}), ("superfact", {}),
])
def test_refinement_never_flips(family, params):
    w = catalog_weight(family, params)
    for crit in (continuity_criterion, compactness_criterion, uw_quantity):
        kinds = [crit(w, horizon=h).verdict.kind for h in HORIZONS]
        decided = [k for k in kinds if k != "Inconclusive"]
        assert len(set(decided)) <= 1, (family, crit.__name__, kinds)


@pytest.mark.parametrize("family,params", [
    ("poly", {"alpha": 2.0}), ("geom", {"r": 0.5, "beta": 0.0}),
    ("spike", {}), ("block313", {}),
])
def test_certified_dominates_empirical(family, params):
    w = catalog_weight(family, params)
    for crit in (continuity_criterion, uw_quantity, ratio_limsup_test):
        for h in HORIZONS:
            v = crit(w, horizon=h).verdict
            if v.is_holds:
                assert v.empirical_sup <= v.certified_bound * (1.0 + 1e-12)


@pytest.mark.parametrize("family,params", [
    ("poly", {"alpha": 2.0}), ("poly", {"alpha": 2.5}),
    ("spike", {}), ("block413", {"alpha": 2.0}),
])
def test_t0_below_s1(family, params):
    w = catalog_weight(family, params)
    t0 = t0_estimate(w)
    s1 = s1_estimate(w)
    if t0.kind == "bracket" and s1.kind == "bracket":
        assert t0.lo <= s1.hi + 1e-9


@pytest.mark.parametrize("family,params", [
    ("poly", {"alpha": 2.0}), ("geom", {"r": 0.5, "beta": 0.0}),
    ("spike", {}), ("block313", {}), ("superfact", {}),
    ("factorial", {"a": 1.0}), ("expbeta", {"beta": 0.5}),
    ("explog", {"gamma": 2.0}),
])
def test_uw_finite_implies_continuity(family, params):
    w = catalog_weight(family, params)
    if uw_quantity(w).verdict.is_holds:
        assert not continuity_criterion(w).verdict.is_fails


def test_suffix_log_sums_matches_direct(poly2):
    targets = np.array([1, 5, 50, 500], dtype=np.int64)

    def log_term(ns):
        return poly2.log_eval(ns) - np.log(ns.astype(float))

    got = criteria._power_log_sums(poly2, [(0.0, targets)], 10 ** 4)[0]
    for t, g in zip(targets, got):
        ns = np.arange(t, 10 ** 4 + 1, dtype=np.int64)
        direct = float(np.sum(np.exp(log_term(ns))))
        assert math.exp(g) == pytest.approx(direct, rel=1e-12)


def test_witness_reproducibility(loggamma1, block413a2):
    v1 = continuity_criterion(loggamma1).verdict
    assert v1.witness.index >= 1
    # diverging inner series: partial sums outgrow any fixed multiple
    w = loggamma1
    ns = np.arange(v1.witness.index, 10 ** 6, dtype=np.int64)
    partial = float(np.sum(np.exp(w.log_eval(ns)) / ns.astype(float)))
    assert partial / math.exp(w.log_eval(v1.witness.index)) >= 1.0

    v2 = compactness_criterion(block413a2).verdict
    assert v2.is_fails and v2.witness is not None
    # liminf witness: the quantity at the witness index meets the bound
    idx = v2.witness.index
    if idx <= 10 ** 5:
        assert empirical_continuity(block413a2, idx) >= \
            v2.witness.value * (1.0 - 1e-9)


# ---------------------------------------------------------------------------
# the streamed scan kernel


def _fsum_log(log_terms):
    top = float(np.max(log_terms))
    return top + math.log(math.fsum(np.exp(log_terms - top).tolist()))


def test_suffix_log_sums_oracle_block313(block313):
    # a running log-domain accumulation drifts by ~1e-7 over this range
    horizon = 10 ** 6
    targets = np.array([1, 2, 1000, 65536, 806529, 999999], dtype=np.int64)
    got = criteria._power_log_sums(block313, [(1.0, targets)], horizon)[0]
    lt = np.asarray(block313.log_eval(
        np.arange(1, horizon + 1, dtype=np.int64)), dtype=float)
    for t, g in zip(targets, got):
        assert abs(g - _fsum_log(lt[t - 1:])) <= 1e-8, int(t)


def test_rw_memberships_match_one_at_a_time(spike, poly2):
    horizon = 10 ** 5
    for w in (spike, poly2):
        ts = [-3.0, -0.5, 0.0, 0.5, 1.0, 2.0]
        batch = rw_memberships(w, ts, horizon)
        assert batch == [rw_memberships(w, [t], horizon)[0] for t in ts]
        ns = np.arange(1, horizon + 1, dtype=np.int64)
        for t, v in zip(ts, batch):
            lt = w.log_eval(ns) + t * np.log(ns.astype(float))
            assert math.log(v.empirical_sup) == pytest.approx(
                _fsum_log(lt), abs=1e-12)


#: one weight per catalog family, at the catalog's default parameters
DEFAULT_WEIGHTS = ("poly:alpha=2", "loggamma:gamma=2", "geom:r=0.5",
                   "superfact", "factorial:a=1", "expbeta:beta=0.5",
                   "explog:gamma=2", "spike", "block313", "block413:alpha=2")


def test_certified_kinds_agree_across_horizons():
    """A certified verdict is a fact about the weight, not about the scan:
    continuity, compactness, uw and 20 moment rows may go Inconclusive at
    one horizon, but never flip between Holds and Fails."""
    certified = 0
    for spec in DEFAULT_WEIGHTS:
        w = parse_weight(spec)
        kinds = []
        for horizon in (10 ** 3, 10 ** 4, 10 ** 5):
            *reports, rows = scan_reports(w, horizon, range(20))
            kinds.append([r.verdict.kind for r in reports]
                         + [v.kind for v in rows])
        for index, row in enumerate(zip(*kinds)):
            decided = set(row) - {"Inconclusive"}
            assert len(decided) <= 1, (spec, index, row)
            certified += bool(decided)
    # 188 of the 230 rows are certified at one horizon or more
    assert certified >= 188


@pytest.mark.parametrize("horizon", [10 ** 5, 2 ** 19 + 1])
def test_continuity_and_compactness_match_separate(poly2, block313, geom05,
                                                   workers, horizon):
    """One fused scan equals the reports scanned one at a time, also where
    the uw row (targets from 2) gets a last chunk of its own."""
    ts = [-3.0, 0.0, 0.5, 1.0, 2.0, 19.0]
    for w in (poly2, block313, geom05):
        cont, comp = continuity_and_compactness(w, horizon=horizon)
        assert cont == continuity_criterion(w, horizon=horizon)
        assert comp == compactness_criterion(w, horizon=horizon)
        assert scan_reports(w, horizon, ts) == (
            cont, comp, uw_quantity(w, horizon),
            rw_memberships(w, ts, horizon))


@pytest.fixture
def log_eval_terms(monkeypatch):
    """Counts the weight terms evaluated through WeightSpec.log_eval."""
    counted = [0]
    original = WeightSpec.log_eval

    def log_eval(self, n):
        counted[0] += n.size if isinstance(n, np.ndarray) else 1
        return original(self, n)

    monkeypatch.setattr(WeightSpec, "log_eval", log_eval)
    return counted


@pytest.fixture
def continuity_scans(monkeypatch):
    """Counts the scans of the continuity quantity."""
    counted = [0]
    original = criteria._scan_sup_quantities

    def scan(w, profiles, betas, horizon):
        counted[0] += sum(p.name == "continuity" for p in profiles)
        return original(w, profiles, betas, horizon)

    monkeypatch.setattr(criteria, "_scan_sup_quantities", scan)
    return counted


@pytest.mark.parametrize("spec", [("poly", {"alpha": 2.0}), ("spike", {}),
                                  ("block413", {"alpha": 2.0}),
                                  ("factorial", {"a": 2.0})])
def test_point_spectrum_one_pass_over_the_weight(log_eval_terms, spec):
    horizon = 10 ** 5
    point_spectrum(catalog_weight(*spec), m_max=20, horizon=horizon)
    assert log_eval_terms[0] <= 1.1 * horizon


ESTIMATE_SPECS = [("poly", {"alpha": 2.0}), ("spike", {}),
                  ("block413", {"alpha": 2.0})]


def test_t0_estimate_probes_the_ladder_in_one_pass(log_eval_terms):
    """The ladder pass and every bisection midpoint of t0 read one
    evaluation of the weight over 1..ESTIMATE_HORIZON."""
    for spec in ESTIMATE_SPECS:
        log_eval_terms[0] = 0
        b = t0_estimate(catalog_weight(*spec))
        assert b.kind == "bracket" and b.tol <= criteria.BISECTION_TOL, spec
        assert log_eval_terms[0] <= 1.1 * criteria.ESTIMATE_HORIZON, spec


def test_s1_estimate_evaluates_the_scan_once(log_eval_terms):
    """Every s1 probe reads one evaluation of the weight at the scan
    indices of ESTIMATE_HORIZON."""
    scan_terms = len(criteria.scan_indices(criteria.ESTIMATE_HORIZON))
    for spec in ESTIMATE_SPECS:
        log_eval_terms[0] = 0
        b = s1_estimate(catalog_weight(*spec))
        assert b.kind == "bracket" and b.tol <= criteria.BISECTION_TOL, spec
        assert log_eval_terms[0] <= 1.1 * scan_terms, spec


def _assert_probed_one_at_a_time(b, member, ladder, side):
    """``b`` is the Bracket of the ladder walk and bisection with every
    exponent probed on its own through ``member``."""
    assert b == criteria._boundary(member, ladder, side)


ONE_AT_A_TIME_SPECS = [("poly", {"alpha": 2.0}), ("loggamma", {"gamma": 2.0}),
                       ("spike", {}), ("block413", {"alpha": 2.0}),
                       ("superfact", {})]


@pytest.mark.parametrize("spec", ONE_AT_A_TIME_SPECS)
def test_t0_estimate_matches_probing_one_at_a_time(spec):
    w = catalog_weight(*spec)
    ceiling = criteria.PROBE_CEILING

    def member(t):
        return rw_memberships(w, [t], criteria.ESTIMATE_HORIZON)[0]

    b = t0_estimate(w)
    if w.rapidly_decreasing:
        assert b.kind == "infinite"
        assert (f"verified membership at the probe ceiling {ceiling}"
                in b.notes) == member(ceiling).is_holds
        return
    ladder = tuple(x for x in criteria._T_LADDER if x < ceiling) + (ceiling,)
    _assert_probed_one_at_a_time(b, member, ladder, "lo")


@pytest.mark.parametrize("spec", ONE_AT_A_TIME_SPECS)
def test_s1_estimate_matches_probing_one_at_a_time(spec):
    w = catalog_weight(*spec)
    ceiling = criteria.PROBE_CEILING

    def member(s):
        return sw1_verdict(w, s, criteria.ESTIMATE_HORIZON)

    b = s1_estimate(w)
    if w.rapidly_decreasing:
        assert b.kind == "empty"
        assert ("probe at the ceiling did not contradict the metadata"
                in b.notes) == (not member(ceiling).is_fails)
        return
    ladder = tuple(x for x in criteria._S_LADDER if x <= ceiling)
    _assert_probed_one_at_a_time(b, member, ladder, "hi")


def _log_n2(n):
    return -2.0 * math.log(n)


def _n2_tail_below(limit):
    """A tail hook for w = n^-2 that answers only for beta < limit."""
    return lambda m, beta: ((m, _log_pseries_tail(m, 2.0 - beta))
                            if beta < limit else None)


_STOPPED = "membership undecided inside the bracket; stopped tightening early"
_NO_MEMBER = "no certified member found on the probe ladder"


def _bracket_json(kind, lo=None, hi=None, side=None, tol=None, notes=()):
    return {"kind": kind, "lo": lo, "hi": hi, "member_side": side,
            "tol": tol, "notes": list(notes)}


#: (estimator, weight, Bracket JSON at horizon 1000) for the packaging
#: branches the catalog never reaches; recorded before the boundary search
#: had one home
BOUNDARY_CASES = {
    "band": ("t0", lambda: custom_weight(
        "band", _log_n2, tail_hook=_n2_tail_below(1.5),
        diverges_beta_hook=lambda beta: True if beta >= 2.0 else None),
        _bracket_json("bracket", 0.375, 1.0, "lo", 0.625, [_STOPPED])),
    "incons": ("t0", lambda: custom_weight(
        "incons", _log_n2,
        tail_hook=lambda m, beta: (m, 0.0) if beta >= 2.0 else None,
        diverges_beta_hook=lambda beta: True if beta < 1.0 else None),
        _bracket_json("inconclusive", notes=[
            "membership verdicts are inconsistent across the ladder; "
            "metadata conflict", _NO_MEMBER])),
    "bare-t0": ("t0", lambda: custom_weight("bare", _log_n2),
                _bracket_json("inconclusive", notes=[_NO_MEMBER])),
    "bare-s1": ("s1", lambda: custom_weight("bare", _log_n2),
                _bracket_json("inconclusive", notes=[_NO_MEMBER])),
    "geo": ("t0", lambda: custom_weight(
        "geo", lambda n: -float(n), ratio_bound=(1, math.exp(-1.0))),
        _bracket_json("infinite", 64.0, None, "lo", notes=[
            "membership holds at every probe up to 64.0"])),
    "flat": ("s1", lambda: custom_weight(
        "flat", lambda n: 0.0, minorant_log_c_hook=lambda s: 0.0),
        _bracket_json("bracket", None, 0.0, "hi", notes=[
            "no certified non-member found below; only the member endpoint "
            "is certified"])),
    "half": ("t0", lambda: custom_weight(
        "half", _log_n2, tail_hook=_n2_tail_below(1.0)),
        _bracket_json("bracket", -0.5, None, "lo", notes=[
            "no certified non-member found above; only the member endpoint "
            "is certified"])),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_boundary_packaging_is_pinned(case):
    """Each way a ladder walk and bisection can end packs into the same
    Bracket: an Inconclusive midpoint, an inconsistent ladder, no member,
    membership up to the ceiling and a member with no non-member."""
    estimator, make, expected = BOUNDARY_CASES[case]
    estimate = t0_estimate if estimator == "t0" else s1_estimate
    assert estimate(make(), horizon=1000).to_json_dict() == expected


@pytest.mark.parametrize("spec", [("poly", {"alpha": 2.0}),
                                  ("block413", {"alpha": 2.0})])
def test_t0_estimate_over_several_chunks(monkeypatch, log_eval_terms, spec):
    """Above one chunk each pass evaluates every chunk again, holding one at
    a time, and the bracket is still that of probing one at a time."""
    monkeypatch.setattr(criteria, "_CHUNK", 1000)
    w = catalog_weight(*spec)
    horizon = 3500
    b = t0_estimate(w, horizon=horizon)
    assert b.kind == "bracket"
    assert log_eval_terms[0] > 2 * horizon
    ladder = tuple(x for x in criteria._T_LADDER
                   if x < criteria.PROBE_CEILING) + (criteria.PROBE_CEILING,)
    _assert_probed_one_at_a_time(
        b, lambda t: rw_memberships(w, [t], horizon)[0], ladder, "lo")


@pytest.mark.parametrize("estimate", [t0_estimate, s1_estimate])
def test_estimates_need_a_horizon_of_two(estimate, poly2):
    with pytest.raises(ValueError, match="horizon must be >= 2"):
        estimate(poly2, horizon=1)


def test_callers_scan_continuity_once(continuity_scans, monkeypatch, capsys,
                                     poly2):
    horizon = 10 ** 4
    assert main(["analyze", "-w", "poly:alpha=2", "--m-max", "3",
                 "--horizon", str(horizon)]) == 0
    capsys.readouterr()
    assert continuity_scans[0] == 1
    build_context(poly2, horizon=horizon, m_max=3)
    assert continuity_scans[0] == 2

    # analyze streams its continuity, uw and m_max moment rows in one pass;
    # t0 and s1 stream at ESTIMATE_HORIZON, below this horizon
    streams = []
    kernel = criteria._power_log_sums

    def counted(w, rows, horizon, *args, **kwargs):
        streams.append((horizon, len(rows)))
        return kernel(w, rows, horizon, *args, **kwargs)

    monkeypatch.setattr(criteria, "_power_log_sums", counted)
    assert main(["analyze", "-w", "poly:alpha=2", "--m-max", "3",
                 "--horizon", "200000"]) == 0
    capsys.readouterr()
    assert [rows for h, rows in streams if h == 200000] == [5]


# ---------------------------------------------------------------------------
# the two-worker moment kernel: bits, threads, memory

MOMENT_TABLE = json.loads(
    (pathlib.Path(__file__).parent / "data" / "moment_log_sums_table.json")
    .read_text())


@pytest.mark.parametrize("spec", sorted(MOMENT_TABLE["moment_log_sums"]))
def test_moment_log_sums_table(spec, workers):
    """Moment sums keep the bits of the one-thread kernel they replace (the
    stored float.hex table), whatever the number of workers."""
    w = parse_weight(spec)
    betas = MOMENT_TABLE["betas"]
    rows = MOMENT_TABLE["moment_log_sums"][spec]
    for horizon, row in zip(MOMENT_TABLE["horizons"], rows):
        got = criteria._scan_sup_quantities(w, (), betas, horizon)[1]
        assert [v.hex() for v in got] == row, (spec, horizon)


def _one_thread_segment_log_sums(lt, starts):
    """The segment kernel as it was before the rows were split between
    threads: a repeated shift and an exp over every term."""
    if starts.size == lt.size:  # one term per segment: nothing to reduce
        return lt
    with np.errstate(invalid="ignore", divide="ignore"):
        shift = np.maximum.reduceat(lt, starts)
        shift[~np.isfinite(shift)] = 0.0
        buf = np.repeat(shift, np.diff(starts, append=lt.size))
        np.subtract(lt, buf, out=buf)
        np.exp(buf, out=buf)
        return np.log(np.add.reduceat(buf, starts)) + shift


_EXP_ZERO_EDGE = -745.1332191019412


def _segment_cases():
    rng = np.random.default_rng(12)
    edge = _EXP_ZERO_EDGE + np.linspace(-0.5, 0.5, 4097)
    subnormal = np.linspace(-745.2, -708.0, 5000)
    specials = np.array([-746.0, np.nextafter(-746.0, 0.0),
                         np.nextafter(-746.0, -np.inf), -np.inf, -np.inf,
                         -1e308, -750.0, -745.0, -700.0])
    one = np.array([0.0])
    yield "edge", np.concatenate((one, edge)), [0]
    yield "edge-shifted", np.concatenate((one, edge)) + 300.0, [0]
    yield "subnormal", np.concatenate((one, subnormal)), [0]
    yield "specials", np.concatenate((one, specials, edge)), [0]
    yield "nan", np.concatenate((one, edge, [np.nan], edge)), [0]
    yield "pos-inf", np.concatenate((one, edge, [np.inf], subnormal)), [0]
    yield "all-dead", np.full(3000, -np.inf), [0]
    yield "one-term", np.array([-3.0, -800.0, -np.inf, np.nan, 7.0]), \
        [0, 1, 2, 3, 4]
    multi = np.concatenate((one, edge, [-np.inf] * 50, one, subnormal,
                            [np.nan], one, specials, [-2.0], edge - 400.0))
    yield "multi", multi, [0, 1, 4098, 4148, 4149, 9149, 9150, 9161, 9162]
    wide = rng.uniform(-2000.0, 0.0, 1 << 19)
    wide[rng.integers(0, wide.size, 64)] = -np.inf
    yield "wide", wide, [0]
    yield "wide-multi", wide, np.unique(np.concatenate(
        ([0], rng.integers(1, wide.size, 300))))


@pytest.mark.parametrize("name,lt,starts", list(_segment_cases()),
                         ids=[case[0] for case in _segment_cases()])
def test_segment_log_sums_matches_one_thread_kernel(name, lt, starts):
    starts = np.asarray(starts, dtype=np.int64)
    want = _one_thread_segment_log_sums(lt.copy(), starts)
    got = criteria._segment_log_sums(lt.copy(), starts)
    assert got.tobytes() == want.tobytes(), name


def test_moment_helper_is_quiet_on_a_finite_support_weight(workers):
    """Past n = 1000 every term is log 0; the helper thread must not warn
    where the caller would not, and the sums must match an fsum."""
    support = 1000
    finite = custom_weight(
        "finite", lambda k: -0.5 * math.log(k) if k <= support else -math.inf,
        log_eval_array=lambda n: np.where(
            n <= support, -0.5 * np.log(np.maximum(n, 1).astype(float)),
            -np.inf))
    betas = [float(b) for b in range(1, 21)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for horizon in (2 ** 19 + 5, 2 ** 20 + 5):
            got = criteria._scan_sup_quantities(finite, (), betas,
                                                horizon)[1]
            for beta, g in zip(betas, got):
                want = math.log(math.fsum(
                    k ** (beta - 1.0) / math.sqrt(k)
                    for k in range(1, support + 1)))
                assert g == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_stream_helper_keeps_the_caller_error_state(monkeypatch):
    """numpy's error state is per thread: rows on the helper obey the
    caller's, so a silenced invalid operation stays silent there too."""
    monkeypatch.setattr(criteria, "_worker_count", lambda rows: 2)
    row_log_sums = criteria._row_log_sums
    threads = set()

    def invalid(c, shared, buf, starts):
        threads.add(threading.current_thread())
        time.sleep(0.02)  # lets the other thread take a row
        np.subtract(np.full_like(buf, np.inf), np.inf, out=buf)
        return row_log_sums(c, shared, buf, starts)

    monkeypatch.setattr(criteria, "_row_log_sums", invalid)
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("error")
        _stream()
    assert len(threads) == 2


def test_exp_is_zero_below_the_dead_bound():
    """The kernel writes 0.0 for shifted terms below _EXP_DEAD instead of
    calling exp; exp agrees there, and is still positive just above."""
    dead = np.linspace(-3000.0, criteria._EXP_DEAD, 100001)
    assert not np.exp(dead).any()
    assert np.exp(np.array([-745.13, -740.0])).all()


def _stream(rows=6):
    """Rows of distinct exponents c = -0.5 - r/rows over w(n) = n^-2, each
    at target 1 of horizon 64: one chunk, one segment per row."""
    return np.array(criteria._power_log_sums(
        parse_weight("poly:alpha=2"),
        [(0.5 - r / rows, [1]) for r in range(rows)], 64))


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_stream_errors_reraise_after_the_helper_joins(monkeypatch, failing):
    monkeypatch.setattr(criteria, "_worker_count", lambda rows: 2)
    row_log_sums = criteria._row_log_sums
    before = threading.active_count()

    def failing_on_one_thread(c, shared, buf, starts):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (failing == "caller"):
            raise ValueError(f"row {c} failed on the {failing}")
        time.sleep(0.02)  # lets the other thread take a row
        return row_log_sums(c, shared, buf, starts)

    monkeypatch.setattr(criteria, "_row_log_sums", failing_on_one_thread)
    with pytest.raises(ValueError, match=failing):
        _stream()
    assert threading.active_count() == before


def test_stream_rows_each_taken_once_under_thread_churn(monkeypatch):
    """More workers than cores and a tiny switch interval: every row is
    reduced exactly once and the sums match the one-worker run."""
    rows = 300
    row_log_sums = criteria._row_log_sums

    def taking(c, shared, buf, starts):
        taken.append(c)
        return row_log_sums(c, shared, buf, starts)

    monkeypatch.setattr(criteria, "_row_log_sums", taking)
    monkeypatch.setattr(criteria, "_worker_count", lambda rows: 1)
    taken = []
    want = _stream(rows)
    assert len(set(taken)) == len(taken) == rows
    exponents = sorted(taken)
    monkeypatch.setattr(criteria, "_worker_count", lambda rows: 4)
    taken = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _stream(rows)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(taken) == exponents
    assert got.tobytes() == want.tobytes()


def test_stream_helper_calls_no_public_function(monkeypatch, poly2):
    """perfbench's tracer keeps one span stack for the wrapped public
    functions and WeightSpec methods, so only the caller may call them."""
    monkeypatch.setattr(criteria, "_worker_count", lambda rows: 2)
    seen = []

    def profile(frame, event, arg):
        if event == "call" and "cesaro" in frame.f_code.co_filename:
            seen.append(frame.f_code.co_qualname)

    threading.setprofile(profile)
    try:
        criteria._scan_sup_quantities(
            poly2, (), [float(b) for b in range(1, 21)], 2 ** 19 + 5)
    finally:
        threading.setprofile(None)
    assert seen, "the helper thread took no row"
    public = {name for name in seen if not name.startswith("_")}
    assert public == set()


def test_point_spectrum_allocation_peak():
    """Each worker's scratch row is allocated after log w and log n, so the
    traced allocation peak of a 20-row pass stays at or below the 20.0 MiB
    of the one-thread kernel with its repeat buffer."""
    w = parse_weight("poly:alpha=1.9")
    tracemalloc.start()
    try:
        point_spectrum(w, horizon=10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20.0 * 2 ** 20


def test_weight_evaluation_allocation_peak():
    """log w is evaluated in blocks of _EVAL_BLOCK indices, so factorial's
    Stirling series holds no chunk-sized temporaries.  A two-row pass over a
    full 2^19 chunk then peaks at about four chunk-sized arrays (log w,
    log n and two scratch rows); evaluating the chunk as one array
    expression held about eight at once."""
    w = parse_weight("factorial:a=1")
    chunk_bytes = 8 * criteria._CHUNK
    tracemalloc.start()
    try:
        criteria._power_log_sums(w, [(1.0, [1, 2, 3]), (0.0, [1])],
                                 criteria._CHUNK + 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * chunk_bytes


def test_fused_scan_allocation_peak():
    """The 22-row pass of scan_reports (continuity, uw, 20 moments) keeps
    the bound of the 20-row moment pass: segment maxima are repeated one
    block at a time, not over a whole chunk."""
    w = parse_weight("poly:alpha=1.9")
    tracemalloc.start()
    try:
        scan_reports(w, 10 ** 6, [float(t) for t in range(20)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20.0 * 2 ** 20
