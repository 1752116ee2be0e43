"""Tests for iterate traces, mean averages, and power-boundedness probes.

Oracles: the first basis vector under the averaging operator has exactly
computable norms on a geometric weight (closed forms recomputed here), the
constant vector is a fixed point, and finite-rank identities hold exactly in
rational mode.  Residual soundness is checked against hand-derived tail
sums, and expectations are cross-checked with the criteria layer.  Traces
and probes, which iterate only the weight's float support, are compared bit
for bit with full-length reference loops kept here.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesaro import ergodic
from cesaro.criteria import s1_estimate, uw_quantity
from cesaro.ergodic import (
    MONOTONE_BURN_IN,
    BudgetError,
    ErgodicError,
    IterateTrace,
    ProbeTrace,
    cesaro_averages_trace,
    decomposition_project,
    ergodic_identity_check,
    iterate_trace,
    kernel_bound_am,
    power_bounded_probe,
    range_identity_check,
    trace_to_csv,
    weight_l1_bound,
    work_budget,
)
from cesaro.sections import apply_power, kernel_power_entry, weighted_norm
from cesaro.weights import catalog_weight, parse_weight


def basis(k: int, N: int) -> list:
    return [1.0 if i == k else 0.0 for i in range(1, N + 1)]


# ---------------------------------------------------------------------------
# iterate traces on a geometric weight


def test_first_basis_vector_approaches_constant(geom05):
    trace = iterate_trace(geom05, basis(1, 400), 12, 400, probe_id="e1")
    assert trace.limit_scalar == 1.0
    records = {m: (norm, res) for m, norm, res in trace.records}
    # closed form at m=1: ||C e1 - 1|| = sum 2^-n (1 - 1/n) = 1 - ln 2
    assert records[1][0] == pytest.approx(math.log(2), rel=1e-12)
    assert records[1][1] == pytest.approx(1 - math.log(2), rel=1e-9)
    assert records[10][1] == pytest.approx(9.604924017284377e-4, rel=1e-9)
    assert records[10][1] < 1e-3


def test_third_basis_vector_decays_to_zero(geom05):
    trace = iterate_trace(geom05, basis(3, 400), 8, 400, probe_id="e3")
    assert trace.limit_scalar == 0.0
    # closed form: ||C e3|| = sum_{n>=3} 2^-n / n = ln 2 - 1/2 - 1/8
    first = trace.records[0][1]
    assert first == pytest.approx(math.log(2) - 0.625, rel=1e-12)
    assert trace.records[5][1] < 1e-3
    # every norm sits below the kernel majorant ||w||_1 a_m / (r - 1)
    l1 = weight_l1_bound(geom05)
    for m, norm, _ in trace.records:
        assert norm <= l1 * kernel_bound_am(m) / 2 * (1 + 1e-12)


def test_constant_vector_is_fixed(geom05):
    trace = iterate_trace(geom05, [1] * 50, 6, 50, probe_id="ones",
                          mode="rational")
    norms = [norm for _, norm, _ in trace.records]
    assert norms == pytest.approx([norms[0]] * 6, rel=1e-12)
    # the residual against the constant limit is exactly the weight tail
    for _, _, res in trace.records:
        assert res == pytest.approx(trace.tail_residual_bound, rel=1e-12)


def test_trace_records_well_formed(geom05):
    trace = iterate_trace(geom05, basis(1, 200), 15, 200, probe_id="e1")
    ms = [m for m, _, _ in trace.records]
    assert ms == list(range(1, 16))
    assert all(norm >= 0 for _, norm, _ in trace.records)
    late = [res for m, _, res in trace.records if m >= MONOTONE_BURN_IN]
    assert all(a >= b - 1e-15 for a, b in zip(late, late[1:]))


def test_trace_tail_bound_is_sound(geom05):
    # truncated residual + certified tail must dominate a longer truncation
    small = iterate_trace(geom05, basis(1, 100), 5, 100, probe_id="e1")
    large = iterate_trace(geom05, basis(1, 2000), 5, 2000, probe_id="e1")
    for (m1, _, r1), (m2, _, r2) in zip(small.records, large.records):
        assert m1 == m2
        assert r1 + small.tail_residual_bound >= r2 - 1e-15


def test_trace_without_limit_leaves_residual_blank(poly05):
    trace = iterate_trace(poly05, basis(1, 300), 4, 300, probe_id="e1")
    assert trace.limit_scalar is None
    assert all(res is None for _, _, res in trace.records)


def test_rational_and_float_traces_agree(geom05):
    x = [Fraction(1), Fraction(-1, 2), Fraction(1, 3)] + [Fraction(0)] * 47
    exact = iterate_trace(geom05, x, 6, 50, probe_id="mix", mode="rational")
    approx = iterate_trace(geom05, [float(v) for v in x], 6, 50,
                           probe_id="mix", mode="float")
    for (_, ne, _), (_, nf, _) in zip(exact.records, approx.records):
        assert nf == pytest.approx(ne, rel=1e-12)


def test_trace_serialization_shapes(geom05, poly05):
    trace = iterate_trace(geom05, basis(1, 50), 3, 50, probe_id="e1")
    doc = trace.to_json_dict()
    assert doc["probe_id"] == "e1"
    assert doc["N"] == 50
    assert len(doc["records"]) == 3
    csv = trace_to_csv(trace)
    lines = csv.strip().splitlines()
    assert lines[0] == "m,norm,residual"
    assert len(lines) == 4
    m, norm, res = lines[1].split(",")
    assert int(m) == 1 and float(norm) > 0 and float(res) > 0
    blank = trace_to_csv(iterate_trace(poly05, basis(1, 50), 2, 50,
                                       probe_id="e1"))
    assert blank.strip().splitlines()[1].endswith(",")


# ---------------------------------------------------------------------------
# mean averages


def test_averages_first_step_matches_iterate(geom05):
    avg = cesaro_averages_trace(geom05, basis(1, 200), 1, 200, probe_id="e1")
    it = iterate_trace(geom05, basis(1, 200), 1, 200, probe_id="e1")
    assert avg.records[0][1] == pytest.approx(it.records[0][1], rel=1e-12)
    assert avg.records[0][2] == pytest.approx(it.records[0][2], rel=1e-12)


def test_averages_converge_to_projection(geom05):
    avg = cesaro_averages_trace(geom05, basis(1, 400), 100, 400,
                                probe_id="e1")
    residuals = [res for _, _, res in avg.records]
    assert residuals[-1] == pytest.approx(math.log(2) / 100, rel=1e-2)
    assert residuals[-1] < residuals[9] < residuals[0]


def test_averages_of_decaying_probe_vanish(geom05):
    avg = cesaro_averages_trace(geom05, basis(3, 400), 200, 400,
                                probe_id="e3")
    assert avg.limit_scalar == 0.0
    assert avg.records[-1][1] < 0.01


def test_averages_rational_mode_exact(geom05):
    avg = cesaro_averages_trace(geom05, [1] + [0] * 29, 4, 30, probe_id="e1",
                                mode="rational")
    # average after 2 steps of coordinate 2 is (1/2 + 3/8) / 2 = 7/16;
    # check through the recomputed weighted norm of the known averages
    powers = [apply_power([Fraction(1)] + [Fraction(0)] * 29, m, 30,
                          mode="rational") for m in (1, 2, 3, 4)]
    acc = [Fraction(0)] * 30
    for n, p in enumerate(powers, 1):
        acc = [a + v for a, v in zip(acc, p)]
        norm = weighted_norm([a / n for a in acc], geom05)
        assert avg.records[n - 1][1] == pytest.approx(norm, rel=1e-12)


#: sha256 of trace_to_csv for the probe (1, -2, 3), 25 steps, N = 60,
#: recorded before the iterate and average loops were merged
PINNED_TRACES = [
    ("geom05", "float", iterate_trace,
     "1858edeb6e62744c5ff7b7d3e6255074f4da6a6c37ec37f6c4379c0aa487b855"),
    ("geom05", "float", cesaro_averages_trace,
     "b163a612ca619c8f11718f5a20970f6343af2276bff6100989f96acd831d288f"),
    ("geom05", "rational", iterate_trace,
     "056c1a0c25b121a9ca3c4a4aaeb66adb8ed450d7facf297d342dc8b9562d32a1"),
    ("geom05", "rational", cesaro_averages_trace,
     "aa8f0e29cbe76e226cb2da25f7ca647603644b9f140ec5415c523ac14923f0ad"),
    ("poly05", "float", iterate_trace,
     "1769272e83d175ff05f01cb700ffc84c02c25472a04646cc9f2414d243df11bb"),
    ("poly05", "float", cesaro_averages_trace,
     "26cf47958bab197bdc0851cc9f04a3546909bd2c21bae9a6b22648b4e103a263"),
    ("poly05", "rational", iterate_trace,
     "83fbb2e9bfae54b7c237b98b7510174755957175c1226666284527f4d7e7b641"),
    ("poly05", "rational", cesaro_averages_trace,
     "adcbc9d401d4488ef9b1302208104909ca628b520039753e6a1a7a313c20ab4e"),
]


@pytest.mark.parametrize("fixture,mode,tracer,digest", PINNED_TRACES)
def test_iterate_trace_pinned_bytes(request, fixture, mode, tracer, digest):
    w = request.getfixturevalue(fixture)
    trace = tracer(w, [1, -2, 3], 25, 60, mode=mode)
    assert hashlib.sha256(trace_to_csv(trace).encode()).hexdigest() == digest


#: sha256 of trace_to_csv for the probe (1, -2, 3) at sizes where geom's
#: and factorial's float weights are 0.0 from n = 1075 and n = 178 on, so
#: only a short prefix is iterated; poly05 (nonzero throughout) is the
#: control.  Recorded with every coordinate 1..N iterated.
PINNED_SUPPORT_TRACES = [
    ("geom05", "float", iterate_trace, 200, 5000,
     "ad0a9fad7ffa0fe976550c9b7c3a969b9e054b63767a8dc2df54520c8e1d6649"),
    ("geom05", "float", cesaro_averages_trace, 200, 5000,
     "f11b6bbc16478d26482044cadd44bf81760b188827bb1101ba2534d6d03e32f4"),
    ("factorial1", "rational", cesaro_averages_trace, 25, 2000,
     "d07cf1896b1b27252c3d397477886b16b63a8aa87b684653f3d4508229415b78"),
    ("poly05", "float", iterate_trace, 200, 5000,
     "78a9fa296f05f6b7be4e92145a1a23eb3c1231ef6e1334f99ea29a69300f2b5a"),
    ("poly05", "float", cesaro_averages_trace, 200, 5000,
     "db256d307505730592f8d15fb8b12adb6de48d6bb4436f347bb3d9753a447089"),
]


@pytest.fixture(scope="module")
def factorial1():
    return catalog_weight("factorial", {"a": 1.0})


@pytest.mark.parametrize(
    "fixture,mode,tracer,M,N,digest", PINNED_SUPPORT_TRACES,
    ids=[f"{f}-{mode}-{tracer.__name__}"
         for f, mode, tracer, *_ in PINNED_SUPPORT_TRACES])
def test_support_trace_pinned_bytes(request, fixture, mode, tracer, M, N,
                                    digest):
    w = request.getfixturevalue(fixture)
    trace = tracer(w, [1, -2, 3], M, N, mode=mode)
    assert hashlib.sha256(trace_to_csv(trace).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the float support: references that iterate every coordinate 1..N


def full_length_trace(w, x, steps, N, probe_id, limit_scalar, auto_limit,
                      mode, averages):
    """``ergodic._trace`` as it was before the support cut: the orbit runs
    on all N coordinates and each norm sums the full product."""
    if limit_scalar is None and auto_limit:
        limit_scalar = ergodic._pick_candidate(w, x)
    arr = ergodic._start_vector(x, N, mode)
    sup_abs = float(np.max(np.abs(ergodic._as_float(arr)))) if N else 0.0
    wvals = ergodic._weight_values(w, N)
    tail_term = None
    notes = []
    if limit_scalar is not None:
        mass = ergodic._tail_mass(w, N)
        if mass is None:
            notes.append("no certified weight tail; residuals cover only "
                         "the first N coordinates")
        else:
            tail_term = (sup_abs + abs(limit_scalar)) * mass
    records = []
    for m, vals in enumerate(ergodic._orbit(arr, mode, steps, averages),
                             start=1):
        norm = float(np.sum(wvals * np.abs(vals)))
        residual = None
        if limit_scalar is not None:
            residual = float(np.sum(wvals * np.abs(vals - limit_scalar)))
            if tail_term is not None:
                residual += tail_term
        records.append((m, norm, residual))
    return IterateTrace(probe_id, tuple(records), limit_scalar, N,
                        tail_term, tuple(notes))


def full_length_probes(w, M, N, probe_list):
    """``power_bounded_probe``'s probe loop before the support cut."""
    wvals = ergodic._weight_values(w, N)
    traces = []
    for probe_id, vec in probe_list:
        arr = np.zeros(N, dtype=float)
        data = np.asarray([float(v) for v in vec[:N]], dtype=float)
        arr[:data.size] = data
        start = float(np.sum(wvals * np.abs(arr)))
        if start <= 0.0:
            raise ErgodicError(f"probe {probe_id!r} has zero weighted norm")
        arr /= start
        norms = [float(np.sum(wvals * np.abs(vals)))
                 for vals in ergodic._orbit(arr, "float", M, averages=False)]
        traces.append(ProbeTrace(
            probe_id=probe_id,
            sup_ratio=float(max(norms)),
            growth_per_step=ergodic._growth_fit(norms),
            first_norm=norms[0],
            final_norm=norms[-1],
        ))
    return tuple(traces)


def float_support(w, N: int) -> int:
    """The last n <= N with float w(n) != 0.0, or 0."""
    nonzero = np.flatnonzero(ergodic._weight_values(w, N))
    return int(nonzero[-1]) + 1 if nonzero.size else 0


SUPPORT_SPECS = st.one_of(
    st.floats(0.05, 0.95, exclude_min=True, exclude_max=True).map(
        lambda r: f"geom:r={r!r}"),
    st.sampled_from(["factorial:a=1", "superfact", "spike",
                     "block413:alpha=2", "poly:alpha=0.5"]))


@st.composite
def support_probes(draw, w, N: int):
    """(probe id, vector): e1, e_r past the float support (e_N when the
    support is all of 1..N), seeded random, ones, or 1/w(n) (capped at
    1e290), whose weighted terms stay large up to the end of the support,
    so that the order of the norm's sum shows in its bits."""
    kind = draw(st.sampled_from(["e1", "e_r", "random", "ones", "1/w"]))
    if kind == "1/w":
        return kind, (1.0 / np.maximum(ergodic._weight_values(w, N),
                                       1e-290)).tolist()
    if kind == "e1":
        return kind, [1.0]
    if kind == "e_r":
        r = draw(st.integers(min(float_support(w, N) + 1, N), N))
        return f"e{r}", [0.0] * (r - 1) + [1.0]
    if kind == "random":
        seed = draw(st.integers(0, 2 ** 16))
        size = draw(st.integers(1, N))
        return kind, np.random.default_rng(seed).standard_normal(size).tolist()
    return kind, [1.0] * N


@settings(max_examples=80, deadline=None)
@given(data=st.data(), spec=SUPPORT_SPECS,
       mode=st.sampled_from(["float", "rational"]), averages=st.booleans(),
       limit=st.sampled_from(["none", "auto", "zero", "x1"]))
def test_trace_matches_full_length_loop(data, spec, mode, averages, limit):
    w = parse_weight(spec)
    N = data.draw(st.integers(1, 300 if mode == "rational" else 2000))
    M = data.draw(st.integers(1, 6))
    probe_id, x = data.draw(support_probes(w, N))
    limit_scalar = {"none": None, "auto": None, "zero": 0.0,
                    "x1": x[0]}[limit]
    args = (w, x, M, N, probe_id, limit_scalar, limit == "auto", mode,
            averages)
    assert repr(ergodic._trace(*args)) == repr(full_length_trace(*args))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), spec=SUPPORT_SPECS)
def test_probe_matches_full_length_loop(data, spec):
    w = parse_weight(spec)
    N = data.draw(st.integers(1, 2000))
    M = data.draw(st.integers(1, 6))
    probes = [data.draw(support_probes(w, N))]
    try:
        want = repr(full_length_probes(w, M, N, probes))
    except ErgodicError as exc:  # a probe with zero weighted norm
        with pytest.raises(ErgodicError, match=str(exc)):
            power_bounded_probe(w, M, N, probes=probes)
        return
    assert repr(power_bounded_probe(w, M, N, probes=probes).probes) == want


def test_support_norms_sum_the_full_length(geom05):
    # x_n = 2^n keeps the weighted terms of every iterate large up to
    # n = 1000, next to the end of geom's support (n = 1074); for some
    # iterates a sum over those 1074 terms alone has other bits than the
    # sum over all N
    N, x = 5000, [2.0 ** n for n in range(1, 1001)]
    K, wvals = float_support(geom05, N), ergodic._weight_values(geom05, N)
    for averages in (False, True):
        args = (geom05, x, 20, N, "pow2", None, True, "float", averages)
        assert repr(ergodic._trace(*args)) == repr(full_length_trace(*args))
        terms = [wvals * np.abs(v) for v in ergodic._orbit(
            ergodic._start_vector(x, N, "float"), "float", 20, averages)]
        assert any(np.sum(t) != np.sum(t[:K]) for t in terms)


def test_support_guard_keeps_non_finite_norms(factorial1):
    # partial sums of 1e306 overflow from n = 180 on, where factorial's
    # float weight is 0.0: the full loop reads 0.0 * inf = NaN there, and the
    # guard iterates all N coordinates so the traces keep it
    N = 1000
    x = [1e306] * N
    assert float_support(factorial1, N) < 200
    with np.errstate(over="ignore", invalid="ignore"):
        for averages in (False, True):
            args = (factorial1, x, 5, N, "big", None, True, "float",
                    averages)
            trace = ergodic._trace(*args)
            assert repr(trace) == repr(full_length_trace(*args))
            assert any(math.isnan(norm) for _, norm, _ in trace.records)
        # a tiny head normalizes a large tail to inf
        probes = [("tail", [1e-300] + [0.0] * 498 + [1e300] * 500)]
        report = power_bounded_probe(factorial1, 5, N, probes=probes)
        assert repr(report.probes) == repr(
            full_length_probes(factorial1, 5, N, probes))
    assert math.isnan(report.probes[0].first_norm)


def test_rational_trace_iterates_the_support_only(factorial1, monkeypatch):
    seen = []
    original = ergodic.cumulative_means

    def spy(x, steps):
        seen.append(len(x))
        return original(x, steps)

    monkeypatch.setattr(ergodic, "cumulative_means", spy)
    cesaro_averages_trace(factorial1, [1, -2, 3], 25, 2000, mode="rational")
    K = float_support(factorial1, 2000)
    assert seen == [K] and K < 200


_BEYOND_FLOAT = [Fraction(10 ** 400)]


@pytest.mark.parametrize("call", [
    lambda w: iterate_trace(w, _BEYOND_FLOAT, 2, 10, mode="rational"),
    lambda w: cesaro_averages_trace(w, _BEYOND_FLOAT, 2, 10, mode="rational"),
    lambda w: power_bounded_probe(w, 2, 10, probes=[("big", _BEYOND_FLOAT)]),
    lambda w: decomposition_project(w, _BEYOND_FLOAT, 10),
    lambda w: ergodic_identity_check(w, _BEYOND_FLOAT, 2, 10),
], ids=["iterate", "averages", "probe", "decomposition", "identity-float"])
def test_exact_input_beyond_float_range_is_rejected(geom05, call):
    """A start coordinate too large for a float is an ErgodicError that
    names it, not an OverflowError from deep inside a trace."""
    with pytest.raises(ErgodicError, match="coordinate 1 of .* too large "
                       "for a float"):
        call(geom05)
    # the exact identities never leave the rationals, so they still run
    assert ergodic_identity_check(geom05, _BEYOND_FLOAT, 2, 10,
                                  mode="rational") == (0.0, 0.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("call", [
    lambda w, x: iterate_trace(w, x, 2, 10, mode="rational"),
    lambda w, x: ergodic_identity_check(w, x, 2, 10, mode="rational"),
], ids=["iterate", "identity"])
def test_non_finite_exact_start_is_rejected(geom05, call, value):
    """Exact arithmetic has no infinity or NaN: such a start coordinate is
    an ErgodicError that names it, not a bare OverflowError or ValueError
    from the Fraction constructor."""
    with pytest.raises(ErgodicError, match="coordinate 2 of the start "
                       "vector has no exact rational value"):
        call(geom05, [1.0, value, 0.5])


# ---------------------------------------------------------------------------
# exact identities


def test_range_identity_small_ranks():
    for r in range(1, 13):
        assert range_identity_check(r, 40) == 0.0
    with pytest.raises(ErgodicError):
        range_identity_check(0, 10)
    with pytest.raises(ErgodicError):
        range_identity_check(10, 10)


def test_ergodic_identities_exact_rational(geom05):
    x = [Fraction(1), Fraction(1, 2), Fraction(-2)] + [Fraction(0)] * 22
    for n in (1, 2, 3, 7):
        res1, res2 = ergodic_identity_check(geom05, x, n, 25,
                                            mode="rational")
        assert res1 == 0.0 and res2 == 0.0


def test_ergodic_identities_float(geom05):
    x = [1.0, 0.5, -2.0] + [0.0] * 47
    for n in (1, 4, 9):
        res1, res2 = ergodic_identity_check(geom05, x, n, 50, mode="float")
        assert res1 <= 1e-12 and res2 <= 1e-12


# ---------------------------------------------------------------------------
# the ergodic decomposition


def test_decomposition_examples(geom05):
    c, rem = decomposition_project(geom05, (1.0, 0.0, 0.0), 3)
    assert c == 1.0
    assert rem == (0.0, -1.0, -1.0)
    c2, rem2 = decomposition_project(geom05, (0.0, 1.0, 0.0), 3)
    assert c2 == 0.0
    assert rem2 == (0.0, 1.0, 0.0)
    c3, rem3 = decomposition_project(geom05, (2.0, 2.0, 2.0), 3)
    assert c3 == 2.0
    assert rem3 == (0.0, 0.0, 0.0)


def test_decomposition_reconstructs(geom05):
    x = (0.3, -1.2, 4.0, 0.0)
    c, rem = decomposition_project(geom05, x, 4)
    for xi, ri in zip(x, rem):
        assert c + ri == pytest.approx(xi, rel=1e-15)


def test_decomposition_needs_summable_weight(poly1):
    with pytest.raises(ErgodicError):
        decomposition_project(poly1, (1.0, 0.0), 2)


# ---------------------------------------------------------------------------
# kernel majorant


def test_kernel_bound_values():
    assert kernel_bound_am(1) == 1.0
    assert kernel_bound_am(2) == pytest.approx(math.exp(-1), rel=1e-12)
    vals = [kernel_bound_am(m) for m in range(1, 30)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_kernel_bound_dominates_entries():
    # |(C^m e_r)_n| <= a_m / (r - 1) for r >= 2, checked on an exact grid
    for r in (2, 3, 4):
        for m in range(1, 6):
            cap = kernel_bound_am(m) / (r - 1)
            for n in range(r, 31):
                entry = float(kernel_power_entry(n, r, m))
                assert abs(entry) <= cap * (1 + 1e-12)


def test_weight_l1_bound(geom05, poly1):
    assert weight_l1_bound(geom05) == pytest.approx(1.0, rel=1e-9)
    assert weight_l1_bound(poly1) is None


# ---------------------------------------------------------------------------
# power-boundedness probes


def test_probe_report_on_compact_weight(geom05):
    report = power_bounded_probe(geom05, 30, 200)
    assert report.expectation == "bounded"
    cap = uw_quantity(geom05, horizon=10 ** 4).verdict.certified_bound
    by_id = {p.probe_id: p for p in report.probes}
    assert by_id["e1"].sup_ratio <= cap + 1e-9
    assert by_id["e1"].sup_ratio == pytest.approx(2.0, abs=1e-6)
    for p in report.probes:
        assert p.sup_ratio <= cap + 1e-9
    # basis probes recover the reciprocal eigenvalues as decay rates
    for m in (2, 3, 4):
        assert by_id[f"e{m}"].growth_per_step == pytest.approx(1.0 / m,
                                                               rel=2e-2)


def test_probe_report_on_growing_weight(poly05):
    report = power_bounded_probe(poly05, 6, 2000)
    assert report.expectation == "growth"
    s1 = s1_estimate(poly05, horizon=10 ** 4)
    assert report.expected_growth_factor == pytest.approx(1.0 / s1.point,
                                                          rel=1e-9)


def test_probe_report_without_verdict(block413a2):
    report = power_bounded_probe(block413a2, 6, 500)
    assert report.expectation == "open"
    assert report.expected_growth_factor is None
    assert any("without a boundedness verdict" in note
               for note in report.notes)


def test_probe_constant_vector(geom05):
    ones = [("ones", [1.0] * 200)]
    report = power_bounded_probe(geom05, 10, 200, probes=ones)
    assert report.probes[0].sup_ratio == pytest.approx(1.0, rel=1e-12)


def test_probe_rejects_zero_vector(geom05):
    with pytest.raises(ErgodicError):
        power_bounded_probe(geom05, 5, 50, probes=[("zero", [0.0] * 50)])


def test_probe_report_serializes(geom05):
    report = power_bounded_probe(geom05, 5, 50)
    doc = report.to_json_dict()
    assert doc["expectation"] == "bounded"
    assert len(doc["probes"]) == len(report.probes)
    assert {"probe_id", "sup_ratio", "growth_per_step"} <= \
        set(doc["probes"][0])


def test_mean_ergodic_coupling(geom05, poly05):
    # averages stay bounded exactly where the operator is power bounded
    bounded = cesaro_averages_trace(geom05, basis(1, 300), 40, 300,
                                    probe_id="e1")
    growing = cesaro_averages_trace(poly05, basis(1, 300), 40, 300,
                                    probe_id="e1")
    bnorms = [n for _, n, _ in bounded.records]
    gnorms = [n for _, n, _ in growing.records]
    assert max(bnorms) <= 1.0 + 1e-9
    assert gnorms[-1] > gnorms[0]


# ---------------------------------------------------------------------------
# budget control


def test_budget_env_controls_work(geom05, monkeypatch):
    monkeypatch.setenv("CESARO_BUDGET", "100")
    assert work_budget() == 100
    with pytest.raises(BudgetError):
        iterate_trace(geom05, basis(1, 50), 10, 50, probe_id="e1")
    monkeypatch.setenv("CESARO_BUDGET", "1e6")
    assert work_budget() == 10 ** 6
    monkeypatch.setenv("CESARO_BUDGET", "plenty")
    with pytest.raises(ErgodicError):
        work_budget()


def test_budget_applies_to_probe_suite(geom05, monkeypatch):
    monkeypatch.setenv("CESARO_BUDGET", "1000")
    with pytest.raises(BudgetError):
        power_bounded_probe(geom05, 100, 100)
