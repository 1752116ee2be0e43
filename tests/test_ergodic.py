"""Tests for iterate traces, mean averages and the exact identities.

Oracles: the first basis vector under the averaging operator has exactly
computable norms on a geometric weight (closed forms recomputed here), the
constant vector is a fixed point, and finite-rank identities hold exactly in
rational mode.  Residual soundness is checked against hand-derived tail
sums.  Traces, which iterate only the weight's float support, are compared
bit for bit with a full-length reference loop kept here.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesaro import ergodic
from cesaro.ergodic import (
    BudgetError,
    ErgodicError,
    IterateTrace,
    cesaro_averages_trace,
    ergodic_identity_check,
    iterate_trace,
    kernel_bound_am,
    range_identity_check,
    trace_to_csv,
    work_budget,
)
from cesaro.sections import apply_power, kernel_power_entry, weighted_norm
from cesaro.weights import catalog_weight, custom_weight, parse_weight

#: burn-in before the residuals of a trace must be monotone
MONOTONE_BURN_IN = 10


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
    # every norm sits below the kernel majorant ||w||_1 a_m / (r - 1),
    # with ||w||_1 = sum 2^-n = 1
    l1 = 1.0
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


@pytest.mark.parametrize("r,in_range", [(0.5, True), (0.999, False)])
def test_trace_tail_bound_is_not_capped(r, in_range):
    # w(n) = e^705 r^n: the certified tail past N = 1 is w(2) / (1 - r),
    # e^704.31 for r = 1/2 (inside the float range, above e^700) and
    # e^711.9 for r = 0.999 (beyond it, so no tail bound is claimed)
    w = custom_weight("big", lambda n: 705.0 + n * math.log(r),
                      ratio_bound=(1, r))
    tail = w.log_tail(2, 1.0)
    trace = iterate_trace(w, [1.0], 1, 1, probe_id="e1")
    assert trace.limit_scalar == 1.0
    if in_range:
        assert 704.3 < tail < 704.4
        # (sup |x| + |limit|) times the tail mass
        assert trace.tail_residual_bound == 2.0 * math.exp(tail)
        assert trace.records[0][2] == trace.tail_residual_bound
    else:
        assert tail > 711.0
        assert trace.tail_residual_bound is None
        assert trace.records[0][2] == 0.0
        assert trace.notes == ("no certified weight tail; residuals cover "
                               "only the first N coordinates",)


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
    powers = [apply_power([Fraction(1)] + [Fraction(0)] * 29, m, 30)
              for m in (1, 2, 3, 4)]
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


def full_length_trace(w, x, steps, N, probe_id, mode, averages):
    """``ergodic._trace`` as it was before the support cut: the orbit runs
    on all N coordinates and each norm sums the full product."""
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
       mode=st.sampled_from(["float", "rational"]), averages=st.booleans())
def test_trace_matches_full_length_loop(data, spec, mode, averages):
    """The limit candidate is 0.0 for the e_r probes, x1 on summable
    weights such as geom and None on poly:alpha=0.5 and spike."""
    w = parse_weight(spec)
    N = data.draw(st.integers(1, 300 if mode == "rational" else 2000))
    M = data.draw(st.integers(1, 6))
    probe_id, x = data.draw(support_probes(w, N))
    args = (w, x, M, N, probe_id, mode, averages)
    assert repr(ergodic._trace(*args)) == repr(full_length_trace(*args))


def test_support_norms_sum_the_full_length(geom05):
    # x_n = 2^n keeps the weighted terms of every iterate large up to
    # n = 1000, next to the end of geom's support (n = 1074); for some
    # iterates a sum over those 1074 terms alone has other bits than the
    # sum over all N
    N, x = 5000, [2.0 ** n for n in range(1, 1001)]
    K, wvals = float_support(geom05, N), ergodic._weight_values(geom05, N)
    for averages in (False, True):
        args = (geom05, x, 20, N, "pow2", "float", averages)
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
            args = (factorial1, x, 5, N, "big", "float", averages)
            trace = ergodic._trace(*args)
            assert repr(trace) == repr(full_length_trace(*args))
            assert any(math.isnan(norm) for _, norm, _ in trace.records)


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
], ids=["iterate", "averages"])
def test_exact_input_beyond_float_range_is_rejected(geom05, call):
    """A start coordinate too large for a float is an ErgodicError that
    names it, not an OverflowError from deep inside a trace."""
    with pytest.raises(ErgodicError, match="coordinate 1 of .* too large "
                       "for a float"):
        call(geom05)
    # the exact identities never leave the rationals, so they still run
    assert ergodic_identity_check(geom05, _BEYOND_FLOAT, 2, 10) == (0.0, 0.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("call", [
    lambda w, x: iterate_trace(w, x, 2, 10, mode="rational"),
    lambda w, x: ergodic_identity_check(w, x, 2, 10),
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
        res1, res2 = ergodic_identity_check(geom05, x, n, 25)
        assert res1 == 0.0 and res2 == 0.0


def test_ergodic_identities_float(geom05):
    # float coordinates are read exactly, so the residuals are exactly zero
    x = [1.0, 0.5, -2.0, 0.1] + [0.0] * 46
    for n in (1, 4, 9):
        res1, res2 = ergodic_identity_check(geom05, x, n, 50)
        assert res1 == 0.0 and res2 == 0.0


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


# ---------------------------------------------------------------------------
# mean-ergodic coupling


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

