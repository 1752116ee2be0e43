"""Tests for exact finite sections of the averaging operator.

Oracles are independent recomputations: hand-inverted small matrices, closed
binomial forms evaluated with Fractions, and dense numpy products for the
float-mode residual checks.  Regression constants were frozen from one-time
brute-force runs and guard the normalized product and falling-factorial
windows used by the resolvent and eigenvector formulas.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro import ergodic
from cesaro.criteria import continuity_criterion, rw_memberships
from cesaro.ergodic import cesaro_averages_trace, iterate_trace, trace_to_csv
from cesaro.sections import (
    QC,
    DENSE_DIMENSION_CAP,
    RATIONAL_DIMENSION_CAP,
    FiniteSection,
    SectionError,
    apply_power,
    cesaro_section,
    distance_to_limit_set,
    dual_apply,
    dual_eigenvector,
    eigenvector,
    kernel_power_entry,
    nearest_limit_point,
    resolvent_section,
    shifted_inverse_section,
    weighted_norm,
)
from cesaro.weights import parse_weight


def section_matrix(section: FiniteSection) -> np.ndarray:
    """Dense complex matrix of a section, from its stored rows."""
    N = section.N
    out = np.zeros((N, N), dtype=complex)
    for n, row in enumerate(section.rows):
        for m, z in enumerate(row):
            out[n, m] = z.to_complex() if isinstance(z, QC) else complex(z)
    return out


# ---------------------------------------------------------------------------
# averaging sections


def test_cesaro_section_smallest():
    sec = cesaro_section(1)
    assert sec.N == 1
    assert sec.rows == ((Fraction(1),),)


def test_cesaro_section_row_three():
    sec = cesaro_section(3)
    assert list(sec.rows[2]) == [Fraction(1, 3)] * 3
    assert [len(row) for row in sec.rows] == [1, 2, 3]


def test_cesaro_section_fixes_constant_vector():
    sec = cesaro_section(12)
    for n in range(1, 13):
        assert sum(sec.rows[n - 1]) == Fraction(1)


def test_cesaro_section_float_mode():
    sec = cesaro_section(5, mode="float")
    assert sec.rows[3][1] == pytest.approx(0.25)
    assert isinstance(sec.rows[3], np.ndarray)


def test_section_rejects_bad_dimension_and_mode():
    with pytest.raises(SectionError):
        cesaro_section(0)
    with pytest.raises(SectionError):
        cesaro_section(3, mode="symbolic")
    with pytest.raises(SectionError):
        cesaro_section(RATIONAL_DIMENSION_CAP + 1, mode="rational")


def test_large_averaging_section_is_refused():
    with pytest.raises(SectionError, match="dense averaging sections are "
                       "capped"):
        cesaro_section(DENSE_DIMENSION_CAP + 1, mode="float")


# ---------------------------------------------------------------------------
# powers: vector route and closed-form kernel


def test_apply_power_first_column():
    e1 = [1] + [0] * 9
    out = apply_power(e1, 1, 10, mode="rational")
    assert out == tuple(Fraction(1, n) for n in range(1, 11))


def test_apply_power_fixed_point():
    out = apply_power([1] * 10, 7, 10, mode="rational")
    assert out == tuple(Fraction(1) for _ in range(10))


def test_apply_power_second_basis_vector():
    e2 = [0, 1] + [0] * 8
    out = apply_power(e2, 2, 10, mode="rational")
    assert out[2] == Fraction(5, 18)


def test_apply_power_validates_input():
    with pytest.raises(SectionError):
        apply_power([1, 0], 0, 2)
    with pytest.raises(SectionError):
        apply_power([1, 0], 1, 0)
    with pytest.raises(SectionError):
        apply_power([1, 0], 1, 3)


def test_apply_power_float_matches_rational():
    x = [1.0, -0.5, 2.0, 0.25, -1.0]
    exact = apply_power([Fraction(v) for v in x], 3, 5, mode="rational")
    approx = apply_power(x, 3, 5, mode="float")
    for a, b in zip(approx, exact):
        assert a == pytest.approx(float(b), rel=1e-14)


def test_apply_power_complex_input():
    out = apply_power([1 + 1j, 0, 0], 1, 3, mode="float")
    assert out[1] == pytest.approx((1 + 1j) / 2)


def test_kernel_power_entry_reproduces_averaging():
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert kernel_power_entry(n, k, 1) == Fraction(1, n)


def test_kernel_power_entry_hand_value():
    assert kernel_power_entry(3, 2, 2) == Fraction(5, 18)
    assert kernel_power_entry(3, 2, 2) == 2 * (Fraction(1, 4) - Fraction(1, 9))


def test_kernel_power_entry_alternating_sum():
    expected = sum((-1) ** j * Fraction(math.comb(4, j), (1 + j) ** 3)
                   for j in range(5))
    assert kernel_power_entry(5, 1, 3) == expected
    assert kernel_power_entry(5, 1, 3) == \
        apply_power([1, 0, 0, 0, 0], 3, 5, mode="rational")[4]


def test_kernel_power_entry_rejections():
    with pytest.raises(SectionError):
        kernel_power_entry(2, 3, 1)
    with pytest.raises(SectionError):
        kernel_power_entry(0, 1, 1)
    with pytest.raises(SectionError):
        kernel_power_entry(2, 1, 0)


def test_kernel_matches_apply_power_grid():
    for m in range(1, 5):
        for n in range(1, 11):
            for k in range(1, n + 1):
                e_k = [Fraction(1 if i == k else 0) for i in range(1, n + 1)]
                expected = apply_power(e_k, m, n, mode="rational")[n - 1]
                assert kernel_power_entry(n, k, m) == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=12),
                min_size=1, max_size=8),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3))
def test_apply_power_semigroup(x, a, b):
    N = len(x)
    combined = apply_power(x, a + b, N, mode="rational")
    staged = apply_power(apply_power(x, a, N, mode="rational"), b, N,
                         mode="rational")
    assert combined == staged


def test_apply_power_mixed_real_and_complex_input():
    # real and complex coordinates share one exact vector; the result is QC
    # throughout and agrees with float mode
    assert apply_power([1, 1j], 1, 2, mode="rational") == \
        (QC(Fraction(1)), QC(Fraction(1, 2), Fraction(1, 2)))
    for x in ([1, 1j], [1j, 1], [Fraction(1, 3), 2 - 1j, 0.5, 3]):
        for m in (1, 2, 5):
            exact = apply_power(x, m, len(x), mode="rational")
            approx = apply_power(x, m, len(x), mode="float")
            assert all(isinstance(z, QC) for z in exact)
            for z, want in zip(exact, approx):
                assert z.to_complex() == pytest.approx(want, rel=1e-14)


def test_float_mode_accepts_exact_complex_input():
    # complex(QC) is the same value as to_complex, so float mode takes the
    # exact inputs rational mode takes
    q = QC(Fraction(1, 3), Fraction(-2, 9))
    assert complex(q) == q.to_complex() == complex(1 / 3, -2 / 9)
    assert apply_power([QC(Fraction(1))], 1, 1, mode="float") == (1 + 0j,)
    x = [QC(Fraction(1)), q, Fraction(1, 2), 3]
    for z, want in zip(apply_power(x, 2, 4, mode="float"),
                       apply_power(x, 2, 4, mode="rational")):
        assert z == pytest.approx(complex(want), rel=1e-14)
    assert dual_eigenvector(QC(Fraction(1, 2)), 5, mode="float") == \
        dual_eigenvector(0.5, 5, mode="float")


# ---------------------------------------------------------------------------
# the exact kernel against the plain-Fraction loop it replaced


def fraction_power(x, m):
    """Reference: m plain-Fraction (or all-QC) cumulative-mean steps."""
    cur = list(x)
    for _ in range(m):
        out, acc = [], None
        for n, v in enumerate(cur, 1):
            acc = v if acc is None else acc + v
            out.append(acc / QC(Fraction(n)) if isinstance(acc, QC)
                       else acc / n)
        cur = out
    return tuple(cur)


def fraction_orbit(arr, mode, steps, averages):
    """Reference for ``ergodic._orbit`` in rational mode: Fraction iterates,
    Fraction running sums, one float() per coordinate."""
    assert mode == "rational"
    cur, acc = list(arr), [Fraction(0)] * len(arr)
    for n in range(1, steps + 1):
        cur = list(fraction_power(cur, 1))
        if averages:
            acc = [a + b for a, b in zip(acc, cur)]
            yield np.array([float(v / n) for v in acc], dtype=float)
        else:
            yield np.array([float(v) for v in cur], dtype=float)


RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=40)


@settings(max_examples=40, deadline=None)
@given(st.lists(RATIONALS, min_size=1, max_size=40),
       st.integers(min_value=1, max_value=6))
def test_apply_power_equals_fraction_loop(x, m):
    got = apply_power(x, m, len(x), mode="rational")
    want = fraction_power(x, m)
    assert got == want
    assert all(type(v) is Fraction for v in got)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.builds(QC, RATIONALS, RATIONALS), min_size=1,
                max_size=40),
       st.integers(min_value=1, max_value=6))
def test_apply_power_equals_qc_loop(x, m):
    got = apply_power(x, m, len(x), mode="rational")
    assert got == fraction_power(x, m)
    assert all(type(v) is QC and type(v.re) is Fraction
               and type(v.im) is Fraction for v in got)


@settings(max_examples=25, deadline=None)
@given(st.lists(RATIONALS, min_size=1, max_size=40),
       st.integers(min_value=1, max_value=6),
       st.sampled_from([iterate_trace, cesaro_averages_trace]))
def test_rational_traces_equal_fraction_loop(geom05, x, steps, tracer):
    # the same trace with ergodic's exact orbit swapped for the reference:
    # every float of every record must agree exactly
    got = tracer(geom05, x, steps, len(x), mode="rational")
    with mock.patch.object(ergodic, "_orbit", fraction_orbit):
        want = tracer(geom05, x, steps, len(x), mode="rational")
    assert got.records == want.records
    assert trace_to_csv(got) == trace_to_csv(want)


def _digest(values) -> str:
    return hashlib.sha256("\n".join(map(repr, values)).encode()).hexdigest()


def _resolvent_entries(lam):
    sec = resolvent_section(lam, 60, mode="rational")
    return [z for row in sec.rows for z in row]


#: sha256 of the repr of every entry, recorded with the Fraction loops the
#: common-denominator kernels replaced; repr tells QC from Fraction
MIXED_VECTOR = [Fraction(1, 3), 2, -0.375, Fraction(-7, 5), 0, 5,
                Fraction(22, 7)] * 4
COMPLEX_VECTOR = [1 + 2j, -0.5j, 3 - 1j, 0.25 + 0.75j,
                  QC(Fraction(1, 3), Fraction(-2, 9))] * 4
PINNED_EXACT = [
    ("resolvent-8/11", lambda: _resolvent_entries(Fraction(8, 11)),
     "ce47de862d480b60abc8eded9820caff55eb6b089b7a31c9884ba3110f2d4b70"),
    ("resolvent-3/4+i/2",
     lambda: _resolvent_entries(QC(Fraction(3, 4), Fraction(1, 2))),
     "089e81c99b24086826942db3e11977327e24caa70178cca5b182ead2dd90dc17"),
    ("kernel-rows1..40-m3..6",
     lambda: [kernel_power_entry(n, k, m) for m in range(3, 7)
              for n in range(1, 41) for k in range(1, n + 1)],
     "d1e12c0ef6cd58415015bdcbb9de28f625463675968bbc286dcbc931df02ef4f"),
    ("apply-power-mixed-fraction",
     lambda: apply_power(MIXED_VECTOR, 5, 28, mode="rational"),
     "060b7994ee9698faf6bc7faac21b93eba8940d98719d55a6d60cdd9f0b5ef5e0"),
    ("apply-power-complex",
     lambda: apply_power(COMPLEX_VECTOR, 3, 20, mode="rational"),
     "78ff3a5dcf5dff192c9fed15596dd01e310bea8d17c795ed70a9ed1c9341ad10"),
]


@pytest.mark.parametrize("build,digest", [p[1:] for p in PINNED_EXACT],
                         ids=[p[0] for p in PINNED_EXACT])
def test_exact_values_pinned_bytes(build, digest):
    values = build()
    assert _digest(values) == digest
    for v in values:
        parts = (v.re, v.im) if isinstance(v, QC) else (v,)
        assert all(type(p) is Fraction for p in parts)


# ---------------------------------------------------------------------------
# weighted norms


def test_weighted_norm_hand_value(poly2):
    assert weighted_norm((1, 1, 0.5), poly2) == \
        pytest.approx(1.3055555555555556, rel=1e-15)


def test_weighted_norm_skips_zeros_and_survives_huge_entries(poly2, superfact):
    assert weighted_norm((0, 0, 0), poly2) == 0.0
    assert weighted_norm((Fraction(10) ** 400,), poly2) == math.inf
    # w(2) = 1/4, so the sum is 2e305, near the top of the float range
    assert weighted_norm((1e305, 4e305), poly2) == pytest.approx(2e305,
                                                                 rel=1e-12)
    tiny = weighted_norm([0] * 299 + [Fraction(10) ** 400], superfact)
    assert math.isfinite(tiny)


# ---------------------------------------------------------------------------
# exact column and moment sums against the float engine


#: rational weights, each given exactly as a function of n
EXACT_WEIGHTS = {
    "poly:alpha=1": lambda n: Fraction(1, n),
    "poly:alpha=2": lambda n: Fraction(1, n ** 2),
    "poly:alpha=3": lambda n: Fraction(1, n ** 3),
    "geom:r=0.5": lambda n: Fraction(1, 2 ** n),
}


def exact_column_sums(w, N: int) -> list:
    """S_N(m) = (1/w(m)) sum_{n=m}^{N} w(n)/n for m = 1..N, in Fractions:
    the weighted column sums of the N-by-N averaging section."""
    sums, acc = [None] * N, Fraction(0)
    for n in range(N, 0, -1):
        acc += w(n) / n
        sums[n - 1] = acc / w(n)
    return sums


@pytest.mark.parametrize("spec", sorted(EXACT_WEIGHTS))
def test_exact_column_sums_stay_below_continuity_bounds(spec):
    # the largest column sum is the exact norm of the truncated operator
    # on l1(w), so it bounds the full norm from below; continuity's
    # certified bound must dominate it, and so must its empirical sup
    # (a sup over more columns of longer sums), up to rounding
    truncated = max(exact_column_sums(EXACT_WEIGHTS[spec], 300))
    verdict = continuity_criterion(parse_weight(spec), horizon=10 ** 4).verdict
    assert verdict.kind == "Holds"
    assert truncated <= verdict.certified_bound
    assert truncated <= verdict.empirical_sup * (1 + 1e-12)
    assert truncated > 1


#: the kinds of the moment rows t = 0, 1, 2 (eigenvalues 1, 1/2, 1/3)
EXACT_MOMENT_KINDS = {
    "poly:alpha=2": ("Holds", "Fails", "Fails"),
    "poly:alpha=3": ("Holds", "Holds", "Fails"),
    "geom:r=0.5": ("Holds", "Holds", "Holds"),
}


@pytest.mark.parametrize("spec", sorted(EXACT_MOMENT_KINDS))
def test_exact_moment_sums_against_membership_rows(spec):
    # each membership verdict reads the float partial sum of n^t w(n)
    # through the horizon, and a Holds closes it with a certified tail: the
    # exact partial sum must match the one and stay below the other
    w, horizon, ts = EXACT_WEIGHTS[spec], 300, (0, 1, 2)
    verdicts = rw_memberships(parse_weight(spec), ts, horizon)
    assert tuple(v.kind for v in verdicts) == EXACT_MOMENT_KINDS[spec]
    for t, verdict in zip(ts, verdicts):
        exact = sum(n ** t * w(n) for n in range(1, horizon + 1))
        error = abs(Fraction(verdict.empirical_sup) - exact)
        assert error <= exact * Fraction(1e-12)
        if verdict.is_holds:
            assert exact <= Fraction(verdict.certified_bound)


# ---------------------------------------------------------------------------
# resolvent sections


def test_resolvent_two_by_two_hand_inverse():
    sec = resolvent_section(Fraction(2), 2, mode="rational")
    assert sec.rows == ((QC(Fraction(-1)),),
                        (QC(Fraction(-1, 3)), QC(Fraction(-2, 3))))


def test_resolvent_one_by_one():
    sec = resolvent_section(Fraction(-1), 1, mode="rational")
    assert sec.rows == ((QC(Fraction(1, 2)),),)


def test_resolvent_rejects_excluded_points():
    with pytest.raises(SectionError, match="1/3"):
        resolvent_section(Fraction(1, 3), 4)
    with pytest.raises(SectionError, match="0"):
        resolvent_section(1e-12, 4)
    with pytest.raises(SectionError, match="1/7"):
        resolvent_section(1.0 / 7 + 5e-10, 4)
    with pytest.raises(SectionError):
        resolvent_section(2.0, DENSE_DIMENSION_CAP + 1)


def test_resolvent_rational_identity_exact():
    N = 12
    ces = cesaro_section(N)
    for lam in (Fraction(2), Fraction(-1), QC(Fraction(1), Fraction(1))):
        lam_q = QC.from_number(lam)
        res = resolvent_section(lam, N, mode="rational")
        for n in range(1, N + 1):
            for k in range(1, N + 1):
                acc = QC(Fraction(0))
                for j in range(k, n + 1):
                    centry = QC.from_number(ces.rows[n - 1][j - 1]) \
                        - lam_q * QC.from_number(1 if n == j else 0)
                    acc = acc + centry * QC.from_number(res.rows[j - 1][k - 1])
                target = QC(Fraction(1 if n == k else 0))
                assert (acc - target).is_zero


def test_resolvent_float_identity_residual():
    N = 200
    rng = np.random.default_rng(20260815)
    ces = section_matrix(cesaro_section(N, mode="float"))
    eye = np.eye(N, dtype=complex)
    accepted = 0
    worst = 0.0
    while accepted < 20:
        lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if distance_to_limit_set(lam) < 0.1:
            continue
        accepted += 1
        res = section_matrix(resolvent_section(lam, N))
        residual = np.abs((ces - lam * eye) @ res - eye).max()
        worst = max(worst, residual)
    assert worst <= 1e-12


def test_resolvent_float_matches_rational():
    N = 30
    lam = Fraction(1, 2) + Fraction(0)
    exact = section_matrix(resolvent_section(QC(Fraction(3, 4),
                                                Fraction(1, 2)),
                                             N, mode="rational"))
    approx = section_matrix(resolvent_section(0.75 + 0.5j, N, mode="float"))
    assert np.abs(exact - approx).max() <= 1e-12 * np.abs(exact).max()


def test_distance_to_limit_set_values():
    assert distance_to_limit_set(0.0) == 0.0
    assert distance_to_limit_set(1.0) == 0.0
    assert distance_to_limit_set(1.0 / 17) == pytest.approx(0.0, abs=1e-18)
    assert distance_to_limit_set(0.3 + 0.4j) == \
        pytest.approx(0.4013864859597432, rel=1e-12)
    assert distance_to_limit_set(0.5j) == pytest.approx(0.5)
    assert distance_to_limit_set(-2.0) == pytest.approx(2.0)


def test_nearest_limit_point_matches_brute_force():
    rng = np.random.default_rng(7)
    ks = np.arange(1.0, 60.0)
    # random points, the points 1/m themselves, and the real midpoints
    # between neighbours, where the nearer m is decided by rounding alone
    re = np.concatenate([rng.uniform(-0.5, 1.5, 400), 1.0 / ks,
                         0.5 * (1.0 / ks + 1.0 / (ks + 1.0))])
    im = np.concatenate([rng.uniform(-0.3, 0.3, 400), np.zeros(2 * ks.size)])
    dist, m = nearest_limit_point(re, im)
    ms = np.arange(1, 20001)
    for k in range(re.size):
        d = np.hypot(re[k] - 1.0 / ms, im[k])
        j = int(np.argmin(d))  # the first minimum: ties go to the smaller m
        if re[k] > 0:
            assert m[k] == ms[j]
        assert dist[k] == min(np.hypot(re[k], im[k]), d[j])
        assert distance_to_limit_set(complex(re[k], im[k])) == dist[k]


def test_resolvent_section_names_the_excluded_point():
    for lam, name in ((0.5 + 1e-12, "1/2"), (1e-12j, "0"),
                      (1.0 / 3 + 1e-11j, "1/3")):
        with pytest.raises(SectionError, match=f"excluded point {name}$"):
            resolvent_section(lam, 4)


# ---------------------------------------------------------------------------
# eigenvectors and dual vectors


def test_eigenvector_closed_forms():
    assert eigenvector(1, 5) == tuple(Fraction(1) for _ in range(5))
    assert eigenvector(2, 6) == tuple(Fraction(n - 1) for n in range(1, 7))
    assert eigenvector(3, 5)[4] == Fraction(6)
    assert eigenvector(2, 4, mode="float") == (0.0, 1.0, 2.0, 3.0)
    with pytest.raises(SectionError):
        eigenvector(0, 5)


def test_eigenvector_identity_exact():
    N = 30
    for m in range(1, 7):
        vec = eigenvector(m, N)
        image = apply_power(vec, 1, N, mode="rational")
        assert image == tuple(Fraction(1, m) * v for v in vec)


def test_dual_eigenvector_terminates_on_reciprocals():
    assert dual_eigenvector(1, 5) == (Fraction(1),) + (Fraction(0),) * 4
    assert dual_eigenvector(Fraction(1, 2), 5) == \
        (Fraction(1), Fraction(-1)) + (Fraction(0),) * 3
    for m in range(1, 7):
        y = dual_eigenvector(Fraction(1, m), m + 4)
        assert all(v == 0 for v in y[m:])
        assert all(v != 0 for v in y[:m])
    with pytest.raises(SectionError):
        dual_eigenvector(0, 4)


def test_dual_apply_eigen_identity():
    for m in range(1, 7):
        lam = Fraction(1, m)
        y = dual_eigenvector(lam, m + 2)
        image = dual_apply(y)
        assert image == tuple(lam * v for v in y)


def test_dual_apply_hand_example():
    image = dual_apply((Fraction(1), Fraction(-1)))
    assert image == (Fraction(1, 2), Fraction(-1, 2))


def test_dual_eigenvector_complex_and_float_agree():
    lam = 0.4 + 0.3j
    exact = dual_eigenvector(QC(Fraction(2, 5), Fraction(3, 10)), 12)
    approx = dual_eigenvector(lam, 12, mode="float")
    for a, b in zip(exact, approx):
        assert a.to_complex() == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# the shifted difference operator and its inverse


def test_shifted_inverse_hand_matrices():
    A, B = shifted_inverse_section(2)
    assert A.rows == ((Fraction(1, 2),), (Fraction(-1, 3), Fraction(2, 3)))
    assert B.rows == ((Fraction(2),), (Fraction(1), Fraction(3, 2)))


def test_shifted_inverse_third_row():
    _, B = shifted_inverse_section(3)
    assert list(B.rows[2]) == [Fraction(1), Fraction(1, 2), Fraction(4, 3)]


def test_shifted_inverse_product_is_identity():
    N = 40
    A, B = shifted_inverse_section(N)
    for n in range(1, N + 1):
        for k in range(1, n + 1):
            ab = sum(A.rows[n - 1][j - 1] * B.rows[j - 1][k - 1]
                     for j in range(k, n + 1))
            ba = sum(B.rows[n - 1][j - 1] * A.rows[j - 1][k - 1]
                     for j in range(k, n + 1))
            target = Fraction(1 if n == k else 0)
            assert ab == target and ba == target


def test_shifted_operator_on_constant_vector():
    N = 25
    A, _ = shifted_inverse_section(N)
    for n in range(1, N + 1):
        image = sum(A.rows[n - 1])
        assert image == Fraction(1, n + 1)


def test_shifted_inverse_float_mode():
    A, B = shifted_inverse_section(20, mode="float")
    prod = section_matrix(A) @ section_matrix(B)
    assert np.abs(prod - np.eye(20)).max() <= 1e-14


# ---------------------------------------------------------------------------
# triangular exactness and frozen regressions


def test_leading_blocks_match_smaller_sections():
    # by triangularity the first k rows of a bigger section are the
    # k-by-k section itself
    assert cesaro_section(20).rows[:7] == cesaro_section(7).rows

    big_r = resolvent_section(2.0, 30)
    small_r = resolvent_section(2.0, 9)
    for big_row, small_row in zip(big_r.rows, small_r.rows):
        np.testing.assert_allclose(big_row, small_row, rtol=1e-13)

    for big, small in zip(shifted_inverse_section(15),
                          shifted_inverse_section(6)):
        assert big.rows[:6] == small.rows


def test_triangularity_of_all_tags():
    sections = [cesaro_section(8), resolvent_section(2.0, 8),
                *shifted_inverse_section(8)]
    # row n stores columns 1..n only: every entry above the diagonal is 0
    for sec in sections:
        assert sec.N == 8
        assert [len(row) for row in sec.rows] == list(range(1, 9))


NORMALIZED_PRODUCT_RATIOS = {
    (2.0 + 0.0j): (1.012571927696, 1.02),
    (1.0 + 1.0j): (1.025291281505, 1.04),
    (-0.5 + 0.3j): (1.148247855764, 1.16),
}


@pytest.mark.parametrize("lam", sorted(NORMALIZED_PRODUCT_RATIOS, key=str))
def test_normalized_product_stays_in_band(lam):
    # n^a * prod_{k<=n} |1 - 1/(lam k)| with a = Re(1/lam) must stay within
    # a constant band; the band width was frozen from a one-time run
    frozen, slack = NORMALIZED_PRODUCT_RATIOS[lam]
    ks = np.arange(1, 10 ** 5 + 1, dtype=float)
    log_mag = np.cumsum(np.log(np.abs(1.0 - 1.0 / (lam * ks))))
    a = (1.0 / lam).real
    normalized = np.exp(log_mag + a * np.log(ks))[9:]
    ratio = float(normalized.max() / normalized.min())
    assert ratio == pytest.approx(frozen, rel=1e-9)
    assert ratio < slack


def test_falling_factorial_window():
    lo, hi = 2.0, 0.0
    for m in range(1, 6):
        for n in range(100, 2001):
            v = math.exp(math.lgamma(n) - math.lgamma(n - m + 1)
                         - (m - 1) * math.log(n))
            lo, hi = min(lo, v), max(hi, v)
    assert 0.5 <= lo <= hi <= 1.5
    assert lo == pytest.approx(0.90345024, rel=1e-6)
    assert hi == 1.0
