"""The suffix kernel skips only work that cannot change a bit.

``criteria._power_log_sums`` leaves out dead tails and upper chunks
that a row's bounds prove negligible.  The reference below is the
top-down, one-thread kernel that computes every term; every row of the
skipping kernel must equal it bit for bit.
"""

import math
import warnings

import numpy as np
import pytest

from cesaro import criteria
from cesaro.criteria import scan_indices, scan_reports
from cesaro.weights import custom_weight, load_weight_table, parse_weight

_TAIL_BLOCK = criteria._TAIL_BLOCK


def _reference_segment_log_sums(buf, starts):
    """Every term shifted by its segment's maximum and exponentiated."""
    if starts.size == buf.size:
        return buf
    with np.errstate(invalid="ignore", divide="ignore"):
        shift = np.maximum.reduceat(buf, starts)
        shift[~np.isfinite(shift)] = 0.0
        buf -= np.repeat(shift, np.diff(starts, append=buf.size))
        np.exp(buf, out=buf)
        return np.log(np.add.reduceat(buf, starts)) + shift


def reference_power_log_sums(w, rows, horizon):
    """log of sum_{n=m}^{horizon} n^(beta-1) w(n) for every (beta, targets)
    row: chunks from the horizon down, every term of every row computed,
    and the carry added chunk by chunk."""
    targets = [np.asarray(t, dtype=np.int64) for _, t in rows]
    out = [np.full(t.size, -np.inf) for t in targets]
    firsts = [max(1, int(t[0])) for t in targets if t.size]
    if not firsts:
        return out
    carry = np.full(len(targets), -np.inf)
    tmin = min(firsts)
    hi = horizon
    while hi >= tmin:
        lo = max(tmin, hi - criteria._CHUNK + 1)
        ns = np.arange(lo, hi + 1, dtype=np.int64)
        lw = w.log_eval(ns)
        ln = np.log(ns.astype(float))
        for r, ((beta, _), t) in enumerate(zip(rows, targets)):
            i0, i1 = np.searchsorted(t, (lo, hi + 1))
            if i1 == 0:
                continue
            rel = t[i0:i1] - lo
            fresh = np.diff(rel, prepend=0) != 0
            starts = np.concatenate(([0], rel[fresh]))
            buf = ln * (float(beta) - 1.0)
            buf += lw
            seg = _reference_segment_log_sums(buf, starts)
            with np.errstate(invalid="ignore"):  # NaN in log w
                seg = np.logaddexp.accumulate(seg[::-1])[::-1]
                out[r][i0:i1] = np.logaddexp(seg[np.cumsum(fresh)], carry[r])
                carry[r] = np.logaddexp(seg[0], carry[r])
        hi = lo - 1
    return out


def _analyze_rows(horizon):
    """The rows of an analyze pass (continuity, uw, 20 moments), moments
    below 1, and rows whose targets lie in the lowest chunk, above it and
    past the horizon."""
    scan = scan_indices(horizon)
    return ([(0.0, scan), (1.0, scan + 1)]
            + [(float(b), [1]) for b in range(1, 21)]
            + [(0.5, [1]), (-1.0, [1]), (3.0, [1, 5, 100]), (2.0, [3]),
               (1.0, [horizon - 1]), (1.0, [horizon + 7])])


def _assert_rows_equal(w, rows, horizon):
    got = criteria._power_log_sums(w, rows, horizon)
    want = reference_power_log_sums(w, rows, horizon)
    assert len(got) == len(want)
    for r, (g, e) in enumerate(zip(got, want)):
        assert g.tobytes() == e.tobytes(), (w.id, horizon, r, rows[r][0])


def _table(tmp_path, length):
    n = np.arange(1, length + 1)
    path = tmp_path / "table.txt"
    path.write_text("".join(f"{k} {v!r}\n" for k, v in zip(
        n.tolist(), (-0.002 * n - 0.5 * np.sin(n / 50.0)).tolist())))
    return load_weight_table(str(path))


def _finite_support(support):
    return custom_weight(
        f"finite{support}",
        lambda k: -0.5 * math.log(k) if k <= support else -math.inf,
        log_eval_array=lambda n: np.where(
            n <= support, -0.5 * np.log(np.maximum(n, 1).astype(float)),
            -np.inf))


def _special_values(value, at):
    """Fast decay with one NaN or +inf in log w at each index of ``at``."""
    def log_array(n):
        lw = -0.3 * n.astype(float)
        lw[np.isin(n, at)] = value
        return lw
    return custom_weight(f"special{value}", lambda k: float(
        log_array(np.array([k]))[0]), log_eval_array=log_array)


def _late_bump(index):
    """Geometric decay, then w = 1 at one late index: an upper chunk below
    the bump is negligible for the moments, the one holding it is not."""
    def log_array(n):
        return np.where(n == index, 0.0, -0.7 * n.astype(float))
    return custom_weight("bump", lambda k: 0.0 if k == index else -0.7 * k,
                         log_eval_array=log_array)


CATALOG = ["poly:alpha=2", "spike", "loggamma:gamma=2", "block413:alpha=2",
           "geom:r=0.5,beta=0.3", "factorial:a=1.5", "superfact",
           "expbeta:beta=0.5", "explog:gamma=2", "block313"]

#: chunk lengths above and below two tail blocks
CHUNKINGS = {"chunk-3x-tail-block": 3 * _TAIL_BLOCK,
             "chunk-1.5x-tail-block": 3 * _TAIL_BLOCK // 2}


def _weights(chunk, tmp_path):
    """Every catalog family, a custom table, a finite support, NaN and +inf
    in log w."""
    yield from (parse_weight(spec) for spec in CATALOG)
    yield _table(tmp_path, 4 * chunk)
    yield _finite_support(chunk + 100)
    yield _special_values(np.nan, [5, 3 * chunk])
    yield _special_values(np.inf, [2 * chunk + 3])
    yield _special_values(np.nan, [3 * chunk + 11])


@pytest.mark.parametrize("chunking", sorted(CHUNKINGS))
def test_rows_match_the_reference_kernel(monkeypatch, tmp_path, workers,
                                         chunking):
    chunk = CHUNKINGS[chunking]
    monkeypatch.setattr(criteria, "_CHUNK", chunk)
    for w in _weights(chunk, tmp_path):
        for horizon in (chunk - 5, 2 * chunk - 5, 4 * chunk - 5):
            _assert_rows_equal(w, _analyze_rows(horizon), horizon)


@pytest.mark.parametrize("spec", CATALOG)
def test_catalog_rows_match_the_reference_at_the_default_horizon(spec):
    horizon = criteria.DEFAULT_HORIZON
    _assert_rows_equal(parse_weight(spec), _analyze_rows(horizon), horizon)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "pos-inf"])
def test_special_values_raise_no_warning(monkeypatch, workers, value):
    """NaN and +inf in log w reach the segment sums, their reversed
    accumulation and the carry fold; none of them may warn."""
    chunk = 3 * _TAIL_BLOCK
    monkeypatch.setattr(criteria, "_CHUNK", chunk)
    horizon = 4 * chunk - 5
    w = _special_values(value, [5, 2 * chunk + 3, 3 * chunk + 11])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        criteria._power_log_sums(w, _analyze_rows(horizon), horizon)


@pytest.fixture
def chunk_jobs(monkeypatch):
    """Per chunk, in the order they run: the rows reduced and, for each
    one-segment row, the number of terms it left live."""
    run_rows = criteria._run_rows
    segment_log_sums = criteria._segment_log_sums
    chunks = []

    def recording(jobs, shared, scratch):
        chunks.append(([job[0] for job in jobs], []))
        return run_rows(jobs, shared, scratch)

    def counted(buf, starts, live):
        if starts.size == 1:
            chunks[-1][1].append(live)
        return segment_log_sums(buf, starts, live)

    monkeypatch.setattr(criteria, "_run_rows", recording)
    monkeypatch.setattr(criteria, "_segment_log_sums", counted)
    return chunks


def test_rows_near_one_keep_every_upper_chunk(monkeypatch, chunk_jobs,
                                              workers):
    """A total near 1 has v near 0, where even a carry of 1e-17 moves the
    sum: those rows must run in every upper chunk."""
    monkeypatch.setattr(criteria, "_CHUNK", 3 * _TAIL_BLOCK)
    zeta4 = math.pi ** 4 / 90.0
    w = custom_weight("quartic", lambda k: -4.0 * math.log(k)
                      - math.log(zeta4), log_eval_array=lambda n: -4.0
                      * np.log(n.astype(float)) - math.log(zeta4))
    rows = [(1.0, [1]), (2.0, [1]), (30.0, [1])]
    horizon = 4 * 3 * _TAIL_BLOCK - 5
    sums = criteria._power_log_sums(w, rows, horizon)
    assert abs(sums[0][0]) < 1e-9
    assert len(chunk_jobs) == 4
    assert all(0 in rows_run and 1 in rows_run
               for rows_run, _ in chunk_jobs)
    _assert_rows_equal(w, rows, horizon)


def test_a_late_bump_sums_the_row_again(monkeypatch, chunk_jobs, workers):
    """The moment rows sit out the second chunk and fail the test on the
    third, which holds the bump: they are summed again over every chunk,
    and their bits are those of the full kernel."""
    chunk = 3 * _TAIL_BLOCK
    monkeypatch.setattr(criteria, "_CHUNK", chunk)
    horizon = 4 * chunk - 5
    w = _late_bump(horizon - chunk - 100)  # inside the third chunk
    streams = []
    kernel = criteria._power_log_sums

    def counted(w, rows, horizon, *args, **kwargs):
        streams.append([r for r, (_, t) in enumerate(rows) if len(t)])
        return kernel(w, rows, horizon, *args, **kwargs)

    monkeypatch.setattr(criteria, "_power_log_sums", counted)
    rows = _analyze_rows(horizon)
    _assert_rows_equal(w, rows, horizon)
    moments = list(range(2, 22))
    assert len(streams) == 2
    assert set(moments) <= set(streams[1])
    # lowest chunk, the second (every moment sits out), the third (none)
    rows_run = [set(r) for r, _ in chunk_jobs[:3]]
    assert set(moments) <= rows_run[0]
    assert not set(moments) & rows_run[1]
    assert not set(moments) & rows_run[2]


def test_scan_reports_work_shape(chunk_jobs):
    """At the default horizon, geom's 20 moment rows sit out the upper
    chunk and, in the lowest one, leave no term live past their first
    block; poly decays too slowly for either rule."""
    horizon = criteria.DEFAULT_HORIZON
    ts = [float(t) for t in range(20)]
    scan_reports(parse_weight("geom:r=0.5"), horizon, ts)
    assert [len(rows) for rows, _ in chunk_jobs] == [22, 2]
    lowest_live = chunk_jobs[0][1]
    assert len(lowest_live) == 20
    assert all(live <= _TAIL_BLOCK for live in lowest_live)
    chunk_jobs.clear()
    scan_reports(parse_weight("poly:alpha=2"), horizon, ts)
    assert [len(rows) for rows, _ in chunk_jobs] == [22, 22]
