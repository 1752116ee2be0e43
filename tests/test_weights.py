"""Weight catalog: evaluation oracles, certified tails, metadata soundness."""

import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesaro import weights
from cesaro.weights import (
    WeightError,
    build_compact_minorant,
    build_failing_minorant,
    catalog_families,
    catalog_weight,
    custom_weight,
    load_weight_table,
    parse_weight,
)
from cesaro.criteria import continuity_criterion


# ---------------------------------------------------------------------------
# pointwise evaluation oracles


@pytest.mark.parametrize("family,params,n,value", [
    ("poly", {"alpha": 2.0}, 3, 1.0 / 9.0),
    ("poly", {"alpha": 0.5}, 4, 0.5),
    ("loggamma", {"gamma": 2.0}, 1, 1.0 / math.log(2.0) ** 2),
    ("geom", {"r": 0.5, "beta": 0.0}, 4, 1.0 / 16.0),
    ("geom", {"r": 0.5, "beta": 3.0}, 2, 2.0),
    ("superfact", {}, 3, 1.0 / 27.0),
    ("factorial", {"a": 1.0}, 4, 1.0 / 24.0),
    ("expbeta", {"beta": 0.5}, 4, math.exp(-2.0)),
    ("explog", {"gamma": 2.0}, 2, math.exp(-math.log(2.0) ** 2)),
    ("spike", {}, 4, 1.0),
    ("spike", {}, 5, 0.2),
    ("spike", {}, 1, 1.0),
    ("block313", {}, 2, 1.0),
    ("block313", {}, 3, 2.0 ** -9),
    ("block313", {}, 4, 2.0 ** -9),
    ("block313", {}, 5, 2.0 ** -26),
    ("block313", {}, 8, 2.0 ** -26),
    ("block413", {"alpha": 2.0}, 2, 1.0),
    ("block413", {"alpha": 2.0}, 3, 1.0),
    ("block413", {"alpha": 2.0}, 5, 1.0 / 8.0),
    ("block413", {"alpha": 2.0}, 9, 1.0 / 36.0),
    ("block413", {"alpha": 2.0}, 16, 1.0 / 36.0),
])
def test_eval_oracles(family, params, n, value):
    w = catalog_weight(family, params)
    assert math.exp(w.log_eval(n)) == pytest.approx(value, rel=1e-12)


def _every_family_and_constructed(poly1):
    """All 10 catalog families and the 3 constructed weights."""
    weights = [catalog_weight(family, params) for family, params in [
        ("poly", {"alpha": 1.5}), ("loggamma", {"gamma": 1.0}),
        ("geom", {"r": 0.3, "beta": 1.0}), ("superfact", {}),
        ("factorial", {"a": 2.5}), ("expbeta", {"beta": 0.5}),
        ("explog", {"gamma": 2.0}), ("spike", {}), ("block313", {}),
        ("block413", {"alpha": 2.0})]]
    return weights + [build_failing_minorant(poly1),
                      build_compact_minorant(poly1),
                      custom_weight("harmonic", lambda n: -math.log(n))]


def test_array_eval_matches_scalar(poly1):
    """A single value is the array value at that index, bit for bit."""
    ns = np.arange(1, 10 ** 4 + 1, dtype=np.int64)
    for w in _every_family_and_constructed(poly1):
        arr = w.log_eval(ns)
        scalars = np.array([w.log_eval(int(n)) for n in ns])
        assert np.array_equal(arr, scalars), w.id


def test_eval_rejects_nonpositive_index(poly1):
    """Scalars and arrays are checked alike, before any family evaluates;
    an empty index array gives an empty float array."""
    for w in _every_family_and_constructed(poly1):
        for bad in (0, -3, np.array([0, -3]), np.array([5, 0]),
                    np.array([-1])):
            with pytest.raises(ValueError, match="weight index must be >= 1"):
                w.log_eval(bad)
        empty = w.log_eval(np.array([], dtype=np.int64))
        assert empty.shape == (0,) and empty.dtype == float, w.id


def test_underflow_marker():
    """The log domain keeps w(200) = 200^-200, which underflows float64."""
    w = catalog_weight("superfact")
    logv = w.log_eval(200)
    assert math.isfinite(logv)
    assert math.exp(logv) == 0.0


# ---------------------------------------------------------------------------
# grammar and custom tables


def test_parse_weight_roundtrip():
    assert parse_weight("poly:alpha=2").id == "poly:alpha=2"
    assert parse_weight(" geom:r=0.5 ").id == "geom:r=0.5,beta=0"
    assert parse_weight("superfact").id == "superfact"


@pytest.mark.parametrize("bad", [
    "", "nosuchfamily", "poly", "poly:alpha=two", "poly:alpha",
    "poly:beta=2", "geom:r=2", "loggamma:gamma=0", "block413:alpha=1",
])
def test_parse_weight_rejects(bad):
    with pytest.raises(WeightError):
        parse_weight(bad)


def test_load_weight_table(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("1 0.0\n2 -0.5\n3 -1.0\n")
    w = load_weight_table(str(path))
    assert w.log_eval(2) == -0.5
    assert w.table_size == 3
    gap = tmp_path / "gap.txt"
    gap.write_text("1 0.0\n3 -1.0\n")
    with pytest.raises(WeightError):
        load_weight_table(str(gap))
    for bad in ("nan", "inf", "-inf"):
        table = tmp_path / f"{bad}.txt"
        table.write_text(f"1 0.0\n2 {bad}\n3 -1.0\n")
        with pytest.raises(WeightError, match=f"{table}:2: ln_w must be "
                           "finite"):
            load_weight_table(str(table))


def test_parse_custom_grammar(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("1 0.0\n2 -1.0\n")
    w = parse_weight(f"custom:path={path}")
    assert w.log_eval(2) == -1.0


def test_custom_weight_metadata():
    w = custom_weight("mine", lambda n: -float(n), ratio_bound=(1, 0.5))
    assert w.log_eval(3) == -3.0
    assert w.ratio_bound == (1, 0.5)
    assert w.log_tail(1, 1.0) is not None
    # a ratio bound of 1 or more certifies nothing: no envelope, no crash
    flat = custom_weight("flat", lambda n: 0.0, ratio_bound=(1, 1.0))
    assert (flat.cont_env(), flat.uw_env(), flat.res_env(0.5)) == (None,) * 3
    assert continuity_criterion(flat, horizon=100).verdict.is_inconclusive


def test_summability_is_derived():
    """Summability follows from the divergence metadata and rapid decay;
    it cannot be declared."""
    assert parse_weight("poly:alpha=2").is_summable
    assert not parse_weight("poly:alpha=1").is_summable
    rapid = custom_weight("rapid", lambda n: -float(n) ** 2,
                          rapidly_decreasing=True)
    assert rapid.diverges_beta(1.0) is False and rapid.is_summable
    assert not custom_weight("bare", lambda n: 0.0).is_summable
    with pytest.raises(TypeError):
        custom_weight("mine", lambda n: -float(n), is_summable=True)


def test_catalog_families_listing():
    fams = catalog_families()
    names = {f["family"] for f in fams}
    assert names == {"poly", "loggamma", "geom", "superfact", "factorial",
                     "expbeta", "explog", "spike", "block313", "block413"}
    for f in fams:
        assert isinstance(f["params"], list) and isinstance(f["doc"], str)


# ---------------------------------------------------------------------------
# certified tail bounds


TAIL_CASES = [
    ("poly", {"alpha": 2.0}, 1, 0.0),
    ("poly", {"alpha": 2.0}, 10, 0.0),
    ("poly", {"alpha": 2.0}, 2, -1.0),
    ("geom", {"r": 0.5, "beta": 0.0}, 1, 1.0),
    ("geom", {"r": 0.5, "beta": 0.0}, 5, 0.0),
    ("superfact", {}, 1, 1.0),
    ("superfact", {}, 3, 5.0),
    ("factorial", {"a": 1.0}, 2, 1.0),
    ("spike", {}, 1, 0.0),
    ("spike", {}, 17, 0.5),
    ("block313", {}, 1, 1.0),
    ("block313", {}, 9, 0.0),
    ("block413", {"alpha": 2.0}, 1, 1.0),
    ("block413", {"alpha": 2.0}, 6, 0.5),
    ("loggamma", {"gamma": 2.0}, 2, 0.0),
    ("expbeta", {"beta": 0.5}, 1, 0.0),
    ("expbeta", {"beta": 0.5}, 2, 0.0),
    ("explog", {"gamma": 2.0}, 1, 0.0),
    ("explog", {"gamma": 2.0}, 2, 0.0),
    ("explog", {"gamma": 2.0}, 3, 0.0),
    ("explog", {"gamma": 2.0}, 10, 0.0),
    ("explog", {"gamma": 2.0}, 100, 0.0),
    ("explog", {"gamma": 3.0}, 10, 0.0),
    ("explog", {"gamma": 12.0}, 3, 0.0),
    ("loggamma", {"gamma": 2.0}, 1, 0.0),
    ("spike", {}, 2, 0.0),
    ("block313", {}, 2, 1.0),
    ("block413", {"alpha": 2.0}, 2, 0.5),
]


@pytest.mark.parametrize("family,params,m,beta", TAIL_CASES)
def test_tail_bound_soundness(family, params, m, beta):
    """Certified tails dominate direct partial sums at every horizon."""
    w = catalog_weight(family, params)
    bound = w.tail_majorant(m, beta)
    assert bound is not None
    ns = np.arange(m, 10 ** 5, dtype=np.int64)
    terms = np.exp(w.log_eval(ns) + (beta - 1.0) * np.log(ns.astype(float)))
    partial = float(np.sum(terms))
    assert partial <= bound * (1.0 + 1e-12)


# log_tail(m, beta) of these weights before every bridge was summed in
# WeightSpec.log_tail, as float.hex strings (null: no certified tail)
LOG_TAIL_TABLE = json.loads(
    (pathlib.Path(__file__).parent / "data" / "log_tail_table.json").read_text())


@pytest.mark.parametrize("spec", sorted(LOG_TAIL_TABLE["log_tail"]))
def test_tail_hook_contract(spec):
    """A family's closed form starts at or after m and depends on its start
    alone, so no hook hides a bridge below the start it returns."""
    w = parse_weight(spec)
    for m in LOG_TAIL_TABLE["ms"]:
        for beta in LOG_TAIL_TABLE["betas"]:
            found = w.tail_hook(m, beta) if w.tail_hook is not None else None
            if found is None:
                continue
            start, _ = found
            assert start >= m, (spec, m, beta)
            assert w.tail_hook(start, beta) == found, (spec, m, beta)


@pytest.mark.parametrize("spec", sorted(LOG_TAIL_TABLE["log_tail"]))
def test_log_tail_table(spec):
    """Composing every bridge in one place keeps each tail bit for bit, with
    two exceptions: explog's closed form gained its missing head term, so its
    tails may only grow, and the m <= 2 rows of spike, block313 and block413
    now add the bridge to the closed form, which may move the last bit."""
    w = parse_weight(spec)
    family = spec.partition(":")[0]
    rows = LOG_TAIL_TABLE["log_tail"][spec]
    for m, row in zip(LOG_TAIL_TABLE["ms"], rows):
        for beta, stored in zip(LOG_TAIL_TABLE["betas"], row):
            got = w.log_tail(m, beta)
            where = (spec, m, beta)
            if stored is None:
                assert got is None, where
                continue
            old = float.fromhex(stored)
            if family == "explog":
                assert got >= old, where
            elif family in ("spike", "block313", "block413") and m <= 2:
                assert abs(got - old) <= 2.3e-16, where
            else:
                assert got.hex() == stored, where



# cont_env(), uw_env() and res_env(alpha) of the LOG_TAIL_TABLE weights and
# one constructed weight, recorded before the envelopes dropped their unused
# start argument: [valid_from, log_sup float.hex, vanishes, note] or null
ENVELOPE_TABLE = json.loads(
    (pathlib.Path(__file__).parent / "data" / "envelope_table.json").read_text())


def _table_weight(key):
    if key.startswith("compactmin("):
        return build_compact_minorant(parse_weight(key[len("compactmin("):-1]))
    return parse_weight(key)


def _envelopes(w):
    """{"cont": env, "uw": env, "res": [env per table alpha]}"""
    return {"cont": w.cont_env(), "uw": w.uw_env(),
            "res": [w.res_env(a) for a in ENVELOPE_TABLE["alphas"]]}


def _entry(env):
    if env is None:
        return None
    return [env.valid_from, env.log_sup.hex(), env.vanishes, env.note]


@pytest.mark.parametrize("key", sorted(ENVELOPE_TABLE["envelopes"]))
def test_envelope_table(key):
    """Every certified sup envelope keeps its start, bound, flag and note
    bit for bit."""
    got = _envelopes(_table_weight(key))
    stored = ENVELOPE_TABLE["envelopes"][key]
    assert _entry(got["cont"]) == stored["cont"], key
    assert _entry(got["uw"]) == stored["uw"], key
    for alpha, env, row in zip(ENVELOPE_TABLE["alphas"], got["res"],
                               stored["res"]):
        assert _entry(env) == row, (key, alpha)


_ENV_TOP = 10 ** 4  # largest m checked
_ENV_SUM_TOP = 4 * 10 ** 4  # partial sums run through this index


def test_envelopes_dominate_partial_sums():
    """Each declared sup envelope bounds the partial sums, through n = 4e4,
    of its quantity at every m from its start to 1e4 (log domain):

    * continuity  sum_{n>=m} w(n)/n / w(m);
    * uw          sum_{n>m} w(n) / (m w(m+1));
    * resolvent   sum_{n>m} w(n) n^(alpha-1) / (m^alpha w(m)).
    """
    ns = np.arange(1, _ENV_SUM_TOP + 1, dtype=np.int64)
    ln = np.log(ns.astype(float))
    ms = np.arange(1, _ENV_TOP + 1)
    checked = 0
    for key in sorted(ENVELOPE_TABLE["envelopes"]):
        w = _table_weight(key)
        lw = np.asarray(w.log_eval(ns), dtype=float)

        def suffix(beta):
            # suffix[k] = log sum_{n >= k+1} w(n) n^(beta-1)
            terms = lw + (beta - 1.0) * ln
            return np.logaddexp.accumulate(terms[::-1])[::-1]

        envs = _envelopes(w)
        quantities = [(envs["cont"], suffix(0.0)[ms - 1] - lw[ms - 1]),
                      (envs["uw"], suffix(1.0)[ms] - ln[ms - 1] - lw[ms])]
        quantities += [(env, suffix(a)[ms] - a * ln[ms - 1] - lw[ms - 1])
                       for a, env in zip(ENVELOPE_TABLE["alphas"], envs["res"])]
        for env, log_q in quantities:
            if env is None or env.valid_from > _ENV_TOP:
                continue
            checked += 1
            worst = float(np.max(log_q[env.valid_from - 1:]))
            assert worst <= env.log_sup + 1e-9, (key, env)
    assert checked >= 150


def test_custom_weight_rejects_the_old_envelope_hooks():
    """The continuity and averaging envelopes are values now; a hook written
    to the old contract fails loudly."""
    with pytest.raises(TypeError):
        custom_weight("mine", lambda n: -float(n),
                      cont_env_hook=lambda n0: None)


def test_tail_bound_exact_value_geom(geom05):
    # sum_{n>=3} 2^-n / n = ln 2 - 1/2 - 1/8 exactly; the certified route
    # majorizes 1/n by 1/3 across the tail, landing at 1/12 exactly
    exact = math.log(2.0) - 0.5 - 0.125
    bound = geom05.tail_majorant(3, 0.0)
    assert bound >= exact
    assert bound == pytest.approx(1.0 / 12.0, rel=1e-10)


def test_tail_absent_when_divergent(loggamma1, spike):
    assert loggamma1.tail_majorant(1, 0.0) is None
    assert spike.diverges_beta(1.0) is True


def test_divergence_hook_answers_before_the_minorant():
    # block413's minorant walks ~alpha/((beta-1) ln 2) terms as beta falls to
    # 1; its divergence hook answers in closed form and must be asked first
    def no_minorant(s):
        raise AssertionError("minorant built although the hook answers")

    w = dataclasses.replace(catalog_weight("block413", {"alpha": 2.0}),
                            minorant_log_c_hook=no_minorant)
    assert w.diverges_beta(1.0 + 1e-6) is True


def test_decreasing_metadata_sound():
    for family, params in [("poly", {"alpha": 2.0}),
                           ("geom", {"r": 0.5, "beta": 0.0}),
                           ("superfact", {}), ("factorial", {"a": 1.0}),
                           ("loggamma", {"gamma": 1.0}),
                           ("block413", {"alpha": 2.0})]:
        w = catalog_weight(family, params)
        if w.decreasing_from is None:
            continue
        ns = np.arange(w.decreasing_from, w.decreasing_from + 3000,
                       dtype=np.int64)
        logs = w.log_eval(ns)
        assert np.all(np.diff(logs) <= 1e-15), (family, params)


@given(alpha=st.floats(min_value=0.2, max_value=5.0),
       n=st.integers(min_value=1, max_value=10 ** 9))
@settings(max_examples=60, deadline=None)
def test_poly_eval_property(alpha, n):
    w = catalog_weight("poly", {"alpha": alpha})
    assert w.log_eval(n) == pytest.approx(-alpha * math.log(n), abs=1e-9)


@given(m=st.integers(min_value=1, max_value=3000),
       beta=st.floats(min_value=-2.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_geom_tail_property(m, beta):
    w = catalog_weight("geom", {"r": 0.5, "beta": 0.0})
    bound = w.tail_majorant(m, beta)
    assert bound is not None
    ns = np.arange(m, m + 4000, dtype=np.int64)
    partial = float(np.sum(np.exp(
        w.log_eval(ns) + (beta - 1.0) * np.log(ns.astype(float)))))
    assert partial <= bound * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# constructed minorants


def test_failing_minorant_shape(poly1):
    v = build_failing_minorant(poly1)
    ns = np.arange(1, 20000, dtype=np.int64)
    logs_v = v.log_eval(ns)
    logs_orig = poly1.log_eval(ns)
    assert np.all(logs_v <= logs_orig + 1e-12)
    assert np.all(np.diff(logs_v) <= 1e-15)


def test_failing_minorant_block_growth(poly1):
    """Completed blocks push the averaged tail past each integer level."""
    v = build_failing_minorant(poly1)
    env = v.cont_lower
    assert env is not None and env.diverging
    for j in range(1, env.max_index + 1):
        assert env.log_value_at(j) > math.log(j)
    top = env.max_index or 5
    for i in range(1, min(top, 6) + 1):
        idx = env.index_at(i)
        certified = math.exp(env.log_value_at(i))
        ns = np.arange(idx, 10 ** 6, dtype=np.int64)
        partial = float(np.sum(
            np.exp(v.log_eval(ns)) / ns.astype(float)))
        partial /= math.exp(v.log_eval(idx))
        assert partial >= certified * (1.0 - 1e-9)


def test_failing_minorant_continuity_fails(poly1):
    report = continuity_criterion(build_failing_minorant(poly1))
    assert report.verdict.is_fails
    assert report.verdict.witness is not None


def test_compact_minorant_recursion(poly2):
    u = build_compact_minorant(poly2)
    ns = np.arange(1, 5000, dtype=np.int64)
    logs_u = u.log_eval(ns)
    assert np.all(logs_u <= poly2.log_eval(ns) + 1e-12)
    # recursion inequality: u(n+1) <= u(n)/(n+1), up to log-domain roundoff
    step = logs_u[1:] - logs_u[:-1]
    assert np.all(step <= -np.log(ns[1:].astype(float)) + 1e-10)


def test_spike_not_c0_yet_continuous(spike):
    """Spikes stay at height one along powers of two, yet the sup closes."""
    for k in range(1, 30):
        assert spike.log_eval(2 ** k) == 0.0
    report = continuity_criterion(spike)
    assert report.verdict.is_holds
    assert report.verdict.certified_bound <= math.pi ** 2 / 6.0 + 3.0


def test_compact_minorant_is_a_function_of_n(poly2):
    """u(n) does not depend on the order in which a minorant is asked for
    its values: a small call first, one large call and block-by-block
    calls give the same bits, chunk restarts and dips included."""
    ns = np.arange(1, 200_001, dtype=np.int64)
    whole = build_compact_minorant(poly2).log_eval(ns)
    small_first = build_compact_minorant(poly2)
    small_first.log_eval(np.arange(1, 11, dtype=np.int64))
    blocks = build_compact_minorant(poly2)
    by_block = np.concatenate([blocks.log_eval(ns[a:a + 7000])
                               for a in range(0, ns.size, 7000)])
    for got in (small_first.log_eval(ns), by_block):
        np.testing.assert_array_equal(got.view(np.int64), whole.view(np.int64))


def test_compact_minorant_of_a_table_stops_at_its_end(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("".join(f"{n} {-2.0 * math.log(n)!r}\n"
                            for n in range(1, 101)))
    u = build_compact_minorant(load_weight_table(str(path)))
    assert np.all(np.isfinite(u.log_eval(np.arange(1, 101, dtype=np.int64))))
    with pytest.raises(WeightError, match="index 101 outside 1..100"):
        u.log_eval(101)


# ---------------------------------------------------------------------------
# blocked evaluation: log_eval cuts arrays into _EVAL_BLOCK pieces


_BLOCK = weights._EVAL_BLOCK
#: an array longer than two blocks that starts at 1 (below factorial's
#: exact-lgamma limit of 10) and crosses the powers of two up to 2^17, and
#: the same range walked down to 3 through a strided view
_CONTRACT_ARRAYS = (np.arange(1, 2 * _BLOCK + 778, dtype=np.int64),
                    np.arange(3, 2 * _BLOCK + 900, dtype=np.int64)[::-1])
_CONTRACT_CUTS = (1, 7, _BLOCK - 1, _BLOCK + 1)
#: each family at both ends of the parameter range that
#: tests/test_cli.py::catalog_inputs draws from
_RANGE_ENDS = ["poly:alpha=0.001", "poly:alpha=100",
               "loggamma:gamma=0.001", "loggamma:gamma=30",
               "geom:r=0.001,beta=-5", "geom:r=0.999,beta=5",
               "superfact", "factorial:a=0.001", "factorial:a=100",
               "expbeta:beta=0.001", "expbeta:beta=8",
               "explog:gamma=1.0001", "explog:gamma=12", "spike",
               "block313", "block413:alpha=1.0001", "block413:alpha=60"]


def _contract_weight(key, tmp_path):
    if key == "table":
        path = tmp_path / "w.txt"
        path.write_text("".join(f"{n} {-1.5 * math.log(n) + math.sin(n)!r}\n"
                                for n in range(1, 2 * _BLOCK + 1000)))
        return load_weight_table(str(path))
    if key == "custom":
        return custom_weight("scalar", lambda n: -0.5 * math.log(n) - n % 3)
    if key == "blockmin":
        return build_failing_minorant(parse_weight("poly:alpha=1"))
    if key == "compactmin":
        return build_compact_minorant(parse_weight("poly:alpha=2"))
    return parse_weight(key)


@pytest.mark.parametrize("key", _RANGE_ENDS + ["table", "custom", "blockmin",
                                               "compactmin"])
def test_blocked_evaluation_is_bit_exact(key, tmp_path):
    """log_eval on an array longer than two blocks equals the evaluator on
    the whole array and on sub-slices cut off the block grid, bit for bit:
    every evaluator is elementwise and keeps no history."""
    w = _contract_weight(key, tmp_path)
    for ns in _CONTRACT_ARRAYS:
        got = w.log_eval(ns).view(np.int64)
        np.testing.assert_array_equal(got, w.log_eval_array(ns).view(np.int64))
        for cut in _CONTRACT_CUTS:
            for part in (slice(None, cut), slice(cut, None)):
                np.testing.assert_array_equal(
                    got[part], w.log_eval_array(ns[part]).view(np.int64))


def test_blocked_evaluation_keeps_shape_and_checks_indices(poly2):
    ns = np.arange(1, 2 * _BLOCK + 7, dtype=np.int64)
    square = poly2.log_eval(ns[:36].reshape(6, 6))
    assert square.shape == (6, 6)
    np.testing.assert_array_equal(square.ravel(), poly2.log_eval(ns[:36]))
    assert poly2.log_eval(np.arange(0, dtype=np.int64)).shape == (0,)
    with pytest.raises(ValueError, match="weight index must be >= 1"):
        poly2.log_eval(ns - 1)


def test_table_needs_min_horizon_rows(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("1 0.0\n")
    with pytest.raises(WeightError, match=f"{path}: a table needs at least "
                       f"{weights.MIN_HORIZON} rows, this one has 1"):
        load_weight_table(str(path))
