"""End-to-end tests for the command-line front end.

Each subcommand runs in-process through ``main(argv)``; outputs are parsed
back from stdout or from files in a temporary directory.  Exit codes follow
the documented mapping: 0 success, 2 parse error, 3 budget exceeded, 4
conflicting certificates.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import tempfile
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cesaro import cli
from cesaro.cli import (
    DEFAULT_GRID,
    EXIT_BUDGET,
    EXIT_CONFLICT,
    EXIT_OK,
    EXIT_PARSE,
    SCHEMA_VERSION,
    RunConfig,
    _parse_grid,
    main,
)
from cesaro.criteria import PROBE_CEILING, Bracket, Verdict, Witness
from cesaro.weights import WeightError, parse_weight

FAST = ["--horizon", "100000"]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# catalog


def test_catalog_lists_families(capsys):
    code, doc = run_json(capsys, ["catalog"])
    assert code == EXIT_OK
    assert doc["schema_version"] == SCHEMA_VERSION
    names = {f["family"] for f in doc["families"]}
    assert {"poly", "loggamma", "geom", "superfact", "factorial", "expbeta",
            "explog", "spike", "block313", "block413"} <= names


def test_catalog_family_filter(capsys):
    code, doc = run_json(capsys, ["catalog", "--family", "poly"])
    assert code == EXIT_OK
    assert [f["family"] for f in doc["families"]] == ["poly"]


def test_catalog_unknown_family(capsys):
    assert main(["catalog", "--family", "nosuch"]) == EXIT_PARSE
    assert "unknown weight family" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_poly_report(capsys):
    code, doc = run_json(capsys, ["analyze", "-w", "poly:alpha=2",
                                  "--m-max", "5", *FAST])
    assert code == EXIT_OK
    assert doc["weight_id"] == "poly:alpha=2"
    results = doc["results"]
    assert results["continuity"]["verdict"]["kind"] == "Holds"
    assert results["compactness"]["verdict"]["kind"] == "Fails"
    assert results["uw"]["verdict"]["kind"] == "Holds"
    assert results["s1"]["kind"] == "bracket"
    held = [row["lambda"] for row in results["point_spectrum"]
            if row["verdict"]["kind"] == "Holds"]
    assert held == [1.0]
    assert all(check["ok"] for check in doc["consistency"])


def test_analyze_divergent_weight(capsys):
    code, doc = run_json(capsys, ["analyze", "-w", "loggamma:gamma=1",
                                  "--m-max", "3", *FAST])
    assert code == EXIT_OK
    assert doc["results"]["continuity"]["verdict"]["kind"] == "Fails"


def test_analyze_unknown_weight(capsys):
    assert main(["analyze", "-w", "nosuch:alpha=2", *FAST]) == EXIT_PARSE


def test_analyze_requires_weight_flag():
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2


def test_analyze_conflict_diagnostic(capsys, monkeypatch):
    # force a resolved boundary bracket onto a compact weight; the report
    # must flag the contradiction and exit with the diagnostic code
    fake = Bracket(kind="bracket", lo=1.999, hi=2.001, member_side="hi")
    monkeypatch.setattr("cesaro.cli.s1_estimate", lambda w: fake)
    code = main(["analyze", "-w", "geom:r=0.5", "--m-max", "3", *FAST])
    assert code == EXIT_CONFLICT
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert any(not c["ok"] for c in doc["consistency"])
    assert "conflicting certificates" in captured.err


def test_analyze_compactness_without_continuity_conflicts(capsys,
                                                          monkeypatch):
    # force continuity to Fails on a compact weight: compactness Holds, so
    # the report must flag that compactness implies continuity
    scan_reports = cli.scan_reports

    def forced(w, horizon, ts):
        cont, comp, uw, memberships = scan_reports(w, horizon, ts)
        fails = Verdict.fails(Witness(1, 1.0, "sup-exceeds"), 1.0, horizon)
        return replace(cont, verdict=fails), comp, uw, memberships

    monkeypatch.setattr(cli, "scan_reports", forced)
    code = main(["analyze", "-w", "geom:r=0.5", "--m-max", "3", *FAST])
    assert code == EXIT_CONFLICT
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["results"]["compactness"]["verdict"]["kind"] == "Holds"
    assert [c["name"] for c in doc["consistency"] if not c["ok"]] == [
        "compactness implies continuity"]
    assert "conflicting certificates" in captured.err


def test_spectrum_conflict_diagnostic(capsys, monkeypatch):
    # the boundary bracket of test_analyze_conflict_diagnostic, forced into
    # the spectrum context of a compact weight: grid nodes conflict
    fake = Bracket(kind="bracket", lo=1.999, hi=2.001, member_side="hi")
    monkeypatch.setattr("cesaro.spectral.s1_estimate", lambda w: fake)
    code = main(["spectrum", "-w", "geom:r=0.5", "--horizon", "10000",
                 "--grid=-0.2,1.2,-0.7,0.7,5,5"])
    assert code == EXIT_CONFLICT
    captured = capsys.readouterr()
    summary = json.loads("{" + captured.out.split("{", 1)[1])
    assert summary["conflicts"] > 0
    assert "conflicting certificates" in captured.err


def test_analyze_byte_deterministic(tmp_path):
    out = tmp_path / "report.json"
    argv = ["analyze", "-w", "geom:r=0.5", "--m-max", "3", "--out",
            str(out), *FAST]
    assert main(argv) == EXIT_OK
    first = out.read_bytes()
    assert main(argv) == EXIT_OK
    assert out.read_bytes() == first


#: sha256 of `cesaro analyze --horizon 10000` stdout per catalog family,
#: report schema 1.1
PINNED_ANALYZE = [
    ("poly:alpha=1.5",
     "fd648a1d6bbc37bf64e116e18cd2b921589619dc350ee7afbadfa0aa6e5c3d44"),
    ("loggamma:gamma=2",
     "e3ef2a7a28c6aeea10a7c2c9e7382c1d8b19097638a86ba18d574bc4d94be80b"),
    ("geom:r=0.5,beta=1",
     "579cb50c56f42969085684232f4c9a797da536f6f0810bc38b6b98527843863d"),
    ("superfact",
     "fc6d371c4e33feedf4f11216952c850738719bfa1e9d57b62554d4826d41263c"),
    ("factorial:a=2.5",
     "e434e69dce72818b13727d52eb68d974c157467869258614e442a0cd70e64ee3"),
    ("expbeta:beta=0.5",
     "7bb9c83d18de7593dc1c7ed89ea1a85c5cd72070cc3965d28035f6bb731e5939"),
    ("explog:gamma=2",
     "86f5399ab6c2ea390195a47f1bbbe58844e5d94ddaafb2c5ffc771f54d4e3d8c"),
    ("spike",
     "3508de438fcb454ade8040532ec09087f86a5219ff0d22815ef1779d45b7fce6"),
    ("block313",
     "ec2bdfa876d6fc637124125c90a841a0fce3ee4516f1fa93d661d5027c5de5b2"),
    ("block413:alpha=2",
     "3d04329cd598b9ba96e63879f6932e65a9c2879748c564c56d8d1439d93f1cb1"),
    ("geom:r=0.5",
     "51cae9b761bac6bde71e28ccd5b01dc8448c5741f47373baf7ce43ae804629a2"),
]

CERTIFIED_WITNESS_KINDS = {"diverging-inner-series", "analytic-lower-bound",
                           "liminf-lower-bound", "sup-exceeds"}


def _verdicts(node):
    """Every verdict object nested anywhere in a JSON report."""
    if isinstance(node, dict):
        if "witness" in node and "kind" in node:
            yield node
        for value in node.values():
            yield from _verdicts(value)
    elif isinstance(node, list):
        for value in node:
            yield from _verdicts(value)


@pytest.mark.parametrize("spec,digest", PINNED_ANALYZE)
def test_analyze_pinned_bytes(capsys, spec, digest):
    assert main(["analyze", "-w", spec, "--horizon", "10000"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    for verdict in _verdicts(json.loads(out)):
        if verdict["kind"] == "Fails":
            assert verdict["witness"]["kind"] in CERTIFIED_WITNESS_KINDS
        if verdict["kind"] == "Holds":
            assert verdict["certified_bound"] >= verdict["empirical_sup"]


#: at horizon 2^19 + 1 the continuity rows (targets from 1) and the uw row
#: (targets from 2) run down to index 1 in a second chunk of their own
PINNED_ANALYZE_CHUNKS = [
    ("poly:alpha=1.5",
     "df6162b72c774ea5f5c2704827d14b0d0d208221a908a6edf703da68eaf31b37"),
    ("block413:alpha=2",
     "0403d72f5513d082edd280c30d4ffa70ecafaa1d53efd5f62745155a9a2be16a"),
    ("geom:r=0.5",
     "951bc718d6f30473c4fb555b5543fcbe4f5261c58369f57ac8f1b35d7a6d1394"),
]


@pytest.mark.parametrize("spec,digest", PINNED_ANALYZE_CHUNKS,
                         ids=[spec for spec, _ in PINNED_ANALYZE_CHUNKS])
def test_analyze_pinned_bytes_across_chunks(capsys, spec, digest):
    assert main(["analyze", "-w", spec, "--horizon", str(2 ** 19 + 1)]) \
        == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: at the default horizon 10^6 the moment rows of the fast-decaying weights
#: skip their dead tails and sit out the upper chunk; poly is the control,
#: where neither applies
PINNED_ANALYZE_DEFAULT = [
    ("geom:r=0.5,beta=1",
     "2d7fecd62f2d83ee4655f0abedba123f052c47e8d0778286b6d8974e23495954"),
    ("superfact",
     "7f1523b38a34c9dc1520f0a2467be7edc3d00d49d788ddfdfa23c919288315a6"),
    ("factorial:a=2.5",
     "a86c1718ed165c3bf04fc85e3760eeb0923b2c9f2be8b2df1e46d55f20b429f5"),
    ("expbeta:beta=0.5",
     "28628e673cee188c72058812b26363faeb6c626f6bcc32a0f1d8fd7a3927bcbd"),
    ("explog:gamma=2",
     "d533de794a126c76f96ebe0a5a4ce94d4bf1b91d8efa9f9bf140d35f1ffe1eb4"),
    ("block313",
     "beec9a37ca3327571a50239a404898e879129be70478b53cbba71edd2bf6874b"),
    ("poly:alpha=1.5",
     "896310106d1d81667fdf03560cc740e606d3f6895d0aaaa9cdbd80e5160539b0"),
]


@pytest.mark.parametrize("spec,digest", PINNED_ANALYZE_DEFAULT,
                         ids=[spec for spec, _ in PINNED_ANALYZE_DEFAULT])
def test_analyze_pinned_bytes_at_the_default_horizon(capsys, spec, digest):
    assert main(["analyze", "-w", spec]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("alpha", ["7", "60"])
def test_block413_large_alpha(capsys, alpha):
    # the uw witness walk passes block 1024, where 2^i overflows a float
    code = main(["analyze", "-w", f"block413:alpha={alpha}",
                 "--horizon", "10000"])
    assert code == EXIT_OK
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["continuity"]["verdict"]["kind"] == "Holds"
    assert results["compactness"]["verdict"]["kind"] == "Fails"
    uw = results["uw"]["verdict"]
    assert uw["kind"] == "Fails"
    assert uw["witness"]["kind"] == "analytic-lower-bound"


@pytest.fixture
def table_2000(tmp_path):
    """A 2000-row table of ln w = -2 ln n."""
    path = tmp_path / "w.txt"
    path.write_text("".join(f"{n} {-2.0 * math.log(n)!r}\n"
                            for n in range(1, 2001)))
    return f"custom:path={path}"


@pytest.mark.parametrize("horizon", ["1999", "500", "100"])
def test_analyze_table_estimates_stop_at_the_last_row(capsys, table_2000,
                                                       horizon):
    assert main(["analyze", "-w", table_2000, "--horizon", horizon]) \
        == EXIT_OK
    out = capsys.readouterr().out
    results = json.loads(out)["results"]
    clamp = ("estimate horizon 100000 clamped to the table's last row "
             "2000")
    assert results["t0"]["notes"][0] == clamp
    assert results["s1"]["notes"][0] == clamp
    # a table certifies nothing past its last row
    assert '"Holds"' not in out


@pytest.mark.parametrize("horizon", ["2000", "1000000"],
                         ids=["L", "default"])
def test_analyze_table_horizon_clamped_below_the_last_row(capsys, table_2000,
                                                          horizon):
    # uw reads w(n + 1), so analyze's own horizon is cut to L - 1 and every
    # verdict scanned at it says so
    args = ["analyze", "-w", table_2000]
    if horizon != "1000000":
        args += ["--horizon", horizon]
    assert main(args) == EXIT_OK
    out = capsys.readouterr().out
    results = json.loads(out)["results"]
    clamp = (f"analyze horizon {horizon} clamped to 1999: it reads w up to "
             "index horizon + 1, and the table's last row is 2000")
    scanned = [results[name]["verdict"] for name in
               ("continuity", "compactness", "ratio_limsup", "uw")]
    scanned += [p["verdict"] for p in results["point_spectrum"]]
    assert len(scanned) == 24
    for verdict in scanned:
        assert verdict["notes"][0] == clamp
        assert verdict["scan_horizon"] == 1999
    assert '"Holds"' not in out


@pytest.mark.parametrize("horizon", ["1000", "2000"])
def test_spectrum_table_estimates_stop_at_the_last_row(capsys, table_2000,
                                                        horizon):
    assert main(["spectrum", "-w", table_2000, "--horizon", horizon,
                 "--grid=-0.2,1.2,-0.7,0.7,12,12"]) == EXIT_OK
    assert "Holds" not in capsys.readouterr().out


@pytest.mark.parametrize("horizon", ["2000", "1000000"],
                         ids=["L", "default"])
def test_spectrum_table_horizon_clamped_to_the_last_row(capsys, table_2000,
                                                        horizon):
    args = ["spectrum", "-w", table_2000, "--grid=-0.2,1.2,-0.7,0.7,12,12"]
    if horizon != "1000000":
        args += ["--horizon", horizon]
    assert main(args) == EXIT_OK
    out = capsys.readouterr().out
    context = json.loads("{" + out.split("{", 1)[1])["context"]
    clamp = [f"spectrum horizon {horizon} clamped to the table's last row "
             "2000"] if horizon != "2000" else []
    for name in ("continuity", "compactness"):
        verdict = context[name]["verdict"]
        assert verdict["scan_horizon"] == 2000
        assert [n for n in verdict["notes"] if "clamped" in n] == clamp
    assert "Holds" not in out


def test_horizon_below_two_fails_at_parse(capsys):
    assert main(["analyze", "-w", "poly:alpha=2", "--horizon", "1"]) \
        == EXIT_PARSE
    assert capsys.readouterr().err == "error: horizon must be >= 2, got 1\n"


def test_tables_too_short_fail_at_parse(capsys, tmp_path):
    one = tmp_path / "one.txt"
    one.write_text("1 0.0\n")
    for command in ("analyze", "spectrum"):
        assert main([command, "-w", f"custom:path={one}"]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: {one}: a table needs at least 2 rows, this one has 1\n")
    two = tmp_path / "two.txt"
    two.write_text("1 0.0\n2 -1.0\n")
    assert main(["analyze", "-w", f"custom:path={two}"]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: analyze reads w up to index horizon + 1, so it needs a "
        "table of at least 3 rows; this one has 2\n")


def test_table_comments_and_blank_lines_are_skipped(capsys, tmp_path):
    """Comments, inline or on their own line, and blank lines are not rows:
    a two-row table with them fails as the plain two-row table does."""
    errors = []
    for name, text in (("plain.txt", "1 0.0\n2 -1.0\n"),
                       ("commented.txt", "# n ln_w\n\n1 0.0  # head\n"
                        "   \n# between\n2 -1.0\n\n")):
        path = tmp_path / name
        path.write_text(text)
        assert main(["analyze", "-w", f"custom:path={path}"]) == EXIT_PARSE
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        "error: analyze reads w up to index horizon + 1, so it needs a "
        "table of at least 3 rows; this one has 2\n")


@pytest.mark.parametrize("text,message", [
    ("1 0.0 5\n2 -1.0\n3 -2.0\n", "{path}:1: expected two columns 'n ln_w'"),
    ("1 0.0\n2.5 -1.0\n3 -2.0\n",
     "{path}:2: invalid literal for int() with base 10: '2.5'"),
    ("# n ln_w\n\n# no rows\n", "{path}: empty weight table"),
], ids=["three-columns", "non-integer-index", "comments-only"])
def test_malformed_table_fails_at_parse(capsys, tmp_path, text, message):
    path = tmp_path / "w.txt"
    path.write_text(text)
    assert main(["analyze", "-w", f"custom:path={path}"]) == EXIT_PARSE
    assert capsys.readouterr().err == \
        "error: " + message.format(path=path) + "\n"


@pytest.mark.parametrize("spec", ["custom:path={path},x=1",
                                  "custom:file={path}"],
                         ids=["extra-key", "no-path-key"])
def test_custom_grammar_takes_exactly_one_path(capsys, tmp_path, spec):
    path = tmp_path / "w.txt"
    path.write_text("1 0.0\n2 -1.0\n3 -2.0\n")
    assert main(["analyze", "-w", spec.format(path=path)]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: custom weights take exactly custom:path=FILE\n")


@pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
def test_unreadable_table_fails_at_parse(capsys, tmp_path, kind):
    path = tmp_path / "w.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "undecodable":
        path.write_bytes(b"1 0.0\n2 \xff\xfe\n")
    assert main(["analyze", "-w", f"custom:path={path}", "--horizon",
                 "100"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: cannot read the weight table: ")


# ---------------------------------------------------------------------------
# every catalog input against the closed-form verdict table


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def catalog_inputs(draw):
    """(spec, params) of one family, its parameters drawn log-uniformly
    over the documented range so that both ends are reached."""
    family = draw(st.sampled_from(["poly", "loggamma", "geom", "superfact",
                                   "factorial", "expbeta", "explog", "spike",
                                   "block313", "block413"]))
    if family == "poly":
        params = {"alpha": draw(_log_uniform(1e-3, 100.0))}
    elif family == "loggamma":
        params = {"gamma": draw(_log_uniform(1e-3, 30.0))}
    elif family == "geom":
        u = draw(_log_uniform(1e-3, 0.5))
        r = draw(st.sampled_from([u, 1.0 - u]))
        beta = draw(st.sampled_from([-1.0, 0.0, 1.0])) \
            * draw(_log_uniform(1e-4, 5.0))
        params = {"r": r, "beta": beta}
    elif family == "factorial":
        params = {"a": draw(_log_uniform(1e-3, 100.0))}
    elif family == "expbeta":
        params = {"beta": draw(_log_uniform(1e-3, 8.0))}
    elif family == "explog":
        params = {"gamma": 1.0 + draw(_log_uniform(1e-4, 11.0))}
    elif family == "block413":
        params = {"alpha": 1.0 + draw(_log_uniform(1e-4, 59.0))}
    else:
        params = {}
    spec = family + "".join(
        f"{',' if i else ':'}{k}={v!r}" for i, (k, v) in enumerate(params.items()))
    return spec, params


def _closed_form(spec: str, params: dict) -> dict:
    """The family's verdicts from elementary series tests on its formula:
    continuity, compactness, t0, s1 (None for the empty set) and whether
    1/m is an eigenvalue."""
    family = spec.partition(":")[0]
    if family == "poly":
        a = params["alpha"]
        return dict(cont="Holds", comp="Fails", t0=a - 1.0, s1=a,
                    eigen=lambda m: m < a)
    if family == "loggamma":
        return dict(cont="Fails", comp="Fails", t0=-1.0, s1=0.0,
                    eigen=lambda m: False)
    if family == "spike":
        return dict(cont="Holds", comp="Fails", t0=0.0, s1=1.0,
                    eigen=lambda m: False)
    if family == "block413":
        return dict(cont="Holds", comp="Fails", t0=0.0, s1=1.0,
                    eigen=lambda m: m == 1)
    # block313: the own-block harmonic sum stays above log(5/3), so the
    # continuity quantity does not vanish; its double-exponential decay
    # outruns every power, as for the five rapidly decaying families
    return dict(cont="Holds", comp="Fails" if family == "block313" else "Holds",
                t0=math.inf, s1=None, eigen=lambda m: True)


def _contradictions(where: str, results: dict, table: dict) -> list:
    """Each certified verdict in ``results`` that the table rules out;
    Inconclusive verdicts and uncertified endpoints contradict nothing."""
    bad = []
    slack = 1e-9
    for name, key in (("continuity", "cont"), ("compactness", "comp")):
        kind = results[name]["verdict"]["kind"]
        if kind in ("Holds", "Fails") and kind != table[key]:
            bad.append(f"{where} {name} {kind}, expected {table[key]}")
    t0 = results.get("t0")
    if t0 is not None:
        want = table["t0"]
        if t0["kind"] == "bracket":
            if t0["lo"] > want + slack or (
                    t0["hi"] is not None and t0["hi"] < want - slack):
                bad.append(f"{where} t0 in [{t0['lo']}, {t0['hi']}], "
                           f"expected {want}")
        elif t0["kind"] == "infinite" and want < PROBE_CEILING:
            bad.append(f"{where} t0 infinite, expected {want}")
        elif t0["kind"] == "empty":
            bad.append(f"{where} t0 empty, expected {want}")
    s1, want = results["s1"], table["s1"]
    if s1["kind"] == "empty" and want is not None:
        bad.append(f"{where} s1 empty, expected {want}")
    elif s1["kind"] == "bracket":
        if want is None or (s1["hi"] is not None and s1["hi"] < want - slack) \
                or (s1["lo"] is not None and s1["lo"] > want + slack):
            bad.append(f"{where} s1 in [{s1['lo']}, {s1['hi']}], "
                       f"expected {want}")
    for m, row in enumerate(results.get("point_spectrum", ()), start=1):
        kind = row["verdict"]["kind"]
        if kind in ("Holds", "Fails") and (kind == "Holds") != table["eigen"](m):
            bad.append(f"{where} 1/{m} membership {kind}")
    return bad


@settings(max_examples=30, deadline=None, derandomize=True)
@given(catalog_inputs())
def test_every_catalog_input_works(drawn):
    """Each family's documented parameters, toward both ends of their
    range, run ``analyze``, ``spectrum`` and ``iterate`` to a documented
    exit code (0, 3 or 4; an exception is the undocumented exit 1), and
    no certified verdict contradicts the closed-form table."""
    spec, params = drawn
    table = _closed_form(spec, params)
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        code = main(["analyze", "-w", spec, "--horizon", "10000",
                     "--out", str(out)])
        assert code in (EXIT_OK, EXIT_BUDGET, EXIT_CONFLICT), spec
        bad = _contradictions("analyze", json.loads(out.read_text())["results"],
                              table)
        code = main(["spectrum", "-w", spec, "--horizon", "10000",
                     "--grid=-0.2,1.2,-0.7,0.7,12,12", "--out", str(out)])
        assert code in (EXIT_OK, EXIT_BUDGET, EXIT_CONFLICT), spec
        summary = json.loads(out.with_suffix(".json").read_text())
        bad += _contradictions("spectrum", summary["context"], table)
        if table["cont"] == "Fails":  # no bounded operator, no certified label
            assert summary["labels"] == {"Unknown": 144}, spec
        code = main(["iterate", "-w", spec, "--N", "200", "--M", "20",
                     "--out", str(out)])
        assert code in (EXIT_OK, EXIT_BUDGET, EXIT_CONFLICT), spec
    assert not bad, (spec, bad)


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_single_origin_node(capsys, tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["spectrum", "-w", "geom:r=0.5", "--grid", "0,0,0,0,1,1",
                 "--m-max", "4", "--out", str(out), *FAST])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "re,im,alpha,label,rule_id,sup_value"
    assert len(lines) == 2
    assert "SpectrumCertified" in lines[1]
    summary = json.loads((tmp_path / "scan.json").read_text())
    assert summary["labels"] == {"SpectrumCertified": 1}
    assert summary["conflicts"] == 0


def test_spectrum_stdout_combined(capsys):
    code = main(["spectrum", "-w", "geom:r=0.5", "--grid",
                 "0.3,0.7,0.2,0.4,2,2", "--m-max", "4", *FAST])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    csv_part, json_part = out.split("{", 1)
    assert csv_part.startswith("re,im,alpha,label,rule_id,sup_value")
    doc = json.loads("{" + json_part)
    assert doc["command"] == "spectrum"
    assert sum(doc["labels"].values()) == 4


def test_spectrum_grid_budget(capsys):
    code = main(["spectrum", "-w", "geom:r=0.5", "--grid",
                 "0,1,0,1,1001,1001", *FAST])
    assert code == EXIT_BUDGET


def test_spectrum_malformed_grid(capsys):
    code = main(["spectrum", "-w", "geom:r=0.5", "--grid", "0,1,2", *FAST])
    assert code == EXIT_PARSE


def test_spectrum_byte_deterministic(tmp_path):
    out = tmp_path / "scan.csv"
    argv = ["spectrum", "-w", "poly:alpha=2", "--grid=-0.2,1.2,-0.7,0.7,5,5",
            "--m-max", "4", "--out", str(out), *FAST]
    assert main(argv) == EXIT_OK
    first = (out.read_bytes(), (tmp_path / "scan.json").read_bytes())
    assert main(argv) == EXIT_OK
    assert (out.read_bytes(), (tmp_path / "scan.json").read_bytes()) == first


#: sha256 of the CSV and of the JSON summary that `spectrum` prints on the
#: 41 x 21 grid over [0, 1] x [-0.5, 0.5] (0, 1/4, 1/2, 1 and an im = 0 row)
#: at horizon 10^4; recorded when the summary still counted labels row by row
PINNED_SPECTRUM = [
    ("poly:alpha=2",
     "a7b5991ba82e651ec3f7b170a60e0d908e46328c7ddcb73a6fb4157341b58d32",
     "0341efc6245a7c24bec4d6459f5d670ecc2872127e807b011290cff2d658b669"),
    ("block413:alpha=2",
     "f6d09cb2ce1bad16aa2e3f47dd994700e9791fb9be09fb84163e936e2a9ec81d",
     "25bc963ddda718a4bef79723ae9c8089b12048d0a3074b7adfc33b58bab10e3a"),
    ("geom:r=0.5,beta=0.3",
     "2eeee52ada32896205f4a46dbf6e43ed22c6b8ff18d8b9e2483d378e96a7d948",
     "530ca001ea44b1a968637280a1f9e0a87a929af49469c511e9226b435c60999b"),
]


@pytest.mark.parametrize("spec,csv_digest,json_digest", PINNED_SPECTRUM,
                         ids=[spec for spec, _, _ in PINNED_SPECTRUM])
def test_spectrum_pinned_bytes(capsys, spec, csv_digest, json_digest):
    assert main(["spectrum", "-w", spec, "--grid=0.0,1.0,-0.5,0.5,41,21",
                 "--horizon", "10000"]) == EXIT_OK
    csv_text, summary = capsys.readouterr().out.split("{", 1)
    summary = "{" + summary
    assert hashlib.sha256(csv_text.encode()).hexdigest() == csv_digest
    assert hashlib.sha256(summary.encode()).hexdigest() == json_digest
    labels = json.loads(summary)["labels"]
    assert sum(labels.values()) == 41 * 21 and 0 not in labels.values()


# ---------------------------------------------------------------------------
# iterate


def test_iterate_first_record(capsys):
    code = main(["iterate", "-w", "geom:r=0.5", "--N", "400", "--M", "3",
                 "--probe", "e1"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,norm,residual"
    m, norm, res = lines[1].split(",")
    assert int(m) == 1
    assert float(norm) == pytest.approx(0.6931471805599453, rel=1e-12)
    assert float(res) == pytest.approx(0.3068528194400547, rel=1e-12)


def test_iterate_averages_flag(capsys):
    main(["iterate", "-w", "geom:r=0.5", "--N", "200", "--M", "4",
          "--probe", "e1"])
    plain = capsys.readouterr().out.strip().splitlines()
    main(["iterate", "-w", "geom:r=0.5", "--N", "200", "--M", "4",
          "--probe", "e1", "--averages"])
    avg = capsys.readouterr().out.strip().splitlines()
    assert plain[1] == avg[1]
    assert plain[2] != avg[2]


def test_iterate_writes_companion_json(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["iterate", "-w", "geom:r=0.5", "--N", "100", "--M", "2",
                 "--probe", "ones", "--out", str(out)])
    assert code == EXIT_OK
    assert out.exists()
    doc = json.loads((tmp_path / "trace.json").read_text())
    assert doc["command"] == "iterate"
    assert doc["trace"]["probe_id"] == "ones"
    assert len(doc["trace"]["records"]) == 2


def test_iterate_probe_grammar(capsys):
    assert main(["iterate", "-w", "geom:r=0.5", "--N", "50", "--M", "2",
                 "--probe", "e5"]) == EXIT_OK
    capsys.readouterr()
    assert main(["iterate", "-w", "geom:r=0.5", "--N", "50", "--M", "2",
                 "--probe", "random", "--seed", "7"]) == EXIT_OK
    capsys.readouterr()
    assert main(["iterate", "-w", "geom:r=0.5", "--N", "50", "--M", "2",
                 "--probe", "e0"]) == EXIT_PARSE
    assert main(["iterate", "-w", "geom:r=0.5", "--N", "50", "--M", "2",
                 "--probe", "e99"]) == EXIT_PARSE
    assert main(["iterate", "-w", "geom:r=0.5", "--N", "50", "--M", "2",
                 "--probe", "mystery"]) == EXIT_PARSE


def test_iterate_rational_mode(capsys):
    code = main(["iterate", "-w", "geom:r=0.5", "--N", "30", "--M", "3",
                 "--probe", "ones", "--mode", "rational"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    norms = {line.split(",")[1] for line in lines[1:]}
    assert len(norms) == 1


@pytest.mark.parametrize("beta", ["0.0001", "0.001"])
def test_geom_small_positive_beta(capsys, beta):
    # r^(-1/beta) overflows a float here; the weight must still build
    spec = f"geom:r=0.44,beta={beta}"
    assert parse_weight(spec).decreasing_from == 1
    code = main(["analyze", "-w", spec, "--m-max", "3", "--horizon", "1000"])
    assert code == EXIT_OK
    assert main(["iterate", "-w", spec, "--N", "50", "--M", "3",
                 "--probe", "e1"]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("raw", ["1000", "inf", "-inf", "1e400", "nan",
                                 "abc"])
def test_iterate_budget_env(capsys, monkeypatch, raw):
    """A finite budget is enforced; anything else is a parse error."""
    monkeypatch.setenv("CESARO_BUDGET", raw)
    code = main(["iterate", "-w", "geom:r=0.5", "--N", "100", "--M", "100",
                 "--probe", "e1"])
    if raw == "1000":
        assert code == EXIT_BUDGET
    else:
        assert code == EXIT_PARSE
        assert "CESARO_BUDGET is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("averages", [[], ["--averages"]])
def test_iterate_budget_counts_requested_work(capsys, monkeypatch, averages):
    # geom:r=0.5 is 0.0 in float from n = 1075 on, so only that prefix is
    # iterated, yet the budget still charges M * N
    argv = ["iterate", "-w", "geom:r=0.5", "--N", "40000", "--M", "100",
            "--probe", "e1", *averages]
    monkeypatch.setenv("CESARO_BUDGET", str(100 * 40000 - 1))
    assert main(argv) == EXIT_BUDGET
    monkeypatch.setenv("CESARO_BUDGET", str(100 * 40000))
    assert main(argv) == EXIT_OK
    capsys.readouterr()


# ---------------------------------------------------------------------------
# run configuration plumbing


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(command="analyze", weight="poly:alpha=2", horizon=0)
    with pytest.raises(ValueError):
        RunConfig(command="iterate", weight="poly:alpha=2", mode="exact")
    with pytest.raises(ValueError):
        RunConfig(command="spectrum", weight="poly:alpha=2",
                  grid=(0.0, 1.0, 0.0, 1.0, 0, 5))
    with pytest.raises(ValueError):
        RunConfig(command="spectrum", weight="poly:alpha=2",
                  grid=(0.0, 1.0, 2.0))


@pytest.mark.parametrize("eps", ["-1", "nan"])
def test_spectrum_rejects_bad_eps(capsys, eps):
    code = main(["spectrum", "-w", "poly:alpha=2", "--grid=0,0,0,0,1,1",
                 f"--eps={eps}", *FAST])
    assert code == EXIT_PARSE
    assert "eps must be finite and non-negative" in capsys.readouterr().err


def test_spectrum_rejects_non_finite_grid(capsys):
    code = main(["spectrum", "-w", "poly:alpha=2", "--grid=nan,1,0,0,2,1",
                 *FAST])
    assert code == EXIT_PARSE
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0,inf,0,1,2,2", "0,1,-inf,1,2,2",
                                  "0,1,0,nan,2,2"])
def test_spectrum_bad_grid_fails_before_any_scan(capsys, monkeypatch, grid):
    # the grid bounds are checked while parsing: no context is built, no
    # numpy warning is printed, and the exit code is the parse error's
    built = []
    monkeypatch.setattr(cli.spectral, "build_context",
                        lambda *args, **kwargs: built.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["spectrum", "-w", "poly:alpha=2", f"--grid={grid}",
                     *FAST])
    assert code == EXIT_PARSE
    assert built == []
    assert "grid bounds must be finite" in capsys.readouterr().err


def test_error_after_parsing_is_not_a_parse_error(monkeypatch):
    # exit 2 means the input did not parse; an error raised while the
    # command runs propagates, so the interpreter exits 1 with a traceback
    def broken(*args, **kwargs):
        raise cli.spectral.SpectralError("defect in the cascade")

    monkeypatch.setattr(cli.spectral, "region_scan", broken)
    with pytest.raises(cli.spectral.SpectralError, match="defect"):
        main(["spectrum", "-w", "poly:alpha=2", "--grid=0,1,0,0,2,1",
              *FAST])


def test_parse_grid_accepts_default_shape():
    assert _parse_grid("-0.2,1.2,-0.7,0.7,200,200") == DEFAULT_GRID
    with pytest.raises(ValueError):
        _parse_grid("1,2,3")
    with pytest.raises(ValueError):
        _parse_grid("a,b,c,d,e,f")
