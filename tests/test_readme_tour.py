"""The README "Library tour" runs as written and its comments hold.

The python block under the "Library tour" heading of README.md is run one
statement at a time; each bare expression is evaluated and kept under its
own source text, so the assertions below read the very lines the README
shows, next to the value its comment states.
"""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def run_tour() -> dict:
    """Values of the tour's bare expressions, keyed by their source."""
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    source = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), README.name, "eval")
            values[ast.get_source_segment(source, stmt)] = eval(code,
                                                                namespace)
        else:
            exec(compile(ast.Module([stmt], []), README.name, "exec"),
                 namespace)
    values["trace"] = namespace["trace"]
    return values


def test_library_tour_values():
    got = run_tour()
    assert got["report.verdict.kind"] == "Holds"
    assert got["report.verdict.certified_bound"] <= 2.0
    assert got["report.verdict.empirical_sup"] >= 0.5
    assert got["compactness_criterion(w).verdict.kind"] == "Fails"
    assert got["uw_quantity(w).verdict.certified_bound"] <= 4.0
    assert got["classify_point(w, 0.25 + 0.2j, ctx).label"] == \
        "SpectrumCertified"
    spectrum = got["point_spectrum(w, m_max=5)"]
    assert [(lam, v.kind) for lam, v in spectrum[:2]] == [(1.0, "Holds"),
                                                           (0.5, "Fails")]
    assert "ResolventCertified" in got["scan.label_counts()"]
    assert got["scan[0] == classify_point(w, -0.2 - 0.7j, ctx)"] is True
    assert got["kernel_power_entry(3, 2, 2)"] == Fraction(5, 18)
    assert got["resolvent_section(2.0, 200)"].N == 200
    assert len(got["trace"].records) == 12
