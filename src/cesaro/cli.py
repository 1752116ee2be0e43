"""Command-line front end: reproducible reports, scan grids, trace files.

Four subcommands cover the library surface: ``analyze`` bundles every
criterion verdict for one weight into a JSON report, ``spectrum`` scans a
grid and writes CSV plus a JSON summary, ``iterate`` writes trace CSVs,
and ``catalog`` lists the built-in weight families.  Outputs carry a
schema version and are byte-identical across runs for a fixed config.

Exit codes: 0 success, 2 parse error, 3 budget exceeded, 4 internal
consistency diagnostic (conflicting certificates).  Any other error after
parsing propagates, so the interpreter exits 1 with its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, asdict, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .weights import MIN_HORIZON, WeightError, catalog_families, parse_weight
from .criteria import (
    DEFAULT_HORIZON,
    Verdict,
    ratio_limsup_test,
    s1_estimate,
    scan_reports,
    t0_estimate,
    table_horizon,
)
from .sections import SIGMA_PROXIMITY_EPS
from . import spectral
from . import ergodic

__all__ = [
    "SCHEMA_VERSION",
    "EXIT_OK",
    "EXIT_PARSE",
    "EXIT_BUDGET",
    "EXIT_CONFLICT",
    "main",
]

SCHEMA_VERSION = "1.1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_CONFLICT = 4

DEFAULT_SECTION_N = 2000
DEFAULT_ITERATES_M = 2000
DEFAULT_GRID = (-0.2, 1.2, -0.7, 0.7, 200, 200)
DEFAULT_POINT_M_MAX = 20


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation, validated when it is built."""

    command: str
    weight: Optional[str] = None
    horizon: int = DEFAULT_HORIZON
    N: int = DEFAULT_SECTION_N
    M: int = DEFAULT_ITERATES_M
    grid: Optional[tuple] = None
    mode: str = "float"
    out: Optional[str] = None
    seed: int = 0
    probe: str = "e1"
    m_max: int = DEFAULT_POINT_M_MAX
    eps: float = SIGMA_PROXIMITY_EPS
    averages: bool = False
    family: Optional[str] = None

    def __post_init__(self):
        if self.horizon < MIN_HORIZON:
            raise WeightError(f"horizon must be >= {MIN_HORIZON}, "
                              f"got {self.horizon}")
        if self.N < 1 or self.M < 1 or self.m_max < 1:
            raise WeightError("horizons must be positive")
        if not (math.isfinite(self.eps) and self.eps >= 0.0):
            raise WeightError("eps must be finite and non-negative")
        if self.mode not in ("rational", "float"):
            raise WeightError(f"unknown arithmetic mode {self.mode!r}")
        if self.grid is not None:
            if len(self.grid) != 6:
                raise WeightError("grid needs re0,re1,im0,im1,nx,ny")
            if not all(map(math.isfinite, self.grid[:4])):
                raise WeightError("grid bounds must be finite")
            nx, ny = int(self.grid[4]), int(self.grid[5])
            if nx < 1 or ny < 1:
                raise WeightError("grid resolution must be positive")

    def to_json_dict(self) -> dict:
        data = asdict(self)
        data["grid"] = list(self.grid) if self.grid is not None else None
        return data


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _parse_grid(raw: str) -> tuple:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 6:
        raise WeightError("grid needs exactly re0,re1,im0,im1,nx,ny")
    try:
        vals = [float(p) for p in parts[:4]] + [int(p) for p in parts[4:]]
    except ValueError as exc:
        raise WeightError(f"bad grid value in {raw!r}") from exc
    return tuple(vals)


def _build_probe(probe: str, N: int, seed: int) -> tuple:
    """Probe grammar: e<k>, ones, or random (seeded, support 16)."""
    probe = probe.strip().lower()
    if probe == "ones":
        return probe, np.ones(N)
    if probe == "random":
        rng = np.random.default_rng(seed)
        return f"random:seed={seed}", rng.standard_normal(min(16, N))
    if probe.startswith("e"):
        try:
            r = int(probe[1:])
        except ValueError:
            r = 0
        if 1 <= r <= N:
            vec = np.zeros(r)
            vec[r - 1] = 1.0
            return probe, vec
    raise WeightError(
        f"unknown probe {probe!r} (expected e<k> with k <= N, ones, random)")


def _noted(item, notes: tuple):
    """A report or verdict with ``notes`` put before its verdict's own."""
    if isinstance(item, Verdict):
        return replace(item, notes=notes + item.notes)
    return replace(item, verdict=_noted(item.verdict, notes))


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(config: RunConfig) -> int:
    """All criterion verdicts for one weight, with cross-consistency checks."""
    w = parse_weight(config.weight)
    horizon, clamp = table_horizon(w, config.horizon, "analyze", reach=1)
    cont, comp, uw, memberships = scan_reports(
        w, horizon, [float(m - 1) for m in range(1, config.m_max + 1)])
    ratio = ratio_limsup_test(w, horizon=horizon)
    if clamp:
        cont, comp, uw, ratio, *memberships = (
            _noted(item, clamp) for item in (cont, comp, uw, ratio,
                                             *memberships))
    t0 = t0_estimate(w)
    s1 = s1_estimate(w)
    checks = []
    if t0.kind == "bracket" and s1.kind == "bracket":
        ok = t0.lo <= s1.hi + 1e-9
        checks.append({
            "name": "t0 <= s1",
            "ok": ok,
            "detail": f"t0 in [{t0.lo!r}, {t0.hi!r}], "
                      f"s1 in [{s1.lo!r}, {s1.hi!r}]",
        })
    if comp.verdict.is_holds and s1.point is not None:
        checks.append({
            "name": "compactness excludes a certified boundary disk",
            "ok": False,
            "detail": "compactness Holds while a boundary exponent is "
                      "certified; certificates conflict",
        })
    if comp.verdict.is_holds and not cont.verdict.is_holds:
        checks.append({
            "name": "compactness implies continuity",
            "ok": cont.verdict.kind != "Fails",
            "detail": f"compactness {comp.verdict.kind}, "
                      f"continuity {cont.verdict.kind}",
        })
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "weight": config.weight,
        "weight_id": w.id,
        "config": config.to_json_dict(),
        "results": {
            "continuity": cont.to_json_dict(),
            "compactness": comp.to_json_dict(),
            "ratio_limsup": ratio.to_json_dict(),
            "uw": uw.to_json_dict(),
            "t0": t0.to_json_dict(),
            "s1": s1.to_json_dict(),
            "point_spectrum": [
                {"lambda": 1.0 / m, "verdict": v.to_json_dict()}
                for m, v in enumerate(memberships, start=1)
            ],
        },
        "consistency": checks,
    }
    _emit(_dump_json(report), config.out)
    if any(not c["ok"] for c in checks):
        sys.stderr.write("consistency diagnostic: conflicting certificates\n")
        return EXIT_CONFLICT
    return EXIT_OK


def cmd_spectrum(config: RunConfig) -> int:
    """Classify a grid of complex points; CSV rows plus a JSON summary."""
    w = parse_weight(config.weight)
    grid_vals = config.grid if config.grid is not None else DEFAULT_GRID
    grid = spectral.GridSpec(*grid_vals)
    if grid.nx * grid.ny > spectral.MAX_GRID_POINTS:
        raise ergodic.BudgetError(
            f"grid has {grid.nx * grid.ny} nodes; "
            f"budget is {spectral.MAX_GRID_POINTS}")
    horizon, clamp = table_horizon(w, config.horizon, "spectrum")
    context = spectral.build_context(w, horizon=horizon,
                                     m_max=config.m_max, eps=config.eps)
    if clamp:
        context = replace(context,
                          continuity=_noted(context.continuity, clamp),
                          compactness=_noted(context.compactness, clamp))
    scan = spectral.region_scan(w, grid, context=context)
    csv_text = spectral.scan_to_csv(scan)
    counts = scan.label_counts()
    conflicts = scan.rule_counts().get(spectral.RULE_CONFLICT, 0)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "spectrum",
        "weight": config.weight,
        "weight_id": w.id,
        "config": config.to_json_dict(),
        "grid": list(grid_vals),
        "labels": dict(sorted(counts.items())),
        "conflicts": conflicts,
        "context": {
            "continuity": context.continuity.to_json_dict(),
            "compactness": context.compactness.to_json_dict(),
            "s1": context.s1.to_json_dict(),
        },
    }
    if config.out is None:
        sys.stdout.write(csv_text)
        sys.stdout.write(_dump_json(summary))
    else:
        out = Path(config.out)
        out.write_text(csv_text)
        out.with_suffix(".json").write_text(_dump_json(summary))
    if conflicts:
        sys.stderr.write("consistency diagnostic: conflicting certificates\n")
        return EXIT_CONFLICT
    return EXIT_OK


def cmd_iterate(config: RunConfig) -> int:
    """Trace norms and residuals of iterates (or running averages)."""
    w = parse_weight(config.weight)
    N, clamp = table_horizon(w, config.N, "iterate")
    probe_id, vec = _build_probe(config.probe, N, config.seed)
    tracer = ergodic.cesaro_averages_trace if config.averages \
        else ergodic.iterate_trace
    trace = tracer(w, vec, config.M, N, probe_id=probe_id, mode=config.mode)
    if clamp:
        trace = replace(trace, notes=clamp + trace.notes)
    _emit(ergodic.trace_to_csv(trace), config.out)
    if config.out is not None:
        Path(config.out).with_suffix(".json").write_text(
            _dump_json({
                "schema_version": SCHEMA_VERSION,
                "command": "iterate",
                "weight": config.weight,
                "config": config.to_json_dict(),
                "trace": trace.to_json_dict(),
            }))
    return EXIT_OK


def cmd_catalog(config: RunConfig) -> int:
    """List built-in weight families, optionally filtered by name."""
    families = catalog_families()
    if config.family is not None:
        families = [f for f in families if f["family"] == config.family]
        if not families:
            sys.stderr.write(f"unknown weight family {config.family!r}\n")
            return EXIT_PARSE
    listing = {
        "schema_version": SCHEMA_VERSION,
        "command": "catalog",
        "families": families,
    }
    _emit(_dump_json(listing), config.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesaro",
        description="Certified criteria, spectra, and iterate traces for "
                    "the averaging operator on weighted summable sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-w", "--weight", required=True,
                       help="weight grammar, e.g. poly:alpha=2 or "
                            "custom:path=FILE")
        p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON,
                       help="criteria scan horizon (default 10^6)")
        p.add_argument("--out", default=None, help="output path")

    p = sub.add_parser("analyze", help="all criterion verdicts, one JSON")
    add_common(p)
    p.add_argument("--m-max", type=int, default=DEFAULT_POINT_M_MAX,
                   help="largest reciprocal index probed for eigenvalues")

    p = sub.add_parser("spectrum", help="classify a complex grid")
    add_common(p)
    p.add_argument("--grid", default=None,
                   help="re0,re1,im0,im1,nx,ny "
                        "(default -0.2,1.2,-0.7,0.7,200,200)")
    p.add_argument("--m-max", type=int, default=DEFAULT_POINT_M_MAX)
    p.add_argument("--eps", type=float, default=SIGMA_PROXIMITY_EPS,
                   help="exclusion radius around the limit set")

    p = sub.add_parser("iterate", help="trace iterates of a probe vector")
    add_common(p)
    p.add_argument("--N", type=int, default=DEFAULT_SECTION_N,
                   help="section size (default 2000)")
    p.add_argument("--M", type=int, default=DEFAULT_ITERATES_M,
                   help="number of iterates (default 2000)")
    p.add_argument("--probe", default="e1",
                   help="probe vector: e<k>, ones, or random")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random probe")
    p.add_argument("--averages", action="store_true",
                   help="trace running averages instead of raw iterates")
    p.add_argument("--mode", choices=("rational", "float"), default="float")

    p = sub.add_parser("catalog", help="list built-in weight families")
    p.add_argument("--family", default=None, help="filter to one family")
    p.add_argument("--out", default=None)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if hasattr(args, f.name)}
    if given.get("grid") is not None:
        given["grid"] = _parse_grid(given["grid"])
    return RunConfig(**given)


_HANDLERS = {
    "analyze": cmd_analyze,
    "spectrum": cmd_spectrum,
    "iterate": cmd_iterate,
    "catalog": cmd_catalog,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command.  Exit 2 covers the parse errors only: a WeightError
    (arguments, weight grammar, tables) or an unreadable CESARO_BUDGET."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return _HANDLERS[args.command](config)
    except ergodic.BudgetError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except (WeightError, ergodic.BudgetParseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
