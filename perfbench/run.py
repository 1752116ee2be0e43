"""The cesaro benchmark: CLI and library wall time on three seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of analyze-catalog, spectrum-grid, exact-iterate, or ``all``
(each workload in turn).  Nothing needs building: the package is imported
from ``src/`` of the checkout, and the run fails if it is not there.

With ``--trace 0`` the run first times a cold ``import cesaro, cesaro.cli``
in several fresh interpreters (``setup_s`` is their median), then starts
one fresh worker interpreter per pass of the workload's op list until the
next pass would end after S seconds; every run makes at least one pass.
It prints the end-to-end metrics.  With ``--trace 1`` it runs pass 0
three times in fresh workers, once untraced and twice traced, checks that
every work count repeats exactly, and prints the per-layer metrics.
Every op's output is checked; a failed check or a raised error counts the
op as failed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Each run works in a fresh directory under ``.bench_build/perfbench`` of
the checkout, with its own TMPDIR and XDG_CACHE_HOME, and removes it at
the end.  The spans of the last traced run of a workload are kept in
``.bench_build/perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 9
#: the end-to-end metrics of the final JSON line; the others are printed
#: only, because they are zero or undefined on some workload, or (op_p50_s
#: on analyze-catalog) too unsteady across seeds to gate on
GATED = ("setup_s", "wall_s", "peak_rss_mb")
#: a run must finish well inside three minutes
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The program could not be run at all; no result is printed."""


class Run:
    """One benchmark run: a scratch directory and the workers it starts."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.base = root / ".bench_build" / "perfbench"
        self.dir = self.base / f"run-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        (self.dir / "cache").mkdir()
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith(("PYTHON", "CESARO_"))}
        self.env.update({
            "PYTHONHASHSEED": "0",
            "TMPDIR": str(self.dir / "tmp"),
            "XDG_CACHE_HOME": str(self.dir / "cache"),
        })
        self.env.update({var: "1" for var in THREAD_VARS})
        self.workers = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def worker(self, *args: str) -> dict:
        """Run worker.py in a fresh interpreter and a fresh cwd."""
        self.workers += 1
        cwd = self.dir / f"w{self.workers}"
        cwd.mkdir()
        result = self.dir / f"w{self.workers}.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--root", str(self.root), "--result", str(result), *args]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=self.env, timeout=timeout,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker timed out after {exc.timeout:.0f} s")
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        shutil.rmtree(cwd)
        return json.loads(result.read_text())

    def setup_times(self) -> list:
        """Cold import time in fresh interpreters; the first run only fills
        the bytecode cache, as an installed package would have it."""
        times = [self.worker("--setup-only")["import_s"]
                 for _ in range(SETUP_PROBES + 1)]
        return times[1:]


def _failed(passes: list) -> int:
    return sum(1 for p in passes for op in p["ops"] if op["errors"])


def _report_failures(passes: list) -> None:
    for p in passes:
        for op in p["ops"]:
            for err in op["errors"]:
                print(f"FAILED {op['label']}: {err}", file=sys.stderr)


def measure(run: Run, workload: str, seed: int, seconds: int) -> dict:
    """Untraced run: the end-to-end metrics of one workload."""
    setup = run.setup_times()
    passes, pass_times = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(run.worker("--workload", workload, "--seed", str(seed),
                                 "--pass", str(len(passes))))
        pass_times.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(pass_times) > seconds:
            break
    # each op's median over the passes, summed: the wall time of the op list
    wall = sum(statistics.median(p["ops"][k]["wall_s"] for p in passes)
               for k in range(len(passes[0]["ops"])))
    pass_walls = " ".join(f"{p['pass_wall_s']:.3f}" for p in passes)
    ops = [op for p in passes for op in p["ops"]]
    ratios = [r for op in ops for r in op["cert_ratios"]]
    nodes = sum(op["nodes"] for op in ops)
    spectrum_s = sum(op["wall_s"] for op in ops if op["kind"] == "spectrum")
    failed = _failed(passes)

    print(f"# {workload} seed={seed}: {len(passes)} pass(es) of "
          f"{len(passes[0]['ops'])} ops, one fresh worker each")
    for op in passes[0]["ops"]:
        print(f"#   op {op['wall_s']:9.4f} s  {op['label']}")
    lines = [
        ("setup_s", statistics.median(setup), "s",
         f"median of {len(setup)} cold imports"),
        ("wall_s", wall, "s",
         f"sum of per-op medians over passes of {pass_walls} s"),
        ("op_p50_s", statistics.median(op["wall_s"] for op in ops), "s",
         f"median of {len(ops)} ops"),
        ("peak_rss_mb", max(p["peak_rss_mb"] for p in passes), "MB",
         "largest worker peak"),
        ("fail_ratio", failed / len(ops), "1", f"{failed} of {len(ops)} ops"),
    ]
    if nodes:
        lines.append(("nodes_per_s", nodes / spectrum_s, "1/s",
                      f"{nodes} nodes in {spectrum_s:.3f} s of spectrum"))
    if ratios:
        gap = math.exp(statistics.fmean(math.log(r) for r in ratios))
        lines.append(("cert_gap", gap, "1",
                      f"geometric mean over {len(ratios)} Holds verdicts"))
    for name, value, unit, note in lines:
        print(f"{name} = {value:.6g} {unit}  ({note})")
    _report_failures(passes)
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in lines if name in GATED}
    return {"attempted": len(ops), "failed": failed, "correct": failed == 0,
            "metrics": metrics}


#: per-layer metric units; counts are "count"
_UNITS = {"spectral.us_per_node": "us", "ergodic.ns_per_update.float": "ns",
          "ergodic.ns_per_update.rational": "ns", "cli.bytes_out": "B"}


def _unit(name: str) -> str:
    if name in _UNITS:
        return _UNITS[name]
    return "s" if name.endswith(("_s", ".s")) else "count"


def trace(run: Run, workload: str, seed: int) -> dict:
    """Traced run: per-layer metrics of pass 0, checked to repeat."""
    args = ("--workload", workload, "--seed", str(seed), "--pass", "0")
    plain = run.worker(*args)
    traces = run.base / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    traced = [run.worker(*args, "--trace-out",
                         str(traces / f"{workload}-{k}.npz"))
              for k in (1, 2)]
    passes = [plain] + traced
    failed = _failed(passes)
    attempted = sum(len(p["ops"]) for p in passes)
    repeat = traced[0]["counts"] == traced[1]["counts"]

    first = traced[0]
    print(f"# {workload} seed={seed}: traced pass 0, spans in {traces}")
    for fn, where in sorted(first["bindings"].items()):
        print(f"#   {fn} also wrapped in {', '.join(where)}")
    for op in first["ops"]:
        counts = " ".join(f"{k}={v}" for k, v in sorted(op["counts"].items()))
        print(f"#   op {op['wall_s']:9.4f} s  {op['label']}: {counts}")
    if not repeat:
        diff = {k: (v, traced[1]["counts"][k])
                for k, v in first["counts"].items()
                if traced[1]["counts"][k] != v}
        print(f"work counts differ between two traced runs: {diff}",
              file=sys.stderr)
    values = dict(first["trace"])
    values["cli.bytes_out"] = sum(op["bytes_out"] for op in first["ops"])
    values["trace.overhead_s"] = first["pass_wall_s"] - plain["pass_wall_s"]
    for name in sorted(values):
        print(f"{name} = {values[name]:.6g} {_unit(name)}")
    _report_failures(passes)
    metrics = {name: {"value": value, "unit": _unit(name)}
               for name, value in values.items()}
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0 and repeat, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "cesaro" / "__init__.py").is_file():
        print(f"error: no cesaro package under {root / 'src'}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = Run(root, time.monotonic() + RUN_LIMIT_S * len(names))
    try:
        results = {}
        for name in names:
            if args.trace:
                results[name] = trace(run, name, args.seed)
            else:
                results[name] = measure(run, name, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
