"""One benchmark worker: a fresh interpreter that runs one pass of a workload.

Usage (run.py starts it; the working directory is a fresh empty directory):

    python3 worker.py --root DIR --workload NAME --seed N --pass K \
        --result FILE [--trace-out FILE]
    python3 worker.py --root DIR --setup-only --result FILE

The import of ``cesaro`` and ``cesaro.cli`` is timed first, before any
other module that loads numpy.  Each op is timed alone; the output checks,
garbage collection and clean-up between ops are outside the timed region.
The result (per-op times, failures, peak memory, trace report) goes to
``--result`` as JSON.
"""

import argparse
import gc
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def _import_cesaro(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import cesaro
    import cesaro.cli
    import_s = time.perf_counter() - start
    if not Path(cesaro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"cesaro was imported from {cesaro.__file__}, "
                         f"not from {src}")
    return cesaro, import_s


def _run_op(cesaro, workloads, op, op_dir: Path):
    """Execute one op; returns the CLI exit code or the library result."""
    if op.argv:
        return cesaro.cli.main(list(op.argv) + ["--out",
                                                str(op_dir / op.out_name)])
    if op.kind == "resolvent":
        return cesaro.resolvent_section(op.lam, workloads.RESOLVENT_N,
                                        mode="rational")
    return [[cesaro.kernel_power_entry(n, k, op.power)
             for k in range(1, n + 1)]
            for n in range(1, workloads.KERNEL_ROWS + 1)]


def _check_op(cesaro, workloads, op, op_dir: Path, outcome, record) -> list:
    schema = cesaro.cli.SCHEMA_VERSION
    if op.argv:
        if outcome != 0:
            return [f"exit code {outcome}"]
        path = op_dir / op.out_name
        if op.kind == "analyze":
            return workloads.check_analyze(op, path, schema,
                                           record["cert_ratios"])
        if op.kind == "spectrum":
            errors, record["nodes"] = workloads.check_spectrum(
                op, path, schema, record["cert_ratios"])
            return errors
        return workloads.check_iterate(op, path, schema)
    if op.kind == "resolvent":
        return workloads.check_resolvent(op, outcome, cesaro.sections.QC)
    return workloads.check_kernel(op, outcome)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--pass", dest="pass_index", type=int, default=0)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args(argv)

    cesaro, import_s = _import_cesaro(args.root)
    if args.setup_only:
        args.result.write_text(json.dumps({"import_s": import_s}))
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from tracer import Tracer

    ops = workloads.ops_for(args.workload, args.seed, args.pass_index)
    if len({op.key for op in ops}) != len(ops):
        raise SystemExit("an op list repeats identical inputs")
    tracer = None
    if args.trace_out is not None:
        tracer = Tracer()
        tracer.install(cesaro)

    records = []
    work = Path.cwd()
    for i, op in enumerate(ops):
        op_dir = work / f"op{i}"
        op_dir.mkdir()
        record = {"label": op.label, "kind": op.kind, "errors": [],
                  "cert_ratios": [], "nodes": 0}
        gc.collect()
        before = tracer.counts() if tracer else None
        outcome = None
        start = time.perf_counter()
        try:
            if tracer:
                tracer.op_id = i
                outcome = tracer.span("bench." + op.kind, "bench", _run_op,
                                      (cesaro, workloads, op, op_dir))
            else:
                outcome = _run_op(cesaro, workloads, op, op_dir)
        except Exception:
            record["errors"].append(traceback.format_exc(limit=4))
        record["wall_s"] = time.perf_counter() - start
        if not record["errors"]:
            try:
                record["errors"] = _check_op(cesaro, workloads, op, op_dir,
                                             outcome, record)
            except Exception:
                record["errors"].append("output check raised:\n"
                                        + traceback.format_exc(limit=4))
        record["bytes_out"] = sum(p.stat().st_size
                                  for p in op_dir.iterdir() if p.is_file())
        if tracer:
            after = tracer.counts()
            record["counts"] = {k: after[k] - before[k] for k in after
                                if after[k] != before[k]}
        del outcome
        shutil.rmtree(op_dir)
        records.append(record)

    result = {
        "import_s": import_s,
        "ops": records,
        "pass_wall_s": sum(r["wall_s"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.report()
        result["counts"] = tracer.counts()
        result["bindings"] = tracer.bindings
        tracer.save(args.trace_out)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
