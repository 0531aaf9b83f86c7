"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {cli,sdp,alpha-reps} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up its inputs several times (``setup_s`` is the
median), then runs passes over the workload's corpus until ``--seconds``
would be exceeded (at least one pass); an operation's time is the median
over the passes of its wall time scaled to the reference host speed (see
``hostspeed``).  With ``--trace 0`` the last line
of output is the end-to-end metrics; with ``--trace 1`` passes alternate
untraced and traced, and the last line is the per-layer metrics.  The line
before it holds run metadata and the workload's own named metrics.  Both
lines and, when traced, every span are also written under bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
PROBE_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ok_frac": "frac",
}

# The workload's own metrics, printed on the metadata line.
NAMED = {
    "cli": {"cli_ms.p50": "ms", "cli_ms.p90": "ms"},
    "sdp": {"theta_real_s": "s", "theta_real_ms.p50": "ms", "theta_complex_s": "s"},
    "alpha-reps": {"alpha_s": "s", "rep_ms.p50": "ms", "rep_ms.p90": "ms"},
}

# Span names whose self time is reported as a per-layer "<name>_ms".
LAYER_SPANS = (
    "graph.independence_number", "graph.orthogonality_graph", "graph.parse",
    "graph.serialize", "loor.gram_from_rep", "loor.rep_from_gram", "loor.verify_rep",
    "loor.parse_rep", "loor.serialize_rep", "realify.projector", "realify.vector",
)
CLI_STAGES = ("instance", "theta_real", "theta_complex", "alpha", "extract", "verify",
              "realify_projector", "realify_vector", "verify_sic", "orthograph")


def per_layer_units() -> dict[str, str]:
    units = {"cli.interp_ms": "ms", "cli.import_ms": "ms"}
    units.update({f"cli.stage.{s}_ms.p50": "ms" for s in CLI_STAGES})
    for f in ("real", "complex"):
        units.update({f"theta.{f}.iterations": "count", f"theta.{f}.ms_per_iter": "ms",
                      f"theta.{f}.capped": "count"})
    units.update({f"{name}_ms": "ms" for name in LAYER_SPANS})
    units["trace.overhead_frac"] = "frac"
    return units


PER_LAYER = per_layer_units()


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def op_times(passes, kind_prefix: str = "") -> list[float]:
    """Each operation's median scaled time over the passes, in corpus order.

    Every pass runs the same operations in the same order.  Operations not
    run (their input failed) are left out.
    """
    out = []
    for column in zip(*(ops for ops, _ in passes)):
        times = [op.scaled for op in column if op.seconds is not None]
        if times and column[0].kind.startswith(kind_prefix):
            out.append(statistics.median(times))
    return out


def end_to_end(workload, passes, setup_times) -> dict[str, float]:
    """End-to-end values from the untraced passes: (ops, seconds) pairs."""
    ops = [op for pass_ops, _ in passes for op in pass_ops]
    times = op_times(passes)
    rusage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(rusage).ru_maxrss / 1024.0,
        "pass_s": sum(times),
        "op_ms.p50": 1e3 * percentile(times, 50),
        "op_ms.p90": 1e3 * percentile(times, 90),
        "ok_frac": sum(op.error is None for op in ops) / len(ops),
    }


def named(workload, passes) -> dict[str, float]:
    """The workload's own metrics, from each operation's median time."""
    if workload == "cli":
        t = op_times(passes, "cli.")
        return {"cli_ms.p50": 1e3 * percentile(t, 50), "cli_ms.p90": 1e3 * percentile(t, 90)}
    if workload == "sdp":
        return {"theta_real_s": sum(op_times(passes, "theta.real")),
                "theta_real_ms.p50": 1e3 * percentile(op_times(passes, "theta.real"), 50),
                "theta_complex_s": sum(op_times(passes, "theta.complex"))}
    t = op_times(passes, "rep")
    return {"alpha_s": sum(op_times(passes, "alpha")),
            "rep_ms.p50": 1e3 * percentile(t, 50), "rep_ms.p90": 1e3 * percentile(t, 90)}


def per_layer(workload, traced, untraced, tracer, probes) -> dict[str, float]:
    """Per-layer values from the traced passes, per pass where a sum."""
    n = len(traced)
    ops = [op for pass_ops, _ in traced for op in pass_ops]
    self_s = tracer.self_times()
    durations: dict[str, list[float]] = {}
    for s in tracer.spans:
        durations.setdefault(s.name, []).append(s.end - s.start)

    interp = min(probes["interp"])
    imported = min(probes["import"])
    out = {"cli.interp_ms": 1e3 * interp, "cli.import_ms": 1e3 * (imported - interp)}
    for stage in CLI_STAGES:
        d = durations.get(f"cli.stage.{stage}")
        out[f"cli.stage.{stage}_ms.p50"] = 1e3 * statistics.median(d) if d else 0.0
    for f in ("real", "complex"):
        solves = [op for op in ops if op.kind in (f"theta.{f}", f"cli.theta_{f}")]
        iterations = sum(op.info.get("iterations", 0) for op in solves)
        if workload == "cli":
            # a CLI call's solve time is estimated as its wall time less
            # the start-up and import of a bare `import loorkit.cli`
            solve_s = sum(op.seconds - imported for op in solves)
        else:
            solve_s = self_s.get(f"theta.{f}", 0.0)
        out[f"theta.{f}.iterations"] = iterations / n
        out[f"theta.{f}.ms_per_iter"] = 1e3 * solve_s / iterations if iterations else 0.0
        out[f"theta.{f}.capped"] = sum(bool(op.info.get("capped")) for op in solves) / n
    for name in LAYER_SPANS:
        out[f"{name}_ms"] = 1e3 * self_s.get(name, 0.0) / n
    out["trace.overhead_frac"] = sum(op_times(traced)) / sum(op_times(untraced)) - 1.0
    return out


def host_meta(passes) -> dict:
    """The host-speed probes of the untraced passes, and the unscaled
    pass time, so a reader can see how much scaling moved the result."""
    ops = [op for pass_ops, _ in passes for op in pass_ops if op.seconds is not None]
    per_op = [statistics.median(op.seconds for op in column if op.seconds is not None)
              for column in zip(*(pass_ops for pass_ops, _ in passes))
              if any(op.seconds is not None for op in column)]
    from hostspeed import REFERENCE_S

    return {"reference_ms": 1e3 * REFERENCE_S,
            "probe_ms.p50": 1e3 * statistics.median(op.host for op in ops),
            "unscaled_pass_s": sum(per_op)}


def run_meta(seed: int) -> dict:
    import numpy as np

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
    }


def with_units(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(NAMED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "loorkit" / "__init__.py").is_file():
        print(f"error: no loorkit sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One core for the benchmark and the CLI processes it starts, so that the
    # host-speed probes run on the core the operations run on.  This comes
    # before numpy is imported, so BLAS starts one thread.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import hostspeed
    import workloads
    from spans import NullTracer, Tracer

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    tracer = Tracer() if args.trace else None
    untraced, traced = [], []
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            with hostspeed.Stopwatch() as sw:
                wl.setup()
            setup_times.append(hostspeed.scaled(sw.seconds, sw.host))

        deadline = time.perf_counter() + args.seconds
        last = 0.0
        # Start a pass only if one as long as the last still fits; a traced
        # run alternates untraced and traced passes and runs one of each.
        while (not untraced or (args.trace and not traced)
               or time.perf_counter() + last <= deadline):
            trace_this = bool(args.trace) and len(traced) < len(untraced)
            t0 = time.perf_counter()
            ops = wl.run_pass(tracer if trace_this else NullTracer())
            last = time.perf_counter() - t0
            (traced if trace_this else untraced).append((ops, last))

        probes = {"interp": [], "import": []}
        if args.trace:
            for _ in range(PROBE_REPEATS):
                probes["interp"].append(workloads.python_probe(ROOT, "pass"))
                probes["import"].append(workloads.python_probe(ROOT, "import loorkit.cli"))
    finally:
        wl.close()

    all_ops = [op for pass_ops, _ in untraced + traced for op in pass_ops]
    failures = [f"{op.kind}: {op.error}" for op in all_ops if op.error]
    wrong = [f"{op.kind}: {op.error}" for op in all_ops if op.wrong]
    e2e = end_to_end(args.workload, untraced, setup_times)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "meta": run_meta(args.seed),
        "host": host_meta(untraced),
        "passes": {"untraced": len(untraced), "traced": len(traced),
                   "ops_per_pass": len(untraced[0][0])},
        "named": with_units(
            {**e2e, "failed_frac": len(failures) / len(all_ops), **named(args.workload, untraced)},
            {"setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "frac",
             **NAMED[args.workload]}),
        "failures": sorted(set(failures)),
        "wrong": sorted(set(wrong)),
    }
    if args.trace:
        metrics = with_units(per_layer(args.workload, traced, untraced, tracer, probes), PER_LAYER)
    else:
        metrics = with_units(e2e, END_TO_END)
    result = {"correct": not wrong, "attempted": len(all_ops), "failed": len(failures),
              "metrics": metrics}

    out_dir = ROOT / "bench" / "results"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # each untraced pass's operation times, in corpus order (None: not run)
    samples = [[op.seconds for op in ops] for ops, _ in untraced]
    stem.with_suffix(".json").write_text(
        json.dumps({**detail, "result": result, "samples": samples}, indent=2) + "\n",
        encoding="utf-8")
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
