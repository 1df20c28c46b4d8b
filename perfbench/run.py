"""Benchmark for etaforge: seeded workloads, checked outputs, per-layer traces.

Usage, from the root of a checkout (stdlib only; the package is used from
``src/`` and need not be installed):

    python3 perfbench/run.py --workload in_process --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 1
    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 1 --trace 0 --smoke

With ``--trace 0`` the run measures the end-to-end metrics.  It makes several
timed passes (``Workload.passes``) over one seeded op sequence, each in a
fresh process: the first pass runs ops for its share of ``--seconds`` and
fixes their number, the others rerun the same ops.  An op's latency is its
best over the passes, which filters out the seconds-long slowdowns of a
shared machine; fresh processes keep a pass from reusing what an earlier pass
computed.  Reported are the set-up time of a pass process (median over
passes; import, input generation and one discarded warm-up op), ops per
second and the median and tail of the per-op latencies, and the peak memory
of a pass.

With ``--trace 1`` the run executes a fixed number of ops in this process,
each once with and once without the span wrappers of ``tracer.py``, and
reports the per-layer metrics and the tracing overhead.  ``--smoke`` runs
one small round of ops instead of a timed loop.

Every op's output is checked.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the
exit code is 0 only when every op was right.  Scratch files live in
``.perfbench/`` at the checkout root and are removed after the run; only the
span file of the last traced run of each workload and seed stays there.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import PER_LAYER, Tracer
from workloads import WORKLOADS, Context

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IMPORT_REPEATS = 3
WATCHDOG_S = 170  # a run must end within 180 s, even if an op hangs

# name -> (unit, better); ops_failed_ratio is carried by "attempted"/"failed"
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one small round of ops, untimed")
    parser.add_argument("--pass-ops", type=int, default=None,
                        help="internal: run one timed pass of this many ops (0: until --seconds)")
    return parser.parse_args(argv)


def _watchdog(signum, frame):
    raise SystemExit(f"perfbench: run exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "etaforge" / "__init__.py").is_file():
        print(f"perfbench: no etaforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        workload = WORKLOADS[args.workload](Context(ROOT, tmp, args.seed, args.smoke))
        if args.pass_ops is not None:
            return run_pass(args, workload)
        if args.trace:
            return report(args, workload, *traced_run(args, workload, work))
        return report(args, workload, *timed_run(args, workload.passes))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def report(args, workload, metrics: dict, failures: list[str], attempted: int, details: dict) -> int:
    units = {name: spec[0] for name, spec in (PER_LAYER if args.trace else END_TO_END).items()}
    print(f"# {workload.name} seed={args.seed} trace={args.trace}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if "op_tail_percentile" in details:
        print(f"op_tail_ms is p{details['op_tail_percentile']:.2f} of {details['timed_ops']} ops"
              f" (best of {details['passes']} passes each)")
    print(f"ops_failed_ratio = {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    for message in failures[:5]:
        print(f"failed: {message}", file=sys.stderr)
    details.update(provenance(args, workload), ops_failed_ratio=len(failures) / attempted)
    print("provenance " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


def timed_run(args, n_passes: int):
    """Timed passes in fresh processes; each op keeps its best latency."""
    passes: list[dict] = []
    n_ops = 0
    for _ in range(n_passes):
        result = spawn_pass(args, n_ops, args.seconds / n_passes)
        n_ops = n_ops or len(result["latencies"])
        if len(result["latencies"]) != n_ops:
            raise RuntimeError("a pass ran a different number of ops than the first")
        passes.append(result)
    best = [min(p["latencies"][i] for p in passes) for i in range(n_ops)]
    tail_s, tail_pct = tail(best)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "ops_per_s": n_ops / sum(best),
        "op_p50_ms": statistics.median(best) * 1000,
        "op_tail_ms": tail_s * 1000,
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    failures = [message for p in passes for message in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    details = {"passes": n_passes, "timed_ops": n_ops, "op_tail_percentile": tail_pct}
    return metrics, failures, attempted, details


def spawn_pass(args, n_ops: int, seconds: float) -> dict:
    """Run one pass process; its set-up time lasts until it prints "ready"."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--pass-ops", str(n_ops)]
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            lines = proc.stdout.read().splitlines()
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or ready.strip() != "ready" or not lines:
        raise RuntimeError(f"pass process failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def run_pass(args, workload) -> int:
    """One pass: set up, run the warm-up op, print "ready", run and check the ops."""
    failures: list[str] = []
    workload.setup()
    warm_up = workload.warm_up_op()
    record(failures, workload, warm_up, *call(workload, warm_up))
    print("ready", flush=True)
    if args.smoke:
        ops, seconds = workload.fixed_ops(), None
    elif args.pass_ops:
        ops, seconds = itertools.islice(workload.ops(), args.pass_ops), None
    else:
        ops, seconds = workload.ops(), args.seconds
    results, latencies = measure(workload, ops, seconds)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    rss_mb = resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    for op, out, err in results:
        record(failures, workload, op, out, err)
    print(json.dumps({"latencies": latencies, "failures": failures,
                      "attempted": len(results) + 1, "rss_mb": rss_mb}))
    return 0


def traced_run(args, workload, work: Path):
    metrics = import_times(workload)
    failures: list[str] = []
    workload.setup()
    warm_up = workload.warm_up_op()
    record(failures, workload, warm_up, *call(workload, warm_up))
    tracer = Tracer()
    tracer.prepare()
    results, overhead = measure_traced(workload, tracer)
    for op, out, err in results:
        record(failures, workload, op, out, err)
    metrics.update(tracer.metrics())
    metrics["trace.overhead_ratio"] = overhead
    tracer.write_spans(work / f"spans-{workload.name}-seed{args.seed}.jsonl")
    return metrics, failures, len(results) + 1, {}


def call(workload, op, tracer=None):
    """Run one op; an exception is that op's failure, not the benchmark's."""
    try:
        return workload.run(op, tracer), None
    except Exception as exc:  # noqa: BLE001 - counted and reported as a failed op
        return None, f"{type(exc).__name__}: {exc}"


def record(failures: list[str], workload, op, out, err) -> None:
    if err is None:
        try:
            err = workload.check(op, out)
        except Exception as exc:  # noqa: BLE001 - a malformed output is a failed op
            err = f"check raised {type(exc).__name__}: {exc}"
    if err is not None:
        failures.append(f"{op.kind}: {err}")


def measure(workload, ops, seconds: float | None = None):
    """Closed loop: run ops back to back, until ``seconds`` have passed if given."""
    results, latencies = [], []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        out, err = call(workload, op)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        results.append((op, out, err))
        if seconds is not None and t1 - start >= seconds:
            break
    return results, latencies


def measure_traced(workload, tracer):
    """Run each fixed op once traced and once untraced, alternating the order."""
    results = []
    traced_s = untraced_s = 0.0
    for i, op in enumerate(workload.fixed_ops()):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                if workload.in_process:
                    tracer.install()
                span = tracer.begin_op(i)
            t0 = time.perf_counter()
            out, err = call(workload, op, tracer if traced else None)
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.end_op(span)
                if workload.in_process:
                    tracer.uninstall()
                traced_s += elapsed
            else:
                untraced_s += elapsed
            results.append((op, out, err))
    return results, traced_s / untraced_s


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, or the median
    when fewer than twenty samples leave no such percentile above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def import_times(workload) -> dict[str, float]:
    """Import times from ``-X importtime`` for the modules the workload imports.

    ``import.scipy_s`` sums the cumulative times of the outermost scipy
    imports, so it includes what scipy itself pulls in (numpy).
    """
    code = "; ".join(f"import {m}" for m in workload.modules)
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              cwd=workload.ctx.tmp, env=workload.ctx.env(),
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{proc.stderr}")
        runs.append(_parse_importtime(proc.stderr))
    return {metric: statistics.median(run.get(key, 0.0) for run in runs)
            for metric, key in (("import.etaforge_s", "etaforge"),
                                ("import.etaforge_measure_s", "etaforge.measure"),
                                ("import.scipy_s", "scipy*"))}


def _parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module, plus "scipy*" for the outermost scipy imports."""
    rows = []
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            raw = parts[2].rstrip()
            rows.append((len(raw) - len(raw.lstrip()), raw.strip(), int(parts[1]) / 1e6))
    cumulative: dict[str, float] = {"scipy*": 0.0}
    stack: list[tuple[int, bool]] = []  # (depth, inside a scipy import)
    for depth, name, seconds in reversed(rows):  # parents now come before children
        cumulative.setdefault(name, seconds)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            cumulative["scipy*"] += seconds
        stack.append((depth, inside or is_scipy))
    return cumulative


def provenance(args, workload) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha, dirty = None, None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                     "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout: the SHA stays unknown
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": workload.sizes(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": sha,
        "git_dirty": dirty,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
        "nproc": os.cpu_count(),
    }


def run_all(args) -> int:
    """Run every workload in its own process and print a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
