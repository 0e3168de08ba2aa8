"""Run one dickesim benchmark workload and print its metrics.

    python3 benchmark/run.py --workload scan_exact --seed 1 --seconds 20 --trace 0

The workload runs in this fresh interpreter, closed loop: one CLI operation
(``dickesim.cli.main`` with a generated argv, output to a temp file) at a
time, each started only after the previous one ended, until ``--seconds``
have passed and at least MIN_OPS operations ran; the operation in flight
then completes.  Inputs come from ``--seed`` only.  Each operation's output
is checked outside the timed region.

The host's speed drifts by up to 1.7x within minutes, as other tenants come
and go.  So each operation and each fresh import is scaled to a fixed
machine speed: its wall time times REF_SECONDS over the time of the
reference kernel (reference.py), run on the same CPU just before and after.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics of the
traced ones (see spans.py); the spans are written to ``.bench_tmp/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_tmp"
# The reference kernel's median wall seconds on the baseline machine (2 vCPUs
# of an Intel Xeon KVM guest): the speed that wall_s and setup_s are scaled
# to.  Changing it rescales every baseline.
REF_SECONDS = 0.062
# Untraced operations per run, at least: a median of three survives one
# outlier.
MIN_OPS = 3
# One scan_closed operation records 1e5 spans; this caps the span arrays.
MAX_TRACED_OPS = 5
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def load_program():
    """Import dickesim from this checkout's src/, never from elsewhere."""
    package = SRC / "dickesim"
    if not (package / "cli.py").is_file():
        sys.exit(f"error: no dickesim sources at {package}")
    sys.path.insert(0, str(SRC))
    import dickesim.cli

    if Path(dickesim.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported dickesim from {dickesim.cli.__file__}, not {package}")
    return dickesim.cli


class Reference:
    """The reference kernel (reference.py), run in a process of its own so
    that nothing the program leaves behind in this one can slow it."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.time(min(os.sched_getaffinity(0)))  # warm up; not used
        return self

    def time(self, cpu: int) -> float:
        """Wall seconds of one run of the kernel on ``cpu``."""
        os.sched_setaffinity(self.proc.pid, {cpu})
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()


def time_setup() -> float:
    """Wall time of one fresh interpreter importing dickesim.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    # No timeout: with one, Popen.wait polls and rounds the time up to 50 ms.
    subprocess.run([sys.executable, "-c", "import dickesim.cli"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def environment() -> dict:
    import numpy

    def command(*argv, **kwargs):
        try:
            done = subprocess.run(argv, capture_output=True, text=True, timeout=10, **kwargs)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # Stop git at this checkout: a checkout without .git has no sha.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": command("git", "rev-parse", "HEAD", cwd=ROOT, env=git_env) or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": command("getconf", "LEVEL2_CACHE_SIZE"),
        "l3_bytes": command("getconf", "LEVEL3_CACHE_SIZE"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def run_op(main, workload, inputs, tmp: Path, tracer=None):
    """One timed CLI operation, then its check.  Returns (seconds, error, bytes)."""
    out_path, stdout_path = tmp / "out", tmp / "stdout"
    argv = workload.argv(inputs, str(out_path))
    with contextlib.suppress(FileNotFoundError):
        out_path.unlink()
    gc.collect()
    with open(stdout_path, "w", encoding="utf-8") as stdout, contextlib.redirect_stdout(stdout):
        if tracer is not None:
            tracer.install()
            tracer.begin_op()
        start = time.perf_counter()
        try:
            status = main(argv)
        except Exception:
            traceback.print_exc()
            status = None
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
                tracer.uninstall()
    if status is None:
        return seconds, "raised", 0
    output_bytes = stdout_path.stat().st_size
    if out_path.exists():
        output_bytes += out_path.stat().st_size
    try:
        error = workload.check(inputs, status, str(out_path), str(stdout_path))
    except Exception as exc:  # unreadable output fails the operation, not the run
        error = f"check raised {exc!r}"
    return seconds, error, output_bytes


def run(main, workload, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    """The closed loop.  Rounds take the CPUs in turn (this thread only), so
    that every run samples each CPU alike.  An untraced round times the
    reference kernel on the same CPU before and after its operation and its
    fresh import; a traced round pairs an untraced and a traced operation."""
    rng = random.Random(seed)
    tracer = spans.Tracer() if trace else None
    plain, traced, setups, refs, output_bytes, errors = [], [], [], [], [], []
    peak_rss_mib = None
    min_ops = 1 if trace else MIN_OPS
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        reference = None if trace else stack.enter_context(Reference())
        while len(plain) < min_ops or (
            time.perf_counter() - start < seconds
            and (tracer is None or len(traced) < MAX_TRACED_OPS)
        ):
            cpu = cpus[len(plain) % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            if reference is not None:
                before = reference.time(cpu)
            for t in (None, tracer) if trace else (None,):
                op_seconds, error, size = run_op(main, workload, workload.draw(rng), tmp, t)
                (plain if t is None else traced).append(op_seconds)
                if peak_rss_mib is None:
                    # A CLI call is a process that runs one operation.  Later
                    # operations in this process add only heap fragmentation.
                    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                output_bytes.append(size)
                if error is not None:
                    errors.append(error)
                    print(f"# operation {len(plain) + len(traced)} failed: {error}",
                          file=sys.stderr)
            if reference is not None:
                setups.append(time_setup())
                refs.append((before + reference.time(cpu)) / 2)
    os.sched_setaffinity(0, cpus)
    return {
        "plain": plain, "traced": traced, "setups": setups, "refs": refs,
        "output_bytes": output_bytes, "errors": errors, "tracer": tracer,
        "peak_rss_mib": peak_rss_mib,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))

    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        result = run(cli.main, workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    plain = result["plain"]
    attempted = len(plain) + len(result["traced"])
    failed = len(result["errors"])
    correct = failed == 0
    print(f"# {workload.name} seed {args.seed}: {attempted} operations, {failed} failed; "
          f"untraced op seconds {[round(s, 4) for s in plain]}")

    if not args.trace:
        print(f"# fresh import seconds {[round(s, 4) for s in result['setups']]}")
        print(f"# reference seconds {[round(s, 4) for s in result['refs']]}")
        # Each time is scaled by the machine's speed in its own round.
        scale = [REF_SECONDS / ref for ref in result["refs"]]
        metrics = {
            "wall_s": (statistics.median(t * k for t, k in zip(plain, scale)), "s"),
            "setup_s": (statistics.median(t * k for t, k in zip(result["setups"], scale)), "s"),
            "peak_rss_mb": (result["peak_rss_mib"], "MiB"),
            "ok_frac": ((attempted - failed) / attempted, "fraction"),
        }
    else:
        tracer = result["tracer"]
        medians, unsteady = spans.summarize_ops(tracer.op_metrics())
        if unsteady:
            correct = False
            print(f"# work counts differ between operations: {unsteady}", file=sys.stderr)
        medians["cli.output_bytes"] = statistics.median(result["output_bytes"])
        medians["trace.overhead_s"] = statistics.median(
            t - p for p, t in zip(plain, result["traced"])
        )
        units = spans.per_layer_metrics()
        metrics = {name: (medians[name], unit) for name, unit in units.items()}
        trace_path = WORK_DIR / f"trace-{workload.name}-seed{args.seed}.npz"
        tracer.save(trace_path, {"env": env, "workload": workload.name, "seed": args.seed,
                                 "metrics": medians})
        print(f"# spans written to {trace_path.relative_to(ROOT)}")

    for name, (value, unit) in metrics.items():
        label = " (computed)" if name.rsplit(".", 1)[-1] in spans.COMPUTED else ""
        print(f"# {name:45s} {value:>16.6g} {unit}{label}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
