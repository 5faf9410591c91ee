"""l1lab benchmark: one workload, end-to-end metrics or per-layer metrics.

    python3 perfbench/run.py --workload verify_small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; l1lab is imported from its ``src/``.
With ``--trace 0`` the workload runs untraced and the end-to-end metrics
are reported. With ``--trace 1`` the set-up and the jobs are traced per
layer (see tracer.py); each traced pass follows an untraced pass over the
same jobs, and the ratio of the two is the tracing overhead.

Output: the machine facts, one line per metric with its unit, and as the
last line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit status is 1 when any job failed or wrote output that
does not read back, 2 on a usage error or when there are no sources to
import, 0 otherwise. METRICS.md says what each workload and metric is for.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from clock import Steps, scaled  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 3  # at least; a cheap set-up repeats until it has taken SETUP_MIN_S
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 25
IMPORT_REPS = 4  # fresh-interpreter imports before set-up, after it, and after the passes
MIN_PASSES = 2
IMPORT_TIMEOUT_S = 60


def _import_l1lab():
    if not (SRC / "l1lab" / "__init__.py").is_file():
        print(f"error: no l1lab sources under {SRC}; run from a checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import l1lab

    if Path(l1lab.__file__).resolve().parent != (SRC / "l1lab").resolve():
        print(f"error: imported l1lab from {l1lab.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# Machine facts
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas():
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError):
        name = None
    # The thread count comes from the OpenBLAS library numpy has loaded.
    threads = None
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    threads = int(fn())
                    break
    except OSError:
        pass
    return name, threads


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts(workload, seed):
    import numpy as np

    blas, blas_threads = _blas()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def import_samples(n):
    """(raw, scaled) seconds of `import l1lab` in each of n fresh interpreters."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "from clock import probe_seconds\n"
        "probe = probe_seconds()\n"
        "t = time.perf_counter()\n"
        "import l1lab\n"
        "print(time.perf_counter() - t, probe)\n"
        "print(l1lab.__file__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
            text=True, timeout=IMPORT_TIMEOUT_S, check=True,
        ).stdout.split("\n")
        if Path(out[1]).resolve().parent != (SRC / "l1lab").resolve():
            raise RuntimeError(f"child imported l1lab from {out[1]}")
        raw, probe = (float(x) for x in out[0].split())
        samples.append((raw, scaled(raw, probe)))
    return samples


class Tally:
    """Attempted and failed operations, and what made them fail.

    An operation is a job or a checked set-up step. Instance builds whose
    power iteration did not converge are retried and kept apart, in
    ``builds`` and ``build_failures``: they count in fail_share, not in
    ``failed``.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.builds = 0
        self.build_failures = 0
        self.errors = []

    def run_job(self, job):
        """Run and check one job; returns its Steps, or None if it failed."""
        self.attempted += 1
        steps = Steps()
        try:
            errors = job.check(job.run(steps))
        except Exception:  # a failing job is reported, and the run goes on
            errors = [traceback.format_exc(limit=4)]
        if errors:
            self.failed += 1
            self.errors += errors
            return None
        return steps


def _setup(spec, seed, size, ctx, tally):
    """Build the workload; returns it with its raw and scaled seconds."""
    ctx.steps = Steps()
    setup = spec[0](seed, size, ctx)
    tally.attempted += setup.checked
    tally.builds += setup.builds
    tally.build_failures += setup.build_failures
    tally.failed += len(setup.errors)
    tally.errors += setup.errors
    if not setup.jobs:
        raise RuntimeError("the workload built no instance")
    return setup, sum(ctx.steps.raw.values()), sum(ctx.steps.scaled().values())


def _percentile(sorted_values, q):
    # Linear interpolation between closest ranks, as numpy's default.
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    frac = pos - lo
    if not frac:
        return sorted_values[lo]
    a, b = sorted_values[lo], sorted_values[lo + 1]
    return a if a == b else a + (b - a) * frac


def run_untraced(spec, seed, seconds, size, ctx):
    """End-to-end metrics from whole passes over the jobs.

    Passes repeat until `seconds` have gone by, and at least MIN_PASSES
    times. Every time is scaled to the reference machine speed (clock.py).
    A job's latency is the sum over its steps of each step's median over
    the passes; a failed job counts as infinitely slow.
    """
    imports = import_samples(1 + IMPORT_REPS)[1:]  # the first one warms the file cache
    setups = []
    while len(setups) < SETUP_REPS or (
            sum(raw for raw, _ in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPS):
        tally = Tally()
        setup, raw, scaled_s = _setup(spec, seed, size, ctx, tally)
        setups.append((raw, scaled_s))
    imports += import_samples(IMPORT_REPS)
    samples = [{} for _ in setup.jobs]  # per job: step label -> [(raw, scaled)]
    failed = set()
    passes = 0
    start = perf_counter()
    while passes < MIN_PASSES or perf_counter() - start < seconds:
        for i, job in enumerate(setup.jobs):
            steps = tally.run_job(job)
            if steps is None:
                failed.add(i)
                continue
            for label, value in steps.scaled().items():
                samples[i].setdefault(label, []).append((steps.raw[label], value))
        passes += 1
    imports += import_samples(IMPORT_REPS)

    def latency(i, which):
        if i in failed:
            return math.inf
        return sum(statistics.median(v[which] for v in s) for s in samples[i].values())

    n = len(setup.jobs)
    lat = sorted(latency(i, 1) for i in range(n))
    raw_lat = sorted(latency(i, 0) for i in range(n))
    ok = [t for t in lat if t < math.inf]
    ok_raw = [t for t in raw_lat if t < math.inf]
    metrics = {
        "setup_s": (statistics.median(v for _, v in setups), "s"),
        "import_s": (statistics.median(v for _, v in imports), "s"),
        "jobs_per_s": (len(ok) / sum(ok) if ok else 0.0, "1/s"),
        "job_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"{n} jobs x {passes} passes in {perf_counter() - start:.1f} s; "
        f"set-up {len(setups)}x, import {len(imports)}x",
        "unscaled: "
        f"setup_s {statistics.median(v for v, _ in setups):.6g}, "
        f"import_s {statistics.median(v for v, _ in imports):.6g}, "
        f"jobs_per_s {len(ok_raw) / sum(ok_raw) if ok_raw else 0.0:.6g}, "
        f"job_p50_ms {1e3 * statistics.median(raw_lat):.6g}",
    ]
    extra = {}
    p90 = _percentile(lat, 90)
    beyond = sum(1 for x in lat if x > p90)
    if beyond >= 10:
        extra["job_p90_ms"] = (1e3 * p90, "ms", f"{n} jobs, {beyond} beyond it")
    else:
        notes.append(f"job_p90_ms not reported: {beyond} of {n} jobs lie beyond it")
    for label in sorted({k for s in samples for k in s if k.startswith("solve_")}):
        per_job = [statistics.median(v for _, v in s[label])
                   for i, s in enumerate(samples) if i not in failed and label in s]
        extra[label] = (1e3 * statistics.median(per_job), "ms",
                        f"median over {len(per_job)} instances of each one's median")
    return tally, metrics, extra, notes


def run_traced(spec, seed, seconds, size, ctx):
    """Per-layer metrics: a traced set-up, then untraced and traced pass pairs.

    Pairs repeat until `seconds` have gone by, and at least once.
    """
    from tracer import Aggregate, Tracer, layer_metrics

    tracer = Tracer()
    tally = Tally()
    setup_agg, job_agg = Aggregate(), Aggregate()
    ctx.tracer = tracer
    with tracer.installed():
        setup = _setup(spec, seed, size, ctx, tally)[0]
        tracer.drain(setup_agg)
    setup_agg.counters["problems.power_iteration_failures"] = setup.build_failures

    def busy(steps):
        return sum(steps.scaled().values()) if steps is not None else 0.0

    plain = traced = 0.0
    rounds = 0
    start = perf_counter()
    while rounds < 1 or perf_counter() - start < seconds:
        for job in setup.jobs:
            plain += busy(tally.run_job(job))
        with tracer.installed():
            for job in setup.jobs:
                traced += busy(tally.run_job(job))
                tracer.drain(job_agg)
        rounds += 1
    n_traced = rounds * len(setup.jobs)
    metrics = layer_metrics(setup_agg, job_agg, n_traced, traced / plain - 1.0)
    notes = [f"{n_traced} traced jobs: untraced {plain:.2f} s, traced {traced:.2f} s (scaled)"]
    if tracer.absent:
        notes.append("absent, so not traced: " + ", ".join(tracer.absent))
    return tally, metrics, {}, notes


def measure(workload, seed, seconds, trace, workdir, tiny=False):
    """Run one workload; returns (result dict for the last line, printable lines)."""
    import workloads

    spec = workloads.WORKLOADS[workload]
    size = spec[2] if tiny else spec[1]
    facts = machine_facts(workload, seed)
    runner = run_traced if trace else run_untraced
    tally, metrics, extra, notes = runner(spec, seed, seconds, size, workloads.Context(workdir))
    # An end-to-end metric may never read 0, so fail_share is a per-layer
    # metric of the traced run and a printed line of the untraced one.
    fail_share = ((tally.failed + tally.build_failures) / (tally.attempted + tally.builds),
                  "share")
    if trace:
        metrics["fail_share"] = fail_share
    else:
        extra["fail_share"] = (*fail_share, f"{tally.failed} of {tally.attempted} operations, "
                               f"{tally.build_failures} of {tally.builds} builds")
    lines = [f"machine: {json.dumps(facts)}"]
    lines += [f"note: {n}" for n in notes]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    for name, (value, unit, how) in extra.items():
        lines.append(f"{name} = {value:.6g} {unit} ({how})")
    lines += [f"FAILED: {e.rstrip()}" for e in tally.errors[:20]]
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_l1lab()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
