"""Benchmark of the fuknagaev package: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy. One client in one
process issues each call after the last one returns (a closed loop), with
the numeric thread pools capped at the number of usable CPUs.

``--trace 0`` reports ``wall_s`` (median time of the timed warm passes),
``setup_s`` (median over fresh interpreters of the time until the first
call of a pass has returned) and ``peak_mem_mb`` (peak resident memory
after the untimed warm-up pass). Both times are scaled to the reference
speed of a fixed kernel run between segments of the timed work (see
``HostSpeed``); the unscaled medians are printed beside them. ``--trace 1`` reports the
per-layer metrics of traced passes and ``trace.overhead_ratio``. Earlier
lines of standard output give a readable summary and a JSON record of the
environment, report digests and failures; the last line is the result.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
SEGMENT_S = 0.5
KERNEL_SEED = 20240601
# Scaled times are expressed at this kernel time, about the kernel's time
# on a quiet 2-CPU Xeon host.
REFERENCE_KERNEL_S = 0.025
# Rows of the ROADMAP baseline table that a traced run reproduces.
BASELINE = {"us_per_trial": 80.0, "seeding_share": 0.59 / 1.63,
            "proof_ms_per_point": 4.7, "cp_us": 59.0}


def monotonic():
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_package():
    """Import fuknagaev from this checkout's src/, or exit with status 1."""
    src = ROOT / "src"
    if not (src / "fuknagaev" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src}")
    sys.path.insert(0, str(src))
    import fuknagaev
    import fuknagaev.cli
    if Path(fuknagaev.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: imported fuknagaev from {fuknagaev.__file__}, "
                 f"not from {src}")
    return fuknagaev


@contextlib.contextmanager
def workdir():
    """A private directory inside the checkout, current while in use."""
    base = HERE / ".work"
    base.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    old = os.getcwd()
    os.chdir(path)
    try:
        yield Path(path)
    finally:
        os.chdir(old)
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def kernel_seconds():
    """Time of a fixed computation that does not use the package: small
    numpy calls and float arithmetic in a Python loop, the kind of work
    that dominates the workloads."""
    import numpy as np
    rng = np.random.Generator(np.random.Philox(KERNEL_SEED))
    start = time.perf_counter()
    acc = 0.0
    for _ in range(900):
        sums = np.cumsum(rng.standard_normal((20, 3)), axis=0)
        acc += float(np.sqrt((sums * sums).sum(axis=1)).max())
        for k in range(40):
            acc += math.exp(-k * 1e-3) / (k + 1.5)
    return time.perf_counter() - start


class HostSpeed:
    """Converts timed work to seconds at the kernel's reference speed.

    Other tenants of a shared host slow this process by up to a half, in
    episodes that last from under a second to minutes. The kernel runs
    between segments of timed work, outside them; a segment's time divided
    by the mean of the kernel runs on its two sides no longer carries the
    host's load at that moment.
    """

    def __init__(self):
        self.kernels = [kernel_seconds()]

    def start(self):
        """Run the kernel that opens the next segment."""
        self.kernels.append(kernel_seconds())

    def scaled(self, seconds):
        """``seconds`` of work since the last kernel run, at the reference
        speed."""
        self.kernels.append(kernel_seconds())
        return seconds * REFERENCE_KERNEL_S * 2.0 / (self.kernels[-2] + self.kernels[-1])


class Runner:
    """Runs passes of one workload and keeps their failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self._sink = io.StringIO()

    def _run(self, ops, speed):
        """Run ops; (seconds, seconds at the reference speed or None).

        With ``speed`` the kernel runs after each segment of at least
        ``SEGMENT_S``, and its time is not counted."""
        wall, scaled = 0.0, None if speed is None else 0.0
        start = time.perf_counter()
        for i, (name, op) in enumerate(ops):
            self.attempted += 1
            try:
                op()
            except Exception as exc:  # any fault counts against the op
                self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            took = time.perf_counter() - start
            if speed is not None and (took >= SEGMENT_S or i == len(ops) - 1):
                wall += took
                scaled += speed.scaled(took)
                start = time.perf_counter()
        if speed is None:
            wall = time.perf_counter() - start
        return wall, scaled

    def run_ops(self, ops, tracer=None, speed=None):
        """Run ops with the package's printing captured.

        With a tracer the ops run inside a root span, so the self times of
        all spans add up to the pass."""
        body = lambda: self._run(ops, speed)
        if tracer is not None:
            body = tracer.span("bench.pass", body)
        with contextlib.redirect_stdout(self._sink):
            result = body()
        self._sink.seek(0)
        self._sink.truncate()
        return result

    def timed_pass(self, tracer=None, speed=None):
        return self.run_ops(self.workload.ops(), tracer, speed)


def percentile(sorted_vals, p):
    k = (len(sorted_vals) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (k - lo)


def tail_latency(samples):
    """(percentile, value) for the highest listed percentile that has at
    least ten samples beyond it."""
    vals = sorted(samples)
    for p in TAIL_PERCENTILES:
        if len(vals) * (1.0 - p / 100.0) >= 10:
            return p, percentile(vals, p)
    return 50.0, percentile(vals, 50.0)


def cpu_model():
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or None


def git_commit():
    """Commit of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, nproc):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "cpu": cpu_model(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "commit": git_commit()}


def setup_child(args):
    """Fresh-interpreter set-up: make the inputs, run the first call of a
    pass cold and print the clock when it has returned."""
    fk = import_package()
    from workloads import WORKLOADS
    with workdir():
        workload = WORKLOADS[args.workload](fk, args.seed, args.toy)
        runner = Runner(workload)
        with workload.probe:
            runner.run_ops(workload.ops()[:1])
    print(json.dumps({"first_call_done": monotonic(), "failures": runner.failures}))
    return 0


def spawn_setup(args):
    """Run one set-up child; (set-up seconds, its failures)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
           "--setup-child"] + (["--toy"] if args.toy else [])
    start = monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=str(ROOT))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    return record["first_call_done"] - start, record["failures"]


def measure(args, fk, nproc):
    from workloads import WORKLOADS
    import tracing

    info = {"env": environment(args, nproc)}
    metrics = {}
    failures, setups, setups_raw = [], [], []
    speed = None if args.trace else HostSpeed()
    if not args.trace:
        for _ in range(SETUP_RUNS):
            took, failed = spawn_setup(args)
            setups_raw.append(took)
            setups.append(speed.scaled(took))
            failures += [f"set-up: {f}" for f in failed]
        info["setup_samples_s"] = setups
        info["setup_unscaled_s"] = setups_raw

    with workdir():
        workload = WORKLOADS[args.workload](fk, args.seed, args.toy)
        runner = Runner(workload)
        with workload.probe:
            runner.timed_pass()  # warm-up, checked but not timed
            # Nothing before the warm-up pass held as much memory as it.
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            workload.proof_latencies.clear()
            walls = {False: [], True: []}  # traced -> pass times
            scaled_walls, layers = [], []
            if speed is not None:
                speed.start()
            start = time.perf_counter()
            while True:
                traced = bool(args.trace) and len(walls[False]) > len(walls[True])
                if traced:
                    tracer = tracing.Tracer()
                    with tracing.instrument(tracer, fk, workload):
                        wall, _ = runner.timed_pass(tracer)
                    layers.append(tracing.layer_metrics(tracer))
                    info.setdefault("trace_check", []).append(
                        {"wall_s": wall, "self_sum_s": tracer.self_total()})
                    if len(layers) == 1:
                        info["baseline_rows"] = baseline_rows(tracer, fk, args.seed)
                else:
                    wall, scaled = runner.timed_pass(speed=speed)
                    if scaled is not None:
                        scaled_walls.append(scaled)
                walls[traced].append(wall)
                done = len(walls[True]) if args.trace else len(walls[False])
                if time.perf_counter() - start >= args.seconds and \
                        done >= (2 if args.trace else MIN_PASSES):
                    break

    failures += runner.failures
    attempted = runner.attempted + (SETUP_RUNS if setups else 0)
    info["passes"] = len(walls[False]) + len(walls[True])
    info["wall_unscaled_s"] = walls[False]
    info["digests"] = workload.digests
    info["error_rate"] = len(failures) / attempted
    info["failures"] = failures[:20]

    if args.trace:
        for name in layers[0]:
            unit = layers[0][name][1]
            metrics[name] = {"value": statistics.median(m[name][0] for m in layers),
                             "unit": unit}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(walls[True]) / statistics.median(walls[False]),
            "unit": "ratio"}
        info["traced_wall_samples_s"] = walls[True]
    else:
        metrics["wall_s"] = {"value": statistics.median(scaled_walls), "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_mem_mb"] = {"value": peak_mb, "unit": "MB"}
        info["wall_scaled_s"] = scaled_walls
        info["wall_median_unscaled_s"] = statistics.median(walls[False])
        info["setup_median_unscaled_s"] = statistics.median(setups_raw)
        info["kernel_s"] = speed.kernels
        lat = workload.proof_latencies
        if lat:
            p, tail = tail_latency(lat)
            info["proof_ms_p50"] = statistics.median(lat) * 1e3
            info["proof_ms_tail"] = {"value": tail * 1e3, "percentile": p,
                                     "samples": len(lat),
                                     "beyond": int(len(lat) * (1 - p / 100.0))}
    return info, metrics, attempted, failures


def baseline_rows(tracer, fk, seed):
    """ROADMAP baseline-table rows this trace covers, next to today's
    numbers. Seeding is timed here, on the same per-trial seeds."""
    rows = {}
    st = fk.stochastic
    ens = tracer.spans.get("stochastic.ensemble")
    trials = tracer.counts["stochastic.trials"]
    if ens and trials:
        us = ens[1] / trials * 1e6
        rows["us_per_trial"] = {"now": us, "baseline": BASELINE["us_per_trial"]}
        import numpy as np
        count = 2000
        start = time.perf_counter()
        for j in range(count):
            np.random.Generator(np.random.Philox(st.trial_seed(seed, j)))
        seeding_us = (time.perf_counter() - start) / count * 1e6
        rows["seeding_share"] = {"now": seeding_us / us,
                                 "baseline": BASELINE["seeding_share"]}
    proof = tracer.spans.get("legendre.proof_chain")
    if proof:
        rows["proof_ms_per_point"] = {"now": proof[1] / proof[0] * 1e3,
                                      "baseline": BASELINE["proof_ms_per_point"]}
    cp = tracer.spans.get("verify.cp")
    if cp:
        rows["cp_us"] = {"now": cp[1] / cp[0] * 1e6, "baseline": BASELINE["cp_us"]}
    return rows


def summary(args, info, metrics):
    parts = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if "wall_median_unscaled_s" in info:
        parts.append(f"unscaled: wall {info['wall_median_unscaled_s']:.6g} s, "
                     f"set-up {info['setup_median_unscaled_s']:.6g} s")
    parts.append(f"error_rate={info['error_rate']:.6g} ratio")
    if "proof_ms_p50" in info:
        tail = info["proof_ms_tail"]
        parts.append(f"proof_ms_p50={info['proof_ms_p50']:.6g} ms")
        parts.append(f"proof_ms_tail={tail['value']:.6g} ms (p{tail['percentile']:g} "
                     f"of {tail['samples']} samples, {tail['beyond']} beyond)")
    lines = [f"perfbench {args.workload} seed={args.seed} passes={info['passes']}: "
             + ", ".join(parts)]
    for row, vals in info.get("baseline_rows", {}).items():
        lines.append(f"  baseline {row}: now {vals['now']:.6g}, "
                     f"ROADMAP {vals['baseline']:.6g}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gate", "long_paths", "calculus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time spent in timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy input sizes, for the smoke test")
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    fk = import_package()
    if args.setup_child:
        return setup_child(args)

    info, metrics, attempted, failures = measure(args, fk, nproc)
    print(summary(args, info, metrics))
    print(json.dumps(info))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
