"""Smoke test of the benchmark itself, at toy input sizes.

    python3 perfbench/smoke.py

Checks that every workload runs clean and prints the metrics that
BENCHMARK.json names, that the law check rejects a wrong running maximum
(zeroed or halved, patched in here only), that a traced pass's self times
add up to its wall time, and that the benchmark refuses to run without the
package source. Exits 1 on the first failed check.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import run
import tracing
from workloads import WORKLOADS, CheckFailed

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(ok, message):
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def bench(*extra, cwd=run.ROOT, script=run.HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *extra],
                          capture_output=True, text=True, timeout=300, cwd=str(cwd))


def check_workloads():
    names = {0: [m["name"] for m in SPEC["end_to_end"]],
             1: [m["name"] for m in SPEC["per_layer"]]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--toy")
            expect(proc.returncode == 0,
                   f"{workload} --trace {trace} exits 0 {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} --trace {trace} is correct: {result['failed']} failed")
            expect(sorted(result["metrics"]) == sorted(names[trace]),
                   f"{workload} --trace {trace} prints the metrics BENCHMARK.json names")


def wrong_maxima(fk, scale):
    original = fk.verify.running_max_ensemble

    def running_max_ensemble(*args, **kwargs):
        return scale * original(*args, **kwargs)
    return original, running_max_ensemble


def check_law(fk):
    with run.workdir():
        gate = WORKLOADS["gate"](fk, 5, toy=True)
        campaigns = {name: op for name, op in gate.ops()
                     if name in ("cli_verify", "sign_campaign", "tightness")}
        with gate.probe, contextlib.redirect_stdout(io.StringIO()):
            for op in campaigns.values():
                op()
            gate.doob_route()
        expect(True, "campaigns pass the law check on the package as it is")
        for scale in (0.0, 0.5):
            original, wrong = wrong_maxima(fk, scale)
            fk.verify.running_max_ensemble = wrong
            try:
                for name, op in campaigns.items():
                    try:
                        with gate.probe, contextlib.redirect_stdout(io.StringIO()):
                            op()
                    except CheckFailed as exc:
                        expect("law range" in str(exc),
                               f"law check rejects {name} with maxima x {scale}")
                    else:
                        expect(False, f"law check rejects {name} with maxima x {scale}")
            finally:
                fk.verify.running_max_ensemble = original
        doob = fk.stochastic.doob_running_max_ensemble
        fk.stochastic.doob_running_max_ensemble = \
            lambda *a, **k: 0.5 * doob(*a, **k)
        try:
            gate.doob_route()
            expect(False, "law check rejects the Doob route with halved maxima")
        except CheckFailed as exc:
            expect("law range" in str(exc),
                   "law check rejects the Doob route with halved maxima")
        finally:
            fk.stochastic.doob_running_max_ensemble = doob


def check_trace(fk):
    with run.workdir():
        for name, cls in WORKLOADS.items():
            workload = cls(fk, 11, toy=True)
            runner = run.Runner(workload)
            tracer = tracing.Tracer()
            with workload.probe, tracing.instrument(tracer, fk, workload):
                wall, _ = runner.timed_pass(tracer)
            total = tracer.self_total()
            layers = total - tracer.spans["bench.pass"][2]
            expect(not runner.failures and abs(total - wall) <= 1e-3 + 0.01 * wall
                   and 0.0 < layers <= wall,
                   f"{name}: self times {total:.4f} s sum to the pass wall "
                   f"{wall:.4f} s; layers {layers:.4f} s")
            expect(fk.verify.verify_confidence.__module__ == "fuknagaev.verify"
                   and not hasattr(fk.SmoothSpace.norms, "__wrapped__"),
                   f"{name}: instrumentation is removed after the pass")


def check_needs_source():
    base = run.HERE / ".work"
    base.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(dir=base)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        start = time.monotonic()
        proc = bench("--workload", "gate", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare,
                     script=os.path.join(bare, "perfbench", "run.py"))
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout
               and time.monotonic() - start < 180,
               "without the package source the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def main():
    fk = run.import_package()
    check_law(fk)
    check_trace(fk)
    check_needs_source()
    check_workloads()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
