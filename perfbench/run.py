"""Run one benchmark workload against the vsg sources of this checkout.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

`--trace 0` runs the workload's operation in a closed loop (one client;
the next call starts when the previous returns) for `--seconds`, and at
least once per distinct input, and sets the workload up five times, spread
evenly over that window. It prints the end-to-end metrics, whose times are
calibrated CPU seconds (hostspeed.py). `--trace 1` sets up once with spans patched in, runs
one warm-up operation and one pass over the inputs untraced, then the same
pass with every layer span patched in, and prints the per-layer metrics.
Either way the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The workload seed makes the inputs; the same seed gives the same inputs,
quality metrics and traced counts. Timing never touches vsg's own
artifacts (reports, checkpoints): the benchmark only reads them back.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5  # setup_s is their median

# Gated end-to-end metrics, reported by every workload: name -> (unit, better).
# Their times are calibrated CPU seconds (hostspeed.py): CPU time scaled
# by a reference piece of work timed at the same moments, which leaves out
# both the time other tenants hold the cores and the drift of the host's
# speed. `op_cost_s` is the mean over the run's distinct inputs of each
# input's median: the mean, because operations on different inputs differ
# in cost (a planner fallback adds a tour), and the median against single
# slow repeats. Raw CPU and wall times are printed beside them, not gated.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_cost_s": ("s", "lower"),
    "quality": ("ratio", "higher"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "plan-exact", "plan-heuristic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the harness smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def cap_blas_threads() -> int:
    """Run BLAS on the calling thread; must run before numpy loads.

    vsg's matrices are small: a second BLAS thread did not speed up the
    planner model's training (0.29-0.39 s either way), and whenever the
    other core was busy it made that training take 0.9 s and spend CPU
    time waiting for its partner, which a CPU-time metric counts as work.
    """
    cap = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def import_vsg():
    """vsg from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import vsg

    if not Path(vsg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"vsg resolved to {vsg.__file__}, outside {SRC}")
    return vsg


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
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
    return "unknown"


def environment(blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads,
        "commit": git_commit(),
        "src_vsg_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "vsg").glob("*.py"))
        ),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Tally:
    """Attempted and failed operations, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, workload, op, checks_context, speed=None):
        """Measure one operation, then check it outside the measured region.
        Returns (Measurement, output), output None when the operation failed."""
        import hostspeed

        self.attempted += 1
        out, error = None, None
        with speed.measure() if speed else hostspeed.plain_measure() as m:
            try:
                out = workload.run(op)
            except Exception as e:  # a raising operation is a failed operation
                error = e
        if error is not None:
            self._fail(f"raised {error!r}")
            return m, None
        with checks_context():
            problems = workload.check(op, out)
        if problems:
            self._fail("; ".join(problems))
            return m, None
        return m, out

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(why)


def measured_loop(workload, seconds, tally, speed, ops, setups, set_up):
    """The closed loop of a timed run, with the later set-ups spread over it.
    Returns the measurements, outputs and input indices of the operations
    that passed their checks, the first pass's (input, output) pairs, and
    the loop's wall seconds without pauses.

    The set-ups are spread evenly over the timed window, so that setup_s
    samples the same machine states as the operations; a burst of set-ups
    at the start would see one moment of a shared machine.
    """
    done, by_input, outs, first_pass = [], [], [], []
    paused_s = 0.0  # reference samples, output checks and later set-ups
    start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start - paused_s < seconds:
        elapsed = time.perf_counter() - start - paused_s
        if len(setups) < SETUP_REPEATS and elapsed >= seconds * len(setups) / SETUP_REPEATS:
            p0 = time.perf_counter()
            ops = set_up()
            paused_s += time.perf_counter() - p0
        op = ops[i % len(ops)]
        p0 = time.perf_counter()
        m, out = tally.run(workload, op, contextlib.nullcontext, speed)
        paused_s += time.perf_counter() - p0 - m.wall_s
        if out is not None:
            done.append(m)
            by_input.append(i % len(ops))
            outs.append(out)
            if i < len(ops):
                first_pass.append((op, out))
        i += 1
    loop_s = time.perf_counter() - start - paused_s
    while len(setups) < SETUP_REPEATS:
        set_up()
    return done, outs, first_pass, by_input, loop_s


def timed_run(workload, seconds: float, tally: Tally):
    import numpy as np

    import hostspeed

    speed = hostspeed.HostSpeed(workload.reference)
    setups, signatures = [], set()

    def set_up() -> list:
        with speed.measure() as m:
            workload.setup()
        setups.append(m)
        signatures.add(workload.setup_signature())
        ops = workload.operations()
        if not ops:
            raise RuntimeError("the workload generated no operations")
        return ops

    with speed.sampling():
        ops = set_up()
        done, outs, first_pass, by_input, loop_s = measured_loop(
            workload, seconds, tally, speed, ops, setups, set_up)
    speed.calibrate(setups + done)
    if not done:
        raise RuntimeError(f"every operation failed: {tally.problems}")
    cost_by_input: dict[int, list[float]] = {}
    for k, m in zip(by_input, done):
        cost_by_input.setdefault(k, []).append(m.cost_s)

    quality = workload.quality(first_pass)
    metrics = {
        "setup_s": statistics.median(m.cost_s for m in setups),
        "peak_rss_mb": peak_rss_mb(),
        "op_cost_s": statistics.fmean(statistics.median(v) for v in cost_by_input.values()),
        "quality": quality.pop("quality")[0],
    }
    wall = [m.wall_s for m in done]
    cpu = [m.cpu_s for m in done]
    latency = {  # wall time, as a user of an otherwise idle machine sees it
        "op_s_p50": (statistics.median(wall), "s", "lower"),
        "op_s_p90": (float(np.percentile(wall, 90)), "s", "lower"),
        "ops_per_s": (len(done) / loop_s, "1/s", "higher"),
    }
    details = {
        "ops": (len(done), "count", "higher"),
        "fail_frac": (tally.failed / tally.attempted, "ratio", "lower"),
        "setup_repeats": (SETUP_REPEATS, "count", "-"),
        "setup_cpu_s": (statistics.median(m.cpu_s for m in setups), "s", "lower"),
        "setup_wall_s": (statistics.median(m.wall_s for m in setups), "s", "lower"),
        "op_cpu_s_p50": (statistics.median(cpu), "s", "lower"),
        "op_cpu_s_p90": (float(np.percentile(cpu, 90)), "s", "lower"),
        **latency,
        "reference_s": (statistics.median(s.cpu_s for s in speed.samples), "s", "-"),
        "reference_samples": (len(speed.samples), "count", "-"),
    }
    if workload.name != "train":  # the same numbers under the planner's names
        details.update({name.replace("op_s", "pair_s").replace("ops_", "pairs_"): v
                        for name, v in latency.items()})
    details.update(quality)
    details.update(workload.details(outs))
    if len(signatures) != 1:
        tally.problems.append("repeated set-ups produced different inputs")
    correct = tally.failed == 0 and len(signatures) == 1
    return correct, {k: (v, *END_TO_END[k]) for k, v in metrics.items()}, details


def traced_run(workload, tally: Tally):
    import tracer as tr

    spans = tr.Tracer()
    with spans.installed():
        workload.setup()
    ops = workload.operations()
    if not ops:
        raise RuntimeError("the workload generated no operations")

    def one_pass(checks_context) -> float:
        total = 0.0
        for op in ops:
            m, _ = tally.run(workload, op, checks_context)
            total += m.wall_s
        return total

    # One warm-up operation first: the first call in a process pays one-off
    # costs (fresh large allocations) that would otherwise count as overhead.
    tally.run(workload, ops[0], contextlib.nullcontext)
    untraced_s = one_pass(contextlib.nullcontext)
    with spans.installed():
        traced_s = one_pass(spans.paused)
    layers = tr.layer_metrics(spans)
    layers["planner.oracle_distance_mean"] = (workload.oracle_distance_mean(), "m")
    layers["trace_overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")

    details = {"fail_frac": (tally.failed / tally.attempted, "ratio", "lower")}
    run_s = spans.total_s["planner.run_benchmark"]
    if run_s:
        for solver in ("held_karp", "heuristic_tsp"):
            details[f"{solver}_self_share_of_run_benchmark"] = (
                spans.self_s[f"planner.{solver}"] / run_s, "ratio", "-")
    # Every per-layer metric counts work or time, so less is better.
    return tally.failed == 0, {k: (v, unit, "lower") for k, (v, unit) in layers.items()}, details


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, better) in metrics.items():
        direction = f"{better} is better" if better in ("lower", "higher") else "no direction"
        print(f"  metric {name} = {value:.6g} {unit} ({direction})")


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = cap_blas_threads()
    try:
        import_vsg()
    except ImportError as e:
        print(f"error: cannot import vsg from {SRC}: {e}", file=sys.stderr)
        return 2
    import workloads

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale}")
    print("environment: " + json.dumps(environment(blas_threads), sort_keys=True))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still clean up on TERM
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    tally = Tally()
    try:
        workload = workloads.make_workload(
            args.workload, args.seed, workloads.SCALES[args.scale], workdir)
        if args.trace:
            correct, metrics, details = traced_run(workload, tally)
        else:
            correct, metrics, details = timed_run(workload, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_metrics("reported (last line):", metrics)
    print_metrics("details:", details)
    for problem in tally.problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
