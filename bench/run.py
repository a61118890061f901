"""Closed-loop benchmark of the artin command line.

    python3 bench/run.py --workload sparse-sweep --seed 1 --seconds 30 --trace 0

One client in one process runs the workload's fixed list of operations
(see workloads.py) in passes; each operation is an in-process call of
``artin.cli.main`` with stdout captured, and the next starts when it
returns. The first pass also checks every output (checks.py); later
passes must reproduce its outputs byte for byte. Passes repeat while
another fits in ``--seconds``, at least MIN_PASSES of them.

The speed of a shared machine drifts by up to 1.6x over seconds to
minutes, for every process alike. Each operation is therefore timed
between two calibration rounds (a fixed dictionary loop, collector off),
and its wall time is multiplied by the mean over those rounds of
CALIBRATION_ROUND_S over the round's time: every time reported is wall
time at the nominal speed at which a round takes CALIBRATION_ROUND_S. Contention only ever slows a run, so an
operation's latency is the fastest of its scaled untraced runs; run_s
sums those over the list, and the percentiles are taken over them (each
workload has at least 100 operations, so ten lie beyond the 90th
percentile). The report also prints the unscaled wall time per pass.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it carries the per-layer metrics (tracer.py). Lines before
it are a readable report with sample counts and failures by operation
kind; ``bench/out/`` receives the same details as JSON and, for traced
runs, the spans. ``artin`` is imported from the ``src/`` of the checkout
holding this file, and the run refuses to start if it resolves anywhere
else.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

MIN_PASSES = 2
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
CALIBRATION_ROUND_S = 4e-4

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "size_slope": "dimensionless",
    "peak_rss_mb": "MB",
    "ops_answered_frac": "frac",
}

clock = time.perf_counter


def locate_artin():
    """Import artin.cli from ROOT/src, or exit if artin resolves elsewhere."""
    src = ROOT / "src"
    if not (src / "artin" / "__init__.py").is_file():
        raise SystemExit(f"bench: no artin package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import artin.cli

    found = Path(artin.__file__).resolve().parent
    if found != (src / "artin").resolve():
        raise SystemExit(f"bench: artin resolves to {found}, not to {src / 'artin'}")
    return artin.cli, found


def git_commit() -> str:
    """The checkout's commit read from .git, or 'unknown' outside a repository."""
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


def failure_key(code, err: str) -> str:
    first = err.strip().splitlines()[0] if err.strip() else "(no message)"
    return f"exit {code}: " + re.sub(r"\d+", "N", first)


class Recorder:
    """Latencies, outcomes and output fingerprints of every operation run."""

    def __init__(self, ops):
        self.ops = ops
        self.best = [math.inf] * len(ops)
        self.outcome: list[tuple[str, str] | None] = [None] * len(ops)
        self.fingerprint: list[int | None] = [None] * len(ops)
        self.tally: dict[str, dict] = {}
        self.stdout_bytes = 0

    def record(self, i, latency, code, out, err, error):
        """Judge the first run of operation i; later runs must match it.

        ``latency`` is None for traced runs, which do not count towards the
        fastest latency.
        """
        op = self.ops[i]
        if latency is not None:
            self.best[i] = min(self.best[i], latency)
        self.stdout_bytes += len(out.encode())
        fingerprint = hash((code, out, error))
        if self.outcome[i] is None:
            self.outcome[i] = self._judge(op, code, out, err, error)
            self.fingerprint[i] = fingerprint
            outcome = self.outcome[i]
        elif fingerprint != self.fingerprint[i]:
            outcome = ("failed", "output differs from the first pass")
        else:
            outcome = self.outcome[i]
        kind = self.tally.setdefault(op.kind, {"attempted": 0, "ok": 0, "refused": {}, "failed": {}})
        kind["attempted"] += 1
        if outcome[0] == checks.OK:
            kind["ok"] += 1
        else:
            kind[outcome[0]][outcome[1]] = kind[outcome[0]].get(outcome[1], 0) + 1

    @staticmethod
    def _judge(op, code, out, err, error):
        if error is not None:
            return "failed", error
        try:
            verdict = op.check(code, out, err)
        except checks.CheckFailed as bad:
            if code != 0:
                return "failed", failure_key(code, err)
            return "failed", f"exit 0: wrong output: {bad}"
        except (KeyError, TypeError, ValueError, IndexError) as bad:
            return "failed", f"exit {code}: malformed output: {type(bad).__name__}"
        if verdict == checks.REFUSED:
            return "refused", failure_key(code, err)
        return checks.OK, ""

    def by_kind_size(self) -> dict[str, dict[int, float]]:
        """Median fastest latency per operation kind and input size."""
        out: dict[str, dict[int, list[float]]] = {}
        for op, best in zip(self.ops, self.best):
            out.setdefault(op.kind, {}).setdefault(op.size, []).append(best)
        return {k: {n: statistics.median(v) for n, v in by_size.items()} for k, by_size in out.items()}

    def count(self, what: str) -> int:
        if what in ("attempted", "ok"):
            return sum(k[what] for k in self.tally.values())
        return sum(sum(k[what].values()) for k in self.tally.values())


def _calibration_round():
    table: dict[int, int] = {}
    for i in range(2000):
        table[i & 255] = table.get((i * 7) & 255, 0) + i
    return table


def speed_factor() -> float:
    """CALIBRATION_ROUND_S over the fastest of three calibration rounds.

    The collector is off during the rounds, so the size of the heap the
    program left behind does not change them.
    """
    best = math.inf
    gc.disable()
    try:
        for _ in range(3):
            start = clock()
            _calibration_round()
            best = min(best, clock() - start)
    finally:
        gc.enable()
    return CALIBRATION_ROUND_S / best


def run_pass(cli, ops, recorder: Recorder, trace: tracer.Tracer | None = None, base: int = 0,
             timed: bool = True) -> tuple[float, float]:
    """Run every operation once; returns the summed wall and scaled operation times."""
    gc.collect()
    wall = scaled = 0.0
    before = speed_factor()
    for i, op in enumerate(ops):
        if trace is not None:
            trace.op_id = base + i
        out, err = io.StringIO(), io.StringIO()
        code = error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = clock()
            try:
                code = cli.main(op.argv)
            except Exception:
                error = traceback.format_exc().strip().splitlines()[-1]
            latency = clock() - start
        after = speed_factor()
        latency_scaled = latency * (before + after) / 2
        before = after
        wall += latency
        scaled += latency_scaled
        recorder.record(i, latency_scaled if timed else None, code, out.getvalue(), err.getvalue(),
                        error)
    return wall, scaled


def measure_setup(args) -> list[float]:
    """Scaled seconds from starting a fresh process until it has imported
    artin and built the inputs; the process prints the wall-clock time it
    got there."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_REPEATS):
        factor = speed_factor()
        start = time.time()
        done = subprocess.run(argv, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                              capture_output=True, text=True)
        ready = float(done.stdout.split()[-1])
        times.append((ready - start) * (factor + speed_factor()) / 2)
    return times


def size_slope(by_kind_size) -> tuple[float, str]:
    """Largest least-squares slope of log(latency) on log(size) over operation kinds."""
    best = (-math.inf, "")
    for kind, by_size in by_kind_size.items():
        if len(by_size) < 2:
            continue
        xs = [math.log(s) for s in by_size]
        ys = [math.log(t) for t in by_size.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
        best = max(best, (slope, kind))
    return best


def end_to_end(setup, passes, recorder) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count)."""
    lat = recorder.best
    slope, _ = size_slope(recorder.by_kind_size())
    attempted = recorder.count("attempted")
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "run_s": (math.fsum(lat), len(passes)),
        "op_p50_ms": (1e3 * statistics.median(lat), len(lat)),
        "op_p90_ms": (1e3 * statistics.quantiles(lat, n=10)[8], len(lat)),
        "size_slope": (slope, len(lat)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "ops_answered_frac": (recorder.count("ok") / attempted, attempted),
    }


def traced_run(cli, ops, recorder, seconds) -> tuple[dict, dict, tracer.Tracer]:
    """Untraced and traced passes in turn, starting and ending untraced, so that the
    cold first pass is not what the traced passes are compared with. Per-layer
    metrics are medians over traced passes, self times scaled like latencies."""
    trace = tracer.Tracer()
    untraced, traced, per_pass = [], [], []
    start = clock()
    untraced.append(run_pass(cli, ops, recorder))
    while not traced or clock() - start + _mean_wall(untraced) + _mean_wall(traced) <= seconds:
        before = recorder.stdout_bytes
        base = len(traced) * len(ops)
        trace.install()
        try:
            traced.append(run_pass(cli, ops, recorder, trace, base, timed=False))
        finally:
            trace.uninstall()
        wall, scaled = traced[-1]
        times = {name: t * scaled / wall if name.endswith(".self_s") else t
                 for name, t in trace.pass_metrics(range(base, base + len(ops))).items()}
        counters = trace.take_counters()
        counters["cli.stdout_bytes"] = recorder.stdout_bytes - before
        per_pass.append(tracer.layer_metrics(times, counters))
        untraced.append(run_pass(cli, ops, recorder))
    metrics = {name: (statistics.median(p[name] for p in per_pass), len(per_pass))
               for name in tracer.metric_units() if name in per_pass[0]}
    fastest_traced = min(scaled for _, scaled in traced)
    fastest_untraced = min(scaled for _, scaled in untraced[1:])
    metrics["trace.overhead_frac"] = (fastest_traced / fastest_untraced - 1, len(traced))
    return metrics, {"untraced": untraced, "traced": traced}, trace


def _mean_wall(passes) -> float:
    return statistics.fmean(wall for wall, _ in passes)


def report(args, artin_path, commit, passes, ops, metrics, units, recorder):
    print(f"artin: {artin_path} (commit {commit})")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{ops} operations per pass")
    for kind, ps in passes.items():
        print(f"  {kind} passes, wall s: {' '.join(f'{w:.3f}' for w, _ in ps)};"
              f" scaled s: {' '.join(f'{x:.3f}' for _, x in ps)}")
    for name, (value, samples) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]:14s} samples={samples}")
    attempted = recorder.count("attempted")
    missed = recorder.count("refused") + recorder.count("failed")
    print(f"  ops_failed_frac {missed / attempted:.4f}: {missed} of {attempted} operations "
          f"refused or failed ({recorder.count('refused')} refused as documented, "
          f"{recorder.count('failed')} failed)")
    for kind, t in recorder.tally.items():
        for what in ("refused", "failed"):
            for key, n in t[what].items():
                print(f"  {what} {kind}: {n} of {t['attempted']}: {key}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)

    cli, artin_path = locate_artin()
    OUT.mkdir(exist_ok=True)
    inputs = OUT / f"inputs-{os.getpid()}"
    inputs.mkdir()
    try:
        ops = workloads.build(args.workload, args.seed, str(inputs), args.tiny)
        if args.setup_only:
            print(time.time())
            return 0
        setup = [] if args.trace else measure_setup(args)
        recorder = Recorder(ops)
        if args.trace:
            metrics, passes, trace = traced_run(cli, ops, recorder, args.seconds)
            units = tracer.metric_units()
            trace.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
        else:
            passes = []
            start = clock()
            while len(passes) < MIN_PASSES or clock() - start + _mean_wall(passes) <= args.seconds:
                passes.append(run_pass(cli, ops, recorder))
            metrics = end_to_end(setup, passes, recorder)
            units = END_TO_END
            passes = {"untraced": passes}
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    commit = git_commit()
    report(args, artin_path, commit, passes, len(ops), metrics, units, recorder)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "artin_path": str(artin_path), "commit": commit,
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count(), "operations_per_pass": len(ops),
        "passes_wall_and_scaled_s": passes, "calibration_round_s": CALIBRATION_ROUND_S,
        "setup_s": setup, "slope_kind": size_slope(recorder.by_kind_size())[1],
        "fastest_latency_s": recorder.by_kind_size(),
        "metrics": {n: {"value": v, "unit": units[n], "samples": s} for n, (v, s) in metrics.items()},
        "operations": recorder.tally,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(details, indent=2) + "\n")
    failed = recorder.count("failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": recorder.count("attempted"),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, (v, _) in metrics.items()},
    }))
    return 0


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)  # so that the inputs are removed
    sys.exit(main())
