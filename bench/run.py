"""The mathieu-kit benchmark.

    python3 bench/run.py --workload {census,radical,suites,all} --seed N \
        --seconds S --trace {0,1}

One process, no worker threads.  A run repeats rounds of the workload's ops
for about ``--seconds``, gating every answer outside the timed region; cold
set-ups and timings of a fixed reference task (``hostspeed``) are spread
between the rounds.  Every time is reported as wall time and scaled to
nominal host speed.  Stdout ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` (scaled end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  The line before it is
a JSON report with all seven end-to-end metrics, scaled and wall, the
environment, the reference timings, op counts and the known-defect probe.
``--workload all`` runs each workload in its own process and prints a table.
The exit code is 1 when any answer is wrong, 2 when the checkout has no
package source.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import checkout

HERE = Path(__file__).resolve().parent
WORKLOADS = ("census", "radical", "suites")
SPANS_DIR = checkout.ROOT / ".bench_out"
#: Cold set-ups timed per run, spread over it; ``setup_s`` is their median ...
SETUP_RUNS = 9
#: ... and at least this many, however short the run.
MIN_SETUP_RUNS = 5
#: The tail is the highest percentile with this many ops beyond it ...
TAIL_BEYOND = 10
#: ... reported only when a run reaches this many ops.
TAIL_MIN_OPS = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "units_per_s": "units/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "build_p50_s": "s",
    "peak_rss_mb": "MB",
    "ops_failed_ratio": "ratio",
}
#: The end-to-end metrics every workload reports on its last line.
DRIVER_METRICS = ("setup_s", "units_per_s", "op_p50_s", "peak_rss_mb")

#: Per-layer units, by the last part of the metric name.
PER_LAYER_UNITS = {
    "calls": "count", "rows": "count", "vectors": "count", "elements": "count",
    "yielded": "count", "cache_hits": "count", "self_s": "s", "ms_per_block": "ms",
    "us_per_element": "us", "max_horizon": "count", "idempotents_per_vector": "ratio",
    "rows_kept_ratio": "ratio", "overhead_ratio": "ratio",
}


def tail_latency(latencies) -> tuple[float, float, int] | None:
    """(value, percentile, N) of the highest percentile with TAIL_BEYOND ops
    beyond it, or None under TAIL_MIN_OPS ops."""
    n = len(latencies)
    if n < TAIL_MIN_OPS:
        return None
    ordered = sorted(latencies)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def environment(loadavg) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": list(loadavg),
        "thread_caps": {v: os.environ[v] for v in checkout.THREAD_VARS},
    }


def time_setup(workload: str, seed: int) -> tuple[float, float, float]:
    """(start, end, seconds) of one fresh process, from spawn to its first op."""
    t0 = time.monotonic()
    p0 = perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=checkout.ROOT,
    )
    seconds = float(done.stdout.split()[-1]) - t0
    return p0, perf_counter(), seconds


class Runner:
    """Repeats rounds of one workload and keeps every op's outcome.

    Between ops it times the host's reference task (``hostspeed``) and, when
    given a ``setup`` callable, spreads SETUP_RUNS cold set-ups over the
    run; all of it happens inside ``seconds``, so a run lasts about that
    long.  Each op's and set-up's wall time is also scaled to nominal host
    speed.
    """

    def __init__(self, workload, tracer=None, setup=None):
        import hostspeed

        self.workload = workload
        self.tracer = tracer
        self.setup = setup
        self.clock = hostspeed.HostClock()
        self.outcomes = []  # (Outcome, traced)
        self.setups = []  # (wall seconds, scaled seconds)
        self._intervals = []  # perf_counter (start, end) of each op
        self.rounds = 0
        self.traced_rounds = 0

    def run(self, seconds: float) -> None:
        # a traced run alternates untraced and traced rounds, so both halves
        # see the same drift; the untraced half is the overhead baseline
        min_rounds = 2 if self.tracer else 1
        t0 = time.monotonic()
        round_s = []
        setup_at = []
        while True:
            elapsed = time.monotonic() - t0
            if self.rounds >= min_rounds and elapsed + statistics.median(round_s) > seconds:
                break
            if self.setup and len(setup_at) < SETUP_RUNS * elapsed / max(seconds, 1e-9) + 1:
                setup_at.append(self.setup())
            traced = self.tracer is not None and self.rounds % 2 == 1
            if traced:
                self.tracer.install()
            r0 = time.monotonic()
            try:
                self.workload.round(lambda *a, t=traced: self._op(t, *a))
            finally:
                if traced:
                    self.tracer.uninstall()
            round_s.append(time.monotonic() - r0)
            self.rounds += 1
            self.traced_rounds += traced
        while self.setup and len(setup_at) < MIN_SETUP_RUNS:
            setup_at.append(self.setup())
        self.clock.measure()
        for (o, _), (a, b) in zip(self.outcomes, self._intervals):
            o.scaled = o.seconds * self.clock.scale(a, b)
        self.setups = [(s, s * self.clock.scale(a, b)) for a, b, s in setup_at]

    def _op(self, traced, kind, units, call, check) -> None:
        from workloads import Outcome, classify

        if self.clock.due():
            self.clock.measure()
        # a CLI call starts in a fresh process: leave no garbage from earlier ops
        gc.collect()
        if traced:
            self.tracer.current_op = len(self.outcomes)
        t0 = perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # a failed op is recorded, the run goes on
            result, error = None, exc
        finally:
            t1 = perf_counter()
            if traced:
                self.tracer.current_op = -1
        wrong = check(result) if error is None else None
        status = classify(kind, error, wrong)
        detail = wrong or ("" if error is None else f"{type(error).__name__}: {error}")
        self.outcomes.append((Outcome(kind, units, t1 - t0, status, detail), traced))
        self._intervals.append((t0, t1))

    # -- results ------------------------------------------------------------------------

    def regular(self):
        return [o for o, _ in self.outcomes if o.kind != "probe"]

    def probes(self):
        return [o for o, _ in self.outcomes if o.kind == "probe"]

    @property
    def latency_kind(self) -> str:
        return "warm" if self.workload.name == "radical" else "op"

    def correct(self) -> bool:
        return all(o.status == "ok" for o in self.regular()) and all(
            o.status in ("ok", "known_defect") for o in self.probes()
        )

    def end_to_end(self, scaled: bool) -> tuple[dict, dict]:
        """(all seven metrics, notes) from wall times, or from times scaled
        to nominal host speed; a metric without data is left out."""
        def t(o):
            return o.scaled if scaled else o.seconds

        ok = [o for o in self.regular() if o.status == "ok"]
        lat = [t(o) for o in ok if o.kind == self.latency_kind]
        every = [o for o, _ in self.outcomes]
        m, notes = {}, {}
        if self.setups:
            m["setup_s"] = statistics.median(s[scaled] for s in self.setups)
        if ok:
            m["units_per_s"] = sum(o.units for o in ok) / sum(t(o) for o in ok)
        if lat:
            m["op_p50_s"] = statistics.median(lat)
        if len(lat) >= 2:
            notes["op_quartiles_s"] = statistics.quantiles(lat, n=4)
        tail = tail_latency(lat)
        if tail:
            m["op_tail_s"] = tail[0]
            notes["op_tail"] = {"percentile": tail[1], "n": tail[2]}
        else:
            notes["op_tail"] = f"omitted: {len(lat)} ops < {TAIL_MIN_OPS}"
        cold = [t(o) for o in ok if o.kind == "cold"]
        if cold:
            m["build_p50_s"] = statistics.median(cold)
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        m["ops_failed_ratio"] = sum(o.status != "ok" for o in every) / len(every)
        return m, notes

    def layer(self) -> dict:
        import tracing

        m = tracing.layer_metrics(self.tracer, self.traced_rounds)
        lat = {True: [], False: []}
        for o, traced in self.outcomes:
            if o.status == "ok" and o.kind == self.latency_kind:
                lat[traced].append(o.seconds)
        if lat[True] and lat[False]:
            m["trace.overhead_ratio"] = statistics.median(lat[True]) / statistics.median(lat[False])
        return m


def run_one(args, loadavg) -> int:
    import hostspeed
    import tracing
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    env = environment(loadavg)
    tracer = tracing.Tracer() if args.trace else None
    setup = None if args.trace else (lambda: time_setup(args.workload, args.seed))
    runner = Runner(workloads.Workload(args.workload, inputs), tracer, setup)
    runner.run(args.seconds)

    regular = runner.regular()
    failed = [o for o in regular if o.status != "ok"]
    probes = runner.probes()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "rounds": runner.rounds,
        "ops": {"attempted": len(regular), "failed": len(failed)},
        "probe": {
            "attempted": len(probes),
            "statuses": sorted({o.status for o in probes}),
            "detail": probes[0].detail if probes else "",
        },
        "failures": [f"{o.kind}: {o.status}: {o.detail}" for o in failed[:5]],
    }
    if args.trace:
        metrics = runner.layer()
        units = {k: PER_LAYER_UNITS[k.rsplit(".", 1)[1]] for k in metrics}
        spans = SPANS_DIR / f"spans-{args.workload}.npz"
        tracer.write(spans)
        report["traced_rounds"] = runner.traced_rounds
        report["spans_file"] = str(spans.relative_to(checkout.ROOT))
        shown = metrics
    else:
        metrics, notes = runner.end_to_end(scaled=True)
        wall, wall_notes = runner.end_to_end(scaled=False)
        units = END_TO_END_UNITS
        report["end_to_end"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        report["end_to_end_wall"] = {k: {"value": v, "unit": units[k]} for k, v in wall.items()}
        report["notes"] = {**notes, "op_quartiles_wall_s": wall_notes.get("op_quartiles_s")}
        report["setup_runs_s"] = [s for s, _ in runner.setups]
        ref = runner.clock.seconds
        report["host_reference_s"] = {
            "nominal": hostspeed.NOMINAL_S, "n": len(ref),
            "median": statistics.median(ref), "min": min(ref), "max": max(ref),
        }
        shown = {k: metrics[k] for k in DRIVER_METRICS if k in metrics}
    print(json.dumps(report))
    correct = runner.correct()
    print(json.dumps({
        "correct": correct,
        "attempted": len(regular),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; then the seven metrics as a table."""
    worst = 0
    table = []
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=checkout.ROOT,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        worst = max(worst, done.returncode)
        lines = done.stdout.splitlines()
        if len(lines) < 2:
            continue
        report = json.loads(lines[-2])
        shown = report.get("end_to_end") or json.loads(lines[-1])["metrics"]
        for name, item in shown.items():
            table.append(f"{workload:<8} {name:<45} {item['value']:>14.6g} {item['unit']}")
        if "notes" in report:
            table.append(f"{workload:<8} {'op_tail':<45} {json.dumps(report['notes']['op_tail'])}")
    print("\n".join(table))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()
    try:
        checkout.use_source_tree()
    except checkout.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, loadavg)


if __name__ == "__main__":
    sys.exit(main())
