"""Benchmark of the block-ack reproduction: host-time throughput of the
simulator on three closed-loop workloads, guarded by the simulated
behaviour, plus a per-layer ledger from a separate traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload contended --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload contended --seed 1 --seconds 38 --trace 1
    python3 perfbench/run.py --scaling            # report-only curves

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (see ``BENCHMARK.json``); the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The program is imported from ``src/`` next to this
directory and nowhere else; without it the benchmark exits non-zero and
prints no result.  Each measurement runs in a fresh interpreter
(``worker.py``), one at a time.  Spans of traced runs are written under
``.perfbench_out/``.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from ledger import LAYERS  # stdlib-only until a tracer is installed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEADLINE_S = 170.0  # a run must end well within 180 s
SCALING_REPS = 3  # timed workers per scaling point and engine
TRACE_UNTRACED_SHARE = 0.4  # of --seconds, for the untraced baseline


class BenchError(RuntimeError):
    """A worker failed; the run prints no result."""


class Session:
    """Spawns workers one at a time and keeps every slice's signature."""

    def __init__(self, workload: str, seed: int,
                 budget_s: float = DEADLINE_S) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + budget_s
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.signatures: dict = {}  # input -> sim signature
        self.sims: dict = {}  # input -> sim dict
        self.consistent = True
        self.slices = 0  # slices per seed, reported by the prime worker

    def prime(self) -> None:
        """Import everything once (bytecode caches) and learn the plan."""
        plan = self.worker("prime")
        if self.workload not in plan["workloads"]:
            raise BenchError(
                f"unknown workload {self.workload!r}; expected one of "
                f"{plan['workloads']}"
            )
        self.slices = plan["slices"]

    def worker(self, kind: str, **job) -> dict:
        job.update(kind=kind, src=str(SRC), workload=self.workload,
                   seed=self.seed)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{kind} worker timed out") from None
        if proc.returncode != 0:
            raise BenchError(
                f"{kind} worker exited {proc.returncode}: "
                f"{proc.stderr.strip()[-2000:]}"
            )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if "signature" in out:
            key = job.get("slice", (job.get("shape"), job.get("size")))
            self._account(out, key)
        return out

    def _account(self, out: dict, key) -> None:
        """Count the run's payloads and pin its input's simulated behaviour.

        ``key`` names the input: a slice, or a scaling point (both
        engines of a point must simulate identically).
        """
        for run in [out] + out.get("checks", []):
            self.attempted += run["submitted"]
            self.failed += run["failed"]
            # repeats of the slice in the same worker carry a signature too
            signature = run.get("signature")
            if signature is not None:
                known = self.signatures.setdefault(key, signature)
                self.consistent &= known == signature
        self.sims.setdefault(key, out["sim"])


def simulated(sims: list) -> dict:
    """Simulated-behaviour metrics over every slice of the seed."""
    delivered = sum(sim["delivered"] for sim in sims)
    latencies = [value for sim in sims for value in sim["latencies"]]
    jain = [value for sim in sims for value in sim["jain"]]
    # linear interpolation on rank q * (N - 1), as repro.analysis.stats
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "sim_goodput_per_tu": (
            delivered / sum(sim["duration"] for sim in sims), "msg/tu"),
        "retx_per_msg": (
            sum(sim["retransmissions"] for sim in sims) / delivered, "1/msg"),
        "acks_per_msg": (
            sum(sim["acks_sent"] for sim in sims) / delivered, "1/msg"),
        "sim_latency_p50_tu": (cuts[49], "tu"),
        "sim_latency_p99_tu": (cuts[98], "tu"),
        # single-flow workloads are trivially fair
        "jain_fairness": (statistics.fmean(jain) if jain else 1.0, "index"),
    }


def timed_workers(session: Session, seconds: float, least: int,
                  slices: int) -> list:
    """Timed untraced workers on slices 0, 1, ..., ``slices - 1``, 0, ...

    At least ``least`` of them; after that no worker starts that the
    last one's duration says would end past ``seconds``.
    """
    outs = []
    measuring = time.monotonic()
    last = 0.0
    while len(outs) < least or (
        time.monotonic() - measuring + last < seconds
    ):
        started = time.monotonic()
        outs.append(session.worker("timed", slice=len(outs) % slices))
        last = time.monotonic() - started
    return outs


def end_to_end(session: Session, seconds: float) -> dict:
    """Timed untraced workers over every slice for ``seconds``."""
    outs = timed_workers(session, seconds, session.slices, session.slices)
    rates = [out["sim"]["delivered"] / out["wall_s"] for out in outs]
    setups = [out["setup_s"] for out in outs]
    count = len(outs)
    mem = session.worker("mem", slice=0)
    metrics = {
        "msgs_per_s": (statistics.median(rates), "msg/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_mem_kib": (mem["peak_bytes"] / 1024.0, "KiB"),
    }
    metrics.update(
        simulated([session.sims[index] for index in range(session.slices)])
    )
    print(f"# {count} timed runs, msgs/s: {[round(r) for r in rates]}",
          flush=True)
    return metrics


def per_layer(session: Session, seconds: float) -> dict:
    """Untraced runs of slice 0, then one traced run of it."""
    outs = timed_workers(session, seconds * TRACE_UNTRACED_SHARE, 2, 1)
    rates = [out["sim"]["delivered"] / out["wall_s"] for out in outs]
    untraced = session.sims[0]["delivered"] / statistics.median(rates)
    spans_path = OUT / f"spans-{session.workload}.bin.gz"
    out = session.worker("traced", slice=0, spans_path=str(spans_path))
    folded = out["ledger"]
    sim, extra = out["sim"], out["extra"]
    delivered = sim["delivered"]
    wall = folded["wall_s"]
    layers = folded["layers"]
    by_name = folded["by_name"]

    def calls(layer: str, *names: str) -> int:
        return sum(
            by_name.get(f"{layer}:{name}", {}).get("calls", 0)
            for name in names
        )

    def total(layer: str, *names: str) -> float:
        return sum(
            by_name.get(f"{layer}:{name}", {}).get("total_s", 0.0)
            for name in names
        )

    # the traced time no layer accounts for: outside every span, plus the
    # wrapper cost the calibration missed (still inside the layers' spans),
    # against the untraced runs of the slice just before and after it
    baseline = statistics.fmean(out["untraced_s"])
    unattributed = folded["outside_s"] + (wall - baseline)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = (
            layers[layer]["self_s"] / wall, "fraction")
        metrics[f"{layer}.calls_per_msg"] = (
            layers[layer]["calls"] / delivered, "1/msg")
    granted = extra.get("arbiter_granted", 0)
    metrics.update({
        "sim.engine.events_per_msg": (out["events"] / delivered, "1/msg"),
        "sim.timers.arms_per_msg": (
            calls("sim.timers", "Timer.start", "AdaptiveTimer.start")
            / delivered, "1/msg"),
        "sim.timers.fires_per_msg": (
            calls("sim.timers", "Timer._fire", "AdaptiveTimer._fire")
            / delivered, "1/msg"),
        "channel.frames_per_msg": (
            calls("channel", "Channel.send") / delivered, "1/msg"),
        "channel.arbiter.wait_mean_tu": (
            extra.get("arbiter_wait_total", 0.0) / granted if granted
            else 0.0, "tu"),
        "channel.arbiter.max_depth": (
            extra.get("arbiter_max_depth", 0), "frames"),
        "channel.arbiter.drops": (extra.get("arbiter_drops", 0), "frames"),
        "protocols.useful_frac": (delivered / sim["data_sent"], "fraction"),
        "obs.records_per_msg": (
            (extra.get("causal_records", 0)
             + calls("obs", "ObsRecorder.record")) / delivered, "1/msg"),
        "perf.sweep.serde_frac": (
            total("perf.sweep", "serialize_result", "deserialize_result")
            / wall, "fraction"),
        "tracing_overhead": (
            (delivered / folded["raw_wall_s"]) / statistics.median(rates),
            "ratio"),
        "unattributed": (unattributed, "s"),
        "unattributed_frac": (unattributed / wall, "fraction"),
    })
    print(f"# traced run: {folded['spans']} spans in "
          f"{folded['raw_wall_s']:.3f} s, {wall:.3f} s less the calibrated "
          f"wrapper cost {folded['wrapper_s']:.3f} s; untraced before and "
          f"after {out['untraced_s'][0]:.3f} s, {out['untraced_s'][1]:.3f} s "
          f"(median of the run's untraced workers {untraced:.3f} s); outside "
          f"every span {folded['outside_s']:.6f} s; spans in "
          f"{spans_path.relative_to(ROOT)}", flush=True)
    return metrics


def scaling(seed: int) -> None:
    """Report-only curves: msgs/s and peak memory against w and N."""
    points = [("window", 2 ** k) for k in range(3, 13)]
    points += [("flows", 2 ** k) for k in range(0, 9)]
    session = Session("scaling", seed, budget_s=3600.0)
    rows = []
    print(f"{'shape':7} {'size':>5} {'engine':8} {'msgs/s':>9} "
          f"{'peak KiB':>10} {'fast/default':>12}", flush=True)
    for shape, size in points:
        by_engine = {}
        for engine in ("default", "fast"):
            job = dict(shape=shape, size=size, engine=engine)
            rates = []
            for _ in range(SCALING_REPS):
                out = session.worker("scale", measure="time", **job)
                rates.append(out["sim"]["delivered"] / out["wall_s"])
            peak = session.worker("scale", measure="mem", **job)["peak_bytes"]
            by_engine[engine] = statistics.median(rates)
            row = dict(job, msgs_per_s=by_engine[engine],
                       peak_mem_kib=peak / 1024.0, reps=SCALING_REPS)
            rows.append(row)
            ratio = (
                f"{by_engine['fast'] / by_engine['default']:12.3f}"
                if engine == "fast" else ""
            )
            print(f"{shape:7} {size:5d} {engine:8} {row['msgs_per_s']:9.0f} "
                  f"{row['peak_mem_kib']:10.0f} {ratio}", flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / "scaling.json").write_text(json.dumps(rows, indent=1) + "\n")
    if session.failed or not session.consistent:
        raise BenchError(
            f"scaling runs failed {session.failed} of {session.attempted} "
            "payload checks or diverged between repeats"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling", action="store_true",
                        help="report-only w and N curves (not gated)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        if args.scaling:
            scaling(args.seed)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        session = Session(args.workload, args.seed)
        session.prime()
        if args.trace:
            metrics = per_layer(session, args.seconds)
        else:
            metrics = end_to_end(session, args.seconds)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name:34} {value:16.6f} {unit}")
    correct = session.failed == 0 and session.consistent
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
