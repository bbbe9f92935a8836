"""Workload inputs, runs and output checks for the benchmark.

Every workload is a closed loop: each flow is driven by a
``GreedySource`` that submits only while its sender's window is open.
A workload's inputs for one ``--seed`` are ``SLICES`` independent
slices; slice ``i`` is one transfer, one session or one sweep grid whose
channel seeds derive from ``(workload, seed, i)``.  The program only
ever receives what :func:`build` makes here: endpoints from the protocol
registry, sources, link specs, arbiter configs and sweep ``RunConfig``s.

Each input's ``run()`` makes the one program call that is timed, and
``outcome(result)`` checks it afterwards, returning a dict:

``submitted`` / ``failed``
    payloads handed to senders, and payloads missing, duplicated or out
    of order at the receiving application (checked here, independently
    of the program's own ``in_order`` verdict);
``sim``
    the simulated behaviour: virtual durations, frame and ack counts,
    submit-to-deliver latencies.  It is deterministic for one slice, so
    every run of the slice must reproduce it exactly;
``extra``
    layer counters the traced run reports (arbiter queueing, causal
    records).

Modules of the program are reached through their module objects
(``runner.run_transfer``, not an imported name), so the traced run's
wrappers, installed on those modules, see every call.
"""

from __future__ import annotations

import random

from repro.channel.arbiter import ArbiterConfig
from repro.channel.delay import UniformDelay
from repro.channel.impairments import BernoulliLoss
from repro.perf import sweep
from repro.protocols.registry import make_pair
from repro.sim import host, runner
from repro.workloads.sources import GreedySource

SLICES = 4
WORKLOADS = ("contended", "observed", "grid")

# per-slice sizes; sized for roughly one host second per slice on a
# 2-core x86 container (see README.md for the measured rates)
OBSERVED_MSGS = 10_000
CONTENDED_FLOWS = 32
CONTENDED_WINDOWS = (4, 8, 16, 32)
CONTENDED_HORIZON = 1500.0
GRID_PROTOCOLS = (
    "blockack", "blockack-bounded", "gobackn", "selective-repeat", "tcp-sack",
)
GRID_LOSSES = (0.0, 0.05, 0.15)
GRID_WINDOWS = (4, 16)
GRID_SEEDS_PER_CELL = 2
GRID_MSGS = 300


def slice_seeds(workload: str, seed: int, count: int) -> list:
    """``count`` channel seeds for one workload and benchmark seed."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


def _link(loss: float) -> runner.LinkSpec:
    """The reordering link every workload uses: uniform delay + loss."""
    return runner.LinkSpec(
        delay=UniformDelay(0.5, 1.5),
        loss=BernoulliLoss(loss) if loss > 0 else None,
    )


def _failures(delivered: list, submitted: list, expected: int) -> int:
    """Missing, duplicated or misordered payloads against ``expected``.

    Position ``i < expected`` fails unless ``delivered[i]`` is the
    ``i``-th submitted payload; every delivery past ``expected`` fails.
    """
    reference = submitted[:expected]
    wrong = sum(got != sent for got, sent in zip(delivered, reference))
    missing = expected - min(len(delivered), len(reference))
    extra = max(0, len(delivered) - expected)
    return wrong + missing + extra


def _transfer_sim(result) -> dict:
    return {
        "delivered": result.delivered,
        "duration": result.duration,
        "data_sent": result.sender_stats["data_sent"],
        "retransmissions": result.sender_stats["retransmissions"],
        "acks_sent": result.receiver_stats["acks_sent"],
        "latencies": list(result.latencies),
        "jain": [],
    }


# ----------------------------------------------------------------------
# single transfers: observed and the scaling window curve
# ----------------------------------------------------------------------


class Transfer:
    """One block-ack transfer over two lossy, reordering links."""

    def __init__(self, seed: int, window: int, total: int, loss: float,
                 telemetry: bool = False, engine: str = "default") -> None:
        self.sender, self.receiver = make_pair(
            "blockack", window=window, bounded_wire=True
        )
        self.source = GreedySource(total)
        self.forward = _link(loss)
        self.reverse = _link(loss)
        self.seed = seed
        self.telemetry = telemetry
        self.engine = engine

    def run(self):
        return runner.run_transfer(
            self.sender, self.receiver, self.source,
            forward=self.forward, reverse=self.reverse, seed=self.seed,
            collect_payloads=True, obs=self.telemetry,
            causal=self.telemetry, engine=self.engine,
        )

    def outcome(self, result) -> dict:
        failed = _failures(
            result.delivered_payloads, self.source.submitted, self.source.total
        )
        if not result.completed:
            failed = max(failed, 1)
        causal = result.causal
        return {
            "submitted": self.source.total,
            "failed": failed,
            "sim": _transfer_sim(result),
            "extra": {
                "causal_records": causal.events_recorded if causal else 0,
            },
        }


# ----------------------------------------------------------------------
# contended: many greedy flows behind a rate-limited DRR arbiter
# ----------------------------------------------------------------------


class Contended:
    """``flows`` greedy block-ack flows sharing one arbitrated link pair."""

    def __init__(self, seed: int, flows: int = CONTENDED_FLOWS,
                 horizon: float = CONTENDED_HORIZON,
                 engine: str = "default") -> None:
        windows = [
            CONTENDED_WINDOWS[i % len(CONTENDED_WINDOWS)] for i in range(flows)
        ]
        # sources never run dry: the session is cut at the horizon
        self.specs = host.mixed_flows(
            "blockack", windows, 10**9, timeout_period=12.0
        )
        self.forward = _link(0.02)
        self.reverse = _link(0.02)
        self.arbiter = ArbiterConfig(rate=16.0, scheduler="drr")
        self.seed = seed
        self.horizon = horizon
        self.engine = engine

    def run(self):
        return host.run_flows(
            self.specs, forward=self.forward, reverse=self.reverse,
            seed=self.seed, max_time=self.horizon, arbiter=self.arbiter,
            collect_payloads=True, engine=self.engine,
        )

    def outcome(self, result) -> dict:
        submitted = failed = 0
        latencies: list = []
        sim = {"delivered": 0, "data_sent": 0, "retransmissions": 0,
               "acks_sent": 0}
        for spec, flow in zip(self.specs, result.flows):
            sent = spec.source.submitted
            # cut at the horizon: what arrived must be an in-order prefix
            submitted += len(sent)
            failed += _failures(
                flow.delivered_payloads, sent, flow.delivered
            )
            sim["delivered"] += flow.delivered
            sim["data_sent"] += flow.sender_stats["data_sent"]
            sim["retransmissions"] += flow.sender_stats["retransmissions"]
            sim["acks_sent"] += flow.receiver_stats["acks_sent"]
            latencies.extend(flow.latencies)
        sim["duration"] = result.duration
        sim["latencies"] = latencies
        sim["jain"] = [result.fairness]
        arbiter = result.arbiter_stats
        per_flow = arbiter.get("per_flow", {}).values()
        return {
            "submitted": submitted,
            "failed": failed,
            "sim": sim,
            "extra": {
                "arbiter_wait_total": sum(f["wait_total"] for f in per_flow),
                "arbiter_granted": sum(f["granted"] for f in per_flow),
                "arbiter_max_depth": max(
                    (f["max_depth"] for f in per_flow), default=0
                ),
                "arbiter_drops": arbiter.get("drops_total", 0),
            },
        }


# ----------------------------------------------------------------------
# grid: a serial, uncached sweep over protocols x loss x window x seed
# ----------------------------------------------------------------------


class Grid:
    """One serial ``SweepRunner`` grid of short greedy transfers."""

    def __init__(self, seed: int, total: int = GRID_MSGS,
                 stride: int = 1) -> None:
        rng = random.Random(seed)
        seeds = [rng.randrange(1 << 31) for _ in range(GRID_SEEDS_PER_CELL)]
        self.configs = [
            sweep.RunConfig(
                protocol=protocol, window=window, total=total,
                forward=_link(loss), reverse=_link(loss), seed=cell_seed,
            )
            for protocol in GRID_PROTOCOLS
            for loss in GRID_LOSSES
            for window in GRID_WINDOWS
            for cell_seed in seeds
        ]
        # a stride of 5 keeps 12 runs and every protocol (12 cells each)
        self.configs = self.configs[::stride]
        self.sweeper = sweep.SweepRunner(jobs=1, cache=False)
        self.checks: list = []  # failures per run, filled while running

    def run(self) -> list:
        self.checks = []
        inner = sweep.run_transfer

        def checked_transfer(sender, receiver, source, **kwargs):
            # keep the delivered payloads for the exactly-once check; the
            # program keeps them either way, this only returns them
            kwargs["collect_payloads"] = True
            result = inner(sender, receiver, source, **kwargs)
            failed = _failures(
                result.delivered_payloads, source.submitted, source.total
            )
            self.checks.append(failed if result.completed else max(failed, 1))
            return result

        sweep.run_transfer = checked_transfer
        try:
            return self.sweeper.run(self.configs)
        finally:
            sweep.run_transfer = inner

    def outcome(self, results) -> dict:
        sim = {"delivered": 0, "duration": 0.0, "data_sent": 0,
               "retransmissions": 0, "acks_sent": 0, "latencies": [],
               "jain": []}
        for result in results:
            one = _transfer_sim(result)
            for key in ("delivered", "duration", "data_sent",
                        "retransmissions", "acks_sent"):
                sim[key] += one[key]
            sim["latencies"].extend(one["latencies"])
        failed = sum(self.checks) + (len(self.configs) - len(self.checks))
        return {
            "submitted": sum(config.total for config in self.configs),
            "failed": failed,
            "sim": sim,
            "extra": {},
        }


# ----------------------------------------------------------------------


def build(workload: str, seed: int, index: int):
    """Slice ``index`` of ``workload`` for benchmark seed ``seed``.

    ``index == -1`` builds the warm-up input: the same shape, smaller,
    on a seed no measured slice uses.
    """
    warm = index < 0
    channel_seed = (
        slice_seeds(workload + "/warm-up", seed, 1)[0]
        if warm
        else slice_seeds(workload, seed, SLICES)[index]
    )
    if workload == "observed":
        total = OBSERVED_MSGS // 10 if warm else OBSERVED_MSGS
        return Transfer(
            channel_seed, window=8, total=total, loss=0.05, telemetry=True
        )
    if workload == "contended":
        horizon = CONTENDED_HORIZON / 10 if warm else CONTENDED_HORIZON
        return Contended(channel_seed, horizon=horizon)
    if workload == "grid":
        if warm:
            return Grid(channel_seed, total=GRID_MSGS // 5, stride=5)
        return Grid(channel_seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def build_scaling(shape: str, size: int, engine: str, seed: int):
    """One point of the report-only scaling curves.

    ``shape="window"``: one block-ack transfer (5% loss both ways, no
    telemetry: ``observed`` without obs) at window ``size``, long
    enough for several full windows.  ``shape="flows"``: the
    ``contended`` session with ``size`` flows over a shorter horizon.
    """
    channel_seed = slice_seeds(f"scaling/{shape}", seed, 1)[0]
    if shape == "window":
        total = max(4000, 3 * size)
        return Transfer(channel_seed, window=size, total=total, loss=0.05,
                        engine=engine)
    if shape == "flows":
        return Contended(channel_seed, flows=size, horizon=300.0,
                         engine=engine)
    raise ValueError(f"unknown scaling shape {shape!r}")
