"""End-to-end transfer: one sender/receiver pair over two channels.

:func:`run_transfer` is the entry point every experiment, example, and
integration test uses: it runs a one-flow
:class:`~repro.sim.host.SessionHost` — which builds the two channels
from :class:`LinkSpec` descriptions, attaches the endpoint pair and a
traffic source, derives a provably safe timeout period when the sender
has none, and runs the simulation to completion (or a time/event
budget) — and returns a :class:`TransferResult` with full statistics
and the end-to-end correctness verdict (exactly-once, in-order delivery
of every submitted payload).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.channel.channel import Channel
from repro.channel.delay import ConstantDelay, DelayModel
from repro.channel.impairments import LossModel, NoLoss
from repro.protocols.base import ReceiverEndpoint, SenderEndpoint
from repro.sim.engine import Simulator
from repro.workloads.sources import Source

__all__ = ["LinkSpec", "TransferResult", "run_transfer"]


@dataclass
class LinkSpec:
    """Description of one unidirectional link.

    With ``bit_error_rate > 0`` the link carries checksummed byte frames
    (see :mod:`repro.wire`): messages are serialized, bits flip in
    transit, and frames failing CRC validation are discarded — corruption
    becomes clean loss, as on a real link.  Framed links require byte
    payloads.
    """

    delay: Optional[DelayModel] = None  # default: ConstantDelay(1.0)
    loss: Optional[LossModel] = None  # default: NoLoss()
    max_lifetime: Optional[float] = None  # channel aging bound
    bit_error_rate: float = 0.0  # frames the link, flips bits in transit
    duplicate_probability: float = 0.0  # assumption-boundary ablations only

    def build(self, sim: Simulator, rng, name: str):
        """Build the channel stack for this link, named ``name``.

        Every channel object gets a unique, stable label: a framed link
        presents ``name`` on the wrapper while the raw byte channel
        underneath is labelled ``name.raw``, so traces and obs series
        never see two distinct channel objects sharing one label (flow
        ports over a built link extend it the same way: ``name.f<id>``).
        """
        framed = self.bit_error_rate > 0.0
        channel = Channel(
            sim,
            delay=self.delay if self.delay is not None else ConstantDelay(1.0),
            loss=self.loss if self.loss is not None else NoLoss(),
            rng=rng,
            max_lifetime=self.max_lifetime,
            duplicate_probability=self.duplicate_probability,
            name=f"{name}.raw" if framed else name,
        )
        if framed:
            from repro.wire.framed import FramedChannel  # cycle guard

            return FramedChannel(
                channel, self.bit_error_rate, rng=rng, name=name
            )
        return channel


@dataclass
class TransferResult:
    """Everything measured during one simulated transfer."""

    completed: bool  # source exhausted, all acked, all delivered
    duration: float  # virtual time at completion (or cutoff)
    delivered: int
    submitted: int
    in_order: bool  # payloads arrived exactly once, in order
    sender_stats: dict = field(default_factory=dict)
    receiver_stats: dict = field(default_factory=dict)
    forward_stats: dict = field(default_factory=dict)
    reverse_stats: dict = field(default_factory=dict)
    delivered_payloads: List[Any] = field(default_factory=list)
    trace: Any = None
    timeout_period: float = 0.0
    monitor: Any = None  # InvariantMonitor when monitor_invariants=True
    latencies: List[float] = field(default_factory=list)  # submit -> deliver
    fault_stats: dict = field(default_factory=dict)  # injected-fault counters
    obs: Any = None  # Observability session when obs= was requested
    obs_path: Optional[str] = None  # exported .jsonl (sweep-run telemetry)
    per_flow: List[dict] = field(default_factory=list)  # multi-flow rows
    fairness: Optional[float] = None  # Jain index when flows share the link
    ordered_prefix: bool = True  # delivered payloads form an in-order prefix
    stabilization: Optional[dict] = None  # corruption-recovery verdict
    causal: Any = None  # CausalRecorder when causal= was requested
    flight_path: Optional[str] = None  # flight dump, when a trigger fired
    arbiter_stats: dict = field(default_factory=dict)  # link-arbiter counters

    def latency_percentile(self, q: float) -> float:
        """Submit-to-deliver latency percentile (requires latencies)."""
        from repro.analysis.stats import percentile  # cycle guard

        return percentile(self.latencies, q)

    @property
    def mean_latency(self) -> float:
        """Mean submit-to-deliver latency across all payloads."""
        if not self.latencies:
            raise ValueError("no latencies recorded")
        return sum(self.latencies) / len(self.latencies)

    @property
    def throughput(self) -> float:
        """Delivered payloads per unit virtual time."""
        return self.delivered / self.duration if self.duration > 0 else 0.0

    @property
    def goodput_efficiency(self) -> float:
        """Delivered payloads per data transmission (retransmission waste)."""
        sent = self.sender_stats.get("data_sent", 0)
        return self.delivered / sent if sent else 0.0

    @property
    def acks_per_message(self) -> float:
        """Acknowledgment messages per delivered payload (E4 metric)."""
        acks = self.receiver_stats.get("acks_sent", 0)
        return acks / self.delivered if self.delivered else 0.0

    def summary(self) -> str:
        status = "completed" if self.completed else "INCOMPLETE"
        order = "in-order" if self.in_order else "ORDER VIOLATION"
        return (
            f"{status}/{order}: {self.delivered}/{self.submitted} delivered in "
            f"{self.duration:.2f}tu, throughput={self.throughput:.4f}/tu, "
            f"efficiency={self.goodput_efficiency:.3f}, "
            f"acks/msg={self.acks_per_message:.3f}"
        )


def _derive_timeout(sender, receiver, forward: Channel, reverse: Channel) -> None:
    """Give the sender a provably safe timeout period if it has none.

    Also fills in the sender's ``reverse_lifetime`` (the coverage-release
    drain wait of the per-message-safe mode) with the tight channel bound
    when the sender has the attribute and no explicit value.
    """
    from repro.protocols.blockack import safe_timeout_period  # cycle guard

    reverse_bound = reverse.effective_max_lifetime
    if (
        hasattr(sender, "reverse_lifetime")
        and sender.reverse_lifetime is None
        and reverse_bound is not None
    ):
        sender.reverse_lifetime = reverse_bound + 0.05
    if getattr(sender, "timeout_period", None) is not None:
        return

    forward_bound = forward.effective_max_lifetime
    if forward_bound is None or reverse_bound is None:
        raise ValueError(
            "cannot derive a safe timeout: a channel has unbounded message "
            "lifetime; set LinkSpec.max_lifetime (the paper's aging "
            "mechanism) or pass an explicit timeout_period"
        )
    ack_latency = 0.0
    policy = getattr(receiver, "ack_policy", None)
    if policy is not None:
        ack_latency = policy.max_latency
    sender.timeout_period = safe_timeout_period(
        forward_bound, reverse_bound, ack_latency, margin=0.05
    )


def require_default_engine(engine: str) -> None:
    """Reject an ``engine`` keyword other than ``"default"``.

    The calendar-queue ``"fast"`` engine was removed; the keyword stays
    on :func:`run_transfer` and :func:`repro.sim.host.run_flows` only so
    callers that pass ``engine="default"`` keep working.
    """
    if engine != "default":
        raise ValueError(
            f"engine={engine!r}: the calendar-queue 'fast' engine was "
            "removed; 'default' (the binary-heap Simulator) is the only one"
        )


def run_transfer(
    sender: SenderEndpoint,
    receiver: ReceiverEndpoint,
    source: Source,
    forward: Optional[LinkSpec] = None,
    reverse: Optional[LinkSpec] = None,
    seed: int = 0,
    max_time: Optional[float] = None,
    max_events: int = 20_000_000,
    collect_payloads: bool = False,
    trace: bool = False,
    trace_capacity: Optional[int] = None,
    monitor_invariants: bool = False,
    record_channel_drops: bool = False,
    fault_plan: Optional[Any] = None,
    obs: Any = False,
    obs_run_id: Optional[str] = None,
    obs_labels: Optional[dict] = None,
    obs_sample_invariants_every: int = 0,
    causal: bool = False,
    engine: str = "default",
) -> TransferResult:
    """Run one complete transfer and measure it.

    This is a one-flow :class:`~repro.sim.host.SessionHost` — the
    sender/receiver pair wired directly onto the two channels — whose
    result is converted to a :class:`TransferResult`.  The simulation
    stops when the source is exhausted, every payload is acknowledged
    at the sender, and the channels have drained — or when
    ``max_time``/``max_events`` is hit, in which case the result is
    marked incomplete.

    With ``monitor_invariants=True`` an
    :class:`~repro.verify.runtime.InvariantMonitor` watches every channel
    event for breaches of the paper's invariant (returned as
    ``result.monitor``).  ``record_channel_drops`` (with ``trace``)
    records channel loss/aging as DROP trace records, which the
    refinement replay (:mod:`repro.verify.refinement`) needs.

    ``fault_plan`` (a :class:`~repro.robustness.faults.FaultPlan`)
    installs scripted frame corruption, brownout loss ramps, and endpoint
    crash/restart on top of the links; injection counters come back in
    ``result.fault_stats``.  A sender running with ``adaptive=`` config
    reports its controller under ``result.sender_stats["adaptive"]``.  A
    plan carrying :class:`~repro.robustness.corruption.StateCorruption`
    events attaches a :class:`~repro.verify.runtime.StabilizationMonitor`
    and reports the recovery verdict (``converged`` / ``degraded`` /
    ``diverged``), repair counts, and time-to-reconvergence under
    ``result.stabilization``.

    ``obs`` turns on the unified telemetry layer (:mod:`repro.obs`):
    True for a fresh per-run :class:`~repro.obs.session.Observability`
    (shaped by ``obs_run_id`` — default ``"transfer"`` — ``obs_labels``
    and ``obs_sample_invariants_every``), or an existing session to
    reuse its registry.  It instruments the engine, both channels, the
    endpoints (per-seq lifecycle spans via the trace-record tee), and
    the adaptive controller; ``result.latencies`` then comes from the
    span tracker, and the session is returned as ``result.obs``.  With
    ``obs`` falsy no telemetry objects are allocated.

    ``causal`` turns on the causal diagnosis layer
    (:mod:`repro.obs.causal`): every protocol-relevant event becomes a
    node of a per-seq causal graph held in a bounded flight-recorder
    ring, delivery latencies are decomposed into exact
    queue/timer/retransmission/propagation components
    (``result.causal.attributions``), and an anomaly trigger (link-dead,
    degraded/diverged stabilization, deep RTO backoff, invariant-probe
    violation) dumps the ring to ``results/obs/flight/<run_id>.jsonl``
    (``result.flight_path``).  The graph never perturbs rng or
    scheduling, so decision traces are bit-identical with it on or off.
    ``engine`` accepts only ``"default"`` (else :class:`ValueError`).
    """
    # cycle guard: the host imports LinkSpec and TransferResult from here
    from repro.sim.host import FlowSpec, SessionHost, _one_flow_transfer

    require_default_engine(engine)
    session = SessionHost(
        [FlowSpec(sender, receiver, source)], forward=forward,
        reverse=reverse, seed=seed, max_time=max_time, max_events=max_events,
        collect_payloads=collect_payloads, trace=trace,
        trace_capacity=trace_capacity, monitor_invariants=monitor_invariants,
        obs=obs, obs_run_id=obs_run_id or "transfer", obs_labels=obs_labels,
        obs_sample_invariants_every=obs_sample_invariants_every,
        causal=causal, fault_plan=fault_plan,
        record_channel_drops=record_channel_drops,
    ).run()
    return _one_flow_transfer(session)
