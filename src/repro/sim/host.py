"""Session host: the one harness that wires and runs a simulation.

:class:`SessionHost` runs one or more protocol flows over one link pair.
With one flow and no link arbiter it wires that sender/receiver pair
straight onto two dedicated channels — the paper's setting, and all
:func:`~repro.sim.runner.run_transfer` is: a one-flow session converted
to a :class:`~repro.sim.runner.TransferResult`.  Only such a direct
session takes a ``fault_plan``.

A production-scale deployment of the window protocol multiplexes *many*
concurrent flows over the same impaired links, which is where
per-connection window behaviour, link sharing, and fairness start to
matter (Ghaderi & Towsley; Jain — see PAPERS.md).  Every other session
realises that regime on the same wiring path:

* one **forward** and one **reverse** channel are built from the usual
  :class:`~repro.sim.runner.LinkSpec` descriptions — loss, delay,
  aging, and framing act on the *shared* link, not per-flow copies;
* a :class:`~repro.channel.mux.FlowMux` per direction tags each flow's
  traffic with its flow id and demultiplexes deliveries, so every
  endpoint pair sees an ordinary channel surface
  (:class:`~repro.channel.mux.FlowPort`, labelled ``SR.f<id>``);
* each flow gets its own trace actor names (``sender.f<id>``), span
  tracker, latency bookkeeping, and — when requested — its own
  :class:`~repro.verify.runtime.InvariantMonitor` or sampled
  :class:`~repro.obs.probes.InvariantProbe`, because the paper's
  invariant 6 ∧ 7 ∧ 8 is a *per-flow* statement: each flow's counters,
  in-flight data, and ack spans form an independent instance of the
  protocol over its slice of the link.

:func:`run_flows` is the entry point; it returns a :class:`SessionResult`
holding per-flow :class:`FlowResult` rows plus aggregate goodput and the
Jain fairness index across flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.stats import jain_fairness
from repro.channel.arbiter import ArbiterConfig
from repro.channel.mux import FlowMux
from repro.channel.surface import link_stats
from repro.protocols.base import ReceiverEndpoint, SenderEndpoint
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.runner import (
    LinkSpec,
    TransferResult,
    _derive_timeout,
    require_default_engine,
)
from repro.trace.recorder import NullRecorder, TraceRecorder
from repro.workloads.sources import GreedySource, Source

__all__ = [
    "FlowSpec",
    "FlowResult",
    "SessionResult",
    "SessionHost",
    "run_flows",
    "uniform_flows",
    "mixed_flows",
    "session_to_transfer",
]


@dataclass
class FlowSpec:
    """One flow: an endpoint pair plus the source that drives it.

    ``weight`` is the flow's scheduling weight at the link arbiter
    (WRR/DRR); it is ignored when the session has no arbiter or uses
    the ``fifo`` scheduler.
    """

    sender: SenderEndpoint
    receiver: ReceiverEndpoint
    source: Source
    label: str = ""  # cosmetic (protocol name etc.); not protocol state
    weight: float = 1.0  # arbiter scheduling weight (wrr/drr)


@dataclass
class FlowResult:
    """Everything measured for one flow of a multi-flow session."""

    flow: int
    label: str
    completed: bool
    delivered: int
    submitted: int
    in_order: bool  # complete AND exactly-once in-order
    ordered_prefix: bool  # delivered payloads form an in-order prefix
    duration: float  # session duration (shared clock)
    sender_stats: dict = field(default_factory=dict)
    receiver_stats: dict = field(default_factory=dict)
    forward_stats: dict = field(default_factory=dict)  # this flow's port
    reverse_stats: dict = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    timeout_period: float = 0.0
    monitor: Any = None  # per-flow InvariantMonitor / InvariantProbe
    delivered_payloads: List[Any] = field(default_factory=list)
    queue_stats: dict = field(default_factory=dict)  # arbiter counters

    @property
    def throughput(self) -> float:
        """This flow's goodput over the shared session duration."""
        return self.delivered / self.duration if self.duration > 0 else 0.0

    @property
    def violations(self) -> int:
        """Invariant violations observed for this flow (0 when unwatched)."""
        if self.monitor is None:
            return 0
        return len(self.monitor.violations)

    def as_dict(self) -> dict:
        """JSON-safe row (what the sweep serializer carries per flow)."""
        row = {
            "flow": self.flow,
            "label": self.label,
            "completed": self.completed,
            "delivered": self.delivered,
            "submitted": self.submitted,
            "in_order": self.in_order,
            "ordered_prefix": self.ordered_prefix,
            "sender_stats": self.sender_stats,
            "receiver_stats": self.receiver_stats,
            "forward_stats": self.forward_stats,
            "reverse_stats": self.reverse_stats,
            "timeout_period": self.timeout_period,
            "violations": self.violations,
        }
        if self.queue_stats:  # only arbitrated sessions carry the key
            row["queue_stats"] = self.queue_stats
        return row


@dataclass
class SessionResult:
    """Per-flow plus aggregate outcome of one session."""

    completed: bool  # every flow finished
    duration: float
    delivered: int  # aggregate across flows
    submitted: int
    in_order: bool  # every flow delivered exactly-once in-order
    flows: List[FlowResult] = field(default_factory=list)
    fairness: float = 1.0  # Jain index over per-flow goodput
    forward_stats: dict = field(default_factory=dict)  # shared link
    reverse_stats: dict = field(default_factory=dict)
    arbiter_stats: dict = field(default_factory=dict)  # {} without one
    trace: Any = None
    obs: Any = None
    obs_path: Optional[str] = None
    causal: Any = None  # CausalRecorder when the causal layer was on
    flight_path: Optional[str] = None  # flight dump, when a trigger fired
    fault_stats: dict = field(default_factory=dict)  # injected-fault counters
    stabilization: Optional[dict] = None  # corruption-recovery verdict

    @property
    def throughput(self) -> float:
        """Aggregate goodput: payloads delivered per unit virtual time."""
        return self.delivered / self.duration if self.duration > 0 else 0.0

    @property
    def violations(self) -> int:
        """Total invariant violations across all watched flows."""
        return sum(flow.violations for flow in self.flows)

    def summary(self) -> str:
        status = "completed" if self.completed else "INCOMPLETE"
        order = "in-order" if self.in_order else "ORDER VIOLATION"
        return (
            f"{status}/{order}: {len(self.flows)} flow(s), "
            f"{self.delivered}/{self.submitted} delivered in "
            f"{self.duration:.2f}tu, aggregate throughput="
            f"{self.throughput:.4f}/tu, fairness={self.fairness:.3f}"
        )


def uniform_flows(
    protocol: str,
    count: int,
    window: int,
    total: int,
    **protocol_kwargs,
) -> List[FlowSpec]:
    """``count`` identical greedy flows of the named protocol.

    The homogeneous-population case every fairness experiment starts
    from; heterogeneous mixes come from :func:`mixed_flows` (or by
    composing :class:`FlowSpec` by hand).
    """
    from repro.protocols.registry import make_pair  # cycle guard

    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    specs = []
    for _ in range(count):
        sender, receiver = make_pair(
            protocol, window=window, **protocol_kwargs
        )
        specs.append(
            FlowSpec(
                sender=sender,
                receiver=receiver,
                source=GreedySource(total),
                label=protocol,
            )
        )
    return specs


def mixed_flows(
    protocol: str,
    windows: Sequence[int],
    total: int,
    timeout_modes: Optional[Sequence[Optional[str]]] = None,
    weights: Optional[Sequence[float]] = None,
    sources: Optional[Sequence[Source]] = None,
    **protocol_kwargs,
) -> List[FlowSpec]:
    """One flow per entry of ``windows``, heterogeneous on purpose.

    The genuinely-competing-sessions case E17 studies: flows of the
    same protocol but different window sizes (and optionally timeout
    modes, arbiter scheduling weights, or workload sources) contending
    for a shared link.  All optional sequences must match
    ``len(windows)``; ``None`` entries in ``timeout_modes`` keep the
    protocol's default, a ``sources`` default of ``None`` gives every
    flow a greedy source offering ``total`` payloads.
    """
    from repro.protocols.registry import make_pair  # cycle guard

    if not windows:
        raise ValueError("mixed_flows needs at least one window entry")
    for name, seq in (
        ("timeout_modes", timeout_modes),
        ("weights", weights),
        ("sources", sources),
    ):
        if seq is not None and len(seq) != len(windows):
            raise ValueError(
                f"{name} must match windows "
                f"({len(seq)} != {len(windows)})"
            )
    specs = []
    for index, window in enumerate(windows):
        kwargs = dict(protocol_kwargs)
        mode = timeout_modes[index] if timeout_modes is not None else None
        if mode is not None:
            kwargs["timeout_mode"] = mode
        sender, receiver = make_pair(protocol, window=window, **kwargs)
        specs.append(
            FlowSpec(
                sender=sender,
                receiver=receiver,
                source=(
                    sources[index]
                    if sources is not None
                    else GreedySource(total)
                ),
                label=f"{protocol}/w{window}",
                weight=weights[index] if weights is not None else 1.0,
            )
        )
    return specs


def _wire_domain(sender: Any) -> Optional[int]:
    numbering = getattr(sender, "numbering", None)
    domain = numbering.domain_size if numbering is not None else None
    if domain is None and hasattr(sender, "book"):
        domain = sender.book.domain.n  # byte-exact bounded endpoints
    return domain


class _FlowHarness:
    """Per-flow wiring state the host keeps while a session runs.

    ``fid`` is the flow id on the wire and in telemetry: ``None`` for
    the one flow of a direct-wired session, ``index`` behind a mux.
    """

    __slots__ = (
        "index", "fid", "spec", "forward_port", "reverse_port",
        "delivered_payloads", "submit_times", "latencies", "tracker",
        "monitor", "original_submit", "submit_was_instance_attr",
    )

    def __init__(self, index: int, fid: Optional[int], spec: FlowSpec) -> None:
        self.index = index
        self.fid = fid
        self.spec = spec
        self.forward_port: Any = None  # the channel itself, or a FlowPort
        self.reverse_port: Any = None
        self.delivered_payloads: List[Any] = []
        self.submit_times: Dict[int, float] = {}
        self.latencies: List[float] = []
        self.tracker: Any = None  # SpanTracker when obs is on
        self.monitor: Any = None
        self.original_submit: Optional[Callable[[Any], int]] = None
        self.submit_was_instance_attr = False

    @property
    def finished(self) -> bool:
        return (
            self.spec.source.exhausted
            and self.spec.sender.all_acknowledged
            and len(self.delivered_payloads) >= self.spec.source.total
        )


class SessionHost:
    """Build, run, and measure one session of one or more flows.

    Parameters mirror :func:`~repro.sim.runner.run_transfer`.  A
    session of exactly one flow with no active ``arbiter`` is wired
    *directly*: the flow's endpoints sit on the two channels themselves,
    with no :class:`~repro.channel.mux.FlowMux`, the ``sender`` /
    ``receiver`` actor names and ``SR`` / ``RS`` link labels of the
    paper's setting, and the session-level span tracker of ``obs``.
    Every other session muxes flows ``0..N-1`` onto the shared links.

    ``fault_plan`` and ``record_channel_drops`` apply only to a direct
    session: a plan's crash/restart scripting names a single endpoint
    pair, so a muxed session raises :class:`ValueError` — fault targets
    naming a flow are an open item (ROADMAP).
    """

    def __init__(
        self,
        flows: Sequence[FlowSpec],
        forward: Optional[LinkSpec] = None,
        reverse: Optional[LinkSpec] = None,
        seed: int = 0,
        max_time: Optional[float] = None,
        max_events: int = 20_000_000,
        collect_payloads: bool = False,
        trace: bool = False,
        trace_capacity: Optional[int] = None,
        monitor_invariants: bool = False,
        obs: Any = False,
        obs_run_id: Optional[str] = None,
        obs_labels: Optional[dict] = None,
        obs_sample_invariants_every: int = 0,
        causal: bool = False,
        arbiter: Optional[ArbiterConfig] = None,
        fault_plan: Optional[Any] = None,
        record_channel_drops: bool = False,
    ) -> None:
        flows = list(flows)
        if not flows:
            raise ValueError("a session needs at least one flow")
        self.arbiter = (
            arbiter if arbiter is not None and arbiter.active else None
        )
        self.direct = len(flows) == 1 and self.arbiter is None
        if not self.direct and (
            fault_plan is not None or record_channel_drops
        ):
            raise ValueError(
                "fault plans and channel-drop records script a single "
                "endpoint pair; a muxed session (several flows, or an "
                "arbitrated link) does not support them (ROADMAP)"
            )
        self.flows = [
            _FlowHarness(index, None if self.direct else index, spec)
            for index, spec in enumerate(flows)
        ]
        self.forward_spec = forward if forward is not None else LinkSpec()
        self.reverse_spec = reverse if reverse is not None else LinkSpec()
        self.seed = seed
        self.max_time = max_time
        self.max_events = max_events
        self.collect_payloads = collect_payloads
        self.trace = trace
        self.trace_capacity = trace_capacity
        self.monitor_invariants = monitor_invariants
        self.obs = obs
        self.obs_run_id = obs_run_id
        self.obs_labels = obs_labels
        self.obs_sample_invariants_every = obs_sample_invariants_every
        self.causal = causal
        self.fault_plan = fault_plan
        self.record_channel_drops = record_channel_drops

    # ------------------------------------------------------------------

    def run(self) -> SessionResult:
        sim = Simulator()
        streams = RandomStreams(self.seed)

        causal_rec = None
        if self.causal:
            from repro.obs.causal import CausalRecorder  # cycle guard

            causal_rec = CausalRecorder(
                sim,
                run_id=self.obs_run_id or "session",
                labels=self.obs_labels,
            )
            sim.timer_observer = causal_rec.timer_observer()

        obs_session = None
        if self.obs:
            from repro.obs.session import Observability  # cycle guard

            if isinstance(self.obs, Observability):
                obs_session = self.obs
            else:
                obs_session = Observability(
                    run_id=self.obs_run_id or "session",
                    labels=self.obs_labels,
                    sample_invariants_every=self.obs_sample_invariants_every,
                )
            obs_session.attach_sim(sim)

        forward_channel = self.forward_spec.build(
            sim, streams.get("channel.forward"), "SR"
        )
        reverse_channel = self.reverse_spec.build(
            sim, streams.get("channel.reverse"), "RS"
        )
        forward: Any = forward_channel
        reverse: Any = reverse_channel
        arbiter = None
        if not self.direct:
            # only the data direction is arbitrated: acks are the paper's
            # cheap control frames, so the reverse link keeps pure
            # loss/delay (see repro.channel.arbiter module docs)
            forward = FlowMux(forward_channel, arbiter=self.arbiter)
            reverse = FlowMux(reverse_channel)
            arbiter = forward.arbiter
        if obs_session is not None:
            obs_session.attach_channel(forward_channel, forward_channel.name)
            obs_session.attach_channel(reverse_channel, reverse_channel.name)
        if causal_rec is not None:
            # observe the *shared* channels, where a FlowEnvelope is
            # still intact — the causal observer unwraps it, so transit
            # nodes carry the flow id of the message they touched
            forward_channel.add_observer(
                causal_rec.channel_observer(forward_channel.name)
            )
            reverse_channel.add_observer(
                causal_rec.channel_observer(reverse_channel.name)
            )

        recorder: Any = (
            TraceRecorder(sim, capacity=self.trace_capacity)
            if self.trace
            else NullRecorder()
        )

        for flow in self.flows:
            self._wire_flow(
                flow, sim, forward, reverse, recorder, obs_session, causal_rec
            )
        plan = self.fault_plan
        if plan is not None:
            (flow,) = self.flows
            if causal_rec is not None:
                # fault nodes + flush-on-fault-boundary for a streaming dump
                plan.observer = causal_rec.fault_observer()
            # must come after the connects in _wire_flow: the plan
            # re-connects each channel through its corruption/outage
            # interceptor
            plan.install(
                sim, forward_channel, reverse_channel,
                flow.spec.sender, flow.spec.receiver,
            )

        flows = self.flows

        def unfinished() -> bool:
            for flow in flows:
                if not flow.finished:
                    return True
            return False

        try:
            for flow in flows:
                self._install_hooks(flow, sim, causal_rec)
            for flow in flows:
                flow.spec.source.attach(sim, flow.spec.sender)
            sim.run_while(
                unfinished, max_time=self.max_time, max_events=self.max_events
            )
        finally:
            for flow in flows:
                self._restore_submit(flow)
            if plan is not None:
                # put the channels' own loss models back: a plan-wrapped
                # brownout left installed (e.g. one scheduled around a
                # crash/restart) would survive a later Channel.reset and
                # replay a different rng stream on a reused channel
                plan.uninstall()

        return self._collect(
            sim, forward_channel, reverse_channel, recorder, obs_session,
            causal_rec, arbiter,
        )

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def _wire_flow(
        self,
        flow: _FlowHarness,
        sim: Simulator,
        forward: Any,
        reverse: Any,
        recorder: Any,
        obs_session: Any,
        causal_rec: Any,
    ) -> None:
        """Wire one flow onto ``forward``/``reverse``: the channels of a
        direct session, or the two muxes of a muxed one."""
        # duck-typed endpoints: flow_id / enable_oracle are optional
        sender: Any = flow.spec.sender
        receiver: Any = flow.spec.receiver
        fid = flow.fid
        if fid is None:
            sender_name, receiver_name = "sender", "receiver"
            flow.forward_port, flow.reverse_port = forward, reverse
        else:
            sender_name, receiver_name = f"sender.f{fid}", f"receiver.f{fid}"
            flow.forward_port = forward.port(fid, weight=flow.spec.weight)
            flow.reverse_port = reverse.port(fid)
            # flow-aware identity: distinct trace actors per flow, and
            # the window-core endpoints carry their flow id
            sender.actor_name = sender_name
            receiver.actor_name = receiver_name
            if hasattr(sender, "flow_id"):
                sender.flow_id = fid
            if hasattr(receiver, "flow_id"):
                receiver.flow_id = fid
        forward_port, reverse_port = flow.forward_port, flow.reverse_port

        flow_recorder = recorder
        if causal_rec is not None:
            # the causal tee sits beneath the obs tee so probe NOTE
            # records (recorded through the obs recorder) reach the
            # causal layer; every record is stamped with this flow id
            from repro.obs.causal import CausalTee  # cycle guard

            flow_recorder = CausalTee(sim, causal_rec, flow_recorder, flow=fid)
            causal_rec.watch_endpoints(
                (sender_name, sender), (receiver_name, receiver)
            )
        if obs_session is not None:
            # the tee feeds every endpoint trace record into a span
            # tracker before forwarding: the session's own for a direct
            # flow; behind a mux, a flow-tagged one on the shared
            # registry, whose instruments merge into session aggregates
            # while the flow keeps its own span table and latencies
            if fid is None:
                flow.tracker = obs_session.span_tracker
                flow_recorder = obs_session.make_recorder(sim, flow_recorder)
            else:
                from repro.obs.spans import ObsRecorder, SpanTracker

                flow.tracker = SpanTracker(obs_session.registry, flow=fid)
                obs_session.add_span_tracker(flow.tracker)
                flow_recorder = ObsRecorder(sim, flow.tracker, flow_recorder)
                obs_session.attach_channel(forward_port, forward_port.name)
                obs_session.attach_channel(reverse_port, reverse_port.name)
        if self.trace and self.record_channel_drops:
            # channel loss/aging events appear in the trace as DROP
            # records — required by the refinement replay
            # (repro.verify.refinement)
            forward_port.add_observer(
                _drop_observer(flow_recorder, forward_port.name)
            )
            reverse_port.add_observer(
                _drop_observer(flow_recorder, reverse_port.name)
            )

        _derive_timeout(sender, receiver, forward_port, reverse_port)

        domain = _wire_domain(sender)
        plan = self.fault_plan
        if plan is not None and plan.corruptions:
            # a corrupting fault plan always gets a StabilizationMonitor
            # (the convergence watchdog's scorekeeper); it subsumes the
            # plain invariant monitor, so monitor_invariants shares it
            from repro.verify.runtime import StabilizationMonitor

            plan.monitor = StabilizationMonitor(
                sender, receiver, forward_port, reverse_port, domain=domain
            )
            if self.monitor_invariants:
                flow.monitor = plan.monitor
        elif self.monitor_invariants:
            from repro.verify.runtime import InvariantMonitor  # cycle guard

            flow.monitor = InvariantMonitor(
                sender, receiver, forward_port, reverse_port, domain=domain
            )
        if obs_session is not None:
            if fid is None:
                obs_session.install_probe(
                    sender, receiver, forward_port, reverse_port,
                    domain=domain,
                )
            elif flow.monitor is None and obs_session.sample_invariants_every:
                from repro.obs.probes import InvariantProbe  # cycle guard

                flow.monitor = InvariantProbe(
                    sender, receiver, forward_port, reverse_port,
                    domain=domain,
                    sample_every=obs_session.sample_invariants_every,
                    registry=obs_session.registry,
                    recorder=flow_recorder,
                )

        sender.attach(sim, forward_port, flow_recorder)
        receiver.attach(sim, reverse_port, flow_recorder)
        controller = getattr(sender, "_retx", None)  # built during attach
        if controller is not None:
            if obs_session is not None:
                obs_session.attach_controller(controller)
            if causal_rec is not None:
                # chained after any obs instruments bound just above
                causal_rec.attach_controller(controller, flow=fid)
        forward_port.connect(receiver.on_message)
        reverse_port.connect(sender.on_message)
        if (
            getattr(sender, "timeout_mode", None) == "oracle"
            and hasattr(sender, "enable_oracle")
        ):
            sender.enable_oracle(forward_port, reverse_port, receiver)

    @staticmethod
    def _install_hooks(
        flow: _FlowHarness, sim: Simulator, causal_rec: Any
    ) -> None:
        """Timestamp each payload at submit and at delivery.

        Delivered payloads are kept for the ordering check; latencies go
        to the flow's span tracker when obs is on.  The ``submit``
        wrapper lives for one run only (see :meth:`_restore_submit`), so
        a sender reused across runs never stacks wrappers.
        """
        sender, keep = flow.spec.sender, flow.delivered_payloads.append
        flow.submit_was_instance_attr = "submit" in vars(sender)
        original = sender.submit
        flow.original_submit = original
        tracker = flow.tracker
        if tracker is not None:

            def timed_submit(payload: Any) -> int:
                seq = original(payload)
                tracker.on_submit(seq, sim.now)
                return seq

            def on_deliver(seq: int, payload: Any) -> None:
                keep(payload)
                # idempotent: protocols that emit DELIVER trace records
                # have already stamped this span through the recorder tee
                tracker.on_deliver(seq, sim.now)

        else:
            submit_times, latencies = flow.submit_times, flow.latencies

            def timed_submit(payload: Any) -> int:
                seq = original(payload)
                submit_times[seq] = sim.now
                return seq

            def on_deliver(seq: int, payload: Any) -> None:
                keep(payload)
                submitted_at = submit_times.pop(seq, None)
                if submitted_at is not None:
                    latencies.append(sim.now - submitted_at)

        submit_hook: Callable[[Any], int] = timed_submit
        deliver_hook: Callable[[int, Any], None] = on_deliver
        if causal_rec is not None:
            fid = flow.fid
            actor = "receiver" if fid is None else f"receiver.f{fid}"

            def causal_submit(payload: Any) -> int:
                seq = timed_submit(payload)
                causal_rec.on_submit(seq, sim.now, flow=fid)
                return seq

            def causal_deliver(seq: int, payload: Any) -> None:
                on_deliver(seq, payload)
                # idempotent with the DELIVER trace record
                causal_rec.on_deliver(seq, sim.now, flow=fid, actor=actor)

            submit_hook, deliver_hook = causal_submit, causal_deliver
        flow.spec.receiver.on_deliver = deliver_hook
        setattr(sender, "submit", submit_hook)

    @staticmethod
    def _restore_submit(flow: _FlowHarness) -> None:
        if flow.original_submit is None:
            return
        sender = flow.spec.sender
        if flow.submit_was_instance_attr:
            setattr(sender, "submit", flow.original_submit)
        elif "submit" in vars(sender):
            delattr(sender, "submit")

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def _collect(
        self,
        sim: Simulator,
        forward_channel: Any,
        reverse_channel: Any,
        recorder: Any,
        obs_session: Any,
        causal_rec: Any,
        arbiter: Any,
    ) -> SessionResult:
        flow_results: List[FlowResult] = []
        for flow in self.flows:
            spec = flow.spec
            sender_stats = spec.sender.stats.as_dict()
            controller = getattr(spec.sender, "_retx", None)
            if controller is not None:
                sender_stats["adaptive"] = controller.stats_dict()
                sender_stats["link_dead"] = getattr(
                    spec.sender, "link_dead", False
                )
            latencies = (
                flow.tracker.latencies()
                if flow.tracker is not None
                else flow.latencies
            )
            delivered = flow.delivered_payloads
            submitted = spec.source.submitted
            ordered_prefix = delivered == submitted[: len(delivered)]
            flow_results.append(
                FlowResult(
                    flow=flow.index,
                    label=spec.label,
                    completed=flow.finished,
                    delivered=len(delivered),
                    submitted=len(submitted),
                    in_order=ordered_prefix
                    and len(delivered) == len(submitted),
                    ordered_prefix=ordered_prefix,
                    duration=sim.now,
                    sender_stats=sender_stats,
                    receiver_stats=spec.receiver.stats.as_dict(),
                    forward_stats=link_stats(flow.forward_port),
                    reverse_stats=link_stats(flow.reverse_port),
                    latencies=latencies,
                    timeout_period=(
                        getattr(spec.sender, "timeout_period", 0.0) or 0.0
                    ),
                    monitor=flow.monitor,
                    delivered_payloads=(
                        delivered if self.collect_payloads else []
                    ),
                    queue_stats=(
                        arbiter.flow_stats(flow.index).as_dict()
                        if arbiter is not None
                        else {}
                    ),
                )
            )

        plan = self.fault_plan
        result = SessionResult(
            completed=all(flow.completed for flow in flow_results),
            duration=sim.now,
            delivered=sum(flow.delivered for flow in flow_results),
            submitted=sum(flow.submitted for flow in flow_results),
            in_order=all(flow.in_order for flow in flow_results),
            flows=flow_results,
            fairness=jain_fairness(
                [flow.delivered for flow in flow_results]
            ),
            forward_stats=link_stats(forward_channel),
            reverse_stats=link_stats(reverse_channel),
            arbiter_stats=(
                arbiter.stats_dict() if arbiter is not None else {}
            ),
            trace=recorder if self.trace else None,
            obs=obs_session,
            fault_stats=plan.stats.as_dict() if plan is not None else {},
        )
        if plan is not None and plan.corruptions:
            result.stabilization = plan.monitor.summary(
                result.completed, result.in_order
            )
        if causal_rec is not None:
            if result.stabilization is not None:
                causal_rec.on_stabilization(result.stabilization["verdict"])
            causal_rec.on_fairness(result.fairness)
            for flow_result, flow in zip(flow_results, self.flows):
                if flow_result.sender_stats.get("link_dead") and not any(
                    reason == "link_dead"
                    for _, reason, _ in causal_rec.triggers
                ):
                    # backstop: a sender can go link-dead without routing
                    # the verdict through controller instruments
                    who = "sender" if flow.fid is None else f"flow {flow.fid}"
                    causal_rec.trigger("link_dead", f"{who} reports link_dead")
            result.causal = causal_rec
            result.flight_path = causal_rec.close_flight()
            if obs_session is not None:
                obs_session.causal = causal_rec  # attributions ride export
        if obs_session is not None:
            if not self.direct:
                self._session_gauges(obs_session, result)
            obs_session.finalize(result)
        return result

    @staticmethod
    def _session_gauges(obs_session: Any, result: SessionResult) -> None:
        """Per-flow gauges and session aggregates into the obs registry."""
        gauge = obs_session.registry.gauge(
            "flow_stat",
            "final per-flow counters",
            labelnames=("flow", "stat"),
        )
        for flow in result.flows:
            labels = {"flow": str(flow.flow)}
            gauge.labels(stat="delivered", **labels).set(flow.delivered)
            gauge.labels(stat="submitted", **labels).set(flow.submitted)
            gauge.labels(stat="retransmissions", **labels).set(
                flow.sender_stats.get("retransmissions", 0)
            )
            gauge.labels(stat="violations", **labels).set(flow.violations)
            gauge.labels(stat="completed", **labels).set(
                1.0 if flow.completed else 0.0
            )
        obs_session.registry.gauge(
            "session_fairness", "Jain fairness index over per-flow goodput"
        ).set(result.fairness)
        obs_session.registry.gauge(
            "session_flows", "flows hosted by this session"
        ).set(len(result.flows))
        if result.arbiter_stats:
            depth_gauge = obs_session.registry.gauge(
                "link_queue_depth",
                "peak arbiter queue occupancy per flow (frames)",
                labelnames=("flow",),
            )
            drops = obs_session.registry.counter(
                "link_drops_total",
                "arbiter droptail rejections per flow",
                labelnames=("flow",),
            )
            grants = obs_session.registry.counter(
                "arbiter_grants_total",
                "frames granted onto the link per flow",
                labelnames=("flow",),
            )
            for flow_id, stats in result.arbiter_stats["per_flow"].items():
                labels = {"flow": str(flow_id)}
                depth_gauge.labels(**labels).set(stats["max_depth"])
                drops.labels(**labels).inc(stats["dropped"])
                grants.labels(**labels).inc(stats["granted"])


def _drop_observer(recorder: Any, link: str) -> Callable[[str, Any], None]:
    """Channel observer recording loss/aging as ``channel:<link>`` DROPs."""
    from repro.core.messages import BlockAck, DataMessage  # cycle guard
    from repro.trace.events import EventKind

    actor = f"channel:{link}"

    def observe(kind: str, message: Any) -> None:
        if kind not in ("lose", "age"):
            return
        if isinstance(message, DataMessage):
            recorder.record(actor, EventKind.DROP, seq=message.seq)
        elif isinstance(message, BlockAck):
            recorder.record(
                actor, EventKind.DROP, seq=message.lo, seq_hi=message.hi
            )

    return observe


def run_flows(
    flows: Sequence[FlowSpec],
    forward: Optional[LinkSpec] = None,
    reverse: Optional[LinkSpec] = None,
    seed: int = 0,
    max_time: Optional[float] = None,
    max_events: int = 20_000_000,
    collect_payloads: bool = False,
    trace: bool = False,
    trace_capacity: Optional[int] = None,
    monitor_invariants: bool = False,
    obs: Any = False,
    obs_run_id: Optional[str] = None,
    obs_labels: Optional[dict] = None,
    obs_sample_invariants_every: int = 0,
    causal: bool = False,
    engine: str = "default",
    arbiter: Optional[ArbiterConfig] = None,
) -> SessionResult:
    """Run one or more flows over one link pair and measure the session.

    One flow with no active ``arbiter`` is wired directly onto the two
    channels — the paper's setting, exactly what
    :func:`~repro.sim.runner.run_transfer` runs.  Otherwise the flows
    share one forward and one reverse channel through a
    :class:`~repro.channel.mux.FlowMux` per direction (an active
    arbiter needs the mux even for one flow).  See :class:`SessionHost`.

    ``engine`` accepts only ``"default"`` (see
    :func:`~repro.sim.runner.run_transfer`).
    """
    require_default_engine(engine)
    host = SessionHost(
        flows, forward=forward, reverse=reverse, seed=seed,
        max_time=max_time, max_events=max_events,
        collect_payloads=collect_payloads, trace=trace,
        trace_capacity=trace_capacity, monitor_invariants=monitor_invariants,
        obs=obs, obs_run_id=obs_run_id, obs_labels=obs_labels,
        obs_sample_invariants_every=obs_sample_invariants_every,
        causal=causal, arbiter=arbiter,
    )
    return host.run()


def _one_flow_transfer(session: SessionResult) -> TransferResult:
    """The exact :class:`TransferResult` of a direct one-flow session.

    The flow's stat dicts are carried unchanged (summing would drop the
    non-numeric ``adaptive`` / ``link_dead`` entries) and its monitor is
    the real monitor object; ``per_flow`` and ``fairness`` stay unset.
    """
    (flow,) = session.flows
    return TransferResult(
        completed=flow.completed,
        duration=session.duration,
        delivered=flow.delivered,
        submitted=flow.submitted,
        in_order=flow.in_order,
        ordered_prefix=flow.ordered_prefix,
        sender_stats=flow.sender_stats,
        receiver_stats=flow.receiver_stats,
        forward_stats=flow.forward_stats,
        reverse_stats=flow.reverse_stats,
        delivered_payloads=flow.delivered_payloads,
        trace=session.trace,
        timeout_period=flow.timeout_period,
        monitor=flow.monitor,
        latencies=flow.latencies,
        fault_stats=session.fault_stats,
        obs=session.obs,
        obs_path=session.obs_path,
        stabilization=session.stabilization,
        causal=session.causal,
        flight_path=session.flight_path,
    )


def session_to_transfer(session: SessionResult) -> TransferResult:
    """Flatten a session into the sweep runner's TransferResult shape.

    A direct one-flow session (no arbiter) converts exactly, as
    :func:`~repro.sim.runner.run_transfer` returns it.  Otherwise the
    top-level sender/receiver stats are numeric sums across flows
    (aggregate retransmissions, acks, deliveries) and the link stats
    are the shared channels' aggregates.  Either way the per-flow rows
    plus the fairness index ride the ``per_flow`` / ``fairness`` fields.
    """
    if len(session.flows) == 1 and not session.arbiter_stats:
        transfer = _one_flow_transfer(session)
    else:
        transfer = _summed_transfer(session)
    transfer.per_flow = [flow.as_dict() for flow in session.flows]
    transfer.fairness = session.fairness
    return transfer


def _summed_transfer(session: SessionResult) -> TransferResult:
    def summed(dicts: List[dict]) -> dict:
        out: Dict[str, Any] = {}
        for stats in dicts:
            for key, value in stats.items():
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    out[key] = out.get(key, 0) + value
        return out

    flows = session.flows
    latencies: List[float] = []
    violations: List[str] = []
    monitored = False
    for flow in flows:
        latencies.extend(flow.latencies)
        if flow.monitor is not None:
            monitored = True
            violations.extend(
                f"flow {flow.flow}: {violation}"
                for violation in flow.monitor.violations
            )
    monitor = None
    if monitored:
        from repro.perf.sweep import MonitorSummary  # cycle guard

        monitor = MonitorSummary(violations)
    return TransferResult(
        completed=session.completed,
        duration=session.duration,
        delivered=session.delivered,
        submitted=session.submitted,
        in_order=session.in_order,
        ordered_prefix=all(flow.ordered_prefix for flow in flows),
        sender_stats=summed([flow.sender_stats for flow in flows]),
        receiver_stats=summed([flow.receiver_stats for flow in flows]),
        forward_stats=session.forward_stats,
        reverse_stats=session.reverse_stats,
        trace=session.trace,
        timeout_period=max(flow.timeout_period for flow in flows),
        monitor=monitor,
        latencies=latencies,
        obs=session.obs,
        obs_path=session.obs_path,
        causal=session.causal,
        flight_path=session.flight_path,
        arbiter_stats=session.arbiter_stats,
    )
