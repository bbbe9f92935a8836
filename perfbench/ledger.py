"""Per-layer ledger: spans recorded from outside the program.

:class:`Tracer` wraps the public entry points of each layer of
``repro`` (and the callbacks the layers hand each other: scheduled
events, channel receivers and observers, the harness's submit and
deliver hooks) in place, on the classes and modules, in the traced
process only.  Each wrapped call records one span ``(name, start, end,
parent)`` in flat in-memory arrays; :meth:`Tracer.ledger` folds them
into per-layer self time and call counts, and :meth:`Tracer.dump`
writes them out.

A layer's self time is its spans' time minus the time covered by their
child spans.  A method re-entered through ``super()`` on the same
object (``AdaptiveTimerBank.start`` -> ``TimerBank.start``) records one
span, so a count is one crossing into the layer.  Trivial accessors
such as ``Simulator.now`` are not wrapped: their cost stays with the
caller.  The wrappers' own cost is calibrated per kind of wrapper
(:data:`KINDS`) and taken off; what the calibration misses stays inside
the spans, and the traced run reports it as part of ``unattributed``.
"""

from __future__ import annotations

import array
import gzip
import inspect
import json
import math
import statistics
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional

LAYERS = (
    "sim.engine",
    "sim.timers",
    "sim.runner",
    "sim.host",
    "channel",
    "channel.mux",
    "channel.arbiter",
    "protocols",
    "core",
    "workloads",
    "trace",
    "obs",
    "perf.sweep",
)

# module prefix under ``repro.`` -> layer; first match wins
_MODULE_LAYERS = (
    ("sim.engine", "sim.engine"),
    ("sim.timers", "sim.timers"),
    ("sim.runner", "sim.runner"),
    ("sim.host", "sim.host"),
    ("channel.mux", "channel.mux"),
    ("channel.arbiter", "channel.arbiter"),
    ("channel", "channel"),
    ("wire", "channel"),
    ("protocols", "protocols"),
    ("core", "core"),
    ("workloads", "workloads"),
    ("trace", "trace"),
    ("obs", "obs"),
    ("perf.sweep", "perf.sweep"),
)

_TRACED = "__perfbench_traced__"

# how a span is recorded; each kind's wrapper cost is calibrated apart
KINDS = (
    "method",  # public methods
    "property",  # property getters
    "function",  # module-level functions
    "schedule",  # Simulator.schedule, plus the callback lookup around it
    "event",  # a scheduled event: the engine calls the trampoline
    "callback",  # a handed-over callback: partial(trampoline, ...)
)


def layer_of_module(module: str) -> Optional[str]:
    """The layer a ``repro`` module belongs to, or None."""
    if not module.startswith("repro."):
        return None
    rest = module[len("repro."):]
    for prefix, layer in _MODULE_LAYERS:
        if rest == prefix or rest.startswith(prefix + "."):
            return layer
    return None


def _public(cls: type) -> List[str]:
    """Public methods and properties defined on ``cls`` itself."""
    names = []
    for name, value in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(value, property) or inspect.isfunction(value):
            names.append(name)
    return names


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []  # span name per name id
        self.name_layer: List[str] = []  # layer per name id
        self.name_kind: List[str] = []  # wrapper kind per name id
        self._ids: Dict[tuple, int] = {}
        self.span_name = array.array("H")
        self.span_parent = array.array("l")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack: List[int] = [-1]  # open span indices
        self._owners: List[Any] = [None]  # receiver of each open span
        self._methods: List[str] = [""]  # method name of each open span
        self.events = 0  # engine events executed inside run_while
        # timers built inside each open span: a timer's constructor wraps
        # its callback, a cost inside that span with no span of its own
        self.timer_inits: Dict[int, int] = {}
        self._callback_ids: Dict[Any, Optional[int]] = {}
        self._undo: List[tuple] = []
        # per kind, the wrapper cost inside its span and the part charged
        # to the caller (calibrate); "timer_init" is charged inside only
        self.extra_in = dict.fromkeys(KINDS + ("timer_init",), 0.0)
        self.extra_out = dict.fromkeys(KINDS, 0.0)
        self._calibration: Dict[tuple, List[float]] = {}
        self.trampoline = self._make_trampoline()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Forget every span (between warm-up and the traced run)."""
        for arr in (self.span_name, self.span_parent, self.span_start,
                    self.span_end):
            del arr[:]
        self.events = 0
        self.timer_inits.clear()

    def _name_id(self, layer: str, name: str, kind: str) -> int:
        key = (layer, name, kind)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
            self.name_kind.append(kind)
        return nid

    def wrap(self, layer: str, name: str, fn: Callable,
             kind: str = "function") -> Callable:
        """``fn`` recording one span per call under ``layer``.

        Every kind but ``"function"`` takes its receiver first.
        """
        nid = self._name_id(layer, name, kind)
        method = kind != "function"
        short = name.rsplit(".", 1)[-1]
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, owners, methods = self._stack, self._owners, self._methods
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if method and methods[-1] == short and owners[-1] is args[0]:
                return fn(*args, **kwargs)  # super() chain: one span
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            owners.append(args[0] if method else None)
            methods.append(short)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                owners.pop()
                methods.pop()

        setattr(traced, _TRACED, True)
        return traced

    def callback_id(self, callback: Callable,
                    kind: str = "event") -> Optional[int]:
        """Span name id for ``callback``, or None when it gets no span.

        Bound methods take the layer of their object's class, plain
        functions and closures the layer of their module.  Callables of
        no layer, and ones already traced, get no span.  Cached per
        function (and class), since events are scheduled at a high rate.
        """
        if type(callback) is partial and callback.func is self.trampoline:
            return None  # already spanned
        func = getattr(callback, "__func__", callback)
        owner = getattr(callback, "__self__", None)
        # closures are keyed by code, so per-run closures are not kept alive
        key = (
            (kind, func, type(owner)) if owner is not None
            else (kind, getattr(func, "__code__", func))
        )
        try:
            return self._callback_ids[key]
        except KeyError:
            pass
        except TypeError:  # unhashable callable
            return None
        nid = None
        if not getattr(func, _TRACED, False):
            if owner is not None:
                module = type(owner).__module__
                name = f"{type(owner).__name__}.{func.__name__}"
            else:
                module = getattr(callback, "__module__", None) or ""
                name = getattr(callback, "__qualname__", "callback")
            layer = layer_of_module(module)
            if layer is not None:
                nid = self._name_id(layer, name, kind)
        self._callback_ids[key] = nid
        return nid

    def wrap_callback(self, callback: Callable) -> Callable:
        """``callback`` spanned under the layer of the code it runs."""
        nid = self.callback_id(callback, "callback")
        if nid is None:
            return callback
        return partial(self.trampoline, nid, callback)

    def _make_trampoline(self) -> Callable:
        """``trampoline(nid, fn, *args)``: call ``fn(*args)`` in a span.

        Scheduled events and wrapped callbacks go through it, so
        spanning one costs no new function object.
        """
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, owners, methods = self._stack, self._owners, self._methods
        clock = time.perf_counter

        def trampoline(nid, fn, *args):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            owners.append(None)
            methods.append("")
            starts.append(clock())
            try:
                return fn(*args)
            finally:
                ends[index] = clock()
                stack.pop()
                owners.pop()
                methods.pop()

        return trampoline

    def schedule_wrapper(self, inner: Callable) -> Callable:
        """``Simulator.schedule`` sending a spanned callback through the
        trampoline; ``inner`` is the original, wrapped in a span."""
        trampoline, callback_id = self.trampoline, self.callback_id

        def traced_schedule(sim, delay, callback, *args):
            nid = callback_id(callback)
            if nid is None:
                return inner(sim, delay, callback, *args)
            return inner(sim, delay, trampoline, nid, callback, *args)

        return traced_schedule

    def timer_init_wrapper(self, init: Callable) -> Callable:
        """``Timer.__init__`` spanning the timer's expiry callback."""
        wrap_callback, inits, stack = (
            self.wrap_callback, self.timer_inits, self._stack
        )

        def traced_timer_init(timer, sim, callback, *args, **kwargs):
            inits[stack[-1]] = inits.get(stack[-1], 0) + 1
            init(timer, sim, wrap_callback(callback), *args, **kwargs)

        return traced_timer_init

    def calibrate(self, calls: int = 50_000, repeats: int = 3) -> None:
        """Measure each wrapper kind's own cost, inside and outside its span.

        Every kind in :data:`KINDS`, and the timer constructor, wraps a
        no-op the way :meth:`install` wraps the program (on a scratch
        tracer, so recorded spans are untouched) and is timed against
        the plain no-op.  The excess splits into ``extra_in`` (inside
        the recorded span) and ``extra_out`` (charged to the caller),
        which :meth:`ledger` subtracts per span of that kind.  Each call
        adds samples and re-takes the medians, so calibrating before and
        after a run averages over the host's speed during it.
        """

        def noop():
            pass

        class Probe:
            def __init__(self, sim=None, callback=None, *args, **kwargs):
                pass

            def noop(self):
                pass

            def schedule(self, delay, callback, *args):
                pass

            value = property(noop)

        scratch = Tracer()
        for kind in ("event", "callback"):  # as if Probe had a layer
            scratch._callback_ids[(kind, Probe.noop, Probe)] = (
                scratch._name_id("calibration", "Probe.noop", kind)
            )

        def wrap(fn, kind):
            return scratch.wrap("calibration", fn.__qualname__, fn, kind)

        class Traced(Probe):
            __init__ = scratch.timer_init_wrapper(Probe.__init__)
            noop = wrap(Probe.noop, "method")
            schedule = scratch.schedule_wrapper(
                wrap(Probe.schedule, "schedule"))
            value = property(wrap(Probe.value.fget, "property"))

        probe = Probe()
        bound = probe.noop
        traced = Traced(None, bound)
        traced_noop = wrap(noop, "function")
        trampoline = scratch.trampoline
        plain_args, event_args = (), (scratch.callback_id(bound), bound)
        handed = scratch.wrap_callback(bound)
        pairs = {
            "method": (lambda: probe.noop(), lambda: traced.noop()),
            "property": (lambda: probe.value, lambda: traced.value),
            "function": (lambda: noop(), lambda: traced_noop()),
            "schedule": (lambda: probe.schedule(0.0, bound),
                         lambda: traced.schedule(0.0, bound)),
            # the engine runs ``event.callback(*event.args)``
            "event": (lambda: bound(*plain_args),
                      lambda: trampoline(*event_args)),
            "callback": (lambda: bound(), lambda: handed()),
            "timer_init": (lambda: Probe(None, bound),
                           lambda: Traced(None, bound)),
        }
        clock = time.perf_counter
        samples = self._calibration

        def timed(call) -> float:
            start = clock()
            for _ in range(calls):
                call()
            return (clock() - start) / calls

        for _ in range(repeats):
            samples.setdefault(("loop",), []).append(timed(lambda: None))
            for kind, (plain, wrapped) in pairs.items():
                samples.setdefault((kind, "plain"), []).append(timed(plain))
                scratch.reset()
                samples.setdefault((kind, "wrapped"), []).append(
                    timed(wrapped))
                samples.setdefault((kind, "inside"), []).append(
                    (math.fsum(scratch.span_end)
                     - math.fsum(scratch.span_start)) / calls
                )
        med = {key: statistics.median(values)
               for key, values in samples.items()}
        for kind in pairs:
            plain_call = med[(kind, "plain")] - med[("loop",)]
            total = max(0.0, med[(kind, "wrapped")] - med[(kind, "plain")])
            if kind == "timer_init":  # no span: all of it is inside
                self.extra_in[kind] = total
                continue
            inside = med[(kind, "inside")] - plain_call
            self.extra_in[kind] = min(total, max(0.0, inside))
            self.extra_out[kind] = total - self.extra_in[kind]

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def _set(self, target: Any, name: str, value: Any) -> None:
        self._undo.append((target, name, vars(target)[name]))
        setattr(target, name, value)

    def patch_method(self, cls: type, name: str) -> None:
        """Wrap one method or property defined on ``cls``."""
        raw = vars(cls)[name]
        layer = layer_of_module(cls.__module__)
        qual = f"{cls.__name__}.{name}"
        if isinstance(raw, property):
            wrapped = property(
                self.wrap(layer, qual, raw.fget, kind="property"),
                raw.fset, raw.fdel, raw.__doc__,
            )
        elif inspect.isgeneratorfunction(raw):
            return  # a span would only cover creating the generator
        else:
            wrapped = self.wrap(layer, qual, raw, kind="method")
        self._set(cls, name, wrapped)

    def patch_class(self, cls: type, extra: tuple = ()) -> None:
        """Wrap the public methods of ``cls`` plus the named ``extra``."""
        for name in _public(cls) + [n for n in extra if n in vars(cls)]:
            self.patch_method(cls, name)

    def patch_function(self, module: Any, name: str) -> None:
        """Wrap one module-level function, looked up by callers at call time."""
        fn = vars(module)[name]
        self._set(module, name, self.wrap(layer_of_module(fn.__module__),
                                          name, fn))

    def install(self) -> None:
        """Wrap every layer's entry points (before any object is built)."""
        from repro.channel import arbiter, channel, mux
        from repro.core import bounded, numbering, window
        from repro.obs import causal, session, spans
        from repro.perf import sweep
        from repro.protocols import ack_policy, base, registry
        from repro.sim import engine, host, runner, timers
        from repro.trace import recorder
        from repro.workloads import sources

        del registry  # imported so every endpoint class below exists
        tracer = self

        # sim.engine: the drain loop, its predicate, and every event
        sim_cls = engine.Simulator
        run_while = self.wrap("sim.engine", "Simulator.run_while",
                              sim_cls.run_while, kind="method")

        def traced_run_while(sim, keep_going, max_time=None, max_events=None):
            executed = run_while(sim, tracer.wrap_callback(keep_going),
                                 max_time, max_events)
            tracer.events += executed
            return executed

        self._set(sim_cls, "run_while", traced_run_while)
        for name in ("schedule", "_schedule_instrumented"):
            inner = self.wrap("sim.engine", f"Simulator.{name}",
                              vars(sim_cls)[name], kind="schedule")
            self._set(sim_cls, name, self.schedule_wrapper(inner))
        for name in ("run", "step", "schedule_at"):
            self.patch_method(sim_cls, name)

        # sim.timers; a timer's expiry callback runs under its owner's layer
        self._set(timers.Timer, "__init__", self.timer_init_wrapper(
            vars(timers.Timer)["__init__"]))
        for cls in (timers.Timer, timers.TimerBank, timers.AdaptiveTimer,
                    timers.AdaptiveTimerBank):
            self.patch_class(cls)

        # channel, channel.mux: sends, plus the receivers and observers
        # they call back into
        def callback_taking(cls, name):
            inner = self.wrap(layer_of_module(cls.__module__),
                              f"{cls.__name__}.{name}", vars(cls)[name],
                              kind="method")

            def traced(link, callback, _inner=inner):
                owner = getattr(callback, "__self__", None)
                hook = vars(owner).get("on_deliver") if owner is not None else None
                if hook is not None:
                    # the harness's delivery hook on a receiver endpoint
                    owner.on_deliver = tracer.wrap_callback(hook)
                return _inner(link, tracer.wrap_callback(callback))

            self._set(cls, name, traced)

        for cls in (channel.Channel, mux.FlowPort):
            callback_taking(cls, "connect")
            callback_taking(cls, "add_observer")
            self.patch_method(cls, "send")
        self.patch_method(mux.FlowMux, "port")
        self.patch_class(arbiter.LinkArbiter)

        # protocols: endpoint entry points (on_message arrives through
        # the connect wrappers above) and ack policies
        def subclasses(root):
            seen, todo = [], [root]
            while todo:
                for sub in todo.pop().__subclasses__():
                    if sub not in seen:
                        seen.append(sub)
                        todo.append(sub)
            return seen

        for cls in subclasses(base.SenderEndpoint) + subclasses(
            base.ReceiverEndpoint
        ):
            if layer_of_module(cls.__module__) == "protocols":
                for name in ("submit", "can_accept", "all_acknowledged"):
                    if name in vars(cls):
                        self.patch_method(cls, name)
        for cls in subclasses(ack_policy.AckPolicy):
            self.patch_class(cls)

        # core: window books and wire numbering
        for module in (window, bounded, numbering):
            for cls in vars(module).values():
                if inspect.isclass(cls) and cls.__module__ == module.__name__:
                    self.patch_class(cls)

        # workloads: attach, the window-open refill, exhaustion checks
        original_attach = sources.Source.attach

        def traced_attach(source, sim, sender):
            hook = vars(sender).get("submit")
            if hook is not None:
                # the harness's submit hook, installed on the sender
                sender.submit = tracer.wrap_callback(hook)
            return original_attach(source, sim, sender)

        self._set(sources.Source, "attach",
                  self.wrap("workloads", "Source.attach", traced_attach,
                            kind="method"))
        self.patch_method(sources.Source, "exhausted")
        for cls in subclasses(sources.Source):
            self.patch_class(cls, extra=("_start", "_on_window_open"))

        # trace
        for cls in (recorder.TraceRecorder, recorder.NullRecorder):
            self.patch_class(cls)

        # obs: sessions, span trackers, the causal recorder and tees; the
        # causal timer observer is a closure the timers call directly
        timer_observer = vars(causal.CausalRecorder)["timer_observer"]
        for cls in (session.Observability, session.SimInstruments,
                    session.ControllerInstruments, spans.SpanTracker,
                    spans.ObsRecorder, causal.CausalRecorder,
                    causal.CausalTee, causal.CausalControllerHook):
            self.patch_class(cls)

        def traced_timer_observer(recorder_self):
            return tracer.wrap_callback(timer_observer(recorder_self))

        self._set(causal.CausalRecorder, "timer_observer",
                  self.wrap("obs", "CausalRecorder.timer_observer",
                            traced_timer_observer, kind="method"))

        # harnesses and the sweep
        run_transfer = vars(runner)["run_transfer"]
        for module in (runner, host, sweep):
            if vars(module).get("run_transfer") is run_transfer:
                self._set(module, "run_transfer",
                          self.wrap("sim.runner", "run_transfer",
                                    run_transfer))
        self.patch_function(host, "run_flows")
        self.patch_class(host.SessionHost)
        self.patch_class(runner.LinkSpec)
        for name in ("execute_config", "serialize_result",
                     "deserialize_result"):
            self.patch_function(sweep, name)
        self.patch_class(sweep.SweepRunner)

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        while self._undo:
            target, name, value = self._undo.pop()
            setattr(target, name, value)

    # ------------------------------------------------------------------
    # folding and output
    # ------------------------------------------------------------------

    def ledger(self, wall: float) -> dict:
        """Self time, inclusive time and span count per layer and name.

        Times are corrected for the calibrated wrapper cost of each span's
        kind: a span loses its ``extra_in`` and, for every child, the
        child's ``extra_out``, plus the cost of the timers built inside
        it.  ``wall_s`` is ``wall`` less all of that; ``outside_s`` is
        the part of it no root span covers.
        """
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        count = len(starts)
        kin = [self.extra_in[kind] for kind in self.name_kind]
        kout = [self.extra_out[kind] for kind in self.name_kind]
        covered = array.array("d", [0.0]) * count  # children + their extra_out
        root = 0.0  # the same for the root spans
        for index in range(count):
            outer = ends[index] - starts[index] + kout[names[index]]
            parent = parents[index]
            if parent >= 0:
                covered[parent] += outer
            else:
                root += outer
        size = len(self.names)
        by_name_self, by_name_total = [0.0] * size, [0.0] * size
        by_name_calls = [0] * size
        wrapper = 0.0
        for index in range(count):
            nid = names[index]
            span = ends[index] - starts[index]
            by_name_self[nid] += span - covered[index] - kin[nid]
            by_name_total[nid] += span
            by_name_calls[nid] += 1
            wrapper += kin[nid] + kout[nid]
        timer_init = self.extra_in["timer_init"]
        outside = wall - root
        for index, inits in self.timer_inits.items():
            wrapper += inits * timer_init
            if index >= 0:
                by_name_self[names[index]] -= inits * timer_init
            else:
                outside -= inits * timer_init
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        spans: Dict[str, dict] = {}
        for nid, name in enumerate(self.names):
            layer = self.name_layer[nid]
            if not by_name_calls[nid] or layer not in layers:
                continue
            layers[layer]["self_s"] += by_name_self[nid]
            layers[layer]["calls"] += by_name_calls[nid]
            one = spans.setdefault(
                f"{layer}:{name}", {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            )  # one name can be spanned by several kinds
            one["calls"] += by_name_calls[nid]
            one["self_s"] += by_name_self[nid]
            one["total_s"] += by_name_total[nid]
        return {
            "wall_s": wall - wrapper,
            "raw_wall_s": wall,
            "spans": count,
            "wrapper_s": wrapper,
            "outside_s": outside,
            "layers": layers,
            "by_name": spans,
        }

    def dump(self, path) -> None:
        """Write every span: a JSON header line, then the raw arrays.

        Arrays follow in the order ``name`` (uint16 ids into the
        header's ``names``), ``parent`` (int64 span index, -1 for a
        root), ``start``, ``end`` (float64 perf_counter seconds), each
        in native byte order; the file is gzip-compressed.
        """
        header = {
            "names": self.names,
            "layers": self.name_layer,
            "count": len(self.span_start),
            "arrays": [
                [label, arr.typecode, arr.itemsize]
                for label, arr in (
                    ("name", self.span_name), ("parent", self.span_parent),
                    ("start", self.span_start), ("end", self.span_end),
                )
            ],
        }
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                out.write(arr.tobytes())
