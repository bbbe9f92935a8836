"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import Simulator


class NullInstruments:
    """Engine telemetry hooks that record nothing."""

    def on_schedule(self, queue_len: int) -> None:
        pass

    def on_fire(self, queue_len: int) -> None:
        pass

    def on_cancel_discard(self) -> None:
        pass


# Engine-contract tests run on both code paths of the one engine.  The ids
# are the names the suite has always printed for its two cases: ``default``
# is a bare Simulator, ``fast`` is the same engine with no-op telemetry
# hooks installed, so schedule() and every drain loop go through their
# instrumented twins (the path observed runs take).
SIM_VARIANTS = ("default", "fast")


def make_sim(variant: str) -> Simulator:
    """A fresh simulator for one of :data:`SIM_VARIANTS`."""
    sim = Simulator()
    if variant == "fast":
        sim.set_instruments(NullInstruments())
    elif variant != "default":
        raise ValueError(f"unknown simulator variant {variant!r}")
    return sim


@pytest.fixture(params=SIM_VARIANTS)
def sim(request) -> Simulator:
    """A fresh simulator, once plain and once instrumented."""
    return make_sim(request.param)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG."""
    return random.Random(12345)


def drain(sim: Simulator, max_events: int = 1_000_000) -> None:
    """Run a simulator until its queue is empty (guarded)."""
    sim.run(max_events=max_events)
