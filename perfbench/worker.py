"""One measurement process of the benchmark; ``run.py`` spawns it.

Usage: ``python perfbench/worker.py '<job json>'`` with ``src/`` on
``PYTHONPATH``.  Every timed run gets a fresh interpreter, so no run
inherits another's heap, caches or allocator state.  The job kinds:

``prime``   import everything once (fills bytecode caches), report the
            workload names and slices per seed;
``timed``   set up, warm up, then time one slice with tracing off;
``mem``     the same slice under ``tracemalloc``, for its peak;
``traced``  the same slice with the layer tracer installed, between two
            untraced runs of it;
``scale``   one point of the report-only scaling curves.

The result is one JSON object on the last line of standard output.
"""

import gc
import hashlib
import json
import os
import sys
import time

SETUP_START = time.perf_counter()


def _check_program(src: str) -> None:
    """Refuse to measure a ``repro`` from anywhere but ``src``."""
    import repro

    where = os.path.realpath(repro.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"repro imported from {where}, not from {src}")


def _report(inputs, result, **fields) -> dict:
    outcome = inputs.outcome(result)
    sim = outcome["sim"]
    fields.update(outcome)
    fields["signature"] = hashlib.sha256(
        json.dumps(sim, sort_keys=True).encode()
    ).hexdigest()
    return fields


def _time_run(inputs) -> tuple:
    """The program call, timed: ``(result, wall seconds)``."""
    start = time.perf_counter()
    result = inputs.run()
    return result, time.perf_counter() - start


def _peak_run(inputs) -> tuple:
    """The program call under ``tracemalloc``: ``(result, peak bytes)``."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = inputs.run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _warm_up(shapes, workload: str, seed: int) -> dict:
    """Run the small warm-up input; its check counts like any other."""
    warm = shapes.build(workload, seed, -1)
    outcome = warm.outcome(warm.run())
    gc.collect()
    return {"submitted": outcome["submitted"], "failed": outcome["failed"]}


def _untraced(shapes, job: dict) -> tuple:
    """One more timed run of the slice: ``(wall seconds, its check)``.

    The check carries the run's signature, which must match the slice's.
    """
    inputs = shapes.build(job["workload"], job["seed"], job["slice"])
    result, wall = _time_run(inputs)
    check = _report(inputs, result)
    del check["sim"], check["extra"]
    gc.collect()
    return wall, check


def timed(job: dict) -> dict:
    import shapes

    _check_program(job["src"])
    inputs = shapes.build(job["workload"], job["seed"], job["slice"])
    setup = time.perf_counter() - SETUP_START
    warm = _warm_up(shapes, job["workload"], job["seed"])
    result, wall = _time_run(inputs)
    return _report(inputs, result, setup_s=setup, wall_s=wall, checks=[warm])


def mem(job: dict) -> dict:
    import shapes

    _check_program(job["src"])
    inputs = shapes.build(job["workload"], job["seed"], job["slice"])
    # warm up first: lazy imports inside the run stay out of the peak
    warm = _warm_up(shapes, job["workload"], job["seed"])
    result, peak = _peak_run(inputs)
    return _report(inputs, result, peak_bytes=peak, checks=[warm])


def traced(job: dict) -> dict:
    import ledger
    import shapes

    _check_program(job["src"])
    # untraced runs just before and after the traced one: their mean is
    # the baseline the traced run's corrected wall time is checked against
    checks = [_warm_up(shapes, job["workload"], job["seed"])]
    before, check = _untraced(shapes, job)
    checks.append(check)
    tracer = ledger.Tracer()
    tracer.install()  # before any traced program object exists
    inputs = shapes.build(job["workload"], job["seed"], job["slice"])
    checks.append(_warm_up(shapes, job["workload"], job["seed"]))
    tracer.calibrate()
    tracer.reset()
    result, wall = _time_run(inputs)
    tracer.uninstall()
    after, check = _untraced(shapes, job)
    checks.append(check)
    tracer.calibrate()
    folded = tracer.ledger(wall)
    os.makedirs(os.path.dirname(job["spans_path"]), exist_ok=True)
    tracer.dump(job["spans_path"])
    return _report(inputs, result, wall_s=wall, untraced_s=[before, after],
                   checks=checks, ledger=folded, events=tracer.events)


def scale(job: dict) -> dict:
    import shapes

    _check_program(job["src"])

    def point():
        return shapes.build_scaling(
            job["shape"], job["size"], job["engine"], job["seed"]
        )

    inputs = point()
    warm = point()  # an identical run warms every path the point takes
    warm.outcome(warm.run())
    del warm
    gc.collect()
    if job["measure"] == "mem":
        result, peak = _peak_run(inputs)
        return _report(inputs, result, peak_bytes=peak)
    result, wall = _time_run(inputs)
    return _report(inputs, result, wall_s=wall)


def main() -> None:
    job = json.loads(sys.argv[1])
    kind = job["kind"]
    if kind == "prime":
        import ledger  # noqa: F401
        import shapes

        _check_program(job["src"])
        out = {"workloads": shapes.WORKLOADS, "slices": shapes.SLICES}
    else:
        out = {"timed": timed, "mem": mem, "traced": traced,
               "scale": scale}[kind](job)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
