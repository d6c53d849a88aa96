"""Spans around the program's public functions, recorded from outside.

:class:`Tracer` replaces a function or method with a wrapper that times
each call, keeps a stack so every span knows its parent, and folds the
call into per-name totals: inclusive seconds, self seconds (inclusive
minus the direct child spans), calls and lanes (the number of particles a
call worked on).  Totals, not individual spans, are kept, so memory stays
flat on the history schedule's millions of calls.  Transport generations
and event cycles are kept one record each, because attribution and the
cycle profile need them individually.

A wrapper that re-enters its own span name (``FastCoreGeometry.locate``
calling ``locate_many``) is folded into the outer span.  :meth:`uninstall`
puts every original back.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: Stage kernel singletons in ``repro.transport.stages``, by stage name.
STAGES = (
    "xs_lookup", "flight", "crossing", "collision", "survival", "fission",
    "scatter",
)
_STAGE_SINGLETONS = {
    "xs_lookup": "XS_LOOKUP", "flight": "FLIGHT", "crossing": "CROSSING",
    "collision": "COLLISION", "survival": "SURVIVAL", "fission": "FISSION",
    "scatter": "SCATTER",
}
GENERATION = "transport.generation"


def _one(args) -> int:
    return 1


def _len_at(i: int):
    return lambda args: int(np.size(args[i])) if np.ndim(args[i]) else 1


def _rows_at(i: int):
    return lambda args: int(np.shape(args[i])[0])


class Tracer:
    """Per-name span totals plus per-generation and per-cycle records."""

    def __init__(self) -> None:
        #: name -> [inclusive_s, self_s, calls, lanes]
        self.totals = defaultdict(lambda: [0.0, 0.0, 0, 0])
        #: One dict per transport generation: seconds, child_s, cycles.
        self.generations: list[dict] = []
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._cycles: list | None = None
        #: Time in root spans other than generations (source sampling).
        self.outside_s = 0.0

    # -- Installing ----------------------------------------------------------

    def _wrap(self, owner, attr, name, lanes, *, instance=False,
              on_enter=None, generation=False):
        orig = getattr(owner, attr) if instance else owner.__dict__[attr]
        stack = self._stack
        totals = self.totals

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return orig(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            if generation:
                self._cycles = []
            t0 = perf_counter()
            if on_enter is not None:
                on_enter(t0, args)
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                row = totals[name]
                row[0] += dt
                row[1] += dt - frame[1]
                row[2] += 1
                row[3] += lanes(args)
                if stack:
                    stack[-1][1] += dt
                elif not generation:
                    self.outside_s += dt
                if generation:
                    self.generations.append(
                        {"seconds": dt, "child_s": frame[1],
                         "cycles": self._cycles, "end": t1}
                    )
                    self._cycles = None

        self._patches.append((owner, attr, orig, instance))
        setattr(owner, attr, wrapper)

    def _cycle_start(self, t0, args) -> None:
        if self._cycles is not None:
            self._cycles.append((t0, int(np.size(args[2]))))

    def install_transport(self) -> None:
        """Spans over transport, physics, geometry and tallies."""
        from repro.geometry.hoogenboom import FastCoreGeometry
        from repro.physics.macroxs import XSCalculator
        from repro.transport import backends, stages
        from repro.transport.tally import GlobalTallies

        for cls in (backends.HistoryBackend, backends.EventBackend):
            self._wrap(cls, "run_generation", GENERATION, _one,
                       generation=True)
        for stage, singleton in _STAGE_SINGLETONS.items():
            kernel = getattr(stages, singleton)
            name = f"transport.stage.{stage}"
            self._wrap(kernel, "scalar", name, _one, instance=True)
            self._wrap(
                kernel, "banked", name, _rows_at(2), instance=True,
                on_enter=self._cycle_start if stage == "xs_lookup" else None,
            )
        self._wrap(XSCalculator, "scalar", "physics.xs", _one)
        self._wrap(XSCalculator, "banked", "physics.xs", _rows_at(2))
        self._wrap(XSCalculator, "apply_corrections",
                   "physics.xs.corrections", _rows_at(2))
        self._wrap(XSCalculator, "attribution_weights",
                   "physics.attribution", _len_at(2))
        self._wrap(FastCoreGeometry, "locate", "geometry.locate", _one)
        self._wrap(FastCoreGeometry, "locate_many", "geometry.locate",
                   _rows_at(1))
        self._wrap(FastCoreGeometry, "distance", "geometry.distance", _one)
        self._wrap(FastCoreGeometry, "distance_many", "geometry.distance",
                   _rows_at(1))
        for attr in ("score_collision", "score_collision_many",
                     "score_absorption", "score_absorption_many",
                     "score_track", "score_track_many"):
            self._wrap(GlobalTallies, attr, "transport.tally", _one)

    def install_gateway(self) -> None:
        """Spans over the gateway's durable stores."""
        from repro.gateway.journal import WriteAheadJournal
        from repro.gateway.results import ResultCache

        self._wrap(WriteAheadJournal, "append", "gateway.journal.append",
                   _one)
        self._wrap(WriteAheadJournal, "replay", "gateway.journal.replay",
                   _one)
        self._wrap(ResultCache, "get", "gateway.results.get", _one)
        self._wrap(ResultCache, "put", "gateway.results.put", _one)

    def uninstall(self) -> None:
        for owner, attr, orig, instance in reversed(self._patches):
            if instance:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- Reading -------------------------------------------------------------

    def total(self, name: str) -> float:
        return self.totals[name][0] if name in self.totals else 0.0

    def self_s(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def calls(self, name: str) -> int:
        return self.totals[name][2] if name in self.totals else 0

    def lanes(self, name: str) -> int:
        return self.totals[name][3] if name in self.totals else 0

    def dump(self) -> dict:
        """JSON-ready totals (written next to the run for later reading)."""
        return {
            "spans": {
                name: {"inclusive_s": row[0], "self_s": row[1],
                       "calls": row[2], "lanes": row[3]}
                for name, row in sorted(self.totals.items())
            },
            "generations": [
                {"seconds": g["seconds"], "child_s": g["child_s"],
                 "cycles": len(g["cycles"] or ())}
                for g in self.generations
            ],
        }


@contextmanager
def gateway_spans(tracer: Tracer | None):
    """``tracer``'s gateway spans for a ``with`` block (none without one)."""
    if tracer is None:
        yield
        return
    tracer.install_gateway()
    try:
        yield
    finally:
        tracer.uninstall()


def cycle_profile(generations: list[dict], tail_lanes: int = 16) -> dict:
    """Event-cycle shape over traced generations.

    A cycle runs from one XS-lookup stage start to the next (the last one
    to the generation's end).  A tail cycle has fewer than ``tail_lanes``
    live lanes.
    """
    lanes: list[int] = []
    tail_time = 0.0
    gen_time = 0.0
    for gen in generations:
        cycles = gen["cycles"] or []
        gen_time += gen["seconds"]
        starts = [t for t, _ in cycles] + [gen["end"]]
        for i, (_, n) in enumerate(cycles):
            lanes.append(n)
            if n < tail_lanes:
                tail_time += starts[i + 1] - starts[i]
    n_gen = max(len(generations), 1)
    return {
        "cycles": len(lanes) / n_gen,
        "lanes_per_cycle_p50": float(np.median(lanes)) if lanes else 0.0,
        "tail_cycles_frac": (
            sum(1 for n in lanes if n < tail_lanes) / len(lanes)
            if lanes else 0.0
        ),
        "tail_time_frac": tail_time / gen_time if gen_time else 0.0,
    }
