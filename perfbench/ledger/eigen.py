"""eigen-event and eigen-history: one k-eigenvalue run, in process.

Set-up is the scenario layer and the data layer: compile ``hm-full-core``,
build its library, the union grid and a transport context.  The measured
unit is one ``Simulation.run``; it repeats with the next seed of the pool
while the time budget lasts.  A generation is the unit the calculation
delivers, so its wall time is the sojourn of this workload.

Every run's k traces, combined k and work counters must equal the
reference recorded in ``perfbench/reference/<workload>.json`` for that
seed.  eigen-history also reruns its first seed on the event schedule,
outside the measured region, and checks the two agree.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from time import perf_counter

from .common import (
    N_SETUPS,
    REFERENCE_DIR,
    Outcome,
    budget_reps,
    median,
)
from .tracer import GENERATION, STAGES, Tracer, cycle_profile

SCENARIO = "hm-full-core"
#: Simulation seeds a run draws from; references exist for each.
SEED_POOL = (11, 23, 37, 41, 53, 67, 79, 97)
#: The repository's history-versus-event tally tolerance
#: (``tests/transport/test_equivalence.py``).
EQUIVALENCE_REL = 1e-12


@dataclass(frozen=True)
class EigenConfig:
    mode: str
    particles: int
    inactive: int = 0
    active: int = 2


#: Two generations per run keep repetitions short, so a run's median is
#: taken over several of them and rides out the host's speed swings.
CONFIGS = {
    "eigen-event": EigenConfig("event", 5000),
    "eigen-history": EigenConfig("history", 30),
}


def pool_seed(seed: int, rep: int) -> int:
    """The simulation seed of repetition ``rep`` of a run with ``seed``."""
    return SEED_POOL[(seed + rep) % len(SEED_POOL)]


@dataclass
class Setup:
    """What one set-up built: the data every repetition reuses."""

    settings: object
    library: object
    union: object
    times: dict


def setup(cfg: EigenConfig) -> Setup:
    """Compile the scenario, build its library, union grid and a context.

    The context built here is thrown away: each repetition needs its own
    (it carries the seed and the work counters), and builds it with
    :func:`simulation` outside the measured region.
    """
    from repro.data.unionized import UnionizedGrid
    from repro.scenarios.compiler import load_scenario

    t0 = perf_counter()
    scenario = load_scenario(SCENARIO)
    settings = replace(
        scenario.settings,
        mode=cfg.mode,
        n_particles=cfg.particles,
        n_inactive=cfg.inactive,
        n_active=cfg.active,
    )
    t1 = perf_counter()
    library = scenario.build_library()
    t2 = perf_counter()
    union = UnionizedGrid(library) if settings.use_union_grid else None
    t3 = perf_counter()
    built = Setup(settings, library, union, {})
    simulation(built, SEED_POOL[0])
    t4 = perf_counter()
    built.times = {
        "scenarios.compile_s": t1 - t0,
        "data.library_build_s": t2 - t1,
        "data.union_grid_s": t3 - t2,
        "data.context_s": t4 - t3,
        "setup_s": t4 - t0,
    }
    return built


def simulation(built: Setup, sim_seed: int):
    """A fresh context and ``Simulation`` for one seed."""
    from repro.transport.context import TransportContext
    from repro.transport.simulation import Simulation

    settings = replace(built.settings, seed=sim_seed)
    ctx = TransportContext.create(
        built.library,
        pincell=settings.pincell,
        union=built.union,
        use_sab=settings.use_sab,
        use_urr=settings.use_urr,
        use_fast_geometry=settings.use_fast_geometry,
        master_seed=settings.seed,
        survival_biasing=settings.survival_biasing,
        boron_ppm=settings.boron_ppm,
        enrichment_scale=settings.enrichment_scale,
        fuel_overrides=settings.fuel_overrides,
        core_pattern=settings.core_pattern,
    )
    return Simulation(built.library, settings, context=ctx)


@contextmanager
def capture_generations():
    """Record each generation's fission-site count and raw tallies.

    One list append per generation, so it stays on in measured runs.
    """
    from repro.transport import backends

    rows: list[dict] = []
    originals = {}
    for cls in (backends.HistoryBackend, backends.EventBackend):
        orig = cls.__dict__["run_generation"]
        originals[cls] = orig

        def wrapper(self, ctx, positions, energies, tallies, *a,
                    _orig=orig, **k):
            bank = _orig(self, ctx, positions, energies, tallies, *a, **k)
            rows.append({
                "sites": len(bank),
                "collision": tallies.collision,
                "absorption": tallies.absorption,
                "track_length": tallies.track_length,
                "n_collisions": tallies.n_collisions,
                "n_absorptions": tallies.n_absorptions,
                "n_leaks": tallies.n_leaks,
            })
            return bank

        cls.run_generation = wrapper
    try:
        yield rows
    finally:
        for cls, orig in originals.items():
            cls.run_generation = orig


def fingerprint(result) -> dict:
    """The exact physics outputs a reference pins."""
    k = result.k_effective
    stats = result.statistics
    return {
        "k_effective": [k.mean, k.std_err],
        "k_collision": list(stats.k_collision),
        "k_absorption": list(stats.k_absorption),
        "k_track": list(stats.k_track),
        "counters": result.counters.as_dict(),
    }


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text())["runs"]


def run_once(built: Setup, sim_seed: int):
    """Run one seed; returns the result, the generation times and the
    per-generation tallies."""
    sim = simulation(built, sim_seed)
    gen_s: list[float] = []
    with capture_generations() as rows:
        result = sim.run(on_batch=lambda b, s, n: gen_s.append(s))
    return result, gen_s, rows


def cross_check(built, sim_seed, history_rows, history_result, out) -> float:
    """Rerun on the event schedule; returns the largest relative tally gap."""
    event = replace(built, settings=replace(built.settings, mode="event"))
    result, _, rows = run_once(event, sim_seed)
    if result.counters.as_dict() != history_result.counters.as_dict():
        out.fail(f"seed {sim_seed}: history and event work counters differ")
    gap = 0.0
    for b, (h, e) in enumerate(zip(history_rows, rows)):
        for key in ("sites", "n_collisions", "n_absorptions", "n_leaks"):
            if h[key] != e[key]:
                out.fail(f"seed {sim_seed} batch {b}: {key} history "
                         f"{h[key]} != event {e[key]}")
        for key in ("collision", "absorption", "track_length"):
            rel = abs(h[key] - e[key]) / max(abs(h[key]), 1e-300)
            gap = max(gap, rel)
            if not math.isclose(h[key], e[key], rel_tol=EQUIVALENCE_REL):
                out.fail(f"seed {sim_seed} batch {b}: {key} history "
                         f"{h[key]!r} vs event {e[key]!r}")
    if len(rows) != len(history_rows):
        out.fail(f"seed {sim_seed}: generation counts differ")
    return gap


def check(reference: dict, sim_seed: int, result, out: Outcome) -> bool:
    want = reference.get(str(sim_seed))
    got = fingerprint(result)
    if want is None:
        out.fail(f"no reference for seed {sim_seed}")
        return False
    bad = [key for key in want if want[key] != got[key]]
    if bad:
        out.fail(f"seed {sim_seed}: {', '.join(bad)} differ from reference")
        return False
    return True


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    cfg = CONFIGS[workload]
    reference = load_reference(workload)
    out = Outcome()
    setups = [setup(cfg).times for _ in range(N_SETUPS - 1)]
    built = setup(cfg)
    setups.append(built.times)
    rep_s: list[float] = []
    gen_s: list[float] = []
    rates: list[float] = []
    r = 0
    while budget_reps(seconds, rep_s):
        sim_seed = pool_seed(seed, r)
        result, gens, rows = run_once(built, sim_seed)
        rep_s.append(result.wall_time)
        rates.append(result.calculation_rate)
        gen_s.extend(gens)
        out.attempted += 1
        ok = check(reference, sim_seed, result, out)
        if r == 0 and cfg.mode == "history":
            gap = cross_check(built, sim_seed, rows, result, out)
            out.layer["transport.history_event_rel_gap"] = gap
            ok = ok and not out.errors
        out.failed += 0 if ok else 1
        r += 1

    out.e2e.update({
        "setup_s": median([s["setup_s"] for s in setups]),
        "calc_rate_nps": median(rates),
        "makespan_s": median(rep_s),
        "sojourn_p50_s": median(gen_s),
    })
    out.samples.update({
        "setup_s": len(setups), "calc_rate_nps": len(rates),
        "makespan_s": len(rep_s), "sojourn_p50_s": len(gen_s),
    })
    for key in ("scenarios.compile_s", "data.library_build_s",
                "data.union_grid_s", "data.context_s"):
        out.layer[key] = median([s[key] for s in setups])
    if trace:
        traced_run(built, seed, reference, median(rep_s), out)
    return out


def traced_run(built, seed, reference, untraced_s, out: Outcome) -> None:
    """Rerun the first seed under spans; fill the per-layer metrics.

    ``untraced_s`` is the median untraced repetition, which rides out the
    host's swings better than the one repetition of the same seed.
    """
    sim_seed = pool_seed(seed, 0)
    sim = simulation(built, sim_seed)
    with Tracer() as tracer:
        tracer.install_transport()
        result = sim.run()
    out.attempted += 1
    if not check(reference, sim_seed, result, out):
        out.failed += 1
    layer = out.layer
    layer["bench.trace_overhead_frac"] = result.wall_time / untraced_s - 1.0
    gens = tracer.generations
    gen_total = sum(g["seconds"] for g in gens)
    layer["transport.generation_s"] = median([g["seconds"] for g in gens])
    unattributed = sum(g["seconds"] - g["child_s"] for g in gens)
    layer["transport.unattributed_frac"] = unattributed / gen_total
    # Closure: every span's self time inside the generations, plus the
    # generations' own self time, must add back up to the generations.
    inside = sum(
        row[1] for name, row in tracer.totals.items() if name != GENERATION
    ) - tracer.outside_s
    closure = abs(inside + unattributed - gen_total) / gen_total
    if closure > 1e-6:
        out.fail(f"attribution does not close: residual {closure:.2e}")
        out.failed += 1
    for stage in STAGES:
        name = f"transport.stage.{stage}"
        calls = tracer.calls(name)
        layer[f"{name}.self_s"] = tracer.self_s(name)
        layer[f"{name}.calls"] = calls
        layer[f"{name}.lanes"] = tracer.lanes(name) / calls if calls else 0.0
    layer["transport.tally.s"] = tracer.total("transport.tally")
    layer["transport.tally.calls"] = tracer.calls("transport.tally")
    for key, value in cycle_profile(gens).items():
        layer[f"transport.event.{key}"] = value
    lookups = result.counters.lookups
    layer["physics.xs.self_s"] = tracer.self_s("physics.xs")
    layer["physics.xs.calls"] = tracer.calls("physics.xs")
    layer["physics.xs.corrections_s"] = tracer.total("physics.xs.corrections")
    layer["physics.xs.ns_per_lookup"] = (
        1e9 * tracer.total("physics.xs") / lookups if lookups else 0.0
    )
    layer["physics.attribution.s"] = tracer.total("physics.attribution")
    for op in ("locate", "distance"):
        name = f"geometry.{op}"
        calls = tracer.calls(name)
        layer[f"{name}.s"] = tracer.total(name)
        layer[f"{name}.calls"] = calls
        layer[f"{name}.mean_len"] = tracer.lanes(name) / calls if calls else 0.0
    counters = result.counters.as_dict()
    for key in ("lookups", "nuclide_iterations", "collisions", "rn_draws",
                "sab_samples", "urr_samples", "bytes_read"):
        layer[f"work.{key}"] = counters[key]
    out.trace_dump = tracer.dump()


def record(workload: str) -> dict:
    """Run every pool seed once and return the reference document."""
    cfg = CONFIGS[workload]
    built = setup(cfg)
    runs = {}
    for sim_seed in SEED_POOL:
        result, _, _ = run_once(built, sim_seed)
        runs[str(sim_seed)] = fingerprint(result)
    return {
        "scenario": SCENARIO,
        "config": cfg.__dict__,
        "runs": runs,
    }
