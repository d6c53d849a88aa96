"""sweep-cold: a seeded job mix through a real two-shard gateway, cold.

Each run builds a fresh gateway (two shards of one worker process each),
with an empty library cache, an empty disk result cache and a new journal,
and submits all of its jobs at once.  The jobs come from a fixed catalog
of physics identities, so every payload has a recorded digest:

* two scenarios (``hm-full-core``, ``c5g7-mox``) at two library
  temperatures, which route to different shards, so each shard builds one
  library and reuses it;
* mostly short event jobs, and a few small history jobs that share the
  first temperature's library, so they block event jobs queued behind
  them on that shard;
* a fifth of the jobs repeat an event job's physics under a new id, so the
  gateway coalesces them and answers them from its result cache.

Every run transports the same physics; ``--seed`` picks the order of
submission and which event jobs are repeated, within a fixed shape (see
:func:`job_mix`), so the work per shard and the head-of-line blocking are
the same from seed to seed.

A job's sojourn runs from the moment the whole mix is submitted to its
``done`` event.  After the drain the gateway stops, and fresh gateways
replay the journal; ``gateway.recover_s`` is the median replay.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from collections import deque
from dataclasses import replace
from time import perf_counter, sleep

from .common import (
    REFERENCE_DIR,
    Outcome,
    budget_reps,
    fresh_dir,
    median,
    pct,
)
from .tracer import Tracer, gateway_spans

SCENARIOS = ("hm-full-core", "c5g7-mox")
#: Library temperatures [K]; their fingerprints land on shards 0 and 1.
TEMPERATURES = (293.6, 600.0)
SIZES = {
    "event": {"n_particles": 500, "n_inactive": 0, "n_active": 2},
    "history": {"n_particles": 16, "n_inactive": 0, "n_active": 2},
}
#: Physics seeds per (scenario, temperature) for event jobs, and for
#: history jobs (``hm-full-core`` at the first temperature only).
EVENT_SEEDS = tuple(range(1, 8))
HISTORY_SEEDS = tuple(range(101, 105))
#: Repeated-physics jobs per run.
N_REPEATS = 8
DRAIN_DEADLINE_S = 150.0
READY_DEADLINE_S = 30.0
#: Gateway start-up and journal replay take milliseconds, so a run takes
#: the median of several.
N_SWEEP_SETUPS = 15
N_REPLAYS = 5


def catalog() -> list[tuple]:
    """Every physics identity a run transports: (scenario, T, mode, seed)."""
    ids = [
        (scenario, temp, "event", seed)
        for scenario in SCENARIOS
        for temp in TEMPERATURES
        for seed in EVENT_SEEDS
    ]
    ids += [(SCENARIOS[0], TEMPERATURES[0], "history", seed)
            for seed in HISTORY_SEEDS]
    return ids


def key_of(identity: tuple) -> str:
    return "|".join(str(part) for part in identity)


def make_spec(compiled: dict, identity: tuple, job_id: str):
    scenario, temp, mode, seed = identity
    base = compiled[scenario].job_spec(job_id=job_id, suite_id="perfbench")
    settings = {**base.settings, "mode": mode, "seed": seed, **SIZES[mode]}
    return replace(base, library_temperature=temp, settings=settings)


def job_mix(seed: int) -> list[tuple]:
    """The run's identities in submission order; repeats included.

    Four blocks, each one history job, then event jobs alternating
    between the two temperatures (so between the shards), then repeats of
    the block's last two event jobs.  The seed shuffles the jobs within
    each kind, so every seed keeps the same shape: the same work on each
    shard, the history jobs at the same places in the queue, and repeats
    that land right behind their leaders.
    """
    rng = random.Random(seed)
    identities = catalog()
    history = [i for i in identities if i[2] == "history"]
    by_temp = [[i for i in identities if i[2] == "event" and i[1] == temp]
               for temp in TEMPERATURES]
    for group in (history, *by_temp):
        rng.shuffle(group)
    events = [job for pair in zip(*by_temp) for job in pair]
    per_block = len(events) // len(history)
    repeats_per_block = N_REPEATS // len(history)
    mix = []
    for b, job in enumerate(history):
        block = events[b * per_block:(b + 1) * per_block]
        mix += [job, *block, *block[-repeats_per_block:]]
    return mix


def compile_scenarios() -> dict:
    from repro.scenarios.compiler import load_scenario

    return {name: load_scenario(name) for name in SCENARIOS}


def setup(tag: str):
    """A fresh gateway with empty caches and journal, workers ready."""
    from repro.gateway import Gateway
    from repro.gateway.results import ResultCache

    t0 = perf_counter()
    root = fresh_dir(tag)
    gw = Gateway(
        2,
        workers_per_shard=1,
        cache_dir=str(root / "libraries"),
        result_cache=ResultCache(root / "results"),
        journal_path=root / "journal.wal",
    )
    gw.start()
    pools = [shard.service.pool for shard in gw.shards.values()]
    while not all(h["state"] == "idle"
                  for pool in pools for h in pool.health().values()):
        if perf_counter() - t0 > READY_DEADLINE_S:
            gw.shutdown(graceful=False)
            raise TimeoutError(f"workers not ready in {READY_DEADLINE_S}s")
        sleep(0.001)
    return gw, root, perf_counter() - t0


def drive(gw, specs: list) -> dict:
    """Submit everything at t0 (retrying on backpressure); drain."""
    from repro.errors import QueueFullError

    pending = deque(specs)
    done_at: dict[str, float] = {}
    shard: dict[str, int] = {}
    submit_s: list[float] = []
    poll_s = 0.0
    refused = 0
    t0 = perf_counter()
    while pending or len(done_at) < len(specs):
        while pending:
            ts = perf_counter()
            try:
                gw.submit(pending[0])
            except QueueFullError:
                refused += 1
                break
            submit_s.append(perf_counter() - ts)
            pending.popleft()
        tp = perf_counter()
        events = gw.poll(timeout=0.05)
        poll_s += perf_counter() - tp
        now = perf_counter()
        for event in events:
            if event["kind"] == "done":
                done_at[event["job_id"]] = now
                shard[event["job_id"]] = event["shard"]
        if now - t0 > DRAIN_DEADLINE_S:
            raise TimeoutError(f"sweep did not drain in {DRAIN_DEADLINE_S}s")
    return {
        "sojourn": {j: t - t0 for j, t in done_at.items()},
        "makespan": max(done_at.values()) - t0,
        "shard": shard,
        "submit_s": submit_s,
        "poll_s": poll_s,
        "refused": refused,
    }


def recover(root, landed: dict, out: Outcome, replays: int = N_REPLAYS):
    """Replay the journal in fresh gateways; check every landed result.

    Returns the median replay time and the first replay's summary.
    """
    from repro.gateway import Gateway
    from repro.gateway.results import ResultCache

    times, summaries = [], []
    for i in range(replays):
        # recover() appends a record, so each replay gets its own copy.
        journal = root / f"replay-{i}.wal"
        shutil.copyfile(root / "journal.wal", journal)
        gw = Gateway(2, workers_per_shard=1, result_cache=ResultCache(),
                     journal_path=journal)
        try:
            t0 = perf_counter()
            summaries.append(gw.recover())
            times.append(perf_counter() - t0)
            bad = [j for j, r in landed.items()
                   if j not in gw.results
                   or gw.results[j].to_json() != r.to_json()]
            if bad and i == 0:
                out.fail(f"{len(bad)} recovered results differ from what "
                         f"landed, e.g. {bad[0]}")
                out.failed += len(bad)
        finally:
            gw.shutdown()
    return median(times), summaries[0]


def check(specs, identities, results, digests, out: Outcome) -> int:
    """Digest every payload; repeats must equal their leader byte for byte."""
    failed = 0
    first: dict[str, str] = {}
    for spec, identity in zip(specs, identities):
        result = results.get(spec.job_id)
        if result is None or result.status != "done":
            out.fail(f"{spec.job_id}: no done result")
            failed += 1
            continue
        payload = result.payload_json()
        want = digests.get(key_of(identity))
        if hashlib.sha256(payload.encode()).hexdigest() != want:
            out.fail(f"{spec.job_id} ({key_of(identity)}): payload digest "
                     "differs from reference")
            failed += 1
            continue
        if first.setdefault(key_of(identity), payload) != payload:
            out.fail(f"{spec.job_id}: repeat differs from its leader")
            failed += 1
    return failed


def one_sweep(tag, compiled, seed, digests, out: Outcome, tracer=None):
    gw, root, setup_s = setup(tag)
    identities = job_mix(seed)
    specs = [make_spec(compiled, ident, f"s{seed}-{i:02d}")
             for i, ident in enumerate(identities)]
    try:
        with gateway_spans(tracer):
            run = drive(gw, specs)
        summary = gw.metrics_summary()
    finally:
        gw.shutdown()
    out.attempted += len(specs) + run["refused"]
    out.failed += run["refused"]
    out.failed += check(specs, identities, gw.results, digests, out)
    landed = dict(gw.results)
    run.update(setup_s=setup_s, results=landed, summary=summary,
               counters=dict(gw.counters),
               journal_bytes=(root / "journal.wal").stat().st_size)
    with gateway_spans(tracer):
        run["recover_s"], run["recovered"] = recover(root, landed, out)
    return run


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    digests = json.loads(
        (REFERENCE_DIR / "sweep-cold.json").read_text()
    )["digests"]
    compiled = compile_scenarios()
    out = Outcome()
    runs: list[dict] = []
    while budget_reps(seconds, [r["makespan"] for r in runs]):
        runs.append(one_sweep(f"sweep-{len(runs)}", compiled,
                              seed + len(runs), digests, out))
    setups = [r["setup_s"] for r in runs]
    while len(setups) < N_SWEEP_SETUPS:
        gw, _, setup_s = setup(f"sweep-setup-{len(setups)}")
        # Never given work; a graceful stop of a pool this fresh sometimes
        # waits out its 10 s join timeout.
        gw.shutdown(graceful=False)
        setups.append(setup_s)

    sojourn = [s for r in runs for s in r["sojourn"].values()]
    histories = sum(
        res.n_particles * res.n_batches
        for r in runs for res in r["results"].values()
        if res.library_source != "result-cache"
    )
    makespans = [r["makespan"] for r in runs]
    out.e2e.update({
        "setup_s": median(setups),
        "calc_rate_nps": histories / sum(makespans),
        "makespan_s": median(makespans),
        "sojourn_p50_s": median(sojourn),
    })
    out.samples.update({
        "setup_s": len(setups), "makespan_s": len(makespans),
        "sojourn_p50_s": len(sojourn), "bench.sojourn_p75_s": len(sojourn),
    })
    out.layer.update(tail(sojourn))
    out.layer["gateway.recover_s"] = median([r["recover_s"] for r in runs])
    if trace:
        tracer = Tracer()
        traced = one_sweep("sweep-traced", compiled, seed, digests, out,
                           tracer)
        out.layer.update(layer_metrics(traced, tracer))
        out.layer["bench.trace_overhead_frac"] = (
            traced["makespan"] / runs[0]["makespan"] - 1.0
        )
        out.trace_dump = tracer.dump()
    return out


def tail(sojourn: list[float]) -> dict:
    """Sojourn percentiles that have at least ten samples beyond them."""
    out = {}
    if len(sojourn) >= 40:
        out["bench.sojourn_p75_s"] = pct(sojourn, 75)
    if len(sojourn) >= 1000:
        out["bench.sojourn_p99_s"] = pct(sojourn, 99)
    return out


def layer_metrics(run: dict, tracer: Tracer) -> dict:
    """Serve and gateway layers of one sweep, from job accounting."""
    results = run["results"]
    executed = {j: r for j, r in results.items()
                if r.library_source != "result-cache"}
    by_mode = {"event": [], "history": []}
    for result in executed.values():
        by_mode[result.mode].append(result)
    waits = {m: [r.wait_seconds for r in rs] for m, rs in by_mode.items()}
    service = {m: sum(r.service_seconds for r in rs)
               for m, rs in by_mode.items()}
    residual = [
        run["sojourn"][j] - r.wait_seconds - r.service_seconds
        for j, r in executed.items()
    ]
    shard_jobs: dict[int, int] = {}
    for j in executed:
        shard_jobs[run["shard"][j]] = shard_jobs.get(run["shard"][j], 0) + 1
    # Head-of-line blocking: event jobs that shared a shard with history
    # jobs, against event jobs on shards that ran none.
    hol_shards = {run["shard"][r.job_id] for r in by_mode["history"]}
    hol_wait = [r.wait_seconds for r in by_mode["event"]
                if run["shard"][r.job_id] in hol_shards]
    free_wait = [r.wait_seconds for r in by_mode["event"]
                 if run["shard"][r.job_id] not in hol_shards]
    sources = [r.library_source for r in executed.values()]
    total_service = sum(service.values())
    counters = run["counters"]
    agg = run["summary"]["aggregate"]
    cache_stats = run["summary"]["gateway"]["result_cache"]
    layer = {
        "serve.wait_s.event.p50": median(waits["event"]),
        "serve.wait_s.history.p50": median(waits["history"]),
        "serve.wait_s.max": max(w for ws in waits.values() for w in ws),
        "serve.hol.event_wait_p50_s": median(hol_wait) if hol_wait else 0.0,
        "serve.hol.free_event_wait_p50_s": (
            median(free_wait) if free_wait else 0.0
        ),
        "serve.hol.history_service_s": service["history"],
        "gateway.residual_s.p50": median(residual),
        "gateway.unattributed_frac": (
            sum(residual) / sum(run["sojourn"][j] for j in executed)
        ),
        "serve.service_s.event.sum": service["event"],
        "serve.service_s.history.sum": service["history"],
        "serve.history_service_share": service["history"] / total_service,
        "serve.build_s.sum": sum(r.build_seconds for r in executed.values()),
        "serve.library.built": sources.count("built"),
        "serve.library.disk_cache": sources.count("disk-cache"),
        "serve.library.memory": sources.count("memory"),
        "serve.worker_busy_frac": total_service / (2 * run["makespan"]),
        "serve.dispatch_overhead_frac": agg["dispatch_overhead_fraction"],
        "gateway.route.max_shard_share": (
            max(shard_jobs.values()) / len(executed)
        ),
    }
    layer.update(gateway_metrics(run, tracer, counters, cache_stats))
    return layer


def gateway_metrics(run, tracer, counters, cache_stats) -> dict:
    """Front-door, journal, result-store and recovery numbers."""
    return {
        "gateway.cache_hits": counters["cache_hits"],
        "gateway.coalesced": counters["coalesced"],
        "gateway.hit_ratio": counters["cache_hits"] / counters["submitted"],
        "gateway.submit_s.p50": median(run["submit_s"]),
        "gateway.submit_s.p99": pct(run["submit_s"], 99),
        "gateway.poll_s.sum": run["poll_s"],
        "gateway.journal.append_s": tracer.total("gateway.journal.append"),
        "gateway.journal.records": run["summary"]["gateway"]["journal"][
            "appended"
        ],
        "gateway.journal.bytes": run["journal_bytes"],
        "gateway.results.get_s": tracer.total("gateway.results.get"),
        "gateway.results.put_s": tracer.total("gateway.results.put"),
        "gateway.results.corrupt_entries": cache_stats["corrupt_entries"],
        "gateway.recover.replay_s": (
            tracer.total("gateway.journal.replay")
            / max(tracer.calls("gateway.journal.replay"), 1)
        ),
        "gateway.recover.records": run["recovered"]["replayed"],
    }


def record() -> dict:
    """Run every catalog identity in process; digest its payload."""
    from repro.data.library import build_library
    from repro.serve.jobs import JobResult
    from repro.transport.simulation import Simulation

    compiled = compile_scenarios()
    libraries: dict[str, object] = {}
    digests = {}
    for identity in catalog():
        spec = make_spec(compiled, identity, "reference")
        fp = spec.library_fingerprint()
        if fp not in libraries:
            libraries[fp] = build_library(spec.model, spec.library_config())
        result = Simulation(libraries[fp], spec.to_settings()).run()
        payload = JobResult.from_simulation(spec, result).payload_json()
        digests[key_of(identity)] = hashlib.sha256(
            payload.encode()
        ).hexdigest()
    return {"sizes": SIZES, "digests": digests}
