"""gateway-churn: an open loop of cheap jobs through the gateway's own layers.

Two shards run :class:`~repro.gateway.SyntheticService`, which answers
each job at once with a deterministic fabricated payload, so no transport
runs and the gateway's admission, hashing, routing, result store and
journal do nearly all the work.  Set-up fills a disk result cache with
half of the run's physics.  Submissions then go out on a fixed schedule
of ``RATE`` jobs per second, whatever the gateway's state (an open loop of
independent clients); half hit the disk cache and half are new, so they
append to the journal and write a result entry.  A job's sojourn runs
from when it was due to its ``done`` event.  After the drain the gateway
stops and a fresh gateway replays the journal; ``gateway.recover_s`` is
that replay, and every recovered result must equal the one that landed.

This workload is not in ``BENCHMARK.json``: its latency tail follows the
host's disk and CPU too closely for any bound (see ``perfbench/README.md``).
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

from .common import (
    N_SETUPS,
    Outcome,
    fresh_dir,
    median,
    pct,
)
from .sweep import gateway_metrics, recover, tail
from .tracer import Tracer, gateway_spans

#: Offered load [jobs/s]: about half the rate at which this gateway
#: drains the same mix when submissions never wait (measured on a
#: 2-core x86-64 host).
RATE = 400.0
SETTINGS = {
    "n_particles": 24, "n_inactive": 0, "n_active": 2, "mode": "event",
    "pincell": True,
}
N_SHARDS = 2
WORKERS_PER_SHARD = 2
DRAIN_GRACE_S = 60.0


def make_specs(seed: int, n: int):
    """``n`` jobs in submission order and the set of ids that should hit."""
    from repro.serve.jobs import JobSpec

    rng = random.Random(seed)
    kinds = [i % 2 == 0 for i in range(n)]
    rng.shuffle(kinds)
    base = 1_000_000 * (seed % 1000)
    specs, hits = [], set()
    for i, hit in enumerate(kinds):
        physics = base + 2 * i + (0 if hit else 1)
        spec = JobSpec(job_id=f"c{seed}-{i:05d}",
                       settings={**SETTINGS, "seed": physics})
        specs.append(spec)
        if hit:
            hits.add(spec.job_id)
    return specs, hits


def prefill(directory, specs) -> dict:
    """Write each spec's synthetic result to a disk result cache.

    Returns the payload bytes per cache key, which later hits must equal.
    """
    from repro.gateway import SyntheticService
    from repro.gateway.results import ResultCache

    service = SyntheticService(n_workers=64, capacity=len(specs) + 1)
    for spec in specs:
        service.submit(spec)
    results = []
    while service.outstanding():
        results.extend(service.step())
    cache = ResultCache(directory)
    by_id = {spec.job_id: spec for spec in specs}
    payloads = {}
    for result in results:
        spec = by_id[result.job_id]
        cache.put(spec, result)
        payloads[spec.cache_key()] = result.payload_json()
    return payloads


def setup(tag: str, specs, hits):
    from repro.gateway import Gateway, SyntheticService
    from repro.gateway.results import ResultCache

    t0 = perf_counter()
    root = fresh_dir(tag)
    payloads = prefill(root / "results",
                       [s for s in specs if s.job_id in hits])
    gw = Gateway(
        N_SHARDS,
        workers_per_shard=WORKERS_PER_SHARD,
        capacity=len(specs) + 1,
        max_class_share=1.0,
        result_cache=ResultCache(root / "results"),
        journal_path=root / "journal.wal",
        service_factory=SyntheticService,
    )
    gw.start()
    seconds = perf_counter() - t0
    # Freeze what set-up allocated (the specs, the prefill) so a full
    # collection of the harness's own heap never lands in the open loop.
    gc.collect()
    gc.freeze()
    return gw, root, payloads, seconds


def open_loop(gw, specs, rate: float, deadline_s: float) -> dict:
    """Submit on schedule, observe every ``done``; time from due."""
    from repro.errors import QueueFullError

    n = len(specs)
    t0 = perf_counter()
    due = [t0 + i / rate for i in range(n)]
    done_at: dict[str, float] = {}
    late, submit_s = [], []
    refused: set[str] = set()
    poll_s = 0.0
    i = 0
    while i < n or len(done_at) + len(refused) < n:
        now = perf_counter()
        while i < n and due[i] <= now:
            late.append(now - due[i])
            try:
                gw.submit(specs[i])
            except QueueFullError:
                refused.add(specs[i].job_id)
            after = perf_counter()
            submit_s.append(after - now)
            now = after
            i += 1
        wait = min(max(due[i] - now, 0.0), 0.01) if i < n else 0.01
        tp = perf_counter()
        events = gw.poll(timeout=wait)
        now = perf_counter()
        poll_s += now - tp
        for event in events:
            if event["kind"] == "done":
                done_at[event["job_id"]] = now
        if now - t0 > deadline_s:
            raise TimeoutError(f"churn did not drain in {deadline_s}s")
    index = {spec.job_id: k for k, spec in enumerate(specs)}
    return {
        "sojourn": [t - due[index[j]] for j, t in done_at.items()],
        "makespan": max(done_at.values()) - t0,
        "late": late,
        "submit_s": submit_s,
        "poll_s": poll_s,
        "refused": len(refused),
    }


def one_churn(tag, seed, seconds, out: Outcome, tracer=None) -> dict:
    specs, hits = make_specs(seed, max(2, int(RATE * seconds)))
    gw, root, payloads, setup_s = setup(tag, specs, hits)
    try:
        with gateway_spans(tracer):
            run = open_loop(gw, specs, RATE, seconds + DRAIN_GRACE_S)
        summary = gw.metrics_summary()
        counters = dict(gw.counters)
    finally:
        gw.shutdown()
        gc.unfreeze()
    landed = dict(gw.results)
    out.attempted += len(specs)
    failed = run["refused"]
    for spec in specs:
        result = landed.get(spec.job_id)
        if result is None or result.status != "done":
            if result is not None:
                out.fail(f"{spec.job_id}: status {result.status}")
            failed += 1
        elif spec.job_id in hits and (
            result.payload_json() != payloads[spec.cache_key()]
        ):
            out.fail(f"{spec.job_id}: disk hit differs from what was stored")
            failed += 1
    if counters["cache_hits"] != len(hits):
        out.fail(f"{counters['cache_hits']} cache hits, expected {len(hits)}")
    out.failed += failed
    with gateway_spans(tracer):
        run["recover_s"], run["recovered"] = recover(
            root, landed, out, replays=1
        )
    run.update(setup_s=setup_s, results=landed, summary=summary,
               counters=counters,
               journal_bytes=(root / "journal.wal").stat().st_size)
    return run


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    run_ = one_churn("churn", seed, seconds, out)
    setups = [run_["setup_s"]]
    while len(setups) < N_SETUPS:
        specs, hits = make_specs(seed, max(2, int(RATE * seconds)))
        gw, _, _, setup_s = setup(f"churn-setup-{len(setups)}", specs, hits)
        gw.shutdown()
        gc.unfreeze()
        setups.append(setup_s)
    sojourn = run_["sojourn"]
    histories = sum(r.n_particles * r.n_batches
                    for r in run_["results"].values())
    out.e2e.update({
        "setup_s": median(setups),
        "calc_rate_nps": histories / run_["makespan"],
        "makespan_s": run_["makespan"],
        "sojourn_p50_s": median(sojourn),
    })
    out.layer.update(tail(sojourn))
    out.layer["gateway.recover_s"] = run_["recover_s"]
    out.samples.update({
        "setup_s": len(setups), "sojourn_p50_s": len(sojourn),
        "bench.sojourn_p75_s": len(sojourn),
        "bench.sojourn_p99_s": len(sojourn),
    })
    if trace:
        tracer = Tracer()
        traced = one_churn("churn-traced", seed, seconds, out, tracer)
        out.layer.update(gateway_metrics(
            traced, tracer, traced["counters"],
            traced["summary"]["gateway"]["result_cache"],
        ))
        out.layer["bench.generator_late_p99_s"] = pct(traced["late"], 99)
        out.layer["bench.trace_overhead_frac"] = (
            median(traced["sojourn"]) / median(sojourn) - 1.0
        )
        out.trace_dump = tracer.dump()
    return out
