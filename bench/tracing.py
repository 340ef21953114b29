"""Spans and counts at the public boundaries of each zhangpile module.

Hooks wrap the calls into each layer from outside the program: the program's
source is not touched.  A span is (id, name, start, end, parent id, run id);
spans stay in memory and are written out when the run ends.  Counts are
taken at the same boundaries from the values the calls return.

Layers and their boundaries:

- ``core``: the relaxation each chain step and coupling step calls
  (counted, not spanned: there are ~10^5 per solve);
- ``chain``: ``drive`` and ``MarginalStats.add_batch``;
- ``coupling``: ``Coupling.run`` (to the merge) and ``Coupling.run_steps``
  (post-merge check);
- ``lattice``: ``generate``, ``markov_run`` and ``mass_identity_check``;
- ``pool``: ``coupling_sweep`` / ``stabilizability_experiment`` and the
  per-item worker functions they fan out, plus ``Pool`` construction;
- ``runio``: ``RunRecord.write``.

A hook whose target is missing raises, so a refactor that renames a
boundary breaks the traced run loudly instead of reporting zeros.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time
from collections import Counter
from unittest import mock

_SAMPLE_EVERY = 64      # every 64th avalanche's input state feeds the core probe
_PROBE_SECONDS = 0.3


class Tracer:
    """In-memory span recorder plus the counters read off hooked calls."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 0
        self.avalanches: Counter = Counter()
        self.probe_states: list[list] = []
        self._relax_calls = 0
        self.results: dict[str, list] = {}

    def span(self, name: str, fn, keep=None):
        """Wrap ``fn`` so each call records a span; ``keep(args, result)``
        stores what the metrics need under ``name``."""
        spans = self.spans
        stack = self._stack
        store = self.results.setdefault(name, [])

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, self.run_id))
            if keep is not None:
                store.append(keep(args, res))
            return res

        return traced

    def relax_counter(self, fn):
        """Wrap the chain relaxation: count avalanche sizes, sample input states."""
        sizes = self.avalanches
        states = self.probe_states

        def relax(h, start, *rest):
            self._relax_calls += 1
            if self._relax_calls % _SAMPLE_EVERY == 0:
                states.append(list(h))
            n = fn(h, start, *rest)
            if n:
                sizes[n] += 1
            return n

        return relax

    def counts(self) -> tuple:
        """Everything the count metrics derive from; equal on repeated solves."""
        return sorted(self.avalanches.items()), self.results

    # -- reading the spans -------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return math.fsum(self.durations(name))

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total time, and self time (span minus the
        part its child spans cover; serial spans nest, so children add up)."""
        child = Counter()
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for sid, name, start, end, _, _ in self.spans:
            d = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            d["calls"] += 1
            d["total_s"] += end - start
            d["self_s"] += end - start - child[sid]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for sid, name, start, end, parent, run_id in sorted(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "run": run_id}) + "\n")


@contextlib.contextmanager
def hooks(tracer: Tracer):
    """Install every hook for the duration of the block."""
    from zhangpile import chain, cli, coupling, lattice, runio

    with contextlib.ExitStack() as stack:
        def patch(owner, attr, new):    # a missing target raises AttributeError
            stack.enter_context(mock.patch.object(owner, attr, new))

        def span(owner, attr, name, keep=None):
            patch(owner, attr, tracer.span(name, getattr(owner, attr), keep))

        for mod in (chain, coupling):
            patch(mod, "_relax_leftmost", tracer.relax_counter(mod._relax_leftmost))
        span(chain, "drive", "chain.drive", lambda a, r: a[1])
        span(chain.MarginalStats, "add_batch", "chain.add_batch")
        span(coupling.Coupling, "run", "coupling.run")
        span(coupling.Coupling, "run_steps", "coupling.run_steps")
        span(coupling, "coupling_sweep", "pool.sweep")
        span(coupling, "_sweep_one", "pool.item", lambda a, r: r)
        span(cli, "stabilizability_experiment", "pool.sweep")
        span(lattice, "_replica_worker", "pool.item")
        span(lattice, "generate", "lattice.generate")
        span(lattice, "markov_run", "lattice.markov_run",
             lambda a, r: (a[0].n_sites, r[0].events, int(r[2].M.sum()),
                           r[0].t_end, len(r[0].snapshots)))
        span(lattice, "mass_identity_check", "lattice.identity", lambda a, r: r)
        span(runio.RunRecord, "write", "runio.write")
        yield


@contextlib.contextmanager
def pool_counter(counts: dict):
    """Count ``Pool`` constructions and the time they take to start workers."""
    from zhangpile import coupling, lattice

    counts.setdefault("pools", 0)
    counts.setdefault("startup_s", 0.0)

    def wrap(make):
        def pool(*args, **kwargs):
            t0 = time.perf_counter()
            p = make(*args, **kwargs)
            counts["startup_s"] += time.perf_counter() - t0
            counts["pools"] += 1
            return p
        return pool

    with contextlib.ExitStack() as stack:
        for mod in (coupling, lattice):
            stack.enter_context(mock.patch.object(mod, "Pool", wrap(mod.Pool)))
        yield


def probe_topplings_per_s(states: list[list]) -> float:
    """Topplings per second of the public ``stabilize_chain`` on sampled states."""
    from zhangpile.core import stabilize_chain

    if not states:
        return 0.0
    done = 0
    t0 = time.perf_counter()
    while True:
        for h in states:
            done += stabilize_chain(h)[1].total
        elapsed = time.perf_counter() - t0
        if elapsed >= _PROBE_SECONDS:
            return done / elapsed


def _rank(hist: Counter, q: float) -> int:
    """Nearest-rank quantile of a histogram of integers."""
    total = sum(hist.values())
    if total == 0:
        return 0
    target = max(1, math.ceil(q * total))
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if seen >= target:
            break
    return value


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tr: Tracer, workers: int, wall_serial: float, wall_parallel: float,
                  pools: dict, data_bytes: int, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric from one traced serial solve.

    ``wall_serial`` and ``wall_parallel`` are untraced wall times of the same
    solve with one worker and with ``workers`` workers; ``pools`` holds the
    Pool counts of the parallel solve.
    """
    m: dict[str, float] = {}

    # core
    av = tr.avalanches
    m["core.topplings"] = sum(k * v for k, v in av.items())
    m["core.avalanche_p50"] = _rank(av, 0.50)
    m["core.avalanche_p99"] = _rank(av, 0.99)
    m["core.avalanche_max"] = max(av, default=0)
    m["core.topplings_per_s"] = probe_topplings_per_s(tr.probe_states)

    # chain
    drive_s = tr.total("chain.drive")
    m["chain.steps"] = sum(tr.results["chain.drive"])
    m["chain.steps_per_s"] = _ratio(m["chain.steps"], drive_s)
    m["chain.stats_s"] = tr.total("chain.add_batch")
    m["chain.stats_share"] = _ratio(m["chain.stats_s"], drive_s)

    # coupling
    res = [r for r in tr.results["pool.item"] if r is not None]
    merged = sum(1 for r in res if r.merged)
    restarts = sum(r.restarts for r in res)
    indep, contr, merg = (sum(r.phase_times[i] for r in res) for i in range(3))
    run_s = tr.total("coupling.run")
    post_s = tr.total("coupling.run_steps")
    seed_s = tr.durations("pool.item") if res else []
    m["coupling.merged"] = merged
    m["coupling.restarts_per_merge"] = _ratio(restarts, merged)
    m["coupling.steps_independent"] = indep
    m["coupling.steps_contraction"] = contr
    m["coupling.steps_merging"] = merg
    m["coupling.useful_ratio"] = _ratio(contr + merg - restarts, contr + merg)
    m["coupling.run_s"] = run_s
    m["coupling.post_merge_s"] = post_s
    m["coupling.steps_per_s"] = _ratio(sum(r.steps for r in res), run_s + post_s)
    m["coupling.seed_p50_s"] = statistics.median(seed_s) if seed_s else 0.0
    m["coupling.seed_max_s"] = max(seed_s, default=0.0)

    # lattice
    runs = tr.results["lattice.markov_run"]
    lat_s = tr.total("lattice.markov_run")
    rings = sum(r[1] for r in runs)
    topplings = sum(r[2] for r in runs)
    replica_s = tr.durations("pool.item") if runs else []
    m["lattice.rings"] = rings
    m["lattice.topplings"] = topplings
    m["lattice.useful_ring_ratio"] = _ratio(topplings, rings)
    m["lattice.run_s"] = lat_s
    m["lattice.rings_per_s"] = _ratio(rings, lat_s)
    m["lattice.topplings_per_s"] = _ratio(topplings, lat_s)
    m["lattice.site_time_per_s"] = _ratio(sum(r[0] * r[3] for r in runs), lat_s)
    m["lattice.generate_s"] = tr.total("lattice.generate")
    m["lattice.identity_s"] = tr.total("lattice.identity")
    m["lattice.snapshots"] = sum(r[4] for r in runs)
    m["lattice.worst_residual"] = max(tr.results["lattice.identity"], default=0.0)
    m["lattice.replica_p50_s"] = statistics.median(replica_s) if replica_s else 0.0
    m["lattice.replica_max_s"] = max(replica_s, default=0.0)

    # pool
    busy = tr.total("pool.item")
    m["pool.busy_s"] = busy
    # untraced serial time as the single-worker baseline: the traced spans
    # carry the hooks' own cost, which would inflate the ratio
    m["pool.efficiency"] = (_ratio(wall_serial, workers * wall_parallel)
                            if pools.get("pools") else 0.0)
    m["pool.pools_opened"] = pools.get("pools", 0)
    m["pool.startup_s"] = pools.get("startup_s", 0.0)

    # runio
    m["runio.write_s"] = tr.total("runio.write")
    m["runio.bytes"] = data_bytes

    m["trace.overhead_s"] = overhead_s
    return m
