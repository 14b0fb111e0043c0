"""The three workloads: set-up, measured phase, checks, metrics.

Every workload runs the program in child processes (``launcher.py``)
and measures from outside them:

* ``setup_s`` is the wall time from starting the workload's program
  processes until they are ready for the first operation, taken as
  the median over :data:`COLD_STARTS` full cold starts per run.  A
  single start is not steady enough (a cold CLI import alone swings by
  a third between spawns).
* the measured phase repeats a fixed unit of work (an ``engine_cover``
  round, a 600-cell drain, a block of requests) until ``--seconds``
  have passed, so every run covers whole units, never a cut one.
* ``peak_rss_mb`` is the largest ``ru_maxrss`` among the workload's
  program processes, read by the harness when it reaps them.
* each program process is pinned to one CPU (the two drain workers to
  different ones), which keeps the scheduler from migrating them;
  unpinned, the 600-cell drain rate spread twice as wide across runs.

A traced run (``--trace 1``) first repeats the untraced measured phase
with fresh processes, then the same phase with the timing wrappers
installed; it compares the two outputs and reports per-layer metrics
from the traced phase plus the tracing overhead between the two.
"""

from __future__ import annotations

import http.client
import pickle
import re
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.store import Campaign, ResultStore

from perfbench import checks, inputs
from perfbench.common import (
    Metric,
    Outcome,
    Proc,
    median,
    percentile,
    stop_all,
    tail_percentile,
)
from perfbench.tracing import ENGINES, Layers, load

#: cold starts per run whose median is ``setup_s``
COLD_STARTS = 3

#: ``serve_mixed`` sends at least this many requests per measured phase,
#: so at least ten lie beyond p99
MIN_REQUESTS = 1010

#: requests per traced ``serve_mixed`` phase: per-layer numbers are means
#: and need no tail, and a traced run measures two phases
TRACED_REQUESTS = 400

#: requests each client sends per block of the closed loop
REQUEST_BLOCK = 10


@dataclass
class Phase:
    """What one measured phase did and how long it took."""

    wall_s: float = 0.0
    ops: int = 0
    latencies_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    import_s: list[float] = field(default_factory=list)
    counters: dict[str, dict] = field(default_factory=dict)
    stores: list[Path] = field(default_factory=list)
    rounds: int = 0
    rtt_by_kind: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    statuses: dict[int, int] = field(default_factory=lambda: defaultdict(int))


def _pickle(path: Path, obj: Any) -> Path:
    with open(path, "wb") as fh:
        pickle.dump(obj, fh)
    return path


def _cold_starts(start: Callable[[], list[Proc]], count: int,
                 phase: Phase) -> tuple[list[float], list[Proc]]:
    """Start the workload's processes *count* times; keep the last set.

    Returns every set-up time and the processes of the last start.
    """
    times: list[float] = []
    procs: list[Proc] = []
    for i in range(count):
        t0 = time.perf_counter()
        procs = start()
        try:
            for proc in procs:
                ready = proc.read_json()
                phase.import_s.append(ready["import_s"])
        except BaseException:
            stop_all(procs)
            raise
        times.append(time.perf_counter() - t0)
        if i < count - 1:
            for proc in procs:
                proc.stop()
    return times, procs


def _finish(procs: list[Proc], phase: Phase, *, terminate: bool = False) -> None:
    for proc in procs:
        code = proc.stop(terminate=terminate)
        if code != 0:
            raise RuntimeError(f"program process exited with code {code}")
        phase.peak_rss_mb = max(phase.peak_rss_mb, proc.peak_rss_mb or 0.0)


# ----------------------------------------------------------------------
# engine_cover
# ----------------------------------------------------------------------

def _engine_phase(seed: int, seconds: float, work: Path, *, trace: bool,
                  starts: int) -> tuple[Phase, list[float]]:
    tag = "traced" if trace else "plain"
    phase = Phase()
    first = _pickle(work / "engine_specs_0.pkl", inputs.engine_specs(seed, 0))
    spans = work / f"engine_{tag}.spans"

    def start() -> list[Proc]:
        return [Proc("campaign", "--specs", str(first), trace=trace, spans=spans, cpu=0)]

    setup, (proc,) = _cold_starts(start, starts, phase)
    store = work / f"engine_{tag}_store"
    phase.stores.append(store)
    try:
        round_no = 0
        while round_no == 0 or phase.wall_s < seconds:
            specs = first if round_no == 0 else _pickle(
                work / f"engine_specs_{round_no}.pkl", inputs.engine_specs(seed, round_no))
            t0 = time.perf_counter()
            proc.send({"op": "run", "store": str(store), "specs": str(specs)})
            done = proc.read_json(timeout=170.0)
            phase.latencies_s.append(time.perf_counter() - t0)
            phase.wall_s += phase.latencies_s[-1]
            phase.ops += done["ran"]
            phase.counters.update(done["counters"])
            round_no += 1
        _finish([proc], phase)
    except BaseException:
        stop_all([proc])
        raise
    phase.rounds = round_no
    return phase, setup


def _engine_check(seed: int, phase: Phase, outcome: Outcome,
                  reference: dict[str, list[float]] | None) -> dict[str, list[float]]:
    store = ResultStore(phase.stores[0])
    values: dict[str, list[float]] = {}
    for round_no in range(phase.rounds):
        for spec in inputs.engine_specs(seed, round_no):
            for key in spec.expand():
                record = store.get(key)
                ref = reference.get(key.hash) if reference is not None else None
                outcome.record(checks.cell_failure(
                    record, budgeted=key.max_steps is not None, reference=ref))
                if record is not None:
                    values[key.hash] = record["result"]["values"]
    outcome.record(checks.fsck_failure(store))
    return values


def engine_cover(seed: int, seconds: float, trace: bool, work: Path):
    """``Campaign.run`` of large implicit-graph cells in one process."""
    outcome = Outcome()
    if not trace:
        phase, setup = _engine_phase(seed, seconds, work, trace=False, starts=COLD_STARTS)
        _engine_check(seed, phase, outcome, None)
        return outcome, _end_to_end(phase, setup, "cells", "round")
    plain, _ = _engine_phase(seed, seconds, work, trace=False, starts=1)
    reference = _engine_check(seed, plain, outcome, None)
    traced, _ = _engine_phase(seed, seconds, work, trace=True, starts=1)
    _engine_check(seed, traced, outcome, reference)
    return outcome, _per_layer("engine_cover", plain, traced, [work / "engine_traced.spans"])


# ----------------------------------------------------------------------
# drain_many
# ----------------------------------------------------------------------

def _drain_phase(seed: int, seconds: float, work: Path, *, trace: bool,
                 starts: int) -> tuple[Phase, list[float]]:
    tag = "traced" if trace else "plain"
    phase = Phase()
    specs = _pickle(work / "drain_specs.pkl", inputs.drain_specs(seed))
    spans = [work / f"drain_{tag}_w{i}.spans" for i in range(2)]

    def start() -> list[Proc]:
        return [Proc("worker", "--specs", str(specs), trace=trace, spans=s, cpu=i)
                for i, s in enumerate(spans)]

    setup, procs = _cold_starts(start, starts, phase)
    try:
        round_no = 0
        while round_no == 0 or phase.wall_s < seconds:
            store = work / f"drain_{tag}_store_{round_no}"
            phase.stores.append(store)
            t0 = time.perf_counter()
            for i, proc in enumerate(procs):
                proc.send({"op": "drain", "store": str(store), "owner": f"w{i}"})
            dones = [proc.read_json(timeout=170.0) for proc in procs]
            phase.latencies_s.append(time.perf_counter() - t0)
            phase.wall_s += phase.latencies_s[-1]
            phase.ops += len(ResultStore(store).hashes())
            for done in dones:
                phase.counters.update(done["counters"])
            round_no += 1
        _finish(procs, phase)
    except BaseException:
        stop_all(procs)
        raise
    return phase, setup


def _drain_check(seed: int, phase: Phase, outcome: Outcome,
                 reference: dict[str, list[float]]) -> None:
    keys = [key for spec in inputs.drain_specs(seed) for key in spec.expand()]
    for path in phase.stores:
        store = ResultStore(path)
        for key in keys:
            outcome.record(checks.cell_failure(
                store.get(key), budgeted=False, reference=reference[key.hash]))
        outcome.record(checks.fsck_failure(store))


def _drain_reference(seed: int) -> dict[str, list[float]]:
    """Values of an in-process ``Campaign.run`` of the same cells."""
    store = ResultStore()
    for spec in inputs.drain_specs(seed):
        Campaign(spec, store).run()
    return {h: store.get(h)["result"]["values"] for h in store.hashes()}


def drain_many(seed: int, seconds: float, trace: bool, work: Path):
    """Two ``dispatch.drain`` worker processes over one store."""
    outcome = Outcome()
    if not trace:
        phase, setup = _drain_phase(seed, seconds, work, trace=False, starts=COLD_STARTS)
        _drain_check(seed, phase, outcome, _drain_reference(seed))
        return outcome, _end_to_end(phase, setup, "cells", "round")
    reference = _drain_reference(seed)
    plain, _ = _drain_phase(seed, seconds, work, trace=False, starts=1)
    _drain_check(seed, plain, outcome, reference)
    traced, _ = _drain_phase(seed, seconds, work, trace=True, starts=1)
    _drain_check(seed, traced, outcome, reference)
    return outcome, _per_layer(
        "drain_many", plain, traced, [work / f"drain_traced_w{i}.spans" for i in range(2)])


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------

_SERVING = re.compile(r"serving .* at http://([^:]+):(\d+)")


class _Client:
    """One keep-alive connection driving a closed loop of requests."""

    def __init__(self, host: str, port: int, expected: checks.Expected,
                 outcome: Outcome, phase: Phase, lock: threading.Lock) -> None:
        self.host, self.port = host, port
        self.expected, self.outcome, self.phase, self.lock = expected, outcome, phase, lock
        self.conn = http.client.HTTPConnection(host, port, timeout=30.0)

    def send(self, req: inputs.Request) -> None:
        headers = {"If-None-Match": req.if_none_match} if req.if_none_match else {}
        t0 = time.perf_counter()
        try:
            self.conn.request("GET", req.path, headers=headers)
            resp = self.conn.getresponse()
            body = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            # counted as failed, never retried; the next request reconnects
            self.conn.close()
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=30.0)
            with self.lock:
                self.outcome.record(f"{req.kind} {req.path[:60]}: {exc!r}")
            return
        rtt = time.perf_counter() - t0
        failure = checks.response_failure(
            req, resp.status, dict(resp.getheaders()), body, self.expected)
        with self.lock:
            self.outcome.record(failure)
            self.phase.latencies_s.append(rtt)
            self.phase.rtt_by_kind[req.kind].append(rtt)
            self.phase.statuses[resp.status] += 1


def _serve_store(seed: int, work: Path) -> tuple[Path, checks.Expected]:
    path = work / "serve_store"
    store = ResultStore(path)
    for spec in inputs.serve_specs(seed):
        Campaign(spec, store).run()
    frame_paths = ["/frame?" + q for q in inputs.frame_queries()]
    return path, checks.expected_for(ResultStore(path), frame_paths)


def _serve_phase(seed: int, seconds: float, work: Path, store: Path,
                 expected: checks.Expected, outcome: Outcome, *, trace: bool,
                 starts: int) -> tuple[Phase, list[float]]:
    tag = "traced" if trace else "plain"
    phase = Phase()
    lock = threading.Lock()
    hashes = sorted(expected.records)
    warmup = inputs.warmup_request(seed)
    times: list[float] = []
    proc: Proc | None = None
    address: tuple[str, int] = ("", 0)
    try:
        for i in range(starts):
            t0 = time.perf_counter()
            proc = Proc("server", "--store", str(store), trace=trace,
                        spans=work / f"serve_{tag}.spans", cpu=0)
            phase.import_s.append(proc.read_json()["import_s"])
            match = None
            while match is None:
                match = _SERVING.search(proc.readline())
            address = (match.group(1), int(match.group(2)))
            # the warm-up request is checked like every other request
            _Client(*address, expected, outcome, Phase(), lock).send(warmup)
            times.append(time.perf_counter() - t0)
            if i < starts - 1:
                proc.stop(terminate=True)
        assert proc is not None
        clients = [_Client(*address, expected, outcome, phase, lock) for _ in range(2)]
        streams = [inputs.request_stream(seed, c, hashes, 20 * MIN_REQUESTS) for c in range(2)]
        floor = TRACED_REQUESTS if trace else MIN_REQUESTS
        t0 = time.perf_counter()
        stop_at = t0 + seconds

        def loop(client: _Client, stream: list[inputs.Request]) -> None:
            pos = 0
            while True:
                for req in stream[pos:pos + REQUEST_BLOCK]:
                    try:
                        client.send(req)
                    except Exception as exc:  # a check that crashed: fail, stop this client
                        with lock:
                            outcome.record(f"{req.kind} {req.path[:60]}: check raised {exc!r}")
                        client.conn.close()
                        return
                pos += REQUEST_BLOCK
                with lock:
                    enough = len(phase.latencies_s) >= floor
                if (enough and time.perf_counter() >= stop_at) or pos >= len(stream):
                    client.conn.close()
                    return

        threads = [threading.Thread(target=loop, args=(c, s)) for c, s in zip(clients, streams)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=170.0)
        phase.wall_s = time.perf_counter() - t0
        phase.ops = len(phase.latencies_s)
        _finish([proc], phase, terminate=True)
    except BaseException:
        if proc is not None:
            stop_all([proc])
        raise
    return phase, times


def serve_mixed(seed: int, seconds: float, trace: bool, work: Path):
    """Two closed-loop keep-alive clients against one ``sweep serve``."""
    outcome = Outcome()
    store, expected = _serve_store(seed, work)
    if not trace:
        phase, setup = _serve_phase(seed, seconds, work, store, expected, outcome,
                                    trace=False, starts=COLD_STARTS)
        return outcome, _end_to_end(phase, setup, "requests", "request")
    plain, _ = _serve_phase(seed, seconds, work, store, expected, outcome,
                            trace=False, starts=1)
    traced, _ = _serve_phase(seed, seconds, work, store, expected, outcome,
                             trace=True, starts=1)
    return outcome, _per_layer("serve_mixed", plain, traced, [work / "serve_traced.spans"])


WORKLOADS = {"engine_cover": engine_cover, "drain_many": drain_many, "serve_mixed": serve_mixed}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def _end_to_end(phase: Phase, setup: list[float], ops: str, waited: str) -> dict[str, Metric]:
    """The end-to-end metrics of one untraced phase.

    *ops* names what ``ops_per_s`` counts; *waited* names what one
    latency sample is: the time a caller waits for one request, or for
    one whole round of cells, which is what a sweep's caller waits for.
    """
    lat_ms = [s * 1000.0 for s in phase.latencies_s]
    n = len(lat_ms)
    q = tail_percentile(n)
    tail = percentile(lat_ms, q) if q is not None else max(lat_ms)
    tail_note = f"p{q:g}" if q is not None else "slowest: no percentile has 10 samples beyond it"
    return {
        "setup_s": Metric(median(setup), "s", len(setup), "median of cold starts"),
        "ops_per_s": Metric(phase.ops / phase.wall_s, "1/s", phase.ops,
                            f"{ops} per second over {phase.wall_s:.1f}s"),
        "latency_p50_ms": Metric(median(lat_ms), "ms", n, f"per {waited}"),
        "latency_tail_ms": Metric(tail, "ms", n, f"per {waited}, {tail_note}"),
        "peak_rss_mb": Metric(phase.peak_rss_mb, "MB", 1, "largest program process"),
    }


def _records(path: Path) -> list[dict[str, Any]]:
    store = ResultStore(path)
    return [store.get(h) for h in store.hashes()]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _per_layer(workload: str, plain: Phase, traced: Phase,
               span_files: list[Path]) -> dict[str, Metric]:
    L = Layers(load(span_files))
    ops = traced.ops
    out: dict[str, float] = {}

    out["graphs.neighbor_at.calls"] = L.calls("graphs.neighbor_at")
    out["graphs.neighbor_at.draws"] = L.total("graphs.neighbor_at", "draws")
    out["graphs.neighbor_at.busy_s"] = L.busy("graphs.neighbor_at")

    tested = L.total("sim.bitmask.test_and_set", "elements")
    out["sim.bitmask.test_and_set.calls"] = L.calls("sim.bitmask.test_and_set")
    out["sim.bitmask.test_and_set.elements"] = tested
    out["sim.bitmask.test_and_set.busy_s"] = L.busy("sim.bitmask.test_and_set")
    out["sim.bitmask.test_and_set.new_share"] = (
        L.total("sim.bitmask.test_and_set", "new") / tested if tested else 0.0)

    engine_busy = 0.0
    for _, _, suffix in ENGINES:
        busy = L.busy(f"sim.batch.{suffix}")
        out[f"sim.batch.{suffix}.busy_s"] = busy
        engine_busy += busy
    counters = traced.counters
    steps = sum(c.get("engine_steps", 0) for c in counters.values())
    out["sim.batch.engine_steps"] = steps
    out["sim.batch.rng_draws"] = sum(c.get("rng_draws", 0) for c in counters.values())
    out["sim.batch.frontier_peak"] = max(
        (c.get("frontier_peak", 0) for c in counters.values()), default=0)
    out["sim.batch.step_ms"] = (
        L.busy("sim.batch.cobra_cover") * 1000.0 / steps if steps else 0.0)

    records = [r for path in traced.stores for r in _records(path)]
    n_of = {r["hash"][:12]: r["provenance"].get("graph_n", 0) for r in records}
    fills = [c["frontier_peak"] / (c["trials"] * n_of[cell])
             for cell, c in counters.items()
             if c.get("frontier_peak") and c.get("trials") and n_of.get(cell)]
    out["sim.batch.frontier_fill"] = max(fills, default=0.0)

    out["sim.facade.run_batch.calls"] = L.calls("sim.facade.run_batch")
    out["sim.facade.run_batch.self_s"] = L.self_s("sim.facade.run_batch")

    for phase_name in ("build_graph", "lower", "engine"):
        out[f"store.campaign.{phase_name}_s"] = sum(
            r["provenance"].get("phase_s", {}).get(phase_name, 0.0) for r in records)
    out["store.campaign.record_s"] = sum(
        c.dur for c in L.by_name.get("store.store.put", ())
        if L.parent_name(c) == "store.campaign.run_cell")

    out["store.store.get.calls_per_cell"] = L.calls("store.store.get") / ops if ops else 0.0
    out["store.store.get.busy_s"] = L.busy("store.store.get")
    out["store.store.put.busy_s"] = L.busy("store.store.put")
    out["store.store.frame.busy_s"] = L.busy("store.store.frame")
    out["store.store.frame.rows"] = L.total("store.store.frame", "rows")

    for op in ("read_blob", "append_line", "list_prefix", "compare_and_swap"):
        out[f"store.backend.{op}.calls"] = L.calls(f"store.backend.{op}")
        out[f"store.backend.{op}.busy_s"] = L.busy(f"store.backend.{op}")
    out["store.backend.read_blob.bytes_per_cell"] = (
        L.total("store.backend.read_blob", "bytes") / ops if ops else 0.0)
    cas = L.calls("store.backend.compare_and_swap")
    out["store.backend.cas.conflict_share"] = (
        L.total("store.backend.compare_and_swap", "conflict") / cas if cas else 0.0)

    claims = sorted(L.by_name.get("store.dispatch.try_claim", ()), key=lambda c: c.t0)
    tenth = max(1, len(claims) // 10)
    out["store.dispatch.try_claim.calls"] = len(claims)
    out["store.dispatch.try_claim.busy_s"] = L.busy("store.dispatch.try_claim")
    out["store.dispatch.try_claim.ms_first_tenth"] = (
        _mean([c.dur for c in claims[:tenth]]) * 1000.0)
    out["store.dispatch.try_claim.ms_last_tenth"] = (
        _mean([c.dur for c in claims[-tenth:]]) * 1000.0)
    out["store.dispatch.try_claim.wins_per_call"] = (
        L.total("store.dispatch.try_claim", "wins") / len(claims) if claims else 0.0)
    out["store.dispatch.release.busy_s"] = L.busy("store.dispatch.release")

    handled: dict[str, list[float]] = defaultdict(list)
    for c in L.by_name.get("store.service.handle", ()):
        handled[c.counts.get("kind", "other")].append(c.dur)
    transport_total = 0.0
    for kind in inputs.REQUEST_KINDS:
        rtts = traced.rtt_by_kind.get(kind, [])
        handle_ms = _mean(handled.get(kind, [])) * 1000.0
        rtt_ms = _mean(rtts) * 1000.0
        out[f"store.service.handle_ms.{kind}"] = handle_ms
        out[f"store.service.rtt_ms.{kind}"] = rtt_ms
        out[f"store.service.transport_ms.{kind}"] = rtt_ms - handle_ms if rtts else 0.0
        transport_total += (rtt_ms - handle_ms) / 1000.0 * len(rtts) if rtts else 0.0
    cell_requests = len(traced.rtt_by_kind.get("cell", [])) + len(
        traced.rtt_by_kind.get("cell_304", []))
    out["store.service.not_modified_share"] = (
        traced.statuses.get(304, 0) / cell_requests if cell_requests else 0.0)

    out["experiments.cli.cold_import_s"] = median(plain.import_s + traced.import_s)
    per_op_plain = plain.wall_s / plain.ops
    per_op_traced = traced.wall_s / traced.ops
    out["obs.tracing_overhead_share"] = (per_op_traced - per_op_plain) / per_op_plain

    # the share of the traced wall time the workload's named layers take
    if workload == "engine_cover":
        named = engine_busy / traced.wall_s
    elif workload == "drain_many":
        named = (L.busy("store.store.get") + L.busy("store.dispatch.try_claim")) / (
            2 * traced.wall_s)
    else:
        named = (transport_total + L.busy("store.store.frame")) / sum(traced.latencies_s)
    out["obs.named_layer_share"] = named

    return {name: Metric(float(value), LAYER_UNITS.get(name, _unit(name)), ops)
            for name, value in out.items()}


def _unit(name: str) -> str:
    parts = name.split(".")
    if parts[-1].endswith("_ms") or parts[-1].startswith("ms_") or any(
            p.endswith("_ms") for p in parts[2:-1]):
        return "ms"
    if parts[-1].endswith("_s"):
        return "s"
    if parts[-1].endswith(("_share", "_fill")):
        return "ratio"
    return "count"


#: units that the name alone does not give
LAYER_UNITS = {
    "store.store.get.calls_per_cell": "1/op",
    "store.backend.read_blob.bytes_per_cell": "B/op",
    "store.dispatch.try_claim.wins_per_call": "ratio",
}
