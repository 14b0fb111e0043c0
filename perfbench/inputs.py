"""Seeded inputs of the three workloads.

Everything the program under test receives is built here from the
run's ``--seed``: the ``SweepSpec`` lists handed to the campaign and
drain processes, the cells of the store ``serve_mixed`` reads, and the
request sequence each HTTP client sends.  The same seed gives the same
inputs; nothing here reads a clock or the OS entropy pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.store import SeedPolicy, SweepSpec

#: cells of one ``engine_cover`` round, all at 64 trials
ENGINE_TRIALS = 64

#: the ``drain_many`` grid: cobra on ``grid`` with n 6-10, d 1-2, k 1-3,
#: 2 trials, one spec per seed root
DRAIN_ROOTS = 20
DRAIN_GRID = {"n": [6, 7, 8, 9, 10], "d": [1, 2]}
DRAIN_PARAMS = {"k": [1, 2, 3]}

#: the ``serve_mixed`` store: 150 roots x 20 cheap cells = 3000 records
SERVE_ROOTS = 150
SERVE_GRID = {"n": [4, 5, 6, 7, 8], "d": [1, 2]}
SERVE_PARAMS = {"k": [2, 3]}

#: request mix of ``serve_mixed`` in percent, by request kind
REQUEST_MIX = (
    ("cell", 35),  # GET /cell/<hash> -> 200
    ("cell_304", 35),  # GET /cell/<hash> with a matching If-None-Match -> 304
    ("frame", 15),  # GET /frame?<filter>
    ("frame_agg", 10),  # GET /frame?<filter>&groupby=&aggregate=&column=
    ("blobs", 5),  # GET /blobs?prefix=shards/
)
REQUEST_KINDS = tuple(kind for kind, _ in REQUEST_MIX)


def _root(seed: int, salt: int) -> int:
    """A seed root derived from the run seed (distinct per salt)."""
    return random.Random(seed * 1_000_003 + salt).randrange(1, 2**31)


def engine_specs(seed: int, round_no: int = 0) -> list[SweepSpec]:
    """The ``engine_cover`` sweep: large implicit-graph cells, 64 trials.

    Each measured round gets its own seed root, so every round commits
    distinct cells into the one store.
    """
    policy = SeedPolicy(root=_root(seed, round_no))
    rr_graph_seed = _root(seed, 10_000 + round_no)
    common = {"trials": ENGINE_TRIALS, "seed": policy}
    return [
        SweepSpec(name="cover_hypercube", process="cobra",
                  graph="hypercube_oracle", graph_grid={"dim": [14, 16]}, **common),
        SweepSpec(name="cover_torus", process="cobra", graph="torus_oracle",
                  graph_grid={"n": [63, 127], "d": [2]}, **common),
        SweepSpec(name="hit_hypercube", process="cobra", graph="hypercube_oracle",
                  graph_grid={"dim": [16]}, metric="hit", target="last", **common),
        SweepSpec(name="cover_random_regular", process="cobra",
                  graph="random_regular",
                  graph_grid={"n": [4096], "d": [8], "seed": [rr_graph_seed]},
                  **common),
        # the three step-budgeted hypercube_oracle(17) cases: their values
        # may be NaN where a trial runs out of steps
        SweepSpec(name="budget_parallel", process="parallel",
                  graph="hypercube_oracle", graph_grid={"dim": [17]},
                  params_grid={"walkers": [4]}, max_steps=192, **common),
        SweepSpec(name="budget_walt", process="walt", graph="hypercube_oracle",
                  graph_grid={"dim": [17]}, params_grid={"delta": [0.02]},
                  max_steps=48, **common),
        SweepSpec(name="budget_simple_hit", process="simple",
                  graph="hypercube_oracle", graph_grid={"dim": [17]},
                  metric="hit", target="last", max_steps=4096, **common),
    ]


def drain_specs(seed: int, roots: int = DRAIN_ROOTS) -> list[SweepSpec]:
    """The ``drain_many`` sweep: 30 tiny cells per root, 600 in all."""
    return [
        SweepSpec(name=f"drain_{i}", process="cobra", graph="grid",
                  graph_grid=DRAIN_GRID, params_grid=DRAIN_PARAMS, trials=2,
                  seed=SeedPolicy(root=_root(seed, 20_000 + i)))
        for i in range(roots)
    ]


def serve_specs(seed: int, roots: int = SERVE_ROOTS) -> list[SweepSpec]:
    """The cells of the store ``serve_mixed`` reads (20 per root)."""
    return [
        SweepSpec(name=f"serve_{i}", process="cobra", graph="grid",
                  graph_grid=SERVE_GRID, params_grid=SERVE_PARAMS, trials=2,
                  seed=SeedPolicy(root=_root(seed, 30_000 + i)))
        for i in range(roots)
    ]


@dataclass(frozen=True)
class Request:
    """One HTTP request of the mix: its kind, target and conditional tag."""

    kind: str
    path: str
    if_none_match: str | None = None


#: the ``/frame`` filter queries: equality filters on the store's columns
_FRAME_FILTERS = tuple(
    f"g_n={n}&g_d={d}" for n in SERVE_GRID["n"] for d in SERVE_GRID["d"]
) + tuple(f"k={k}" for k in SERVE_PARAMS["k"])

#: the ``/frame`` groupby+aggregate queries
_FRAME_AGGREGATES = (
    "groupby=g_n&aggregate=mean&column=mean",
    "groupby=g_d&aggregate=median&column=mean",
    "groupby=k&aggregate=max&column=mean",
    "k=2&groupby=g_n&aggregate=count&column=mean",
    "g_d=2&groupby=k&aggregate=std&column=std",
)


def frame_queries() -> tuple[str, ...]:
    """Every distinct ``/frame`` query string the mix can send."""
    return _FRAME_FILTERS + _FRAME_AGGREGATES


def request_stream(seed: int, client: int, hashes: list[str], count: int) -> list[Request]:
    """*count* requests of the fixed mix for one client, in send order.

    Kinds are dealt from a shuffled deck with exactly the mix's shares
    per 100 requests, so every run sends the same proportions.
    """
    rng = random.Random(_root(seed, 40_000 + client))
    deck = [kind for kind, share in REQUEST_MIX for _ in range(share)]
    out: list[Request] = []
    while len(out) < count:
        rng.shuffle(deck)
        for kind in deck:
            out.append(_request(kind, rng, hashes))
    return out[:count]


def warmup_request(seed: int) -> Request:
    """The one request a fresh server answers before it counts as ready.

    A ``/frame``: it reads every shard, so the clients start against a
    loaded store.  ``ResultStore`` marks itself loaded before it loads
    the shards, so a cold store under two concurrent clients can return
    partial frames; the benchmark's workloads must have no failing
    operations, so the measured phase starts warm (see README.md).
    """
    rng = random.Random(_root(seed, 50_000))
    return _request("frame", rng, [])


def request_kind(path: str, if_none_match: str | None = None) -> str:
    """The mix kind a request path belongs to (``other`` if none)."""
    if path.startswith("/cell/"):
        return "cell_304" if if_none_match else "cell"
    if path.startswith("/frame"):
        return "frame_agg" if "groupby=" in path else "frame"
    if path.startswith("/blobs"):
        return "blobs"
    return "other"


def _request(kind: str, rng: random.Random, hashes: list[str]) -> Request:
    if kind in ("cell", "cell_304"):
        h = rng.choice(hashes)
        return Request(kind, f"/cell/{h}", f'"{h}"' if kind == "cell_304" else None)
    if kind == "frame":
        return Request(kind, "/frame?" + rng.choice(_FRAME_FILTERS))
    if kind == "frame_agg":
        return Request(kind, "/frame?" + rng.choice(_FRAME_AGGREGATES))
    return Request(kind, "/blobs?prefix=shards/")
