"""Tests for the seed-spawning contract behind ``run_batch``'s serial path.

The contract under test: per-trial seeds are spawned up front from the
root seed, and trial ``i`` consumes child ``i`` of
``spawn_seeds(seed, trials)`` and nothing else.  So the trial list can
be cut into contiguous blocks ("shards") and each block computed on
its own with :func:`repro.sim.simulate` — in another process or on
another machine — and the concatenated values are seed-for-seed
identical to ``run_batch(strategy="serial")``, for **every**
registered process.
"""

import numpy as np
import pytest

from repro.graphs import complete_graph, grid, path_graph
from repro.sim import process_names, run_batch, simulate, summarize_trials
from repro.sim.rng import spawn_seeds


@pytest.fixture(scope="module")
def g():
    # complete graph: fast for every process, non-bipartite (so the
    # coalescing walkers actually meet and the coalesce metric is finite)
    return complete_graph(8)


def _case(name, g):
    """Per-process graph/kwargs (the line-only minima walk aside, every
    process runs on the shared complete graph)."""
    kw = {}
    if name == "biased":
        kw["target"] = g.n - 1
    if name == "coalescing":
        kw["walkers"] = 4
    if name == "branching_minima":
        return path_graph(17), {"generations": 4}
    return g, kw


def _blockwise(g, name, *, trials, seed, shards, **kw):
    """Compute *trials* trials as *shards* independent contiguous
    blocks of the spawned seed list, one ``simulate`` call per trial."""
    seeds = spawn_seeds(seed, trials)
    bounds = np.linspace(0, trials, shards + 1).astype(int)
    values = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        values += [simulate(g, name, seed=s, **kw).value for s in seeds[lo:hi]]
    return np.array(values, dtype=np.float64)


class TestShardDeterminism:
    @pytest.mark.parametrize("name", process_names())
    def test_shard_count_invariant_and_serial_identical(self, g, name):
        g, kw = _case(name, g)
        one = _blockwise(g, name, trials=9, seed=42, shards=1, **kw)
        four = _blockwise(g, name, trials=9, seed=42, shards=4, **kw)
        serial = run_batch(g, name, trials=9, seed=42, strategy="serial", **kw)
        assert np.array_equal(one, four, equal_nan=True)
        assert np.array_equal(one, serial.values, equal_nan=True)

    def test_more_shards_than_trials(self, g):
        few = _blockwise(g, "cobra", trials=3, seed=1, shards=8)
        ref = run_batch(g, "cobra", trials=3, seed=1, strategy="serial")
        assert np.array_equal(few, ref.values, equal_nan=True)

    def test_hit_metric_sharded(self, g):
        sh = _blockwise(
            g, "cobra", trials=6, seed=5, shards=3, metric="hit", target=g.n - 1
        )
        ref = run_batch(
            g, "cobra", trials=6, seed=5, metric="hit", target=g.n - 1,
            strategy="serial",
        )
        assert np.array_equal(sh, ref.values, equal_nan=True)


class TestShardSummary:
    def test_summary_matches_serial_statistics(self):
        g = grid(5, 2)
        sh = summarize_trials(_blockwise(g, "push", trials=12, seed=3, shards=3))
        ref = run_batch(g, "push", trials=12, seed=3, strategy="serial")
        assert sh.mean == ref.mean
        assert sh.failures == ref.failures
        assert sh.trials == 12
