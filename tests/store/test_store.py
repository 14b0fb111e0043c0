"""ResultStore persistence, corruption tolerance, and the Frame API."""

import json
import sys
import threading

import numpy as np
import pytest

from repro.sim.montecarlo import summarize_trials
from repro.store import ResultStore, SeedPolicy, SweepSpec


@pytest.fixture()
def cells():
    return SweepSpec(
        name="demo",
        process="cobra",
        graph="grid",
        graph_grid={"n": [6, 8], "d": [2]},
        params_grid={"k": [1, 2]},
        trials=3,
        seed=SeedPolicy(root=3),
    ).expand()


def put_fake(store, key, values):
    return store.put(
        key,
        summarize_trials(np.asarray(values, dtype=np.float64)),
        {"sweep": "demo", "engine": "vectorized", "wall_time_s": 0.1,
         "graph_name": "g", "graph_n": 49},
    )


class TestRoundTrip:
    def test_memory_store(self, cells):
        store = ResultStore()
        assert not store.has(cells[0])
        put_fake(store, cells[0], [1.0, 2.0, 3.0])
        assert store.has(cells[0])
        assert store.get(cells[0].hash)["result"]["mean"] == 2.0
        assert len(store) == 1

    def test_disk_store_survives_reopen(self, cells, tmp_path):
        store = ResultStore(tmp_path / "s")
        for i, c in enumerate(cells):
            put_fake(store, c, [float(i)] * 3)
        again = ResultStore(tmp_path / "s")
        assert len(again) == len(cells)
        for i, c in enumerate(cells):
            assert again.get(c)["result"]["mean"] == float(i)
        assert (tmp_path / "s" / "meta.json").exists()

    def test_nan_values_roundtrip(self, cells, tmp_path):
        store = ResultStore(tmp_path / "s")
        put_fake(store, cells[0], [1.0, float("nan")])
        rec = ResultStore(tmp_path / "s").get(cells[0])
        assert rec["result"]["failures"] == 1
        values = np.asarray(rec["result"]["values"])
        assert np.isnan(values).sum() == 1

    def test_summary_rehydrates(self, cells):
        store = ResultStore()
        put_fake(store, cells[0], [2.0, 4.0, 6.0])
        summary = store.summary(cells[0])
        assert summary.mean == 4.0 and summary.trials == 3
        assert store.summary(cells[1]) is None

    def test_point_lookup_loads_one_shard(self, cells, tmp_path):
        store = ResultStore(tmp_path / "s")
        for c in cells:
            put_fake(store, c, [1.0])
        again = ResultStore(tmp_path / "s")
        again.get(cells[0])
        assert len(again._loaded_shards) == 1


@pytest.fixture(scope="module")
def store_400(tmp_path_factory):
    """A LocalBackend store of 400 records, for cold-load races."""
    keys = SweepSpec(
        name="demo",
        process="cobra",
        graph="grid",
        graph_grid={"n": list(range(4, 104)), "d": [2]},
        params_grid={"k": [1, 2, 3, 4]},
        trials=3,
        seed=SeedPolicy(root=3),
    ).expand()
    root = tmp_path_factory.mktemp("race") / "s"
    store = ResultStore(root)
    for key in keys:
        put_fake(store, key, [1.0, 2.0, 3.0])
    return root, keys


def _race(n_threads, fn):
    """Run ``fn(i)`` on *n_threads* threads released together by a
    barrier, at a short switch interval; return the results in thread
    order."""
    barrier = threading.Barrier(n_threads)
    out = [None] * n_threads
    errors = []

    def body(i):
        barrier.wait(timeout=30)
        try:
            out[i] = fn(i)
        except Exception as exc:  # surfaced below, in the test thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=body, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    return out


class TestConcurrentColdLoad:
    """Threads sharing one cold store (the ``sweep serve`` case) must
    each see every stored record: a shard, or the whole store, is
    marked loaded only once its records are in the cache."""

    def test_cold_frames_are_complete(self, store_400):
        root, keys = store_400
        for _ in range(10):
            store = ResultStore(root)
            rows = _race(4, lambda i: len(store.frame()))
            assert rows == [len(keys)] * 4

    def test_cold_gets_in_one_shard_both_hit(self, store_400):
        root, keys = store_400
        by_prefix = {}
        for key in keys:
            by_prefix.setdefault(key.hash[:2], []).append(key)
        pair = next(ks[:2] for ks in by_prefix.values() if len(ks) >= 2)
        for _ in range(20):
            store = ResultStore(root)
            records = _race(2, lambda i: store.get(pair[i]))
            assert [r["hash"] if r else None for r in records] == [
                k.hash for k in pair
            ]


class TestCorruption:
    def test_corrupt_line_is_skipped_and_cell_rerenders_as_missing(
        self, cells, tmp_path
    ):
        store = ResultStore(tmp_path / "s")
        put_fake(store, cells[0], [1.0, 2.0])
        shard = tmp_path / "s" / "shards" / f"{cells[0].hash[:2]}.jsonl"
        # simulate a torn write: truncate the record mid-JSON
        text = shard.read_text(encoding="utf-8")
        shard.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.warns(UserWarning, match="corrupt"):
            fresh = ResultStore(tmp_path / "s")
            assert not fresh.has(cells[0])

    def test_partial_trailing_line_keeps_earlier_records(self, cells, tmp_path):
        store = ResultStore(tmp_path / "s")
        a, b = cells[0], cells[1]
        put_fake(store, a, [1.0])
        record = put_fake(store, b, [2.0])
        if a.hash[:2] != b.hash[:2]:
            # force both into one shard file to model the torn tail
            shard = tmp_path / "s" / "shards" / f"{a.hash[:2]}.jsonl"
            with shard.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record)[:40])
            with pytest.warns(UserWarning, match="corrupt"):
                fresh = ResultStore(tmp_path / "s")
                assert fresh.has(a)
        else:
            shard = tmp_path / "s" / "shards" / f"{a.hash[:2]}.jsonl"
            with shard.open("a", encoding="utf-8") as fh:
                fh.write("{\"hash\": \"zz\", broken")
            with pytest.warns(UserWarning, match="corrupt"):
                fresh = ResultStore(tmp_path / "s")
                assert fresh.has(a) and fresh.has(b)

    def test_record_missing_result_fields_is_corrupt(self, cells, tmp_path):
        store = ResultStore(tmp_path / "s")
        put_fake(store, cells[0], [1.0])
        shard = tmp_path / "s" / "shards" / f"{cells[0].hash[:2]}.jsonl"
        record = json.loads(shard.read_text(encoding="utf-8"))
        del record["result"]["mean"]
        shard.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="corrupt"):
            assert not ResultStore(tmp_path / "s").has(cells[0])

    def test_last_write_wins_on_duplicates(self, cells, tmp_path):
        store = ResultStore(tmp_path / "s")
        put_fake(store, cells[0], [1.0])
        put_fake(store, cells[0], [9.0])
        assert ResultStore(tmp_path / "s").get(cells[0])["result"]["mean"] == 9.0


class TestFrame:
    def test_rows_filter_sort_column(self, cells):
        store = ResultStore()
        for i, c in enumerate(cells):
            put_fake(store, c, [10.0 * (i + 1)])
        frame = store.frame()
        assert len(frame) == 4
        k2 = frame.filter(k=2)
        assert len(k2) == 2
        assert set(k2.column("k")) == {2}
        ordered = k2.sort_by("g_n").column("g_n")
        assert ordered == sorted(ordered)
        assert len(frame.filter(process="nope")) == 0

    def test_frame_prefilter_kwargs(self, cells):
        store = ResultStore()
        for c in cells:
            put_fake(store, c, [1.0])
        assert len(store.frame(k=1, g_n=6)) == 1

    def test_summarize_and_fit(self, cells):
        store = ResultStore()
        for c in cells:
            n = dict(c.graph_params)["n"]
            put_fake(store, c, [float(n) * 2])
        frame = store.frame(k=2).sort_by("g_n")
        summary = frame.summarize("mean")
        assert summary.n == 2
        fit = frame.fit_power_law(x="g_n")
        assert fit.exponent == pytest.approx(1.0, abs=1e-9)

    def test_to_table_renders_missing_as_dash(self, cells):
        store = ResultStore()
        put_fake(store, cells[0], [1.0])
        table = store.frame().to_table(["g_n", "k", "mean", "absent"], title="t")
        text = table.render()
        assert "t" in text and "-" in text

    def test_groupby_single_column(self, cells):
        store = ResultStore()
        for i, c in enumerate(cells):
            put_fake(store, c, [float(i)])
        groups = dict(store.frame().groupby("k"))
        assert set(groups) == {1, 2}
        assert all(len(sub) == 2 for sub in groups.values())
        assert set(groups[1].column("k")) == {1}

    def test_groupby_multiple_columns_keys_are_tuples(self, cells):
        store = ResultStore()
        for c in cells:
            put_fake(store, c, [1.0])
        groups = store.frame().groupby("k", "g_n")
        assert len(groups) == 4
        assert all(isinstance(key, tuple) and len(sub) == 1
                   for key, sub in groups)

    def test_groupby_preserves_first_appearance_order(self, cells):
        store = ResultStore()
        for c in cells:
            put_fake(store, c, [1.0])
        keys = [key for key, _ in store.frame().sort_by("g_n").groupby("g_n")]
        assert keys == sorted(keys)

    def test_groupby_needs_a_column(self, cells):
        with pytest.raises(ValueError, match="at least one column"):
            ResultStore().frame().groupby()

    def test_aggregate_mean_per_group(self, cells):
        store = ResultStore()
        for c in cells:
            n = dict(c.graph_params)["n"]
            put_fake(store, c, [float(n), float(n) + 2.0])
        rows = store.frame().aggregate("g_n")
        assert {r["g_n"]: r["mean"] for r in rows} == {6: 7.0, 8: 9.0}
        assert all(r["rows"] == 2 for r in rows)

    def test_aggregate_count_and_max(self, cells):
        store = ResultStore()
        for i, c in enumerate(cells):
            put_fake(store, c, [float(i)])
        counts = store.frame().aggregate("k", agg="count")
        assert all(r["count"] == 2 for r in counts)
        peaks = store.frame().aggregate("k", column="mean", agg="max")
        assert all(r["max"] >= 0.0 for r in peaks)

    def test_aggregate_rejects_unknown_reduction(self, cells):
        store = ResultStore()
        put_fake(store, cells[0], [1.0])
        with pytest.raises(ValueError, match="unknown aggregation"):
            store.frame().aggregate("k", agg="mode")


class TestOldBackendRecords:
    """Records stamped by retired engines and backends still load.

    Neither ``engine`` nor ``backend`` was ever hashed into cell keys,
    so an old record is an ordinary record whose provenance names a
    path this code no longer takes: the compiled backend, the sharded
    executor, or the per-trial process pool.  New records keep
    stamping ``backend: "numpy"`` and a ``vectorized``/``serial``
    engine, so the Frame columns and the report grouping keep their
    meaning in mixed stores.
    """

    BASE_PROVENANCE = {
        "sweep": "demo",
        "worker": "old-host-1",
        "wall_time_s": 0.2,
        "phase_s": {"build_graph": 0.01, "lower": 0.01, "engine": 0.2},
        "graph_name": "g",
        "graph_n": 49,
        "graph_kind": "csr",
    }
    #: (engine, backend) stamps of the retired paths, one old record each
    OLD_STAMPS = (
        ("vectorized[numba]", "numba"),
        ("sharded(shards=2)", "numpy"),
        ("pool(processes=4)", "numpy"),
    )

    @pytest.fixture()
    def mixed(self, tmp_path):
        from repro.store import Campaign

        spec = SweepSpec(
            name="demo",
            process="cobra",
            graph="grid",
            graph_grid={"n": [6], "d": [2]},
            trials=3,
            seed=SeedPolicy(root=3),
        )
        old_keys = SweepSpec(
            name="demo",
            process="cobra",
            graph="grid",
            graph_grid={"n": [8, 10, 12], "d": [2]},
            trials=3,
            seed=SeedPolicy(root=3),
        ).expand()
        store = ResultStore(tmp_path / "s")
        Campaign(spec, store).run()
        old = {}
        for key, (engine, backend) in zip(old_keys, self.OLD_STAMPS):
            store.put(
                key,
                summarize_trials(np.array([5.0, 6.0, 7.0])),
                {**self.BASE_PROVENANCE, "engine": engine, "backend": backend},
            )
            old[engine] = key
        return ResultStore(tmp_path / "s"), spec.expand()[0], old

    def test_new_records_stamp_numpy(self, mixed):
        store, new_key, _ = mixed
        prov = store.get(new_key)["provenance"]
        assert prov["engine"] == "vectorized"
        assert prov["backend"] == "numpy"

    def test_old_record_loads_through_get_and_frame(self, mixed):
        store, _, old = mixed
        rows = {row["hash"]: row for row in store.frame().rows}
        for engine, backend in self.OLD_STAMPS:
            record = store.get(old[engine])
            assert record["provenance"]["engine"] == engine
            assert record["provenance"]["backend"] == backend
            assert record["result"]["mean"] == 6.0
            assert rows[old[engine].hash]["engine"] == engine
            assert rows[old[engine].hash]["backend"] == backend
        assert sorted(store.frame().column("engine")) == sorted(
            ["vectorized"] + [engine for engine, _ in self.OLD_STAMPS]
        )

    def test_old_record_passes_fsck(self, mixed):
        from repro.store import fsck

        report = fsck(mixed[0])
        assert report.clean and report.records == 1 + len(self.OLD_STAMPS)
        assert not report.duplicates

    def test_old_record_forms_its_own_report_group(self, mixed):
        from repro.obs import build_report

        report = build_report(mixed[0])
        groups = {(g["engine"], g["backend"]): g for g in report.groups}
        assert set(groups) == {("vectorized", "numpy"), *self.OLD_STAMPS}
        for stamp in self.OLD_STAMPS:
            assert groups[stamp]["cells"] == 1
            assert groups[stamp]["max_worker"] == "old-host-1"
