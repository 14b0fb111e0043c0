"""Timing wrappers the benchmark installs into the program at run time.

Nothing under ``src/`` knows about this module.  In a traced run each
program process (``launcher.py --trace 1``) calls :func:`install`,
which replaces the public functions and methods of every measured
layer with a wrapper that records one span per call: name, start,
end, the span that was open in the same thread when it started, and
a few per-call counts (draws, bytes, wins).  Spans stay in memory and
are written as JSON lines when the process ends; :func:`load` and
:class:`Layers` turn them into per-layer totals on the harness side.

A call that re-enters a wrapper of the same name (an oracle's
``neighbor_at`` delegating to its base class) is not recorded twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: one recorded call: (id, parent id or -1, name, t0, t1, counts or None)
SpanRow = tuple[int, int, str, float, float, "dict[str, Any] | None"]

Counts = Callable[[tuple, dict, Any], "dict[str, Any]"]


class Recorder:
    """In-memory span sink shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[SpanRow] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, counts: Counts | None = None) -> Callable:
        """*fn* with every call recorded as a span called *name*."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = next(self._ids)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, {"error": 1}))
                raise
            t1 = clock()
            stack.pop()
            self.spans.append(
                (sid, parent, name, t0, t1, counts(args, kwargs, result) if counts else None)
            )
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------

def _replace_everywhere(original: Callable, wrapped: Callable) -> None:
    """Rebind *original* to *wrapped* in every loaded ``repro`` module.

    Module-level functions are imported by name into other modules
    (``campaign`` holds its own ``run_batch``), so the defining module
    alone is not enough.
    """
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def _wrap_method(rec: Recorder, cls: type, attr: str, name: str,
                 counts: Counts | None = None) -> None:
    if attr in vars(cls):
        setattr(cls, attr, rec.wrap(vars(cls)[attr], name, counts))


def _draws(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"draws": int(getattr(result, "size", 0))}


def _tested(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"elements": int(result.size), "new": int(result.sum())}


def _blob_bytes(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"bytes": len(result[0]) if result is not None else 0}


def _cas(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"conflict": int(result is None)}


def _wins(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"wins": len(result)}


def _rows(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"rows": len(result)}


def _http(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    from perfbench.inputs import request_kind

    path = args[2]
    headers = {k.lower(): v for k, v in (kwargs.get("headers") or {}).items()}
    return {"kind": request_kind(path, headers.get("if-none-match")), "status": result[0]}


#: the measured engine entry points: (process, metric field, span suffix)
ENGINES = (
    ("cobra", "batch_cover", "cobra_cover"),
    ("cobra", "batch_hit", "cobra_hit"),
    ("parallel", "batch_cover", "parallel_cover"),
    ("walt", "batch_cover", "walt_cover"),
    ("simple", "batch_hit", "simple_hit"),
)


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.experiments.cli  # noqa: F401 - load every module that re-binds names
    import repro.store.service  # noqa: F401
    from repro.graphs import implicit
    from repro.sim import bitmask, facade
    from repro.sim.processes import get_process
    from repro.store import backend, campaign, dispatch, service, store

    for cls in vars(implicit).values():
        if isinstance(cls, type) and issubclass(cls, implicit.NeighborOracle):
            _wrap_method(rec, cls, "neighbor_at", "graphs.neighbor_at", _draws)
    for cls in (bitmask.BitMask, bitmask.DenseMask):
        _wrap_method(rec, cls, "test_and_set_sorted", "sim.bitmask.test_and_set", _tested)
    for process, fld, suffix in ENGINES:
        spec = get_process(process)
        # ProcessSpec is frozen; the facade looks engines up on the
        # registered instance, so it is patched in place
        object.__setattr__(spec, fld, rec.wrap(getattr(spec, fld), f"sim.batch.{suffix}"))
    for original, name in (
        (facade.run_batch, "sim.facade.run_batch"),
        (campaign.run_cell, "store.campaign.run_cell"),
    ):
        _replace_everywhere(original, rec.wrap(original, name))
    _wrap_method(rec, store.ResultStore, "get", "store.store.get")
    _wrap_method(rec, store.ResultStore, "put", "store.store.put")
    _wrap_method(rec, store.ResultStore, "frame", "store.store.frame", _rows)
    for attr, counts in (
        ("read_blob", _blob_bytes),
        ("append_line", None),
        ("list_prefix", None),
        ("compare_and_swap", _cas),
    ):
        _wrap_method(rec, backend.LocalBackend, attr, f"store.backend.{attr}", counts)
    _wrap_method(rec, dispatch.ClaimLedger, "try_claim", "store.dispatch.try_claim", _wins)
    _wrap_method(rec, dispatch.ClaimLedger, "release", "store.dispatch.release")
    _wrap_method(rec, service.SweepService, "handle", "store.service.handle", _http)


# ----------------------------------------------------------------------
# analysis (harness side)
# ----------------------------------------------------------------------

@dataclass
class Call:
    """One recorded span, with the process it ran in."""

    proc: int
    sid: int
    parent: int
    name: str
    t0: float
    t1: float
    counts: dict[str, Any]

    @property
    def dur(self) -> float:
        """Span duration in seconds."""
        return self.t1 - self.t0


def load(paths: Iterable[Path]) -> list[Call]:
    """Every span of every process's span file."""
    calls: list[Call] = []
    for proc, path in enumerate(paths):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                sid, parent, name, t0, t1, counts = json.loads(line)
                calls.append(Call(proc, sid, parent, name, t0, t1, counts or {}))
    return calls


class Layers:
    """Per-name totals over a set of spans, with self time."""

    def __init__(self, calls: list[Call]) -> None:
        self.by_name: dict[str, list[Call]] = defaultdict(list)
        child_s: dict[tuple[int, int], float] = defaultdict(float)
        index = {(c.proc, c.sid): c for c in calls}
        for c in calls:
            self.by_name[c.name].append(c)
            if c.parent >= 0:
                child_s[(c.proc, c.parent)] += c.dur
        self._child_s = child_s
        self.index = index

    def calls(self, name: str) -> int:
        """Number of recorded calls."""
        return len(self.by_name.get(name, ()))

    def busy(self, name: str) -> float:
        """Total span time in seconds (children included)."""
        return sum(c.dur for c in self.by_name.get(name, ()))

    def self_s(self, name: str) -> float:
        """Span time minus the time covered by direct child spans."""
        return sum(c.dur - self._child_s[(c.proc, c.sid)] for c in self.by_name.get(name, ()))

    def total(self, name: str, key: str) -> float:
        """Sum of one per-call count."""
        return sum(c.counts.get(key, 0) for c in self.by_name.get(name, ()))

    def parent_name(self, c: Call) -> str | None:
        """The name of the span that was open when *c* started."""
        parent = self.index.get((c.proc, c.parent))
        return parent.name if parent is not None else None
