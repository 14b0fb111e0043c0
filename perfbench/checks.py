"""Output checks: each returns ``None`` for a correct output or a reason.

The harness counts one operation per committed cell, per store check
and per HTTP request; a check that returns a reason marks that
operation failed.  No check retries or repairs anything.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.store import Frame, ResultStore, fsck

from perfbench.inputs import Request


def same(a: Any, b: Any) -> bool:
    """Deep equality of JSON values where NaN equals NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def cell_failure(record: Mapping[str, Any] | None, *, budgeted: bool,
                 reference: Sequence[float] | None = None) -> str | None:
    """Check one committed cell's record.

    Parameters
    ----------
    record : Mapping or None
        The record the store holds for the cell (``None``: not committed).
    budgeted : bool
        Whether the cell has a step budget; only those may hold NaN.
    reference : sequence of float, optional
        Trial values the same cell produced elsewhere (an in-process
        ``Campaign.run``, or the untraced run); they must be equal
        value for value.
    """
    if record is None:
        return "cell not committed"
    h = record["hash"][:12]
    values = record["result"]["values"]
    if not budgeted and not all(math.isfinite(v) for v in values):
        return f"cell {h}: non-finite value without a step budget"
    if reference is not None and not same(list(values), list(reference)):
        return f"cell {h}: values differ from the reference run"
    return None


def fsck_failure(store: ResultStore) -> str | None:
    """``fsck`` of the whole store as one checked operation."""
    report = fsck(store)
    return None if report.clean else f"fsck: {report.summary()}"


@dataclass
class Expected:
    """What the store holds, computed locally from its files.

    Attributes
    ----------
    records : dict
        hash -> record, as ``ResultStore.get`` returns it.
    frames : dict
        request path -> the local ``Frame`` document (``payload()``).
    frame_digests : dict
        request path -> sha256 of the local ``Frame.to_json()`` bytes,
        a fast path: an identical body needs no parsing.
    blobs : list of str
        The shard keys ``list_prefix("shards/")`` returns.
    """

    records: dict[str, dict[str, Any]]
    frames: dict[str, dict[str, Any]]
    frame_digests: dict[str, str]
    blobs: list[str]


def expected_for(store: ResultStore, frame_paths: Sequence[str]) -> Expected:
    """Build :class:`Expected` for *store* and every ``/frame`` path of the mix."""
    from urllib.parse import parse_qsl

    records = {h: store.get(h) for h in store.hashes()}
    frames: dict[str, dict[str, Any]] = {}
    digests: dict[str, str] = {}
    for path in frame_paths:
        query = dict(parse_qsl(path.split("?", 1)[1]))
        by = query.pop("groupby", None)
        agg = query.pop("aggregate", "mean")
        column = query.pop("column", "mean")
        frame = store.frame(**{k: json.loads(v) for k, v in query.items()})
        if by is not None:
            frame = Frame(frame.aggregate(by, column=column, agg=agg))
        frames[path] = json.loads(frame.to_json())
        digests[path] = hashlib.sha256(frame.to_json().encode()).hexdigest()
    assert store.backend is not None
    return Expected(records, frames, digests, store.backend.list_prefix("shards/"))


def response_failure(req: Request, status: int, headers: Mapping[str, str],
                     body: bytes, expected: Expected) -> str | None:
    """Check one HTTP response against the store's own contents."""
    what = f"{req.kind} {req.path[:60]}"
    if status == 304:
        if not req.path.startswith("/cell/"):
            return f"{what}: 304 without a validator"
        h = req.path[len("/cell/"):]
        if req.if_none_match != f'"{h}"':
            return f"{what}: 304 for a stale ETag {req.if_none_match!r}"
        return None if not body else f"{what}: 304 with a body"
    if not 200 <= status < 300:
        return f"{what}: status {status}"
    digest = expected.frame_digests.get(req.path)
    if digest is not None and hashlib.sha256(body).hexdigest() == digest:
        return None  # byte-identical to the local frame
    try:
        doc = json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return f"{what}: body is not JSON ({len(body)} bytes)"
    if req.path.startswith("/cell/"):
        h = req.path[len("/cell/"):]
        if not same(doc, expected.records.get(h)):
            return f"{what}: body differs from ResultStore.get"
        etag = {k.lower(): v for k, v in headers.items()}.get("etag")
        return None if etag == f'"{h}"' else f"{what}: ETag {etag!r} is not the hash"
    if req.path.startswith("/frame"):
        want = expected.frames[req.path]
        rows = doc.get("rows") if isinstance(doc, dict) else None
        if not isinstance(rows, list) or len(rows) != len(want["rows"]):
            got = len(rows) if isinstance(rows, list) else None
            return f"{what}: {got} rows, the store has {len(want['rows'])}"
        if not same(doc, want):
            return f"{what}: rows differ from the local Frame"
        return None
    if req.path.startswith("/blobs"):
        return None if doc == expected.blobs else f"{what}: key list differs"
    return f"{what}: unexpected route"

