"""Program-process launcher: the only code that runs inside the program.

    python3 perfbench/launcher.py campaign|worker --cpu N --trace 0|1 [--spans F] --specs PICKLE
    python3 perfbench/launcher.py server --cpu N --trace 0|1 [--spans F] --store DIR

The process first pins itself to CPU ``N`` (modulo the CPU count).

Each role imports the CLI module cold (that import is the start-up cost
a ``sweep`` command pays), loads the sweep specs the harness generated,
expands them, prints one ``{"ready": ...}`` line and then serves
line-delimited JSON commands on stdin:

* ``campaign``: ``{"op": "run", "store": DIR, "specs": PICKLE}`` runs
  ``Campaign.run`` for every spec into ``ResultStore(DIR)``;
* ``worker``: ``{"op": "drain", "store": DIR, "owner": ID}`` runs one
  ``dispatch.drain`` over the loaded specs;
* ``{"op": "exit"}`` ends the process.

``server`` runs ``sweep serve --port 0`` through the CLI's ``main`` and
stops on SIGTERM.  With ``--trace 1`` the process installs the timing
wrappers of :mod:`perfbench.tracing` before any work and writes its
spans to ``--spans`` when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))


def _say(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def _engine_counters(tracer) -> dict[str, dict]:
    """The batched engines' ``repro.obs`` counters, per cell hash prefix."""
    out: dict[str, dict] = {}
    for span in tracer.spans:
        if span.counters and "cell" in span.attrs:
            entry = out.setdefault(span.attrs["cell"], {"trials": span.attrs.get("trials")})
            entry.update(span.counters)
    return out


def _load_specs(path: str) -> list:
    # the pickle was written by the harness of this same benchmark run
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _serve_commands(specs: list, trace: bool) -> None:
    from repro.obs.trace import Tracer
    from repro.store import Campaign, ResultStore, dispatch

    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["op"] == "exit":
            return
        tracer = Tracer() if trace else None
        if cmd["op"] == "run":
            store = ResultStore(cmd["store"])
            ran = sum(len(Campaign(spec, store, tracer=tracer).run().ran)
                      for spec in _load_specs(cmd["specs"]))
        else:
            ran = len(dispatch.drain(specs, ResultStore(cmd["store"]), owner=cmd["owner"],
                                     wait=True, tracer=tracer).ran)
        _say({
            "done": True,
            "ran": ran,
            "counters": _engine_counters(tracer) if tracer is not None else {},
        })


def main(argv: list[str] | None = None) -> int:
    """Run one program process (see the module docstring)."""
    parser = argparse.ArgumentParser(prog="launcher")
    parser.add_argument("role", choices=("campaign", "worker", "server"))
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--specs", default=None)
    parser.add_argument("--store", default=None)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu % (os.cpu_count() or 1)})

    t0 = time.perf_counter()
    import repro.experiments.cli as cli

    import_s = time.perf_counter() - t0
    recorder = None
    if args.trace:
        from perfbench.tracing import Recorder, install

        recorder = Recorder()
        install(recorder)
    try:
        if args.role == "server":
            _say({"import_s": import_s})
            return cli.main(["sweep", "serve", "--store", args.store, "--port", "0"])
        specs = _load_specs(args.specs)
        from repro.store import Campaign

        cells = sum(len(Campaign(spec).cells) for spec in specs)
        _say({"ready": True, "import_s": import_s, "cells": cells})
        _serve_commands(specs, bool(args.trace))
        return 0
    finally:
        if recorder is not None and args.spans:
            recorder.dump(Path(args.spans))


if __name__ == "__main__":
    sys.exit(main())
