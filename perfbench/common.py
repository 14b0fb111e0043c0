"""Harness plumbing: program processes, percentiles, the result line.

The program under test always runs in child processes started from
``perfbench/launcher.py``; this module starts them, talks to them over
line-delimited JSON on stdin/stdout, and reaps them with ``wait4`` so
their peak RSS is read from outside (``ru_maxrss``), never reported
by the process itself.
"""

from __future__ import annotations

import json
import math
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
LAUNCHER = BENCH_DIR / "launcher.py"

#: a line-protocol read that takes longer than this is a timeout
READ_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """A program process misbehaved (died, timed out, spoke garbage)."""


def program_env() -> dict[str, str]:
    """The environment program processes run in: ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Proc:
    """One program process started through ``launcher.py``.

    Stdout is read by a daemon thread into a queue so every read can
    time out; stderr is inherited, so a traceback in the program shows
    in the benchmark's own output.  The launcher pins itself to *cpu*
    (modulo the CPU count) before it imports anything.
    """

    def __init__(self, role: str, *args: str, trace: bool = False,
                 spans: Path | None = None, cpu: int) -> None:
        cmd = [sys.executable, str(LAUNCHER), role, "--trace", "1" if trace else "0",
               "--cpu", str(cpu)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.popen = subprocess.Popen(
            [*cmd, *args], cwd=str(REPO), env=program_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        self.lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.peak_rss_mb: float | None = None

    def _pump(self) -> None:
        assert self.popen.stdout is not None
        for line in self.popen.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def readline(self, timeout: float = READ_TIMEOUT_S) -> str:
        """The next stdout line (without its newline)."""
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            raise BenchError(f"no output from {self.popen.args[2]} in {timeout}s") from None
        if line is None:
            raise BenchError(f"{self.popen.args[2]} exited with code {self.popen.poll()}")
        return line.rstrip("\n")

    def read_json(self, timeout: float = READ_TIMEOUT_S) -> dict[str, Any]:
        """The next stdout line that is a JSON object."""
        deadline = time.monotonic() + timeout
        while True:
            line = self.readline(max(0.1, deadline - time.monotonic()))
            if line.startswith("{"):
                return json.loads(line)

    def send(self, obj: dict[str, Any]) -> None:
        """Write one command line to the process."""
        assert self.popen.stdin is not None
        self.popen.stdin.write(json.dumps(obj) + "\n")
        self.popen.stdin.flush()

    def stop(self, timeout: float = 30.0, *, terminate: bool = False) -> int:
        """End the process (``exit`` command or SIGTERM) and reap it.

        Returns the exit code; :attr:`peak_rss_mb` is set from the
        child's resource usage as the kernel reports it at reap time.
        """
        if self.popen.returncode is not None:
            return self.popen.returncode
        try:
            if terminate:
                self.popen.send_signal(signal.SIGTERM)
            else:
                self.send({"op": "exit"})
                assert self.popen.stdin is not None
                self.popen.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.popen.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.popen.kill()
                pid, status, usage = os.wait4(self.popen.pid, 0)
                break
            time.sleep(0.01)
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # KiB on Linux
        self._reader.join(timeout=5.0)
        if self.popen.stdout is not None:
            self.popen.stdout.close()
        return self.popen.returncode


def stop_all(procs: Sequence[Proc]) -> None:
    """Kill and reap whatever is still running (error paths)."""
    for proc in procs:
        if proc.popen.returncode is None:
            proc.popen.kill()
            proc.stop(timeout=10.0)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

#: a percentile is reported only with at least this many samples above it
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the *q*-th percentile."""
    return n - math.ceil(n * q / 100.0)


def tail_percentile(n: int) -> float | None:
    """The highest of p99 and p90 with :data:`MIN_BEYOND` samples above it."""
    for q in (99.0, 90.0):
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def median(values: Sequence[float]) -> float:
    """The median (``statistics.median``)."""
    return statistics.median(values)


# ----------------------------------------------------------------------
# the result line
# ----------------------------------------------------------------------

@dataclass
class Metric:
    """One reported number: value, unit, and how many samples it rests on."""

    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Outcome:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, failure: str | None) -> None:
        """Count one checked operation; *failure* is ``None`` on success."""
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(failure)


def emit(outcome: Outcome, metrics: dict[str, Metric]) -> None:
    """Print every metric by name, unit and sample count, then the JSON line."""
    for name, m in metrics.items():
        note = f"  [{m.note}]" if m.note else ""
        print(f"{name:44s} {m.value:14.6g} {m.unit:6s} n={m.samples}{note}")
    for reason in outcome.reasons:
        print(f"FAILED: {reason}")
    print(f"operations: attempted={outcome.attempted} failed={outcome.failed}")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in metrics.items()},
    }
    print(json.dumps(result), flush=True)
