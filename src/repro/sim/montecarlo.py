"""Monte-Carlo trial running and the one trial-summary type.

A trial function receives its own spawned
:class:`numpy.random.SeedSequence` plus static arguments and returns a
float; :func:`run_trials` loops over the spawned seeds, so trial ``i``
always consumes the same stream.  :func:`_pool_context` is the
process-pool start method the cross-cell worker pool
(``Campaign(workers=N)``) uses.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from .rng import SeedLike, spawn_seeds

__all__ = ["TrialSummary", "run_trials", "summarize_trials"]


@dataclass(frozen=True)
class TrialSummary:
    """Summary statistics over trial outcomes (NaNs = failed trials).

    With a single successful trial ``std`` and ``ci95_half_width`` are
    ``nan``: one sample carries no spread information, and reporting
    ``0.0`` would present a point estimate as a zero-width interval.

    This is the single summary type for the whole repo:
    :func:`repro.analysis.stats.summarize` returns it too (its
    historical ``SummaryStats`` name is an alias), so facade batches,
    Monte-Carlo harness output, and analysis tables all speak one
    schema.
    """

    values: np.ndarray
    mean: float
    std: float
    median: float
    ci95_half_width: float
    failures: int
    q25: float = np.nan
    q75: float = np.nan
    minimum: float = np.nan
    maximum: float = np.nan

    @property
    def trials(self) -> int:
        """Total number of trials, failed ones included."""
        return int(self.values.size)

    @property
    def n(self) -> int:
        """Number of successful (non-NaN) trials."""
        return int(self.values.size) - self.failures

    @property
    def nan_count(self) -> int:
        """Alias of :attr:`failures` (historical ``SummaryStats`` name)."""
        return self.failures


def summarize_trials(values: np.ndarray) -> TrialSummary:
    """Build a :class:`TrialSummary` from raw trial values."""
    values = np.asarray(values, dtype=np.float64).ravel()
    ok = values[~np.isnan(values)]
    failures = int(values.size - ok.size)
    if ok.size == 0:
        return TrialSummary(values, np.nan, np.nan, np.nan, np.nan, failures)
    mean = float(ok.mean())
    # one sample has no spread information: report nan, not a zero-width
    # confidence interval that dresses a point estimate up as certainty
    std = float(ok.std(ddof=1)) if ok.size > 1 else float("nan")
    half = 1.96 * std / np.sqrt(ok.size) if ok.size > 1 else float("nan")
    return TrialSummary(
        values,
        mean,
        std,
        float(np.median(ok)),
        half,
        failures,
        q25=float(np.quantile(ok, 0.25)),
        q75=float(np.quantile(ok, 0.75)),
        minimum=float(ok.min()),
        maximum=float(ok.max()),
    )


def run_trials(
    fn: Callable[..., float],
    trials: int,
    *,
    seed: SeedLike = None,
    args: Sequence[Any] = (),
    kwargs: dict | None = None,
) -> TrialSummary:
    """Run ``fn(seed_sequence, *args, **kwargs)`` *trials* times.

    Trial ``i`` receives child ``i`` of ``spawn_seeds(seed, trials)``,
    so its value depends on nothing but that seed and the static
    arguments.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    kwargs = kwargs or {}
    values = [float(fn(s, *args, **kwargs)) for s in spawn_seeds(seed, trials)]
    return summarize_trials(np.array(values))


def _pool_context() -> mp.context.BaseContext:
    """Pool context: ``fork`` where the platform offers it (cheapest —
    the graph ships by page sharing), else the platform default
    (``spawn`` on macOS/Windows, where ``get_context("fork")`` raises)."""
    method = "fork" if "fork" in mp.get_all_start_methods() else None
    return mp.get_context(method)
