"""Simulation harness: RNG streams, stepping engine, the process
registry, the ``simulate``/``run_batch`` facade, and Monte-Carlo
trials."""

from .batch import (
    batched_biased_cover_trials,
    batched_branching_cover_trials,
    batched_coalescing_cover_trials,
    batched_cobra_active_sizes,
    batched_cobra_cover_trials,
    batched_cobra_hit_trials,
    batched_gossip_hit_trials,
    batched_gossip_spread_trials,
    batched_lazy_cover_trials,
    batched_lazy_hit_trials,
    batched_parallel_walks_cover_trials,
    batched_walt_cover_trials,
    batched_walt_hit_trials,
    batched_walt_positions_at,
)
from .engine import SteppingProcess, run_process
from .facade import (
    RunResult,
    run_batch,
    simulate,
)
from .montecarlo import TrialSummary, run_trials, summarize_trials
from .processes import (
    ProcessSpec,
    all_processes,
    get_process,
    process_names,
    register_process,
)
from .record import CoverageCurve, coverage_curve, time_to_cover_fraction
from .rng import (
    SeedLike,
    random_choice_weighted,
    resolve_rng,
    resolve_seed_sequence,
    spawn_rngs,
    spawn_seeds,
)

__all__ = [
    "SteppingProcess",
    "run_process",
    "ProcessSpec",
    "register_process",
    "get_process",
    "all_processes",
    "process_names",
    "RunResult",
    "simulate",
    "run_batch",
    "batched_biased_cover_trials",
    "batched_branching_cover_trials",
    "batched_coalescing_cover_trials",
    "batched_cobra_active_sizes",
    "batched_cobra_cover_trials",
    "batched_cobra_hit_trials",
    "batched_gossip_hit_trials",
    "batched_gossip_spread_trials",
    "batched_lazy_cover_trials",
    "batched_lazy_hit_trials",
    "batched_parallel_walks_cover_trials",
    "batched_walt_cover_trials",
    "batched_walt_hit_trials",
    "batched_walt_positions_at",
    "TrialSummary",
    "run_trials",
    "summarize_trials",
    "CoverageCurve",
    "coverage_curve",
    "time_to_cover_fraction",
    "SeedLike",
    "random_choice_weighted",
    "resolve_rng",
    "resolve_seed_sequence",
    "spawn_rngs",
    "spawn_seeds",
]
