"""Arrival-time equilibria for a single-server queue whose customers hold
heterogeneous beliefs about the service rate.

The building blocks: lattice distributions (`dists`), the noisy-signal
belief mechanism (`signals`), the closed-form fluid equilibrium
(`fluid`), the discrete-time workload recursion (`workload`), the
iterated best-response equilibrium solver (`solver`), the learning
agent-based simulation (`abm`), and a scenario-driven CLI (`cli`).
"""

from .abm import (
    AbmConfig,
    AbmResult,
    DominanceReport,
    choose_slot,
    coupled_dominance,
    run_abm,
    simulate_day,
)
from .dists import (
    NumericFailure,
    Pmf,
    ServiceDist,
    SupportBudgetError,
    compound_poisson,
    convolve,
    make_deterministic,
    make_geometric,
    make_geometric_mixture,
    mix_services,
)
from .fluid import (
    FluidEquilibrium,
    FluidParams,
    InvalidCaseError,
    Segment,
    classify,
    solve_case,
    thresholds,
    verify_fluid,
)
from .signals import (
    PosteriorView,
    SignalParams,
    posterior_views,
    signal_marginals,
)
from .solver import (
    EquilibriumReport,
    SolverConfig,
    best_response,
    iterated_best_response,
    solve_fr,
    verify_equilibrium,
)
from .workload import (
    ArrivalStrategy,
    InvalidStrategyError,
    SlotGame,
    WorkloadProfile,
    WorkloadStepper,
    workload_profile,
)

__all__ = [
    "AbmConfig",
    "AbmResult",
    "ArrivalStrategy",
    "DominanceReport",
    "EquilibriumReport",
    "FluidEquilibrium",
    "FluidParams",
    "InvalidCaseError",
    "InvalidStrategyError",
    "NumericFailure",
    "Pmf",
    "PosteriorView",
    "Segment",
    "ServiceDist",
    "SignalParams",
    "SlotGame",
    "SolverConfig",
    "SupportBudgetError",
    "WorkloadProfile",
    "WorkloadStepper",
    "best_response",
    "choose_slot",
    "classify",
    "compound_poisson",
    "convolve",
    "coupled_dominance",
    "iterated_best_response",
    "make_deterministic",
    "make_geometric",
    "make_geometric_mixture",
    "mix_services",
    "posterior_views",
    "run_abm",
    "signal_marginals",
    "simulate_day",
    "solve_case",
    "solve_fr",
    "thresholds",
    "verify_equilibrium",
    "verify_fluid",
    "workload_profile",
]
