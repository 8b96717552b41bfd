"""Random-environment signal mechanism.

The server runs in a slow mode (a) with probability p, otherwise fast
(b). Each customer receives a noisy binary signal that matches the true
mode with probability q > 1/2. From the signal, a customer forms a
posterior over the mode, over the population sizes behind each signal,
and over the effective service-time law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dists import ServiceDist, mix_services


def _side(belief: str) -> int:
    """The one reader of a belief label: 0 for "a" (slow service), 1 for
    "b", and ``ValueError`` for anything else."""
    if belief not in ("a", "b"):
        raise ValueError(f"belief must be 'a' or 'b', got {belief!r}")
    return int(belief == "b")


@dataclass(frozen=True)
class SignalParams:
    """Environment: total population mean, mode prior, signal quality, and
    the per-mode service laws (slow mean must exceed fast mean)."""

    lam: float
    p: float
    q: float
    x_a: ServiceDist
    x_b: ServiceDist

    def __post_init__(self):
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("population mean must be finite and nonnegative")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("mode probability p must lie in [0, 1]")
        if not 0.5 < self.q <= 1.0:
            raise ValueError("signal correctness q must lie in (1/2, 1]")
        if not self.x_a.chi > self.x_b.chi:
            raise ValueError("slow-mode mean service time must exceed fast-mode")


@dataclass(frozen=True)
class PosteriorView:
    """What a customer with a given signal believes about the system; the
    view of signal a comes first in the pair ``posterior_views`` returns.

    ``marginal``: the probability that a customer's signal reads this one;
    ``nu``: mean counts of (signal-a, signal-b) customers among the others;
    ``eta``: posterior mode weights (slow, fast); ``z``: posterior service
    mixture; ``zeta``: its mean.
    """

    marginal: float
    nu: tuple[float, float]
    eta: tuple[float, float]
    z: ServiceDist
    zeta: float


def posterior_views(params: SignalParams) -> tuple[PosteriorView, PosteriorView]:
    """Marginals, posterior mode weights, population splits and service
    mixtures for the two signals, from the joint law of (server mode,
    signal).

    ``joint[m][s]`` is the probability of mode m (0 slow, 1 fast) together
    with own signal s; ``reads[m][r]`` is the probability that another
    customer's signal reads r in mode m. A signal that is never observed
    (q = 1 with p = 0 or 1) has no posterior: ``ValueError``.
    """
    p, q = params.p, params.q
    joint = ((p * q, p * (1.0 - q)), ((1.0 - p) * (1.0 - q), (1.0 - p) * q))
    reads = ((q, 1.0 - q), (1.0 - q, q))
    views = []
    for s, name in enumerate("ab"):
        marginal = joint[0][s] + joint[1][s]
        if marginal == 0.0:
            raise ValueError(f"signal {name} is never observed at p = {p!r}, q = {q!r}")
        eta = (joint[0][s] / marginal, joint[1][s] / marginal)
        nu = tuple(
            params.lam * ((joint[0][s] * reads[0][r] + joint[1][s] * reads[1][r]) / marginal)
            for r in (0, 1)
        )
        z = mix_services(params.x_a, params.x_b, eta[0])
        views.append(PosteriorView(marginal, nu, eta, z, z.chi))
    return views[0], views[1]
