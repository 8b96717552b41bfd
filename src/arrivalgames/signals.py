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

MODES = ("a", "b")


def _check_pq(p: float, q: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError("mode probability p must lie in [0, 1]")
    if not 0.5 < q <= 1.0:
        raise ValueError("signal correctness q must lie in (1/2, 1]")


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
        _check_pq(self.p, self.q)
        if not self.x_a.chi > self.x_b.chi:
            raise ValueError("slow-mode mean service time must exceed fast-mode")


@dataclass(frozen=True)
class PosteriorView:
    """What a customer with a given signal believes about the system.

    ``nu``: mean counts of (signal-a, signal-b) customers among the others;
    ``eta``: posterior mode weights (slow, fast); ``z``: posterior service
    mixture; ``zeta``: its mean.
    """

    signal: str
    nu: tuple[float, float]
    eta: tuple[float, float]
    z: ServiceDist
    zeta: float


def signal_marginals(p: float, q: float) -> tuple[float, float]:
    """Probability that a customer's signal reads a, respectively b."""
    _check_pq(p, q)
    return p * q + (1.0 - p) * (1.0 - q), p * (1.0 - q) + (1.0 - p) * q


def conditional_split(p: float, q: float, lam: float) -> tuple[
    tuple[float, float], tuple[float, float]
]:
    """Mean population sizes seen by a customer, conditional on own signal.

    Returns (nu_a, nu_b) where nu_i = lam * (P(other reads a | own signal i),
    P(other reads b | own signal i)).
    """
    _check_pq(p, q)
    pa, pb = signal_marginals(p, q)
    aa = (p * q * q + (1.0 - p) * (1.0 - q) * (1.0 - q)) / pa
    ba = (p * q * (1.0 - q) + (1.0 - p) * (1.0 - q) * q) / pa
    ab = (p * (1.0 - q) * q + (1.0 - p) * q * (1.0 - q)) / pb
    bb = (p * (1.0 - q) * (1.0 - q) + (1.0 - p) * q * q) / pb
    return (lam * aa, lam * ba), (lam * ab, lam * bb)


def posterior_views(params: SignalParams) -> tuple[PosteriorView, PosteriorView]:
    """Posterior mode weights, service mixtures and population splits for
    the two signals."""
    p, q = params.p, params.q
    pa, pb = signal_marginals(p, q)
    nu_a, nu_b = conditional_split(p, q, params.lam)
    eta_a = (p * q / pa, (1.0 - p) * (1.0 - q) / pa)
    eta_b = (p * (1.0 - q) / pb, (1.0 - p) * q / pb)
    z_a = mix_services(params.x_a, params.x_b, eta_a[0])
    z_b = mix_services(params.x_a, params.x_b, eta_b[0])
    zeta_a = eta_a[0] * params.x_a.chi + eta_a[1] * params.x_b.chi
    zeta_b = eta_b[0] * params.x_a.chi + eta_b[1] * params.x_b.chi
    return (
        PosteriorView("a", nu_a, eta_a, z_a, zeta_a),
        PosteriorView("b", nu_b, eta_b, z_b, zeta_b),
    )
