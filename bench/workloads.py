"""The benchmark's three solve workloads.

A workload is a list of games, whose solves the end-to-end times cover
and whose outputs are checked against the captured reference.
`br20_geometric` and `det240_fullscale` are one fixed game each.
`random_small` is a fixed panel of small random games, drawn with the
benchmark's own generator; the library receives only the games. No
workload depends on the seed (see `build`).
"""

from __future__ import annotations

import math

import numpy as np

from arrivalgames import dists
from arrivalgames.workload import SlotGame

WORKLOADS = ("br20_geometric", "det240_fullscale", "random_small")

# The seed of `random_small`'s panel (the existence battery's seed).
REFERENCE_SEED = 2024

# Two games per slot count of the existence battery's range (2-10), in
# two blocks of nine.
RANDOM_GAMES = 18


def _family(index: int):
    # Looked up on the module at call time, so a traced run sees the calls.
    if index == 0:
        return lambda chi: dists.make_deterministic(max(1, int(round(chi))))
    if index == 1:
        return dists.make_geometric
    return lambda chi: dists.make_geometric_mixture(chi, 1.5 * math.sqrt(1 - 1 / chi) + 0.05)


def random_small(seed: int) -> list[SlotGame]:
    """Games with the existence battery's distribution (2-10 slots, slot
    length 1-3, deterministic / geometric / mixture service, lambda
    0.2-5), stratified over the discrete parameters.

    The battery draws slot count, slot length and service family at
    random. Here each slot count appears twice and each (slot length,
    family) pair twice, in two blocks of nine that each hold every slot
    count and every pair once; only the service means and the
    populations come from the seed.
    """
    rng = np.random.default_rng(seed)
    games = []
    for i in range(RANDOM_GAMES):
        k = i % 9
        cell = (k + 4 * (i // 9)) % 9
        tau, family = 1 + cell // 3, _family(cell % 3)
        chi_b = rng.uniform(1.2, 3.0)
        chi_a = chi_b + rng.uniform(0.5, 3.0)
        lam_a = rng.uniform(0.2, 5.0)
        lam_b = rng.uniform(0.2, 5.0)
        games.append(SlotGame(lam_a, lam_b, tau, 2 + k, family(chi_a), family(chi_b)))
    return games


def build(name: str) -> list[SlotGame]:
    """The games one pass of workload `name` solves, in order."""
    if name == "br20_geometric":
        # The paper's 20-slot reference game.
        return [SlotGame(5.0, 5.0, 3, 20, dists.make_geometric(4), dists.make_geometric(2))]
    if name == "det240_fullscale":
        # scenarios/equilibrium_fullscale_240.ini
        return [
            SlotGame(50.0, 50.0, 1, 240, dists.make_deterministic(4), dists.make_deterministic(2))
        ]
    if name == "random_small":
        # The second block of the reference draw, which pairs 3-unit slots
        # with 4-6 slots: eight games of 1-11 outer iterations and one that
        # ends through the stall gate after 50, which takes two thirds of
        # the panel's time. The first block pairs 3-unit slots with 8-10
        # slots, the costliest corner of the distribution: at the
        # reference seed it holds a 200-iteration game of about 30 s, more
        # than a run's time budget. The panel does not follow the run's
        # seed: games drawn from other seeds vary several-fold in cost,
        # and at seed 202 one of them does not converge in 500 outer
        # iterations, while a workload must solve without failures at the
        # commit it is measured on.
        return random_small(REFERENCE_SEED)[9:]
    raise ValueError(f"unknown workload {name!r}")


def describe(game: SlotGame) -> list:
    """A game's parameters, to match a solve with its reference output."""
    return [
        game.lam_a,
        game.lam_b,
        game.tau,
        game.n_slots,
        game.x_a.kind,
        game.x_a.chi,
        game.x_b.chi,
        game.x_a.cv,
        game.x_b.cv,
    ]
