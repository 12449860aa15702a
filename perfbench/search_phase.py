"""The online generalization phase: placement search on unseen problems.

A GiPH agent trained briefly during set-up searches unseen problems over
a grid of graph sizes and device counts (the paper's changing-cluster
setting).  The per-instance RNN placer is
retrained on a fixed subset of the same problems.  GiPH search runs the
GNN without autograd; the RNN placer's fitting is LSTM plus autograd.

Every search is a pure function of (seed, problem index): the agent's
sampling stream is rebound per search and each search gets a fresh copy
of its problem (problems cache per-instance state on first use), so the
RNN placer never rides on GiPH's warm-up and traced and untraced passes
over the same problems do identical work.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

import layers
import stats
from tracer import Tracer

SEARCH_KEY = 0x5EA
GIPH_KEY = 0x61
RNN_KEY = 0x52
OVERSAMPLE = 3


@dataclass
class SearchInputs:
    train: list
    problems: list  # interleaved by graph size
    initial: list


@dataclass
class SearchResult:
    giph_ms: list[float] = field(default_factory=list)
    giph_slr: list[float] = field(default_factory=list)
    rnn_ms: list[float] = field(default_factory=list)
    rnn_slr: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def searches_s(self) -> float:
        """Time inside the searches themselves (checks excluded)."""
        return (sum(self.giph_ms) + sum(self.rnn_ms)) / 1000.0


def make_inputs(
    scale, tasks: tuple[int, ...], devices: tuple[int, ...], count: int, seed: int
) -> SearchInputs:
    """``count`` unseen problems over the (graph size, device count) grid.

    Every grid cell gets the same number of problems, interleaved, and
    within a cell the graphs take evenly spaced edge-count ranks of a
    larger draw, so each seed searches the same mix of problem sizes.
    Also builds the set-up training set (``scale``'s own size, device
    counts varied as in the paper's changing-cluster setting).
    """
    from repro.core import random_placement
    from repro.experiments.datasets import multi_network_dataset

    rng = np.random.default_rng([seed, SEARCH_KEY])
    train = multi_network_dataset(
        dataclasses.replace(scale, test_cases=0), rng, vary_sizes=True
    ).train
    cells = [(n, d) for n in tasks for d in devices]
    per_cell = -(-count // len(cells))
    groups = [
        stats.spread_picks(
            multi_network_dataset(
                dataclasses.replace(
                    scale,
                    num_tasks=n,
                    num_devices=d,
                    num_networks=OVERSAMPLE * per_cell,
                    train_graphs=0,
                    test_cases=OVERSAMPLE * per_cell,
                ),
                rng,
            ).test,
            per_cell,
            stats.graph_size,
        )
        for n, d in cells
    ]
    problems = [groups[i % len(cells)][i // len(cells)] for i in range(count)]
    initial = [random_placement(p, rng) for p in problems]
    return SearchInputs(train, problems, initial)


def train_agent(inputs: SearchInputs, seed: int, episodes: int):
    """The set-up training run (its time counts toward ``setup_s``)."""
    from repro.core import GiPHAgent, ReinforceConfig, ReinforceTrainer
    from repro.sim.objectives import MakespanObjective

    rng = np.random.default_rng([seed, SEARCH_KEY, 1])
    agent = GiPHAgent(rng)
    ReinforceTrainer(agent, MakespanObjective(), ReinforceConfig()).train(
        inputs.train, rng, episodes=episodes
    )
    return agent


def _check(problem, trace, result: SearchResult, label: str) -> float | None:
    """Re-score the best placement exactly; return its SLR if it matches."""
    from repro.sim.metrics import cp_min_lower_bound
    from repro.sim.objectives import MakespanObjective

    exact = MakespanObjective().evaluate(problem.cost_model, trace.best_placement)
    if exact != trace.best_value:
        result.failed += 1
        result.errors.append(
            f"{label}: best_value {trace.best_value!r} but exact re-score {exact!r}"
        )
        return None
    return trace.best_value / cp_min_lower_bound(problem.cost_model)


def _search_giph(agent, problem, initial, seed: int, index: int):
    from repro.core import run_search
    from repro.sim.objectives import MakespanObjective

    agent.rng = np.random.default_rng([seed, GIPH_KEY, index])
    return run_search(agent, problem, MakespanObjective(), initial)


def _search_rnn(problem, initial, seed: int, index: int):
    from repro.baselines.rnn_placer import RnnPlacerPolicy
    from repro.sim.objectives import MakespanObjective

    rng = np.random.default_rng([seed, RNN_KEY, index])
    return RnnPlacerPolicy().search(
        problem, MakespanObjective(), initial, 2 * problem.graph.num_tasks, rng
    )


def rnn_subset(inputs: SearchInputs, count: int) -> list[int]:
    """The RNN placer's problems: ``count`` evenly spaced problems of the
    smallest graph size (its cost grows fastest with graph size)."""
    smallest = min(p.graph.num_tasks for p in inputs.problems)
    candidates = [i for i, p in enumerate(inputs.problems) if p.graph.num_tasks == smallest]
    return stats.spread_picks(candidates, count, lambda i: i)


def steps(inputs: SearchInputs, giph: int, rnn: int) -> list[tuple[str, int]]:
    """The searches of a pass as ``(policy, problem index)``: GiPH on the
    first ``giph`` problems, with the RNN placer's subset spread evenly
    between them."""
    rnn_problems = rnn_subset(inputs, rnn)
    rnn_after = {int((k + 1) * giph / len(rnn_problems)) - 1: i for k, i in enumerate(rnn_problems)}
    out = []
    for i in range(giph):
        out.append(("giph", i))
        if i in rnn_after:
            out.append(("rnn", rnn_after[i]))
    return out


def search(inputs: SearchInputs, step: tuple[str, int], agent, seed: int, result: SearchResult):
    """Run one search on a fresh copy of its problem, time it, check it."""
    policy, i = step
    problem = copy.deepcopy(inputs.problems[i])
    result.attempted += 1
    began = time.perf_counter()
    if policy == "giph":
        trace = _search_giph(agent, problem, inputs.initial[i], seed, i)
    else:
        trace = _search_rnn(problem, inputs.initial[i], seed, i)
    getattr(result, f"{policy}_ms").append((time.perf_counter() - began) * 1000.0)
    slr = _check(problem, trace, result, f"{policy} problem {i}")
    if slr is not None:
        getattr(result, f"{policy}_slr").append(slr)


def run_traced(inputs: SearchInputs, agent, seed: int, plan: list, tracer: Tracer) -> SearchResult:
    """The searches of ``plan`` again, traced."""
    result = SearchResult()
    layers.install_search(tracer)
    try:
        for step in plan:
            search(inputs, step, agent, seed, result)
    finally:
        tracer.uninstall()
    return result
