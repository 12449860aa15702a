"""The offline phase: REINFORCE training of GiPH, Task-EFT and Placeto.

Inputs are the paper's §5.1 multi-network training set, at the
workload's graph and cluster size.
Each agent is trained serially with REINFORCE, one episode per
``train`` call; the start of the round is then retrained from the same
seed and must give bit-identical weights.  Autograd, the GNN forward and
backward passes and Adam do most of the work.  Every episode is a fresh
problem, so caching across episodes has nothing to reuse here.
"""

from __future__ import annotations

import copy
import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

import layers
import stats
from tracer import Tracer

AGENTS = ("giph", "task_eft", "placeto")
TRAIN_KEY = 0x7A1
#: Episodes retrained from the same seed to check bit-identical weights.
REPEAT_EPISODES = 2


@dataclass
class TrainResult:
    episode_s: dict[str, list] = field(default_factory=lambda: {a: [] for a in AGENTS})
    traced_seconds: float = 0.0
    untraced_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def rate(self, agent: str) -> float:
        """Episodes per second over the timed round."""
        return len(self.episode_s[agent]) / sum(self.episode_s[agent])


def make_inputs(scale, seed: int, episodes: int) -> list:
    """The episode sequence: ``episodes`` problems of the §5.1 training set.

    The trainers would sample problems uniformly; with a few dozen
    episodes that makes the graph mix, and so the cost of a run, swing
    from seed to seed, so the episodes take evenly spaced graph-size
    ranks of the set instead (:func:`stats.spread_picks`).
    """
    from repro.experiments.datasets import multi_network_dataset

    rng = np.random.default_rng([seed, TRAIN_KEY])
    problems = multi_network_dataset(scale, rng).train
    return stats.spread_picks(problems, episodes, stats.graph_size)


def _make_trainer(agent: str, problems: list, seed: int):
    from repro.baselines.placeto import PlacetoAgent, PlacetoTrainer
    from repro.baselines.task_eft import TaskEftAgent, TaskEftTrainer
    from repro.core import GiPHAgent, ReinforceConfig, ReinforceTrainer
    from repro.sim.objectives import MakespanObjective

    rng = np.random.default_rng([seed, TRAIN_KEY, AGENTS.index(agent)])
    if agent == "giph":
        model = GiPHAgent(rng)
        trainer = ReinforceTrainer(model, MakespanObjective(), ReinforceConfig())
    elif agent == "task_eft":
        model = TaskEftAgent(rng)
        trainer = TaskEftTrainer(model, MakespanObjective())
    else:
        model = PlacetoAgent(rng, num_devices=problems[0].network.num_devices)
        trainer = PlacetoTrainer(model, MakespanObjective())
    return model, trainer, rng


def _episode_ok(agent: str, model, outcome) -> bool:
    """Every episode value and gradient norm is finite."""
    if agent == "giph":
        (stats,) = outcome
        values = [
            stats.initial_value,
            stats.final_value,
            stats.best_value,
            stats.total_reward,
            stats.grad_norm,
        ]
    else:
        (reward,) = outcome
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        values = [reward, math.sqrt(sum(float(np.sum(g * g)) for g in grads))]
    return all(math.isfinite(v) for v in values)


def _digest(model) -> str:
    h = hashlib.sha256()
    for param in model.parameters():
        h.update(np.ascontiguousarray(param.data).tobytes())
    return h.hexdigest()


class Round:
    """A fresh agent of every kind training over ``episodes``.

    Each :meth:`step` trains one episode of every agent, so the agents
    take turns and the caller can spread a round over the whole run.
    Each episode is one ``train`` call on a one-problem list: the
    benchmark's stratified sequence decides the problem while the
    trainer's own REINFORCE loop does everything else.  Problems cache
    per-instance state on first use, so every agent trains on its own
    fresh copies.
    """

    def __init__(self, episodes: list, seed: int, result: TrainResult, timed: bool) -> None:
        self.runs = {}
        for agent in AGENTS:
            problems = copy.deepcopy(episodes)
            self.runs[agent] = (problems, *_make_trainer(agent, problems, seed))
        self.result = result
        self.timed = timed
        self.seconds = 0.0
        self.prefix: dict[str, str] = {}  # weights digest after REPEAT_EPISODES
        self.done = 0
        self.total = len(episodes)

    def step(self) -> None:
        k, result = self.done, self.result
        for agent in AGENTS:
            problems, model, trainer, rng = self.runs[agent]
            result.attempted += 1
            began = time.perf_counter()
            outcome = trainer.train([problems[k]], rng, 1)
            elapsed = time.perf_counter() - began
            self.seconds += elapsed
            if self.timed:
                result.episode_s[agent].append(elapsed)
            if not _episode_ok(agent, model, outcome):
                result.failed += 1
                result.errors.append(f"{agent}: non-finite episode value or gradient")
            if k + 1 == REPEAT_EPISODES:
                self.prefix[agent] = _digest(model)
        self.done += 1

    def finish(self) -> "Round":
        while self.done < self.total:
            self.step()
        return self


def repeat(first: Round, episodes: list, seed: int, tracer: Tracer | None = None) -> None:
    """Retrain from the same seed and require bit-identical weights.

    Untraced, only the first :data:`REPEAT_EPISODES` episodes are
    retrained.  With ``tracer`` the whole round is, traced, so the two
    rounds compare the same work untraced and traced.
    """
    result = first.result
    result.untraced_seconds = first.seconds
    again = episodes if tracer is not None else episodes[:REPEAT_EPISODES]
    if tracer is not None:
        layers.install_train(tracer)
    try:
        second = Round(again, seed, result, timed=False).finish()
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.traced_seconds = second.seconds
    for agent in AGENTS:
        if second.prefix[agent] != first.prefix[agent]:
            result.failed += 1
            result.errors.append(f"{agent}: repeat with the same seed gave other weights")
