"""Which program functions each phase wraps, and the per-layer metrics.

Names follow ``<phase>.<module>.<quantity>``; ``_s``/``_ms`` quantities
are *self* time (wrapped calls beneath subtracted), summed over the
phase's traced window.  Each phase also reports ``unattributed_s``
(traced wall time no wrapped layer covers) and ``overhead_s`` (traced
minus untraced time for the same work).
"""

from __future__ import annotations

from typing import Any

from tracer import Tracer

EVALUATOR_FIELDS = (
    "evaluations",
    "cache_hits",
    "cache_misses",
    "timeline_hits",
    "timeline_misses",
)


def _install_learning(tracer: Tracer) -> None:
    """Autograd, GNN, features, policy and evaluator layers."""
    from repro.core.features import GpNetBuilder
    from repro.core.gnn import GpNetEmbedding
    from repro.core.policy import ScorePolicy
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor

    tracer.count(Tensor, "__init__", "nn.tensors")
    tracer.wrap(Tensor, "backward", "nn.backward")
    tracer.wrap(Adam, "step", "nn.adam")
    tracer.wrap(GpNetEmbedding, "forward", "core.gnn.forward")
    tracer.wrap(GpNetBuilder, "build", "core.features.build")
    tracer.wrap(GpNetBuilder, "update", "core.features.update")
    tracer.wrap(ScorePolicy, "sample", "core.policy.sample")
    _install_evaluator(tracer)


def _install_evaluator(tracer: Tracer) -> None:
    from repro.runtime.evaluator import PlacementEvaluator

    tracer.wrap(PlacementEvaluator, "timeline", "runtime.evaluator.timeline")
    tracer.wrap(PlacementEvaluator, "evaluate_many", "runtime.evaluator.evaluate_many")
    # Every evaluator built while traced reports its own counters; only
    # the stats object is kept, not the evaluator and its caches.
    tracer.wrap(
        PlacementEvaluator,
        "__init__",
        "runtime.evaluator.init",
        after=lambda args, kwargs, result, s: tracer.evaluator_stats.append(args[0].stats),
    )


def install_train(tracer: Tracer) -> None:
    from repro.baselines.placeto import PlacetoTrainer
    from repro.baselines.task_eft import TaskEftTrainer
    from repro.core.reinforce import ReinforceTrainer

    _install_learning(tracer)
    tracer.wrap(ReinforceTrainer, "run_episode", "core.reinforce.episode")
    tracer.wrap(TaskEftTrainer, "run_episode", "baselines.task_eft.episode")
    tracer.wrap(PlacetoTrainer, "run_episode", "baselines.placeto.episode")


def install_search(tracer: Tracer) -> None:
    from repro.baselines.rnn_placer import RnnPlacer

    _install_learning(tracer)

    def fitted(args, kwargs, result, seconds):
        tracer.counters["baselines.rnn_placer.updates"] += result.updates

    tracer.wrap(RnnPlacer, "fit", "baselines.rnn_placer.fit", after=fitted)
    tracer.count(RnnPlacer, "sample_placement", "baselines.rnn_placer.samples")


def install_serve(tracer: Tracer) -> None:
    """Daemon-side layers (installed by ``serve_launcher.py``)."""
    import repro.serve.batcher as batcher_mod
    import repro.serve.server as server_mod
    from repro.serve.batcher import RequestBatcher
    from repro.serve.server import PlacementServer
    from repro.serve.session import PlacementSession

    _install_evaluator(tracer)
    # Batch service time per placement object, so each submit_many can
    # subtract the service of the batch that answered it: the rest is
    # queue wait (coalescing linger plus batches ahead of it).
    service: dict[int, float] = {}

    def served(args, kwargs, result, seconds):
        batch = args[0]
        tracer.counters["serve.batcher.batches"] += 1
        tracer.counters["serve.batcher.batched"] += len(batch)
        for _, placement in batch:
            service[id(placement)] = seconds

    def submitted(args, kwargs, result, seconds):
        placements = args[2]
        batch_s = max(service.pop(id(p), 0.0) for p in placements)
        tracer.samples["serve.batcher.wait_ms"].append((seconds - batch_s) * 1000.0)

    tracer.wrap(batcher_mod, "coalesce_evaluate", "serve.batcher.service", after=served)
    tracer.wrap(RequestBatcher, "submit_many", "serve.batcher.submit", after=submitted)
    tracer.wrap(PlacementSession, "step", "serve.session.step")
    tracer.wrap(server_mod, "decode_message", "serve.protocol.decode")
    tracer.wrap(server_mod, "encode_message", "serve.protocol.encode")
    tracer.wrap(PlacementServer, "_serve_request", "serve.server.dispatch")


# -- metric derivation ------------------------------------------------------------


def unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_rate"):
        return "ratio"
    return "count"


def _evaluator_metrics(phase: str, stats: dict[str, int]) -> dict[str, float]:
    looked = stats["cache_hits"] + stats["cache_misses"]
    timelines = stats["timeline_hits"] + stats["timeline_misses"]
    return {
        f"{phase}.runtime.evaluator.evaluations": stats["evaluations"],
        f"{phase}.runtime.evaluator.hit_rate": stats["cache_hits"] / looked if looked else 0.0,
        f"{phase}.runtime.evaluator.timeline_hit_rate": (
            stats["timeline_hits"] / timelines if timelines else 0.0
        ),
    }


def sum_evaluator_stats(tracer: Tracer) -> dict[str, int]:
    return {
        field: sum(getattr(s, field) for s in tracer.evaluator_stats)
        for field in EVALUATOR_FIELDS
    }


def learning_metrics(phase: str, tracer: Tracer) -> dict[str, float]:
    out = {
        f"{phase}.nn.backward_s": tracer.self_s("nn.backward"),
        f"{phase}.nn.tensors": tracer.counted("nn.tensors"),
        f"{phase}.nn.adam_s": tracer.self_s("nn.adam"),
        f"{phase}.core.gnn.forward_s": tracer.self_s("core.gnn.forward"),
        f"{phase}.core.gnn.forwards": tracer.calls("core.gnn.forward"),
        f"{phase}.core.features.build_s": tracer.self_s("core.features.build"),
        f"{phase}.core.features.update_s": tracer.self_s("core.features.update"),
        f"{phase}.core.policy.sample_s": tracer.self_s("core.policy.sample"),
        f"{phase}.runtime.evaluator.timeline_s": tracer.self_s("runtime.evaluator.timeline"),
        f"{phase}.runtime.evaluator.evaluate_many_s": tracer.self_s(
            "runtime.evaluator.evaluate_many"
        ),
    }
    out.update(_evaluator_metrics(phase, sum_evaluator_stats(tracer)))
    return out


def train_metrics(tracer: Tracer) -> dict[str, float]:
    out = learning_metrics("train", tracer)
    out["train.core.reinforce.episode_s"] = tracer.self_s("core.reinforce.episode")
    out["train.baselines.task_eft.episode_s"] = tracer.self_s("baselines.task_eft.episode")
    out["train.baselines.placeto.episode_s"] = tracer.self_s("baselines.placeto.episode")
    return out


def search_metrics(tracer: Tracer) -> dict[str, float]:
    out = learning_metrics("search", tracer)
    out["search.baselines.rnn_placer.fit_s"] = tracer.self_s("baselines.rnn_placer.fit")
    out["search.baselines.rnn_placer.samples"] = tracer.counted("baselines.rnn_placer.samples")
    out["search.baselines.rnn_placer.updates"] = tracer.counters["baselines.rnn_placer.updates"]
    return out


def serve_metrics(daemon: dict[str, Any]) -> dict[str, float]:
    """Per-layer serve metrics from the traced daemon's snapshot."""
    tracer = Tracer.from_snapshot(daemon["tracer"])
    waits = tracer.samples["serve.batcher.wait_ms"]
    batches = tracer.counters["serve.batcher.batches"]
    steps = tracer.calls("serve.session.step")
    out = {
        "serve.runtime.evaluator.timeline_s": tracer.self_s("runtime.evaluator.timeline"),
        "serve.runtime.evaluator.evaluate_many_s": tracer.self_s(
            "runtime.evaluator.evaluate_many"
        ),
        "serve.batcher.wait_ms": sum(waits) / len(waits) if waits else 0.0,
        "serve.batcher.batch_size": (
            tracer.counters["serve.batcher.batched"] / batches if batches else 0.0
        ),
        "serve.batcher.batches": batches,
        "serve.session.step_ms": (
            tracer.spans["serve.session.step"][1] * 1000.0 / steps if steps else 0.0
        ),
        "serve.protocol.decode_s": tracer.self_s("serve.protocol.decode"),
        "serve.protocol.encode_s": tracer.self_s("serve.protocol.encode"),
        "serve.server.dispatch_self_s": tracer.self_s("serve.server.dispatch"),
    }
    out.update(_evaluator_metrics("serve", daemon["evaluator"]))
    return out


def connection_top_level_s(daemon: dict[str, Any]) -> float:
    """Daemon time inside wrapped layers on connection threads (the
    request path; the batcher's drain thread overlaps their waits)."""
    return sum(
        seconds
        for thread, seconds in daemon["tracer"]["top_level"].items()
        if thread.startswith("repro-serve-conn")
    )
