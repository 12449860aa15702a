#!/usr/bin/env python3
"""The repository benchmark: GiPH training, search and serving, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 40 --trace 0

Every run sets up its inputs from ``--seed``, then measures three phases
of the system through its public entry points, checks their outputs, and
prints one JSON line last: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` installs the benchmark's layer
wrappers and reports the per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up is repeated this many times per run; ``setup_s`` takes the median.
SETUP_REPEATS = 3
#: Serve latencies are reported at the middle offered rate, pooled over
#: many short windows spread across the whole run.  Host speed on a
#: shared machine swings by up to 2x from one second to the next; a few
#: long windows each catch one stretch of it, many short ones average it
#: out the way the sliced training and search do.  The load is light
#: (events keep one daemon thread ~17% busy) because queueing multiplies
#: any slowdown.
MIDDLE_RATE = 56.0
MIDDLE_WINDOWS = 16
#: Share of ``--seconds`` spent at the middle rate, all windows together.
MIDDLE_SHARE = 0.336
#: The other rates, one window each: (offered req/s, share of ``--seconds``).
OTHER_WINDOWS = ((15.0, 0.05), (90.0, 0.05))
RATES = tuple(sorted({MIDDLE_RATE, *(rate for rate, _ in OTHER_WINDOWS)}))
#: An untimed window at the middle rate in set-up, so that the first
#: timed window does not pay for the daemon's first requests.
WARMUP_S = 1.0
#: p90 latency limit (ms) over all requests of a rate, for ``serve_max_rps``.
LATENCY_LIMIT_MS = 100.0
#: Shares of ``--seconds`` spent measuring training and search.
SHARES = {"train": 0.22, "search": 0.28}
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """Input sizes for every phase, and the work sized to ``--seconds``.

    ``train_episode_s``, ``giph_search_s`` and ``rnn_search_s`` are the
    rough cost, on a 2-vCPU x86 virtual machine, of one episode of all
    three agents and of one GiPH or RNN-placer search.  They only size
    the fixed work of a run from ``--seconds``; no metric uses them.
    """

    num_tasks: int
    num_devices: int
    search_tasks: tuple[int, ...]
    search_devices: tuple[int, ...]
    setup_episodes: int
    train_episode_s: float
    giph_search_s: float
    rnn_search_s: float

    def scale(self):
        from repro.experiments.config import PAPER

        return dataclasses.replace(
            PAPER, num_tasks=self.num_tasks, num_devices=self.num_devices
        )


WORKLOADS = {
    # The paper's §5.1 size: most time goes to NumPy work per call.
    "paper": Workload(20, 10, (10, 15, 20), (5, 7, 10), 4, 0.5, 0.065, 0.4),
    # Half size: per-call Python and autograd bookkeeping dominate.
    "small": Workload(10, 5, (6, 8, 10), (3, 4, 5), 4, 0.2, 0.025, 0.15),
}


def serve_windows(seconds: float) -> tuple[tuple[float, float], ...]:
    """(offered req/s, seconds) of every timed serve window, in run order.

    The middle-rate windows together hold at least 100 requests of each
    kind, so the report's pooled p90 of each kind is defined; the other
    rates' windows sit among them at even intervals.
    """
    import serve_phase
    import stats

    rarer_kind = min(serve_phase.EVENT_SHARE, 1.0 - serve_phase.EVENT_SHARE)
    per_window = math.ceil(stats.min_samples_for(0.9) / MIDDLE_WINDOWS)
    window_min_s = (math.ceil(per_window / rarer_kind) + 0.5) / MIDDLE_RATE
    middle_s = max(seconds * MIDDLE_SHARE / MIDDLE_WINDOWS, window_min_s)
    windows = [(MIDDLE_RATE, middle_s)] * MIDDLE_WINDOWS
    for k, (rate, share) in reversed(list(enumerate(OTHER_WINDOWS, 1))):
        windows.insert(k * MIDDLE_WINDOWS // (len(OTHER_WINDOWS) + 1), (rate, seconds * share))
    return tuple(windows)


def fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARS},
    }


def finite(value: float) -> float:
    return value if math.isfinite(value) else sys.float_info.max


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    import numpy  # noqa: F401

    import layers
    import search_phase
    import serve_phase
    import stats
    import train_phase
    from tracer import Tracer

    import repro.baselines  # noqa: F401
    import repro.core  # noqa: F401
    import repro.experiments.datasets  # noqa: F401
    import repro.serve.client  # noqa: F401

    import_s = time.perf_counter() - _STARTED
    workload = WORKLOADS[args.workload]
    seed, seconds, traced = args.seed, args.seconds, bool(args.trace)
    train_episodes = max(
        train_phase.REPEAT_EPISODES, round(SHARES["train"] * seconds / workload.train_episode_s)
    )
    search_budget = SHARES["search"] * seconds
    rnn_count = max(3, round(0.4 * search_budget / workload.rnn_search_s))
    giph_count = max(
        stats.min_samples_for(0.9), round(0.6 * search_budget / workload.giph_search_s)
    )
    windows = serve_windows(seconds)

    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    daemons = []
    errors: list[str] = []
    attempted = failed = 0
    try:
        # -- set-up, repeated; the last repetition's state is used ----------------
        setup_times = []
        for k in range(SETUP_REPEATS):
            began = time.perf_counter()
            train_inputs = train_phase.make_inputs(workload.scale(), seed, train_episodes)
            search_inputs = search_phase.make_inputs(
                workload.scale(),
                workload.search_tasks,
                workload.search_devices,
                giph_count,
                seed,
            )
            agent = search_phase.train_agent(search_inputs, seed, workload.setup_episodes)
            serve_inputs = serve_phase.make_inputs(((MIDDLE_RATE, WARMUP_S),) + windows, seed)
            daemon = serve_phase.Daemon(workdir, f"d{k}", seed, traced=False)
            daemons.append(daemon)
            warmup_plan, *plans = serve_phase.prepare(
                daemon, serve_inputs, serve_inputs.plans, seed
            )
            with serve_phase.connections(daemon) as conns:
                warmup = serve_phase.run_rate(conns, warmup_plan)
            setup_times.append(time.perf_counter() - began)
            if k < SETUP_REPEATS - 1:
                daemon.stop()
        setup_s = import_s + stats.median(setup_times)

        # -- measurement: the three phases sliced across the whole run ----------
        # Host noise on a shared machine comes in bursts of seconds.  Each
        # slice runs one training episode per agent, its share of the
        # searches and its share of the serve windows, so every metric
        # samples the whole run instead of one stretch of it.
        train = train_phase.TrainResult()
        first_round = train_phase.Round(train_inputs, seed, train, timed=True)
        search = search_phase.SearchResult()
        search_plan = search_phase.steps(search_inputs, giph_count, rnn_count)
        slices = max(first_round.total, len(plans))
        searched = served = 0
        outcomes = []
        with serve_phase.connections(daemon) as conns:
            for j in range(1, slices + 1):
                if first_round.done < first_round.total * j // slices:
                    first_round.step()
                while searched < len(search_plan) * j // slices:
                    search_phase.search(search_inputs, search_plan[searched], agent, seed, search)
                    searched += 1
                while served < len(plans) * j // slices:
                    outcomes.append(serve_phase.run_rate(conns, plans[served]))
                    served += 1
        first_round.finish()

        def check_serve(daemon, plans, outcomes):
            nonlocal attempted, failed
            for plan, outcome in zip(plans, outcomes):
                attempted += len(plan.schedule)
                problems = serve_phase.check_evaluates(serve_inputs, plan, outcome)
                problems += serve_phase.check_sessions(daemon, plan)
                failed += outcome.failed + len(problems)
                errors.extend(problems)
                if outcome.failed:
                    errors.append(f"rate {plan.rate}: {outcome.failed} request(s) failed")
            daemon.stop()

        check_serve(daemon, [warmup_plan, *plans], [warmup, *outcomes])
        train_tracer = Tracer() if traced else None
        train_phase.repeat(first_round, train_inputs, seed, train_tracer)
        if traced:
            search_tracer = Tracer()
            search_traced = search_phase.run_traced(
                search_inputs, agent, seed, search_plan, search_tracer
            )
            # Every serve window again on a traced daemon; the low rate's
            # latency difference is the tracing overhead.
            traced_daemon = serve_phase.Daemon(workdir, "traced", seed, traced=True)
            daemons.append(traced_daemon)
            traced_plans = serve_phase.prepare(
                traced_daemon, serve_inputs, serve_inputs.plans, seed
            )
            with serve_phase.connections(traced_daemon) as conns:
                traced_outcomes = [serve_phase.run_rate(conns, traced_plans[0])]
                traced_daemon.clear_layers()
                traced_outcomes += [serve_phase.run_rate(conns, p) for p in traced_plans[1:]]
            serve_layers = traced_daemon.layers()
            check_serve(traced_daemon, traced_plans, traced_outcomes)
            traced_outcomes = traced_outcomes[1:]
        for part in (train, search) + ((search_traced,) if traced else ()):
            attempted += part.attempted
            failed += part.failed
            errors += part.errors

        def by_rate(outcomes):
            return {
                rate: serve_phase.merge([o for o in outcomes if o.rate == rate])
                for rate in RATES
            }

        per_rate = by_rate(outcomes)
        rate_results = [per_rate[rate].result(LATENCY_LIMIT_MS) for rate in RATES]
        middle = per_rate[MIDDLE_RATE]

        if not traced:
            metrics = {
                "setup_s": (setup_s, "s"),
                "train_giph_eps": (train.rate("giph"), "episodes/s"),
                "train_task_eft_eps": (train.rate("task_eft"), "episodes/s"),
                "train_placeto_eps": (train.rate("placeto"), "episodes/s"),
                "search_giph_ms_p50": (stats.median(search.giph_ms), "ms"),
                "search_giph_ms_p90": (stats.tail(search.giph_ms, 0.9), "ms"),
                "search_giph_slr": (mean(search.giph_slr), "SLR"),
                "search_rnn_ms_mean": (mean(search.rnn_ms), "ms"),
                "search_rnn_slr": (mean(search.rnn_slr), "SLR"),
                "serve_event_ms_p50": (stats.median(middle.kind_ms("event")), "ms"),
                "serve_eval_ms_p50": (stats.median(middle.kind_ms("evaluate")), "ms"),
                "serve_max_rps": (stats.max_rps(rate_results, LATENCY_LIMIT_MS), "req/s"),
            }
        else:
            train_metrics = layers.train_metrics(train_tracer)
            train_metrics["train.unattributed_s"] = train.traced_seconds - sum(
                train_tracer.top_level.values()
            )
            train_metrics["train.overhead_s"] = train.traced_seconds - train.untraced_seconds
            search_metrics = layers.search_metrics(search_tracer)
            search_metrics["search.unattributed_s"] = search_traced.searches_s - sum(
                search_tracer.top_level.values()
            )
            search_metrics["search.overhead_s"] = search_traced.searches_s - search.searches_s
            serve_metrics = layers.serve_metrics(serve_layers)
            answered = [
                ms for o in traced_outcomes for ms in o.latency_ms if math.isfinite(ms)
            ]
            serve_metrics["serve.unattributed_s"] = sum(answered) / 1000.0 - (
                layers.connection_top_level_s(serve_layers)
            )
            traced_low = by_rate(traced_outcomes)[RATES[0]]
            low_traced = [ms for ms in traced_low.latency_ms if math.isfinite(ms)]
            low_untraced = [ms for ms in per_rate[RATES[0]].latency_ms if math.isfinite(ms)]
            serve_metrics["serve.overhead_s"] = (sum(low_traced) - sum(low_untraced)) / 1000.0
            metrics = {
                name: (value, layers.unit(name))
                for name, value in {**train_metrics, **search_metrics, **serve_metrics}.items()
            }

        report = {
            "workload": args.workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(traced),
            "fingerprint": fingerprint(),
            "work": {
                "train_episodes_per_agent": train_episodes,
                "giph_searches": len(search.giph_ms),
                "rnn_searches": len(search.rnn_ms),
                "serve_windows": windows,
                "serve_middle_rate": {
                    kind: {
                        "samples": len(middle.kind_ms(kind)),
                        "p50_ms": stats.median(middle.kind_ms(kind)),
                        "p90_ms": stats.tail(middle.kind_ms(kind), 0.9),
                        "window_p50_ms": [
                            stats.median(o.kind_ms(kind))
                            for o in outcomes
                            if o.rate == MIDDLE_RATE
                        ],
                    }
                    for kind in ("event", "evaluate")
                },
            },
            "setup_times_s": setup_times,
            "import_s": import_s,
            "serve_rates": [
                {**dataclasses.asdict(r), "valid": r.valid} for r in rate_results
            ],
            "errors": errors,
        }
    finally:
        for daemon in daemons:
            daemon.kill()
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": finite(float(value)), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def mean(values) -> float:
    return sum(values) / len(values) if values else float("nan")


if __name__ == "__main__":
    sys.exit(main())
