"""The serving phase: open-loop traffic against a ``repro serve`` daemon.

The daemon runs as a subprocess with its shipped defaults.  One
generator thread (the caller's) sends Poisson arrivals at fixed offered
rates over at most ``nproc`` AF_UNIX connections and never waits for a
reply before sending the next request; latency is timed from when each
request was *due*, so a stall also charges the requests queued behind it.

Two request kinds:

* ``event`` on a ``task-eft`` session over the edge-churn,
  mixed-dynamics and compute-brownout presets.  A write: it advances the
  session and runs a search.  It bypasses the request batcher.
* ``evaluate`` of a batch of placements drawn, with a skew, from a
  seeded pool that fits inside the evaluator cache and is loaded into it
  during set-up.  A read: it goes through the ``RequestBatcher`` and
  hits the cache.

With two or more connections events and evaluates get their own, so a
slow event never queues an evaluate behind it on the same socket.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import json
import os
import pathlib
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import stats

PRESETS = ("edge-churn", "mixed-dynamics", "compute-brownout")
POLICY = "task-eft"
SERVE_KEY = 0x5E7
POOL_SIZE = 128  # placements per evaluate problem; 11 problems x 128 << cache
BATCH = 8  # placements per evaluate request
ZIPF_S = 1.1
#: Share of ``event`` requests.  Below one half so that a window holding
#: 100 events carries 150 evaluates: more samples under the evaluate tail.
EVENT_SHARE = 0.4
#: Events each session serves.  Later events of a preset can carry twice
#: the graphs of early ones; many short sessions keep every window's
#: event mix alike, so its percentiles do not hinge on which few long
#: sessions it happened to draw.
EVENTS_PER_SESSION = 3
BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
FINE_WAIT_S = 0.002
#: Quiet time between the end of the benchmark's own work and the first
#: send of a window, so the daemon starts the window undisturbed.
SETTLE_S = 0.1
POLL_S = 0.0002

HERE = pathlib.Path(__file__).resolve().parent


# -- daemon process -----------------------------------------------------------------


class Daemon:
    """One ``repro serve`` subprocess (optionally through the tracing launcher)."""

    def __init__(self, workdir: pathlib.Path, name: str, seed: int, traced: bool) -> None:
        self.socket_path = str(workdir / f"{name}.sock")
        self.snapshot_path = workdir / f"{name}-layers.json"
        self.traced = traced
        args = [
            "--socket",
            self.socket_path,
            "--seed",
            str(seed),
            "--trace-log",
            str(workdir / f"{name}-telemetry.jsonl"),
        ]
        if traced:
            command = [sys.executable, str(HERE / "serve_launcher.py"), str(self.snapshot_path), *args]
        else:
            command = [sys.executable, "-m", "repro", "serve", *args]
        env = dict(os.environ)
        src = str(HERE.parent / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(workdir / f"{name}.log", "wb")
        began = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL, stderr=self._log
        )
        self.client = self._connect()
        self.client.ping()
        self.boot_s = time.perf_counter() - began

    def _connect(self):
        from repro.serve.client import ServeClient

        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited during boot ({self.process.returncode})")
            try:
                return ServeClient(self.socket_path, connect_retry_s=0.0)
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(self.socket_path)
        return sock

    def _signal_and_wait(self, signum: int, path: pathlib.Path) -> None:
        path.unlink(missing_ok=True)
        self.process.send_signal(signum)
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while not path.exists():
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError(f"traced daemon did not answer signal {signum}")
            time.sleep(0.005)

    def clear_layers(self) -> None:
        """Traced daemon: forget the set-up requests' spans."""
        self._signal_and_wait(signal.SIGUSR1, self.snapshot_path.with_name(
            self.snapshot_path.name + ".cleared"))

    def layers(self) -> dict:
        """Traced daemon: the per-layer snapshot since :meth:`clear_layers`."""
        self._signal_and_wait(signal.SIGUSR2, self.snapshot_path)
        return json.loads(self.snapshot_path.read_text())

    def stop(self) -> None:
        """Shut down through the protocol and wait for the exit."""
        try:
            self.client.shutdown()
        except (OSError, RuntimeError):
            self.process.terminate()
        finally:
            self.client.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._log.close()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self.client.close()
        self._log.close()


# -- inputs -------------------------------------------------------------------------


@dataclass
class EvalProblem:
    scenario: str
    seed: int
    graph: int
    pool: list  # list[tuple[int, ...]]


@dataclass
class RatePlan:
    rate: float
    schedule: list  # list[stats.Arrival]
    evaluate_args: list  # per evaluate arrival: (problem index, placement indices)
    sessions: list = field(default_factory=list)  # [(session id, scenario, seed, events)]
    payloads: list = field(default_factory=list)  # encoded request per arrival


@dataclass
class ServeInputs:
    eval_problems: list
    plans: list


def make_inputs(windows: tuple[tuple[float, float], ...], seed: int) -> ServeInputs:
    """Evaluate pools and one arrival schedule per (rate, seconds) window."""
    from repro.core.placement import PlacementProblem, random_placement
    from repro.scenarios.events import materialize
    from repro.scenarios.registry import DEFAULT_REGISTRY

    rng = np.random.default_rng([seed, SERVE_KEY])
    eval_problems = []
    for name in PRESETS:
        scen_seed = int(rng.integers(0, 2**31))
        mat = materialize(DEFAULT_REGISTRY.get(name, seed=scen_seed))
        for g, graph in enumerate(mat.initial_graphs):
            problem = PlacementProblem(graph, mat.initial_network)
            pool = list(dict.fromkeys(random_placement(problem, rng) for _ in range(POOL_SIZE)))
            eval_problems.append(EvalProblem(name, scen_seed, g, pool))
    plans = []
    for w, (rate, window_s) in enumerate(windows):
        schedule = stats.poisson_schedule(rate, window_s, EVENT_SHARE, [seed, SERVE_KEY, w])
        args = []
        for arrival in schedule:
            if arrival.kind == "evaluate":
                p = int(rng.integers(0, len(eval_problems)))
                size = len(eval_problems[p].pool)
                weights = 1.0 / np.arange(1, size + 1) ** ZIPF_S
                picks = rng.choice(size, size=BATCH, p=weights / weights.sum())
                args.append((p, [int(k) for k in picks]))
        plans.append(RatePlan(rate, schedule, args))
    return ServeInputs(eval_problems, plans)


def _encode(message: dict) -> bytes:
    return (json.dumps(message, separators=(",", ":")) + "\n").encode()


def prepare(daemon: Daemon, inputs: ServeInputs, plans: list, seed: int) -> list:
    """Open enough sessions for each plan's events and encode its requests.

    Returns fresh per-daemon copies of ``plans``; the session seeds are a
    pure function of ``seed`` so every daemon replays identical sessions.
    """
    client = daemon.client
    # Materialize each evaluate scenario and fill the evaluator cache with
    # every pool, outside the timed windows: the timed evaluates are reads
    # that hit the cache, so no window pays for a cold one.
    for p in inputs.eval_problems:
        client.evaluate(p.scenario, p.pool, seed=p.seed, graph=p.graph)
    rng = np.random.default_rng([seed, SERVE_KEY, 7])
    prepared = []
    for plan in plans:
        events = sum(a.kind == "event" for a in plan.schedule)
        sessions, queue = [], []
        while len(queue) < events:
            name = PRESETS[len(sessions) % len(PRESETS)]
            scen_seed = int(rng.integers(0, 2**31))
            opened = client.open_session(name, policy=POLICY, seed=scen_seed)
            take = min(int(opened["events"]), EVENTS_PER_SESSION, events - len(queue))
            sessions.append((opened["session"], name, scen_seed, take))
            queue.extend([opened["session"]] * take)
        payloads, evaluate_args = [], iter(plan.evaluate_args)
        session_ids = iter(queue)
        for i, arrival in enumerate(plan.schedule):
            if arrival.kind == "event":
                payloads.append(_encode({"op": "event", "session": next(session_ids), "id": i}))
            else:
                p, picks = next(evaluate_args)
                problem = inputs.eval_problems[p]
                payloads.append(
                    _encode(
                        {
                            "op": "evaluate",
                            "scenario": problem.scenario,
                            "seed": problem.seed,
                            "graph": problem.graph,
                            "placements": [list(problem.pool[k]) for k in picks],
                            "id": i,
                        }
                    )
                )
        prepared.append(
            RatePlan(plan.rate, plan.schedule, plan.evaluate_args, sessions, payloads)
        )
    return prepared


# -- the open-loop generator --------------------------------------------------------


@dataclass
class RateOutcome:
    """What one window (or several merged windows) of a rate measured."""

    rate: float
    kinds: list  # request kind per arrival
    latency_ms: list  # per arrival; inf when failed or unanswered
    late_ms: list  # how late each send went out
    responses: list  # decoded response per arrival (None if missing)
    max_backlog: int
    backlog_growth: float
    completed: int
    busy_s: float  # window start to last completion
    failed: int

    def kind_ms(self, kind: str) -> list:
        return [ms for k, ms in zip(self.kinds, self.latency_ms) if k == kind]

    def result(self, limit_ms: float) -> stats.RateResult:
        return stats.RateResult(
            offered_rps=self.rate,
            achieved_rps=self.completed / self.busy_s if self.busy_s > 0 else 0.0,
            p90_ms=stats.nearest_rank(self.latency_ms, 0.9),
            late_p90_ms=stats.nearest_rank(self.late_ms, 0.9),
            max_backlog=self.max_backlog,
            backlog_growth=self.backlog_growth,
            growth_limit=stats.growth_limit(self.rate, limit_ms),
        )


def merge(outcomes: list) -> RateOutcome:
    """Pool the windows of one rate: samples concatenate, the backlog
    growth is the worst window's."""
    return RateOutcome(
        rate=outcomes[0].rate,
        kinds=[k for o in outcomes for k in o.kinds],
        latency_ms=[ms for o in outcomes for ms in o.latency_ms],
        late_ms=[ms for o in outcomes for ms in o.late_ms],
        responses=[r for o in outcomes for r in o.responses],
        max_backlog=max(o.max_backlog for o in outcomes),
        backlog_growth=max(o.backlog_growth for o in outcomes),
        completed=sum(o.completed for o in outcomes),
        busy_s=sum(o.busy_s for o in outcomes),
        failed=sum(o.failed for o in outcomes),
    )


@contextlib.contextmanager
def connections(daemon: Daemon):
    """At most ``nproc`` connections by request kind: events and
    evaluates apart when there are two cores, shared on one."""
    events = daemon.connect()
    conns = {"event": events, "evaluate": events}
    try:
        if (os.cpu_count() or 1) >= 2:
            conns["evaluate"] = daemon.connect()
        yield conns
    finally:
        for sock in set(conns.values()):
            sock.close()


def run_rate(conns: dict, plan: RatePlan) -> RateOutcome:
    """Send ``plan``'s arrivals on schedule; collect every reply.

    The benchmark process holds all inputs in memory, so its garbage
    collector is paused for the window: a collection here would stall
    the generator and read as daemon latency.
    """
    schedule, n = plan.schedule, len(plan.schedule)
    selector = selectors.DefaultSelector()
    socks = {id(s): s for s in conns.values()}
    pending = {key: collections.deque() for key in socks}
    buffers = {key: bytearray() for key in socks}
    for key, sock in socks.items():
        selector.register(sock, selectors.EVENT_READ, key)
    done = [None] * n
    responses = [None] * n
    late, backlog = [], []
    outstanding = 0
    start = time.perf_counter() + SETTLE_S
    due = [start + a.at for a in schedule]
    i = 0
    drain_deadline = None
    gc.collect()
    gc.disable()
    try:
        while i < n or outstanding:
            now = time.perf_counter()
            if i < n and now >= due[i]:
                sock = conns[schedule[i].kind]
                sock.sendall(plan.payloads[i])
                sent = time.perf_counter()
                late.append((sent - due[i]) * 1000.0)
                backlog.append((sent, outstanding))
                pending[id(sock)].append(i)
                outstanding += 1
                i += 1
                continue
            if i < n:
                # epoll rounds timeouts up to whole milliseconds: wake early,
                # then poll in short sleeps so sends and reply stamps stay
                # within a fraction of a millisecond.
                remaining = due[i] - now
                if remaining <= FINE_WAIT_S:
                    if not selector.select(0):
                        time.sleep(min(remaining, POLL_S))
                        continue
                timeout = remaining - FINE_WAIT_S
            else:
                if drain_deadline is None:
                    drain_deadline = now + DRAIN_TIMEOUT_S
                if now >= drain_deadline:
                    break
                timeout = drain_deadline - now
            for key, _ in selector.select(timeout):
                chunk = socks[key.data].recv(1 << 20)
                stamp = time.perf_counter()
                if not chunk:
                    raise ConnectionError("daemon closed a benchmark connection")
                buffer = buffers[key.data]
                buffer.extend(chunk)
                while True:
                    newline = buffer.find(b"\n")
                    if newline < 0:
                        break
                    line = bytes(buffer[:newline])
                    del buffer[: newline + 1]
                    j = pending[key.data].popleft()
                    responses[j] = json.loads(line)
                    done[j] = stamp
                    outstanding -= 1
    finally:
        gc.enable()
        selector.close()
    latency, failed, last = [], 0, start
    for j in range(n):
        response = responses[j]
        if done[j] is None or not response.get("ok") or response.get("id") != j:
            latency.append(float("inf"))
            failed += 1
        else:
            latency.append((done[j] - due[j]) * 1000.0)
            last = max(last, done[j])
    times, counts = zip(*backlog)
    return RateOutcome(
        rate=plan.rate,
        kinds=[a.kind for a in schedule],
        latency_ms=latency,
        late_ms=late,
        responses=responses,
        max_backlog=max(counts),
        backlog_growth=stats.backlog_growth(times, counts),
        completed=n - failed,
        busy_s=last - start,
        failed=failed,
    )


# -- output checks (outside the timed windows) --------------------------------------


def check_evaluates(inputs: ServeInputs, plan: RatePlan, outcome: RateOutcome) -> list[str]:
    """Every answered evaluate equals ``PlacementEvaluator.evaluate_many``."""
    from repro.core.placement import PlacementProblem
    from repro.runtime.evaluator import PlacementEvaluator
    from repro.scenarios.events import materialize
    from repro.scenarios.registry import DEFAULT_REGISTRY

    references: dict[int, dict] = {}
    errors = []
    evaluate_args = iter(plan.evaluate_args)
    for j, arrival in enumerate(plan.schedule):
        if arrival.kind != "evaluate":
            continue
        p, picks = next(evaluate_args)
        response = outcome.responses[j]
        if response is None or not response.get("ok"):
            continue  # already a failure
        if p not in references:
            problem = inputs.eval_problems[p]
            spec = DEFAULT_REGISTRY.get(problem.scenario, seed=problem.seed)
            mat = materialize(spec)
            evaluator = PlacementEvaluator(
                PlacementProblem(mat.initial_graphs[problem.graph], mat.initial_network),
                spec.make_objective(),
            )
            values = evaluator.evaluate_many(problem.pool)
            references[p] = dict(zip(problem.pool, (float(v) for v in values)))
        expected = [references[p][inputs.eval_problems[p].pool[k]] for k in picks]
        if response["values"] != expected:
            errors.append(f"rate {plan.rate}: evaluate {j} values differ from evaluate_many")
    return errors


def canonical(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True, separators=(",", ":")).encode()


def check_sessions(daemon: Daemon, plan: RatePlan) -> list[str]:
    """Each session's daemon report equals an in-process replay; closes it."""
    from repro.baselines.random_policies import RandomTaskEftPolicy
    from repro.scenarios.events import materialize
    from repro.scenarios.registry import DEFAULT_REGISTRY
    from repro.serve.session import PlacementSession

    errors = []
    for session_id, name, scen_seed, events in plan.sessions:
        remote = daemon.client.report(session_id)["report"]
        daemon.client.close_session(session_id)
        session = PlacementSession(
            materialize(DEFAULT_REGISTRY.get(name, seed=scen_seed)),
            POLICY,
            RandomTaskEftPolicy(),
            oracle=False,
        )
        for _ in range(events):
            session.step()
        local = session.report().as_dict(include_timing=False)
        if canonical(remote) != canonical(local):
            errors.append(f"rate {plan.rate}: session {session_id} ({name}) report differs")
    return errors
