"""The benchmark's workloads and the points where it observes dpfed.

Each workload has a ``setup(seed)`` that generates the inputs from the
seed and an ``op(inputs, clock)`` that runs one unit of the user's job
and checks its outputs:

- ``membership``: one ``run_membership_experiment`` at the paper's
  defaults. Nearly all of its time is LSTM forward/backward at B=4,
  T=30, h=16, so it shows any change to the gradient kernel.
- ``tcp_session``: one private 2-worker session over loopback TCP at
  B=1 with sigma calibrated from (epsilon, delta) on every release. The
  network does little work, so the wire codec, the transport and the
  growing privacy ledger dominate.
- ``privacy_audit``: one distinguishability probe of the Laplace
  ``dp_mean`` as gate 04 sets it up. Sampling, not accounting: no
  network and no federation.

Two sets of observation points rebind names in the calling modules.
``install_clock`` adds the few cheap hooks the end-to-end metrics need
(round boundaries, gradient count, session results); ``install_tracer``
adds a span at every layer boundary for the traced run.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from dpfed import data, dpsgd, evaluation, experiments, federation, privacy
from dpfed.network import NetworkDims
from dpfed.privacy import PrivacyParams
from dpfed.rng import RandomSource

# tcp_session: model (13, 16, 32), B = 1, 5-frame sequences, 2 workers.
TCP_WORKERS = 2
TCP_ROUNDS = 3000
TCP_DIMS = NetworkDims(13, 16, 32)
TCP_STEP = PrivacyParams(2.0, 1e-6)
TCP_LR = 0.005
TCP_TIMEOUT_S = 30.0

# privacy_audit: gate 04's probe at epsilon = 1.
PROBE_EPSILON = 1.0
PROBE_SAMPLES = 1_000_000
PROBE_BINS = 20
PROBE_SLACK = 1.15  # gate 04's allowance for sampling error on max_ratio
PROBE_BLOCK = 10_000  # mechanism draws per timed block ("round") of the probe


@dataclass
class Outcome:
    """What one operation produced, for checking and reporting."""

    digest: str | None
    failures: list[str]
    items: int
    report: dict = field(default_factory=dict)
    detail: object = None


class Clock:
    """End-to-end observation points, cheap enough for untraced runs.

    A round ends where the coordinator calls ``average_releases``; the
    interval between consecutive calls within one session is the round
    time. ``items`` counts per-sequence gradients.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.begin()

    def begin(self) -> None:
        self.sessions: list[list[float]] = []
        self.session_results: list = []
        self.items = 0

    def new_session(self) -> None:
        self.sessions.append([])

    def mark(self) -> None:
        if not self.sessions:
            self.new_session()
        self.sessions[-1].append(perf_counter())

    def add_items(self, n: int) -> None:
        with self._lock:
            self.items += n

    def intervals_ms(self) -> list[float]:
        return [(b - a) * 1e3 for s in self.sessions for a, b in zip(s, s[1:])]


def install_clock(patches, clock: Clock) -> None:
    def rounds(original):
        def average_releases(*args, **kwargs):
            clock.mark()
            return original(*args, **kwargs)

        return average_releases

    def gradients(original):
        def per_example_gradients(*args, **kwargs):
            grads = original(*args, **kwargs)
            clock.add_items(len(grads))
            return grads

        return per_example_gradients

    def sessions(original):
        def inproc_session(*args, **kwargs):
            clock.new_session()
            result = original(*args, **kwargs)
            clock.session_results.append(result)
            return result

        return inproc_session

    patches.replace(federation, "average_releases", rounds)
    patches.replace(dpsgd, "per_example_gradients", gradients)
    patches.replace(experiments, "inproc_session", sessions)


def _count_seqs(buf, args, kwargs, result, seconds):
    buf.counters["network.per_example_gradients.seqs"] += len(result)


def _count_frames(buf, args, kwargs, result, seconds):
    buf.counters["evaluation.accuracy.frames"] += result.n_frames


def _encoded_bytes(buf, args, kwargs, result, seconds):
    buf.counters["wire.encode.bytes"] += len(result)


def _decoded_bytes(buf, args, kwargs, result, seconds):
    buf.counters["wire.decode.bytes"] += len(args[0])


def _ledger_length(buf, args, kwargs, result, seconds):
    buf.series["privacy.compose"].append((len(result.entries), seconds))


def trace_points():
    """(owner, attribute, span name, measure, keep span records) per layer boundary.

    The owner is the module that calls the function (or the class that
    holds the method), so only calls made through that name are traced:
    ``evaluation.forward`` is the evaluation path, not training.
    ``dp_mean`` and ``open_uniform`` run millions of times per probe and
    are aggregated without span records.
    """
    fed = federation
    return [
        (experiments, "run_membership_experiment", "experiments.run_membership_experiment", None, True),
        (experiments, "synth_generate", "data.synth_generate", None, True),
        (data, "synth_generate", "data.synth_generate", None, True),
        (experiments, "split", "data.split", None, True),
        (experiments, "warm_start", "dpsgd.warm_start", None, True),
        (experiments, "inproc_session", "federation.inproc_session", None, True),
        (experiments, "accuracy", "evaluation.accuracy", _count_frames, True),
        (evaluation, "forward", "network.forward", None, True),
        (dpsgd, "per_example_gradients", "network.per_example_gradients", _count_seqs, True),
        (dpsgd, "apply_update", "network.apply_update", None, True),
        (fed, "apply_update", "network.apply_update", None, True),
        (dpsgd, "dp_gradient_release", "dpsgd.dp_gradient_release", None, True),
        (dpsgd, "compose", "privacy.compose", _ledger_length, True),
        (dpsgd, "gaussian_sigma", "privacy.gaussian_sigma", None, True),
        (privacy, "distinguishability_probe", "privacy.probe", None, True),
        (privacy, "dp_mean", "privacy.dp_mean", None, False),
        (RandomSource, "open_uniform", "rng.open_uniform", None, False),
        (RandomSource, "normals", "rng.normals", None, True),
        (fed, "encode", "wire.encode", _encoded_bytes, True),
        (fed, "decode", "wire.decode", _decoded_bytes, True),
        (fed, "average_releases", "federation.average_releases", None, True),
        (fed.WorkerReplica, "make_release", "federation.make_release", None, True),
        (fed.WorkerReplica, "apply_average", "federation.apply_average", None, True),
        (fed.MessageStream, "send", "federation.send", None, True),
        (fed.MessageStream, "recv", "federation.recv", None, True),
        (fed.Coordinator, "run", "federation.coordinator_run", None, True),
        (fed, "worker_run", "federation.worker_run", None, True),
    ]


def install_tracer(patches, tracer) -> None:
    for owner, attr, name, measure, record in trace_points():
        patches.replace(
            owner, attr, lambda fn, name=name, measure=measure, record=record: tracer.wrap(name, fn, measure, record)
        )


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _ledger_totals(ledgers: dict) -> list:
    return [(wid, len(l.entries), l.spent.epsilon, l.spent.delta) for wid, l in sorted(ledgers.items())]


class Membership:
    """The paper's experiment: warm start, open and private sessions, evaluation."""

    name = "membership"
    pure_setup = True

    def __init__(self, **overrides):
        self.overrides = overrides

    def setup(self, seed: int):
        return experiments.MembershipConfig(seed=seed, **self.overrides)

    def op(self, cfg, clock: Clock) -> Outcome:
        r = experiments.run_membership_experiment(cfg)
        failures = []
        results = clock.session_results
        if len(results) != 2 or not all(
            s.summary.clean and s.summary.steps_completed == cfg.fed_steps for s in results
        ):
            failures.append("a session did not finish cleanly")
        if r.dp_ledger_steps != (cfg.fed_steps,) * 3:
            failures.append(f"private ledgers hold {r.dp_ledger_steps} entries")
        models = (r.baseline_model, r.open_model, r.dp_model)
        if not all(np.isfinite(m.flatten()).all() for m in models):
            failures.append("non-finite parameter")
        totals = [_ledger_totals(s.ledgers) for s in results]
        report = {
            "open_gap_points": r.open_gap.gap_points,
            "private_gap_points": r.dp_gap.gap_points,
            "indist_drop_points": r.indist_drop_points,
            "ledger_totals": totals,
        }
        digest = _digest(*(m.to_bytes() for m in models), repr(totals).encode())
        return Outcome(digest, failures, clock.items, report)


@dataclass
class TcpInputs:
    cfg: federation.SessionConfig
    specs: list
    coordinator: federation.Coordinator
    address: tuple


class TcpSession:
    """A long private session over loopback TCP, coordinator on this thread."""

    name = "tcp_session"
    pure_setup = False  # every session binds its own listening socket

    def __init__(self, rounds: int = TCP_ROUNDS):
        self.rounds = rounds

    def setup(self, seed: int) -> TcpInputs:
        root = RandomSource(seed)
        budget = PrivacyParams(2 * TCP_STEP.epsilon * self.rounds, min(10 * TCP_STEP.delta * self.rounds, 0.5))
        dp_cfg = dpsgd.DpSgdConfig(clip_bound=1.0, step_params=TCP_STEP, learning_rate=TCP_LR, batch_size=1)
        shape = data.SynthSpec(
            feature_dim=TCP_DIMS.input_dim,
            num_classes=TCP_DIMS.output_dim,
            n_speakers=2,
            sequences_per_speaker=16,
            frames_per_sequence=5,
        )
        specs = [
            federation.WorkerSpec(
                worker_id=wid,
                dp_config=dp_cfg,
                dataset=data.synth_generate(shape, root.derive("shard", wid)),
                budget=budget,
                seed=root.derive_seed("worker", wid),
            )
            for wid in range(TCP_WORKERS)
        ]
        cfg = federation.SessionConfig(
            n_workers=TCP_WORKERS,
            total_steps=self.rounds,
            learning_rate=TCP_LR,
            dims=TCP_DIMS,
            init_seed=root.derive_seed("init"),
            timeout=TCP_TIMEOUT_S,
        )
        coordinator = federation.Coordinator(cfg)
        return TcpInputs(cfg, specs, coordinator, coordinator.bind())

    def op(self, inputs: TcpInputs, clock: Clock) -> Outcome:
        results: dict = {}
        errors: list[str] = []

        def work(spec):
            try:
                results[spec.worker_id] = federation.worker_run(inputs.address, spec, TCP_TIMEOUT_S)
            except Exception as exc:  # reported as a failed operation
                errors.append(f"worker {spec.worker_id} raised {exc!r}")

        threads = [
            threading.Thread(target=work, args=(s,), name=f"worker-{s.worker_id}", daemon=True)
            for s in inputs.specs
        ]
        clock.new_session()
        for t in threads:
            t.start()
        try:
            summary = inputs.coordinator.run()
        finally:
            for t in threads:
                t.join(timeout=2 * TCP_TIMEOUT_S)
        failures = errors + [f"{t.name} still running" for t in threads if t.is_alive()]
        if not summary.clean or summary.steps_completed != self.rounds:
            failures.append(f"coordinator: aborted={summary.aborted} after {summary.steps_completed} rounds")
        for spec in inputs.specs:
            r = results.get(spec.worker_id)
            if r is None or not r.clean or r.steps_completed != self.rounds:
                failures.append(f"worker {spec.worker_id} did not finish cleanly")
            elif len(r.ledger.entries) != self.rounds:
                failures.append(f"worker {spec.worker_id} ledger holds {len(r.ledger.entries)} entries")
        if failures:
            return Outcome(None, failures, clock.items)
        models = [results[wid].network.to_bytes() for wid in sorted(results)]
        if len(set(models)) != 1:
            failures.append("replicas differ")
        totals = _ledger_totals({wid: r.ledger for wid, r in results.items()})
        report = {"ledger_totals": totals}
        return Outcome(_digest(*models, repr(totals).encode()), failures, clock.items, report, detail=results)

    def replay(self, inputs: TcpInputs, tcp_results: dict) -> list[str]:
        """Run the same session in process; it must equal the TCP models bit for bit."""
        replay = federation.inproc_session(inputs.cfg, inputs.specs)
        return [
            f"worker {wid}: in-process replay differs from TCP"
            for wid, r in sorted(tcp_results.items())
            if replay.networks[wid].to_bytes() != r.network.to_bytes()
        ]


@dataclass
class AuditInputs:
    records: list[float]
    adjacent: list[float]
    probe_seed: int


class PrivacyAudit:
    """Gate 04's probe: Laplace ``dp_mean`` at epsilon = 1, 20 bins, 1e6 samples a side."""

    name = "privacy_audit"
    pure_setup = True

    def __init__(self, n_samples: int = PROBE_SAMPLES):
        self.n_samples = n_samples

    def setup(self, seed: int) -> AuditInputs:
        root = RandomSource(seed)
        records = [float(v) for v in root.derive("records").uniforms(10) * 100.0]
        adjacent = records[:-1] + [100.0]  # one record edited to the clamp bound
        return AuditInputs(records, adjacent, root.derive_seed("probe"))

    def op(self, inputs: AuditInputs, clock: Clock) -> Outcome:
        bounds = privacy.ClampBounds(0.0, 100.0)
        drawn = 0

        def mechanism(values, rng):
            nonlocal drawn
            drawn += 1
            if drawn % PROBE_BLOCK == 0:
                clock.mark()
            return privacy.dp_mean(values, bounds, PROBE_EPSILON, rng)

        clock.new_session()
        probe = privacy.distinguishability_probe(
            mechanism,
            inputs.records,
            inputs.adjacent,
            PrivacyParams(PROBE_EPSILON, 0.0),
            n_samples=self.n_samples,
            n_bins=PROBE_BINS,
            rng=RandomSource(inputs.probe_seed),
        )
        bound = math.exp(PROBE_EPSILON) * PROBE_SLACK
        failures = [] if probe.max_ratio <= bound else [f"max_ratio {probe.max_ratio} > {bound}"]
        report = {"max_ratio": probe.max_ratio, "bound": bound, "violated_mass": probe.violated_mass}
        digest = _digest(repr((probe.max_ratio, probe.violated_mass)).encode())
        return Outcome(digest, failures, 2 * self.n_samples, report)


WORKLOADS = {w.name: w for w in (Membership, TcpSession, PrivacyAudit)}
