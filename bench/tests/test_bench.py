"""Self-test of the benchmark's tracing, on small versions of the workloads.

    python3 -m pytest bench/tests -q -s

Checks that a traced run puts every rebound name back, that tracing
changes no output (model digests and ledger totals), and prints the
tracing overhead per workload.
"""

import math
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest

import run
from tracer import Patches, Tracer
from workloads import Clock, Membership, PrivacyAudit, TcpSession, install_clock, trace_points

SMALL = {
    "membership": lambda: Membership(warm_epochs=2, fed_steps=10),
    "tcp_session": lambda: TcpSession(rounds=40),
    "privacy_audit": lambda: PrivacyAudit(n_samples=100_000),
}


def bound_objects():
    return [
        owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        for owner, attr, *_ in trace_points()
    ]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_restores_names_and_changes_no_output(name):
    before = bound_objects()
    clock = Clock()
    patches = Patches()
    install_clock(patches, clock)
    try:
        _, reference, traced, tracer, checks = run.traced_run(SMALL[name](), 5, 0.01, clock)
    finally:
        patches.restore()

    assert all(now is orig for orig, now in zip(before, bound_objects()))
    assert checks and all(problems == [] for problems in checks.values()), checks
    assert reference.outcome.failures == []
    for r in traced:
        assert r.outcome.failures == []
        assert r.outcome.digest == reference.outcome.digest
        assert r.outcome.report.get("ledger_totals") == reference.outcome.report.get("ledger_totals")

    metrics = run.layer_metrics(tracer, reference, traced)
    op_s, round_ms = metrics["trace.overhead.experiment_s"][0], metrics["trace.overhead.round_ms_mean"][0]
    print(f"\n{name}: tracing overhead {op_s:+.4f} s per operation, {round_ms:+.4f} ms per round")
    assert math.isfinite(op_s) and math.isfinite(round_ms)
    shares = run.self_shares(tracer)["layers"]
    assert sum(shares.values()) == pytest.approx(1.0)


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    child = tracer.wrap("child", lambda: time.sleep(0.02))
    hot = tracer.wrap("hot", lambda: None, record=False)

    def body():
        child()
        hot()
        time.sleep(0.01)

    tracer.wrap("parent", body)()
    assert tracer.calls("parent") == tracer.calls("child") == tracer.calls("hot") == 1
    assert tracer.span_count() == 2  # "hot" is aggregated, not recorded
    parent_self = tracer.self_time("parent")
    assert parent_self == pytest.approx(tracer.total("parent") - tracer.total("child") - tracer.total("hot"))
    assert 0.009 <= parent_self < 0.02
