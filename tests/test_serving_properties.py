"""Property-based tests (hypothesis) on serving-layer invariants.

The invariants under test, per ISSUE acceptance criteria:

- **Conservation** — no admitted (or submitted) request is ever silently
  dropped: every request terminates exactly once, as a completion or a
  structured rejection.
- **Structured shedding** — every shed request carries a reason and
  human-readable detail.
- **Bounded retries** — no request is attempted more than
  ``max_retries + 1`` times.
- **Determinism** — replaying the same seed and arrival schedule yields
  a bit-identical admit/shed/dispatch decision sequence and outputs.
- **Indexed admission** — the deadline-indexed ``drop_hopeless`` drops
  exactly what the naive full scan in ``tests/oracles.py`` drops, in the
  same order, and its heap stays proportional to the queue.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    AdmissionQueue,
    InferenceRequest,
    ServerConfig,
    ShedReason,
    TridentServer,
    build_worker,
)
from tests import oracles

DIMS = (6, 4)

request_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5e-6),        # inter-arrival gap
        st.integers(min_value=0, max_value=2),           # priority
        st.one_of(st.none(), st.floats(1e-7, 2e-5)),     # deadline slack
    ),
    min_size=1,
    max_size=25,
)

server_knobs = st.fixed_dictionaries(
    {
        "max_queue_depth": st.integers(1, 6),
        "max_batch": st.integers(1, 4),
        "max_retries": st.integers(0, 2),
        "seed": st.integers(0, 2**16),
    }
)


def build_arrivals(specs):
    arrivals, t = [], 0.0
    rng = np.random.default_rng(0)
    for rid, (gap, priority, slack) in enumerate(specs):
        t += gap
        arrivals.append(
            InferenceRequest(
                request_id=rid,
                x=rng.uniform(-1, 1, DIMS[0]),
                arrival_s=t,
                deadline_s=None if slack is None else t + slack,
                priority=priority,
            )
        )
    return arrivals


def run_once(specs, knobs, degrade):
    worker = build_worker(0, DIMS, seed=11)
    config = ServerConfig(
        slo_latency_s=1e-5,
        breaker_failure_threshold=2,
        breaker_cooldown_s=1e-6,
        **knobs,
    )
    server = TridentServer([worker], config=config)
    arrivals = build_arrivals(specs)
    if degrade and arrivals:
        mid = arrivals[len(arrivals) // 2].arrival_s
        server.schedule_action(
            mid, "degrade", lambda s: s.workers[0].degrade(0.25, stuck_level=254)
        )
    return server.run(arrivals), server


class TestServingInvariants:
    @settings(max_examples=20, deadline=None)
    @given(specs=request_specs, knobs=server_knobs, degrade=st.booleans())
    def test_no_request_silently_dropped(self, specs, knobs, degrade):
        report, _ = run_once(specs, knobs, degrade)
        assert report.conservation_ok()
        completed = {c.request.request_id for c in report.completed}
        shed = {r.request.request_id for r in report.shed}
        assert completed | shed == {r.request_id for r in build_arrivals(specs)}
        assert not completed & shed

    @settings(max_examples=20, deadline=None)
    @given(specs=request_specs, knobs=server_knobs, degrade=st.booleans())
    def test_shed_requests_carry_reasons(self, specs, knobs, degrade):
        report, _ = run_once(specs, knobs, degrade)
        for rejection in report.shed:
            assert isinstance(rejection.reason, ShedReason)
            assert rejection.detail
            assert rejection.shed_s >= rejection.request.arrival_s

    @settings(max_examples=20, deadline=None)
    @given(specs=request_specs, knobs=server_knobs)
    def test_retries_never_exceed_budget(self, specs, knobs):
        # Always degrade so failures (and therefore retries) actually occur.
        report, server = run_once(specs, knobs, degrade=True)
        budget = server.config.max_retries + 1
        for completion in report.completed:
            assert 1 <= completion.attempts <= budget
        for rejection in report.shed:
            assert 0 <= rejection.attempts <= budget

    @settings(max_examples=10, deadline=None)
    @given(specs=request_specs, knobs=server_knobs, degrade=st.booleans())
    def test_same_seed_replays_identical_decisions(self, specs, knobs, degrade):
        first, _ = run_once(specs, knobs, degrade)
        second, _ = run_once(specs, knobs, degrade)
        assert first.decisions == second.decisions
        assert first.breaker_transitions == second.breaker_transitions
        for a, b in zip(first.completed, second.completed):
            assert a.request.request_id == b.request.request_id
            assert a.attempts == b.attempts
            assert np.array_equal(a.output, b.output)

    @settings(max_examples=10, deadline=None)
    @given(specs=request_specs, knobs=server_knobs)
    def test_deadline_met_flag_is_honest(self, specs, knobs):
        report, _ = run_once(specs, knobs, degrade=False)
        for completion in report.completed:
            deadline = completion.request.deadline_s
            expected = deadline is None or completion.finish_s <= deadline
            assert completion.deadline_met == expected


# ---------------------------------------------------------------------------
# Few distinct values, so equal deadlines, equal priorities and equal
# arrival times are common; ``None`` is a best-effort request.
deadlines = st.one_of(
    st.none(), st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5, math.inf])
)
offer_op = st.tuples(
    st.just("offer"),
    st.integers(0, 2),                  # priority
    st.sampled_from([0.0, 0.5, 1.0]),  # arrival
    deadlines,
)
# Offers are weighted up so the queue fills, evicts and often holds
# several hopeless residents at once.
queue_ops = st.lists(
    st.one_of(
        offer_op,
        offer_op,
        offer_op,
        st.tuples(st.just("pop"), st.integers(1, 4)),
        st.tuples(st.just("remove"), st.integers(0, 7)),
        st.tuples(
            st.just("drop"),
            st.sampled_from([0.0, 0.5, 1.0, 2.0]),         # now
            st.sampled_from([0.0, 0.25, 0.5, 1.0, math.inf]),  # min service
        ),
    ),
    min_size=10,
    max_size=80,
)


def _request(rid, priority, arrival, deadline):
    return InferenceRequest(
        request_id=rid, x=np.zeros(1), arrival_s=arrival,
        deadline_s=deadline, priority=priority,
    )


def _same(a, b) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


class TestDeadlineIndex:
    @settings(max_examples=200, deadline=None)
    @given(depth=st.integers(1, 6), ops=queue_ops)
    def test_indexed_queue_matches_naive_scan(self, depth, ops):
        indexed, naive = AdmissionQueue(depth), AdmissionQueue(depth)
        for rid, op in enumerate(ops):
            if op[0] == "offer":
                request = _request(rid, *op[1:])
                if indexed.full:
                    got, want = indexed.offer(request), naive.offer(request)
                    assert got[0] == want[0] and got[1] is want[1]
                else:
                    indexed.push(request)
                    naive.push(request)
            elif op[0] == "pop":
                assert _same(indexed.pop_batch(op[1]), naive.pop_batch(op[1]))
            elif op[0] == "remove":
                if len(naive):
                    victim = naive.snapshot()[op[1] % len(naive)]
                    indexed.remove(victim)
                    naive.remove(victim)
            else:
                now, min_service = op[1:]
                assert _same(
                    indexed.drop_hopeless(now, min_service),
                    oracles.naive_drop_hopeless(naive, now, min_service),
                )
            assert _same(indexed.snapshot(), naive.snapshot())

    def test_deadline_heap_stays_bounded(self):
        rng = np.random.default_rng(5)
        q = AdmissionQueue(64)
        for rid in range(6000):
            action = rng.integers(4)
            if action < 2 or not len(q):
                deadline = None if rng.random() < 0.2 else float(rng.random())
                q.offer(_request(rid, int(rng.integers(3)), 0.0, deadline))
            elif action == 2:
                q.pop_batch(int(rng.integers(1, 8)))
            else:
                q.drop_hopeless(float(rng.random()) * 0.2, 0.1)
            assert len(q._deadlines) <= 2 * len(q) + 1
