"""Apply-side machinery: file corruptors and server-action builders.

Two delivery mechanisms exist beside the inline worker hooks:

- **Scheduled actions** — ``stuck_burst``, ``drift_burst``,
  ``breaker_storm``, and ``sabotage`` become
  :meth:`~repro.serving.server.TridentServer.schedule_action` callbacks
  (via ``install_chaos``), so they run inside the event loop at their
  planned virtual instant and land in the decision log like any other
  world change.
- **File injections** — ``checkpoint_corrupt`` and ``ledger_tear``
  damage durable state *between* process "lives"; the soak scenarios
  apply them with :func:`apply_file_injection` before a resume attempt,
  modeling bit-rot and crash-torn appends.

Every injector draws only from its injection's derived stream
(:meth:`~repro.chaos.plan.ChaosPlan.rng_for`) and records itself through
:meth:`~repro.chaos.session.ChaosSession.mark_applied`.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import ChaosError

#: Reason string forced breaker trips carry (visible in transition logs).
STORM_REASON = "chaos_storm"


# ---------------------------------------------------------------------------
# File corruptors
# ---------------------------------------------------------------------------
def flip_file_bit(path: str | Path, rng) -> int:
    """Flip one random bit of ``path`` in place; returns the byte offset.

    Against a checkpoint this models bit-rot: the store's hash-verify
    must reject the file and rotation must fall back to the previous
    good snapshot.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ChaosError(f"cannot corrupt empty file {path}")
    offset = int(rng.integers(len(data)))
    data[offset] ^= 1 << int(rng.integers(8))
    path.write_bytes(bytes(data))
    return offset

def tear_jsonl_tail(path: str | Path, rng) -> int:
    """Truncate ``path`` mid-way through its final line; returns bytes cut.

    Models a crash between ``write`` and ``fsync`` on an append-only
    JSONL ledger: the torn final record must be tolerated (skipped with
    a warning) and its work re-done, never half-applied.
    """
    path = Path(path)
    data = path.read_bytes()
    body = data.rstrip(b"\n")
    line_start = body.rfind(b"\n") + 1
    if line_start == 0:
        raise ChaosError(
            f"refusing to tear {path}: only one line (the header) present"
        )
    # Cut strictly inside the final line so a partial record remains.
    cut = int(rng.integers(line_start + 1, len(body)))
    path.write_bytes(data[:cut])
    return len(data) - cut


def apply_file_injection(session, index: int, injection, path: str | Path):
    """Run one ``checkpoint_corrupt``/``ledger_tear`` against ``path``."""
    rng = session.plan.rng_for(index)
    if injection.kind == "checkpoint_corrupt":
        offset = flip_file_bit(path, rng)
        session.mark_applied(
            index, at_s=injection.t_s, path=str(path), byte_offset=offset
        )
        return offset
    if injection.kind == "ledger_tear":
        torn = tear_jsonl_tail(path, rng)
        session.mark_applied(
            index, at_s=injection.t_s, path=str(path), bytes_torn=torn
        )
        return torn
    raise ChaosError(
        f"injection #{index} ({injection.kind}) is not a file injection"
    )


# ---------------------------------------------------------------------------
# Scheduled server actions
# ---------------------------------------------------------------------------
def _worker_by_id(server, worker_id):
    for worker in server.workers:
        if worker.worker_id == worker_id:
            return worker
    raise ChaosError(
        f"chaos plan targets worker {worker_id}, which the server lacks"
    )


def _stuck_burst(session, index, injection, server):
    worker = _worker_by_id(server, injection.target)
    fraction = float(injection.params.get("fraction", 0.02))
    stuck_level = injection.params.get("stuck_level")
    rng = session.plan.rng_for(index)
    stage = injection.params.get("stage")
    stuck = worker.degrade(
        fraction,
        stuck_level=stuck_level,
        rng=rng,
        stage=None if stage is None else int(stage),
    )
    session.mark_applied(
        index, at_s=server.clock.now(), worker=worker.worker_id,
        stuck_cells=int(stuck),
    )


def _drift_burst(session, index, injection, server):
    worker = _worker_by_id(server, injection.target)
    age_s = float(injection.params.get("age_s", 1e7))
    refreshed = sum(
        1 for manager in worker.managers if manager.maybe_refresh(age_s)
    )
    session.mark_applied(
        index, at_s=server.clock.now(), worker=worker.worker_id,
        refreshed=refreshed,
    )


def _breaker_storm(session, index, injection, server):
    now = server.clock.now()
    tripped = 0
    for worker in server.workers:
        if injection.target is not None and worker.worker_id != injection.target:
            continue
        server.breakers[worker.worker_id].trip(now, STORM_REASON)
        tripped += 1
        for breaker in worker.stage_breakers:
            breaker.trip(now, STORM_REASON)
            tripped += 1
    session.mark_applied(index, at_s=now, tripped=tripped)


def _sabotage(session, index, injection, server):
    # Deliberately unhandled: the soak self-audit schedules this to prove
    # the harness flags a run that dies instead of recovering.
    session.mark_applied(index, at_s=server.clock.now())
    raise ChaosError(
        injection.params.get(
            "note", f"chaos injection #{index}: intentionally unhandled fault"
        )
    )


_ACTIONS = {
    "stuck_burst": _stuck_burst,
    "drift_burst": _drift_burst,
    "breaker_storm": _breaker_storm,
    "sabotage": _sabotage,
}


def make_server_action(session, index: int, injection):
    """Build the ``fn(server)`` callback for one scheduled injection."""
    try:
        impl = _ACTIONS[injection.kind]
    except KeyError:
        raise ChaosError(
            f"injection #{index} ({injection.kind}) cannot be scheduled "
            "as a server action"
        ) from None

    def action(server):
        impl(session, index, injection, server)

    return action
