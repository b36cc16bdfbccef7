"""The parked work-stealing thief against the polling thief it replaced.

``MRTS._thief`` used to wake every ``steal_interval_s`` of virtual time on
every node, whether or not it could steal.  It now parks while its node is
busy or no peer has enough ready objects, and is woken back onto the same
check grid.  The polling loop survives here verbatim as the oracle, with
the candidate choice and FIFO snapshot it called.  For every configuration
both thieves must steal the same objects from the same nodes at the same
virtual instants, and leave identical run statistics.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.core import MRTS, CostModel, MobileObject, handler
from repro.core.computing import select_victim
from repro.core.config import MRTSConfig
from repro.evalsim.apps import run_updr_model
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec

ELEMENTS = 120_000
MIB = 1024 * 1024
# Host-time counters (real serialization CPU) are the only NodeStats
# fields that may differ between two runs of the same configuration.
_HOST_FIELDS = {"pack_time", "unpack_time"}


def oracle_pick_steal_candidate(rt, thief, victim):
    """The candidate choice as the polling thief made it."""
    pf = thief.packfile
    thief_keys = []
    if pf is not None:
        thief_keys = [
            pf.locality_key(t_oid)
            for t_oid in thief.locals
            if thief.ooc.is_resident(t_oid)
        ]
    best = None
    best_score = None
    entries = victim.ready._entries
    for oid in sorted(entries, key=lambda oid: entries[oid][0]):
        rec = victim.locals.get(oid)
        if rec is None or not rec.queue or rec.in_flight > 0:
            continue
        if rec.obj is None or not victim.ooc.is_resident(oid):
            continue
        if victim.ooc.is_locked(oid) or oid in victim.loading:
            continue
        if rt.speculation is not None and \
                rt.speculation.has_pending(oid):
            continue
        distance = 0
        if thief_keys and pf is not None:
            key = pf.locality_key(oid)
            distance = min(abs(key - tk) for tk in thief_keys)
        score = (distance, -len(rec.queue), oid)
        if best_score is None or score < best_score:
            best, best_score = oid, score
    return best


def oracle_polling_thief(rt, nrt):
    """The polling thief: wake every interval, steal if idle and able."""
    cfg = rt.config
    while True:
        yield rt.engine.timeout(cfg.steal_interval_s)
        if nrt.active_handlers > 0 or nrt.queued_msgs > 0:
            continue
        backlogs = [0 if n is nrt else len(n.ready) for n in rt.nodes]
        victim_rank = select_victim(backlogs, cfg.steal_min_victim_queue)
        if victim_rank is None:
            continue
        oid = oracle_pick_steal_candidate(rt, nrt, rt.nodes[victim_rank])
        if oid is None:
            continue
        rt.stats.node(nrt.rank).steals += 1
        rt.termination.add(1)
        yield from rt._migrate_and_done(oid, victim_rank, nrt.rank)


def record_steals(rt, polling=False) -> list:
    """Log ``(now, oid, src, dst)`` at the start of every migration of
    ``rt``; with ``polling``, run the oracle thief instead of the real
    one.  Call before the first ``rt.run()``."""
    log = []
    migrate_and_done = rt._migrate_and_done

    def logged(oid, src, dst):
        log.append((rt.engine.now, oid, src, dst))
        yield from migrate_and_done(oid, src, dst)

    rt._migrate_and_done = logged
    if polling:
        rt._thief = lambda nrt: oracle_polling_thief(rt, nrt)
    return log


def run_config(nodes, cores, mib, interval, min_queue, speculation,
               polling=False, elements=ELEMENTS):
    """One modeled OUPDR run: (steal log, RunStats, runtime)."""
    logs = []
    cluster = ClusterSpec(
        n_nodes=nodes, node=NodeSpec(cores=cores, memory_bytes=mib * MIB))
    config = MRTSConfig(
        prefetch_depth=3, speculation=speculation, work_stealing=True,
        steal_interval_s=interval, steal_min_victim_queue=min_queue)
    result = run_updr_model(
        elements, cluster, mrts=True, config=config,
        on_runtime=lambda rt: logs.append(record_steals(rt, polling)))
    return logs[0], result.runtime.stats, result.runtime


def _summary(stats):
    nodes = [
        {k: v for k, v in dataclasses.asdict(n).items()
         if k not in _HOST_FIELDS}
        for n in stats.nodes
    ]
    return dict(total_time=stats.total_time, steals=stats.steals,
                bytes_to_disk=stats.bytes_to_disk,
                barrier_idle_s=stats.barrier_idle_s, nodes=nodes)


def assert_matches_oracle(*cfg):
    want_log, want, _ = run_config(*cfg, polling=True)
    got_log, got, _ = run_config(*cfg)
    assert got_log == want_log
    assert _summary(got) == _summary(want)


# Configurations where thieves check at one instant and their order
# decides what is stolen: waking a parked thief with a fresh tie-break
# number instead of the one its polling timeout would have taken changes
# the steal log of three of them.
TIE_CASES = [
    (2, 1, 5, 5e-4, 2, True),
    (2, 1, 5, 5e-4, 2, False),
    (4, 2, 5, 2e-4, 1, True),
    (4, 2, 5, 2e-4, 2, True),
]


@pytest.mark.parametrize("cfg", TIE_CASES, ids=str)
def test_parked_thief_matches_polling_oracle(cfg):
    assert_matches_oracle(*cfg)


GRID = list(itertools.product(
    (2, 3, 4), (1, 2), (5, 8), (1e-4, 2e-4, 5e-4, 1e-3), (1, 2),
    (True, False)))


@pytest.mark.slow
@pytest.mark.parametrize("cfg", GRID, ids=str)
def test_parked_thief_matches_polling_oracle_grid(cfg):
    assert_matches_oracle(*cfg)


# ------------------------------------------------------------ wake hooks
# Each scenario makes one wake-up site the only thing that lets a parked
# thief steal: the modeled configurations above almost never depend on
# these two.  Handler costs are the messages' first argument.
class _Job(MobileObject):
    def __init__(self, ptr, nbytes=64):
        super().__init__(ptr)
        self.payload = bytes(nbytes)

    @handler
    def work(self, ctx, cost):
        pass


class _ArgCost(CostModel):
    def handler_cost(self, obj, handler_name, msg):
        return msg.args[0]


def _runtime(nodes, cores, polling, **kwargs):
    rt = MRTS(ClusterSpec(n_nodes=nodes, node=NodeSpec(cores=cores)),
              config=MRTSConfig(work_stealing=True, steal_min_victim_queue=2),
              cost_model=_ArgCost(), **kwargs)
    return rt, record_steals(rt, polling)


def _migration_landing(polling):
    """Node 2 is idle and parked: nodes 0 and 1 each hold one ready
    object behind three long handlers.  Then an explicit migration lands
    a second ready object on node 1, which makes it a victim."""
    rt, log = _runtime(3, 1, polling)
    for node in (0, 1):
        for _ in range(3):
            rt.post(rt.create_object(_Job, node=node), "work", 0.1)
    moved = rt.create_object(_Job, 1 << 20, node=0)  # a slow transfer
    rt.post(moved, "work", 1e-4)
    rt.post(rt.create_object(_Job, node=1), "work", 1e-4)
    rt.migrate(moved, 1)
    rt.run()
    return log, rt.stats


def _evicted_between_messages(polling):
    """Node 1 is idle and parked; node 0 holds one ready object.  Another
    object there is evicted between its two messages, exactly when its
    first handler ends on a grid point of node 1's thief, and its worker
    hands it back to the ready queue: now node 0 is a victim."""
    rt, log = _runtime(2, 2, polling, io_depth=0)
    interval = rt.config.steal_interval_s
    fifth_check = 0.0
    for _ in range(5):
        fifth_check += interval
    slow, evicted, ready = (rt.create_object(_Job, node=0) for _ in range(3))
    rt.post(slow, "work", 1.0)
    rt.post(evicted, "work", fifth_check)
    rt.post(evicted, "work", 1e-4)
    rt.post(ready, "work", 1e-4)

    done = []

    def evict_after_first(span):
        if span.oid == evicted.oid and not done:
            done.append(span)
            rt._evict_now(rt.nodes[0], span.oid)

    sub = rt.bus.subscribe(kinds=["handler"], callback=evict_after_first)
    rt.run()
    rt.bus.unsubscribe(sub)
    return log, rt.stats


@pytest.mark.parametrize(
    "scenario", [_migration_landing, _evicted_between_messages],
    ids=lambda f: f.__name__.strip("_"))
def test_wake_hook_scenario_matches_polling_oracle(scenario):
    want_log, want = scenario(polling=True)
    got_log, got = scenario(polling=False)
    assert want.steals > 0  # the scenario does steal
    assert got_log == want_log
    assert _summary(got) == _summary(want)


# ------------------------------------------------------------ parked thieves
@pytest.mark.parametrize("cfg", TIE_CASES[:1] + TIE_CASES[2:3], ids=str)
def test_thieves_are_parked_after_a_run(cfg):
    """A finished run leaves every thief parked, with nothing in the
    engine heap that would wake it."""
    _, stats, rt = run_config(*cfg)
    assert stats.steals > 0
    assert sorted(rt._parked) == list(range(len(rt.nodes)))
    parks = set(rt._parked.values())
    assert not any(park.triggered for park in parks)
    assert not any(ev in parks for _, _, ev in rt.engine._heap)


def test_deadlocked_run_with_stealing_raises_instead_of_polling():
    """With work outstanding that nothing will ever finish, the engine
    runs dry and reports the deadlock; a polling thief would spin on."""
    rt, _ = _runtime(2, 1, polling=False)
    rt.post(rt.create_object(_Job, node=0), "work", 1e-4)
    rt.termination.add(1)  # a credit nothing will ever retire
    step = rt.engine.step
    steps = 0

    def bounded_step():
        nonlocal steps
        steps += 1
        assert steps < 10_000, "engine still busy: a thief is polling"
        step()

    rt.engine.step = bounded_step
    with pytest.raises(RuntimeError, match="simulation deadlock"):
        rt.run()
