"""Unit coverage of the sharding machinery: partition geometry, bus
semantics, ghost dormancy, release/adopt handoffs, boundary replay,
uid namespacing, and the run_experiment opt-in."""

import pickle

import pytest

from repro.experiments.config import ExperimentConfig
from repro.shard.region import (
    FrameRec,
    HandoffRec,
    Region,
    RegionBus,
    ShardMap,
    UID_STRIDE,
)
from repro.shard.runner import resolve_window, run_sharded


def small_config(**kw) -> ExperimentConfig:
    base = dict(
        protocol="ecgrid",
        n_hosts=24,
        width_m=500.0,
        height_m=500.0,
        sim_time_s=20.0,
        n_flows=4,
        max_speed_mps=2.0,
        initial_energy_j=40.0,
        seed=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ----------------------------------------------------------------------
# ShardMap
# ----------------------------------------------------------------------
class TestShardMap:
    def test_bands_partition_whole_columns(self):
        m = ShardMap(10, 100.0, 4)
        assert m.edges_cols == [0, 2, 5, 8, 10]
        # every x maps to exactly one band; column edges in meters
        assert m.owner_of_x(0.0) == 0
        assert m.owner_of_x(199.9) == 0
        assert m.owner_of_x(200.0) == 1
        assert m.owner_of_x(999.9) == 3

    def test_right_border_belongs_to_last_band(self):
        m = ShardMap(5, 100.0, 2)
        # positions clamp to the plane edge; the border is owned
        assert m.owner_of_x(500.0) == 1
        assert m.owner_of_x(1e9) == 1

    def test_shards_clamped_to_columns(self):
        assert ShardMap(3, 100.0, 8).n == 3
        assert ShardMap(5, 100.0, 1).n == 1

    def test_bands_overlapping_radio_disk(self):
        m = ShardMap(10, 100.0, 5)  # bands of 2 columns = 200 m
        assert m.bands_overlapping(150.0, 250.0) == [0, 1]
        assert m.bands_overlapping(0.0, 999.0) == [0, 1, 2, 3, 4]
        assert m.bands_overlapping(210.0, 390.0) == [1]


# ----------------------------------------------------------------------
# RegionBus
# ----------------------------------------------------------------------
class TestRegionBus:
    def test_drain_resets_outboxes(self):
        bus = RegionBus(0, 3)
        rec = FrameRec(1.0, 10.0, 20.0, b"x", 100, 7)
        bus.post(1, rec)
        bus.post_overlapping([0, 1, 2], rec)  # own band skipped
        out = bus.drain()
        assert [len(v) for _, v in sorted(out.items())] == [2, 1]
        assert all(not v for v in bus.drain().values())

    def test_records_pickle(self):
        rec = FrameRec(1.0, 10.0, 20.0, b"payload", 100, 7)
        assert pickle.loads(pickle.dumps(rec)) == rec
        hand = HandoffRec(2.0, 5, 17.5, [(1, 2.5, 3, 3)])
        assert pickle.loads(pickle.dumps(hand)) == hand


# ----------------------------------------------------------------------
# Region ghosts and handoffs
# ----------------------------------------------------------------------
class TestRegion:
    def _regions(self, n=2, **kw):
        config = small_config(**kw)
        shard_map = ShardMap(5, config.cell_side_m, n)
        return [
            Region(config, i, shard_map, window_s=1.0) for i in range(n)
        ], config

    def test_ownership_partitions_hosts(self):
        (a, b), _ = self._regions()
        assert a.owned and b.owned
        assert not (a.owned & b.owned)
        assert a.owned | b.owned == {n.id for n in a.net.nodes}

    def test_ghosts_are_dormant_and_cannot_die(self):
        (a, _), config = self._regions()
        ghosts = [n for n in a.net.nodes if n.id not in a.owned]
        assert ghosts
        for ghost in ghosts:
            assert not ghost.alive
            assert ghost.monitor._fired_depleted  # never raises events
        a.start()
        a.run_until(config.sim_time_s)
        for ghost in ghosts:
            # zero draw: a ghost's battery never settles a joule
            assert ghost.battery.remaining_at(
                a.net.sim.now
            ) == pytest.approx(ghost.battery.capacity_j)

    def test_ghost_flows_do_not_emit(self):
        (a, b), config = self._regions()
        a.start()
        b.start()
        a.run_until(5.0)
        b.run_until(5.0)
        sent_a = set(a.net.packet_log.sent)
        sent_b = set(b.net.packet_log.sent)
        # uid namespaces are disjoint per region (no double-issue)
        assert not (sent_a & sent_b)
        assert all(uid < 1 + UID_STRIDE for uid in sent_a)
        assert all(uid >= 1 + UID_STRIDE for uid in sent_b)

    def test_release_adopt_round_trip_preserves_energy(self):
        (a, b), _ = self._regions()
        a.start()
        b.start()
        a.run_until(2.0)
        b.run_until(2.0)
        node_id = sorted(a.owned)[0]
        node_a = a.net.nodes_by_id[node_id]
        remaining = node_a.battery.remaining_at(2.0)
        rec = a._release(node_a)
        a.owned.discard(node_id)
        assert not node_a.alive
        assert rec.remaining_j == pytest.approx(remaining)
        b._adopt(pickle.loads(pickle.dumps(rec)))
        node_b = b.net.nodes_by_id[node_id]
        assert node_b.alive
        assert node_id in b.owned
        assert node_b.battery.remaining_at(2.0) == pytest.approx(remaining)
        assert node_b.protocol is not None

    def test_adopt_resumes_flows(self):
        (a, b), _ = self._regions()
        a.start()
        b.start()
        a.run_until(2.0)
        b.run_until(2.0)
        # pick a flow source from whichever region owns one
        src, dst = next(
            (ra, rb)
            for ra, rb in ((a, b), (b, a))
            for f in ra.net.flows
            if f.src.id in ra.owned
        )
        flow = next(f for f in src.net.flows if f.src.id in src.owned)
        node = src.net.nodes_by_id[flow.src.id]
        rec = src._release(node)
        src.owned.discard(node.id)
        assert any(f[0] == flow.flow_id for f in rec.flows)
        dst._adopt(pickle.loads(pickle.dumps(rec)))
        twin = next(
            f for f in dst.net.flows if f.flow_id == flow.flow_id
        )
        assert twin.seqno == flow.seqno
        assert twin.next_emit_at is not None
        issued_before = twin.packets_issued
        dst.run_until(6.0)
        assert twin.packets_issued > issued_before

    def test_collect_outbox_releases_crossers(self):
        (a, b), config = self._regions()
        a.start()
        b.start()
        horizon = config.sim_time_s
        t = 0.0
        crossed = False
        while t < horizon:
            t = min(t + 1.0, horizon)
            a.run_until(t)
            b.run_until(t)
            out_a, out_b = a.collect_outbox(), b.collect_outbox()
            for rec in out_a.get(1, []) + out_b.get(0, []):
                if isinstance(rec, HandoffRec):
                    crossed = True
            a.deliver(out_b.get(0, []))
            b.deliver(out_a.get(1, []))
        assert crossed, "2 m/s over 20 s must walk someone over a band edge"
        assert not (a.owned & b.owned)

    def test_boundary_tap_ships_edge_frames(self):
        (a, b), _ = self._regions()
        a.start()
        b.start()
        a.run_until(3.0)
        b.run_until(3.0)
        out = a.collect_outbox()
        frames = [r for r in out.get(1, []) if isinstance(r, FrameRec)]
        assert frames, "hello traffic near the band edge must ship"
        # shipped payloads are pre-pickled: no live object crosses
        assert all(isinstance(r.payload_bytes, bytes) for r in frames)

    def test_foreign_frames_replay_without_counting_as_sent(self):
        (a, b), _ = self._regions()
        a.start()
        b.start()
        a.run_until(3.0)
        b.run_until(3.0)
        out = a.collect_outbox()
        sent_before = b.net.medium.stats.frames_sent
        b.deliver(out.get(1, []))
        b.run_until(6.0)
        assert b.net.medium.stats.frames_sent >= sent_before
        assert b.net.medium.stats.frames_foreign > 0


# ----------------------------------------------------------------------
# Window resolution and env opt-in
# ----------------------------------------------------------------------
class TestRunnerPolicy:
    def test_resolve_window_tracks_speed(self):
        assert resolve_window(small_config(max_speed_mps=0.0), None) == 0.5
        assert resolve_window(small_config(max_speed_mps=2.0), None) == 0.5
        assert resolve_window(
            small_config(max_speed_mps=100.0), None
        ) == pytest.approx(0.25)
        assert resolve_window(
            small_config(max_speed_mps=500.0), None
        ) == pytest.approx(0.1)
        assert resolve_window(small_config(), 0.5) == 0.5
        with pytest.raises(ValueError):
            resolve_window(small_config(), -1.0)

    def test_run_experiment_gates_off_exact_paths(self):
        """A tracer forces the single-kernel runner even when the call
        asks for shards (sharded runs have no exact dispatch)."""
        from repro.experiments.runner import run_experiment
        from repro.obs import Tracer

        config = small_config(sim_time_s=5.0)
        tracer = Tracer()
        result = run_experiment(config, tracer=tracer, shards=2)
        # single-kernel runs never carry the foreign-frame stat
        assert "frames_foreign" not in result.medium

    def test_run_sharded_rejects_fault_plans(self):
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.from_dict(
            {"events": [{"kind": "node_crash", "at_s": 1.0, "node_id": 0}]}
        )
        config = small_config(faults=plan)
        with pytest.raises(ValueError, match="fault plans"):
            run_sharded(config, 2, processes=False)

    def test_sharded_medium_merge_carries_foreign_stat(self):
        config = small_config(sim_time_s=10.0)
        result = run_sharded(config, 2, processes=False)
        assert "frames_foreign" in result.medium
        assert result.sent > 0
