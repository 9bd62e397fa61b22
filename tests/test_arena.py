"""Netlist arenas: SoA compile, shm transport, and cancel tokens.

Covers the full dispatch stack bottom-up: bit-exact compile/serialize/
reconstruct round-trips (property-based, including zero-pin nets and
fixed-only designs), the shared-memory store and its pickled fallback,
the arena-direct ``PlacementArrays`` construction path, cross-process
cancel boards, parallel-vs-serial placement bit-identity, the
worker-crash leak gate, and the serve registry's refcount lifecycle.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.gen import build_design
from repro.gen.composer import GeneratedDesign
from repro.netlist import Netlist, default_library
from repro.netlist.arena import NetlistArena
from repro.place import PlacementRegion
from repro.place.arrays import PlacementArrays
from repro.robust import faults
from repro.runtime.cache import (job_key, job_key_from_digest,
                                 netlist_fingerprint)
from repro.runtime.executor import BatchExecutor
from repro.runtime.jobs import PlacementJob
from repro.runtime.shm import (ArenaStore, CancelBoard, Shipment,
                               _clear_attach_cache, attach_shipment)
from repro.runtime.telemetry import Tracer
from repro.serve.arena import ArenaRegistry

_MASTERS = ("INV", "NAND2", "MUX2", "FA", "DFF", "PI", "PO")


def _shm_leftovers() -> list[str]:
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - exotic CI host
        return []
    return [n for n in os.listdir(root) if n.startswith("repro-")]


# ----------------------------------------------------------------------
# round-trip equality
# ----------------------------------------------------------------------
def assert_same_design(a: GeneratedDesign, b: GeneratedDesign) -> None:
    na, nb = a.netlist, b.netlist
    assert na.name == nb.name
    assert netlist_fingerprint(na) == netlist_fingerprint(nb)
    assert [c.name for c in na.cells] == [c.name for c in nb.cells]
    assert [c.cell_type.name for c in na.cells] == \
        [c.cell_type.name for c in nb.cells]
    np.testing.assert_array_equal(na.positions(), nb.positions())
    np.testing.assert_array_equal(na.sizes(), nb.sizes())
    np.testing.assert_array_equal(na.movable_mask(), nb.movable_mask())
    for ca, cb in zip(na.cells, nb.cells):
        assert ca.attributes == cb.attributes
        # incidence order is part of the contract: connectivity queries
        # iterate it, and extraction order depends on those queries
        assert [(net.name, ref.pin.name) for net, ref in na.pins_of(ca)] \
            == [(net.name, ref.pin.name) for net, ref in nb.pins_of(cb)]
    assert [n.name for n in na.nets] == [n.name for n in nb.nets]
    for neta, netb in zip(na.nets, nb.nets):
        assert neta.weight == netb.weight
        assert neta.attributes == netb.attributes
        assert [(r.cell.name, r.pin.name) for r in neta.pins] == \
            [(r.cell.name, r.pin.name) for r in netb.pins]
    assert a.region == b.region
    assert a.truth == b.truth


def _roundtrip(design: GeneratedDesign) -> GeneratedDesign:
    arena = NetlistArena.compile(design)
    rebuilt = NetlistArena.from_buffer(arena.to_bytes()).to_design()
    assert_same_design(design, rebuilt)
    return rebuilt


# ----------------------------------------------------------------------
# hypothesis: generated netlists round-trip bit-exactly
# ----------------------------------------------------------------------
@st.composite
def designs(draw):
    lib = default_library()
    nl = Netlist(name="hyp", library=lib)
    n_cells = draw(st.integers(1, 10))
    coord = st.floats(0.0, 200.0, allow_nan=False, allow_infinity=False)
    for i in range(n_cells):
        cell = nl.add_cell(
            f"c{i}", draw(st.sampled_from(_MASTERS)),
            x=draw(coord), y=draw(coord), fixed=draw(st.booleans()))
        if draw(st.booleans()):
            cell.attributes["tag"] = draw(st.integers(0, 7))
    for j in range(draw(st.integers(0, 8))):
        net = nl.add_net(
            f"n{j}", weight=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])))
        # degree 0 included on purpose: arenas carry *all* nets
        for _ in range(draw(st.integers(0, 4))):
            cell = nl.cells[draw(st.integers(0, n_cells - 1))]
            pin = draw(st.integers(0, len(cell.cell_type.pins) - 1))
            nl.connect(net, cell, cell.cell_type.pins[pin])
    region = PlacementRegion(0.0, 0.0, 64.0, 64.0, row_height=8.0)
    return GeneratedDesign(netlist=nl, region=region, truth=[])


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(designs())
    def test_generated_netlists_roundtrip(self, design):
        _roundtrip(design)

    def test_fixed_only_design(self):
        lib = default_library()
        nl = Netlist(name="pads", library=lib)
        for i in range(4):
            nl.add_cell(f"p{i}", "PI", x=float(i), y=0.0, fixed=True)
        net = nl.add_net("n0")
        nl.connect(net, "p0", "Y")
        nl.connect(net, "p1", "Y")
        region = PlacementRegion(0.0, 0.0, 32.0, 32.0, row_height=8.0)
        rebuilt = _roundtrip(GeneratedDesign(netlist=nl, region=region,
                                             truth=[]))
        assert not rebuilt.netlist.movable_mask().any()

    def test_zero_pin_net_survives(self):
        lib = default_library()
        nl = Netlist(name="z", library=lib)
        nl.add_cell("c0", "INV")
        nl.add_net("empty", weight=2.0)
        region = PlacementRegion(0.0, 0.0, 32.0, 32.0, row_height=8.0)
        rebuilt = _roundtrip(GeneratedDesign(netlist=nl, region=region,
                                             truth=[]))
        assert rebuilt.netlist.net("empty").degree == 0
        assert rebuilt.netlist.net("empty").weight == 2.0

    def test_suite_design_with_truth(self):
        design = build_design("dp_add8")
        arena = NetlistArena.compile(design)
        assert (arena.cell_label >= 0).any()  # datapath cells labelled
        rebuilt = _roundtrip(design)
        # reconstruction must not alias the compile-time truth objects
        assert rebuilt.truth is not arena.meta["truth"]
        assert rebuilt.truth == design.truth

    def test_digest_matches_cache_fingerprint(self):
        design = build_design("dp_add8")
        arena = NetlistArena.compile(design)
        assert arena.digest == netlist_fingerprint(design.netlist)
        job = PlacementJob(design="dp_add8", placer="structure", seed=3)
        assert job_key_from_digest(arena.digest, job.placer,
                                   job.resolved_options(), job.seed) \
            == job_key(design.netlist, job.placer,
                       job.resolved_options(), job.seed)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValidationError):
            NetlistArena.from_buffer(b"not an arena blob at all")

    def test_compile_requires_library(self):
        nl = Netlist(name="bare")
        region = PlacementRegion(0.0, 0.0, 32.0, 32.0, row_height=8.0)
        with pytest.raises(ValidationError):
            NetlistArena.compile(GeneratedDesign(netlist=nl,
                                                 region=region, truth=[]))


# ----------------------------------------------------------------------
# arena-direct placement arrays
# ----------------------------------------------------------------------
class TestArenaArrays:
    def test_fast_path_matches_object_walk(self):
        design = build_design("dp_add8")
        arena = NetlistArena.compile(design)
        rebuilt = arena.to_design()
        fast = PlacementArrays.build(rebuilt.netlist)
        rebuilt.netlist.__dict__.pop("_arena")
        slow = PlacementArrays.build(rebuilt.netlist)
        for f in ("pin_cell", "pin_dx", "pin_dy", "net_start",
                  "net_weight", "movable", "width", "height"):
            a, b = getattr(fast, f), getattr(slow, f)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
            assert a.flags.writeable

    def test_degree_filters_match(self):
        design = build_design("dp_add8")
        arena = NetlistArena.compile(design)
        rebuilt = arena.to_design()
        fast = PlacementArrays.from_arena(rebuilt.netlist, arena,
                                          min_degree=3, max_degree=8,
                                          skip_zero_weight=False)
        rebuilt.netlist.__dict__.pop("_arena")
        slow = PlacementArrays.build(rebuilt.netlist, min_degree=3,
                                     max_degree=8,
                                     skip_zero_weight=False)
        np.testing.assert_array_equal(fast.net_start, slow.net_start)
        np.testing.assert_array_equal(fast.pin_cell, slow.pin_cell)
        np.testing.assert_array_equal(fast.net_weight, slow.net_weight)

    def test_mutation_drops_fast_path(self):
        rebuilt = NetlistArena.compile(build_design("dp_add8")).to_design()
        assert getattr(rebuilt.netlist, "_arena", None) is not None
        rebuilt.netlist.add_net("__fresh")
        assert getattr(rebuilt.netlist, "_arena", None) is None


# ----------------------------------------------------------------------
# shared-memory store and transports
# ----------------------------------------------------------------------
class TestArenaStore:
    def test_shm_shipment_is_small_and_memoized(self):
        store = ArenaStore()
        try:
            s1 = store.shipment("dp_add8")
            s2 = store.shipment("dp_add8")
            assert s1 is s2  # one export, no matter how many jobs
            assert s1.transport == "shm"
            assert s1.bytes_per_job < 4096  # a ref, not the netlist
            assert store.counters.get("arena.exports") == 1

            def attach_and_check() -> None:
                # scoped so the zero-copy views die before the cache
                # hook below closes the segment handle
                arena = attach_shipment(s1)
                assert arena.digest == s1.digest
                # second attach comes from the per-process cache
                assert attach_shipment(s1) is arena
                assert_same_design(build_design("dp_add8"),
                                   arena.to_design())

            attach_and_check()
        finally:
            _clear_attach_cache()
            store.close()
        assert _shm_leftovers() == []

    def test_unknown_design_falls_back_to_rebuild(self):
        store = ArenaStore()
        try:
            assert store.shipment("no_such_design") is None
            assert store.counters.get("arena.fallback_rebuild") == 1
        finally:
            store.close()

    def test_pickle_fallback_when_shm_unavailable(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "shm_unavailable:*")
        faults.reset()
        store = ArenaStore()
        try:
            shipment = store.shipment("dp_add8")
            assert shipment is not None
            assert shipment.transport == "pickle"
            assert shipment.ref is None
            assert shipment.bytes_per_job == len(shipment.arena_blob)
            assert store.counters.get("arena.fallback_pickle") == 1
            _clear_attach_cache()
            arena = attach_shipment(shipment)
            assert_same_design(build_design("dp_add8"),
                               arena.to_design())
        finally:
            _clear_attach_cache()
            store.close()
            faults.reset()
        assert _shm_leftovers() == []

    def test_empty_shipment_rejected(self):
        with pytest.raises(ValidationError):
            attach_shipment(Shipment(transport="shm", design="x",
                                     digest="missing"))


class TestCancelBoard:
    def test_set_and_attach(self):
        board = CancelBoard()
        try:
            peer = CancelBoard.attach(board.ref())
            assert not board.is_set() and not peer.is_set()
            board.set()
            assert peer.is_set()  # the peer sees the flag live
            peer.close()
        finally:
            board.close(unlink=True)
        assert _shm_leftovers() == []


# ----------------------------------------------------------------------
# executor integration
# ----------------------------------------------------------------------
def _jobs(n_seeds: int = 2) -> list[PlacementJob]:
    return [PlacementJob(design="dp_add8", placer="structure", seed=s)
            for s in range(n_seeds)]


class TestExecutorDispatch:
    def test_parallel_shm_bit_identical_to_serial(self):
        serial = BatchExecutor(0).run(_jobs())
        tracer = Tracer()
        parallel = BatchExecutor(2, shm=True).run(_jobs(), tracer=tracer)
        for rs, rp in zip(serial, parallel):
            assert rs.ok and rp.ok
            assert rs.key == rp.key
            np.testing.assert_array_equal(np.asarray(rs.positions),
                                          np.asarray(rp.positions))
            assert rp.transport == "shm"
            assert 0 < rp.bytes_shipped < 4096
            assert rs.transport is None  # serial rows keep their shape
        assert tracer.count("transport.shm") == len(_jobs())
        assert tracer.count("arena.exports") == 1
        assert _shm_leftovers() == []

    def test_no_shm_rebuild_transport_identical(self):
        serial = BatchExecutor(0).run(_jobs())
        tracer = Tracer()
        parallel = BatchExecutor(2, shm=False).run(_jobs(),
                                                   tracer=tracer)
        for rs, rp in zip(serial, parallel):
            assert rp.ok and rp.transport == "rebuild"
            assert rp.bytes_shipped == 0
            np.testing.assert_array_equal(np.asarray(rs.positions),
                                          np.asarray(rp.positions))
        assert tracer.count("transport.rebuild") == len(_jobs())

    def test_pre_run_cancel_is_deterministic(self):
        executor = BatchExecutor(2)
        executor.cancel_all()  # sticky: set before the pool even starts
        results = executor.run(_jobs())
        assert [r.error_kind for r in results] == ["cancelled"] * 2
        assert _shm_leftovers() == []

    def test_worker_kill_leak_gate(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "worker_kill:*")
        faults.reset()
        try:
            results = BatchExecutor(2, retries=1).run(_jobs())
        finally:
            faults.reset()
        assert all(not r.ok for r in results)
        assert {r.error_kind for r in results} == {"crash"}
        # the leak gate: a worker dying at job start (no cleanup code
        # ran) must not orphan arena or cancel-board segments
        assert _shm_leftovers() == []


class TestDaemonLeakGate:
    def test_daemon_worker_kill_leak_gate(self, tmp_path, monkeypatch):
        """Pool workers dying mid-job must not orphan shm segments.

        The daemon quarantines the crash-looping jobs; after drain and
        shutdown the arena registry must have torn every export down.
        """
        import threading

        from repro.serve.client import ServeClient
        from repro.serve.daemon import PlacementDaemon, ServeConfig

        monkeypatch.setenv(faults.ENV_VAR, "worker_kill:*")
        faults.reset()
        sock = str(tmp_path / "leak.sock")
        daemon = PlacementDaemon(ServeConfig(
            socket_path=sock, workers=2, pool=True, shm=True,
            cache_dir=None, checkpoint_dir=None, spool_dir=None,
            retries=0, max_attempts=2, backoff_base_s=0.05,
            backoff_cap_s=0.1, scan_interval_s=0.05))
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        assert daemon.started.wait(15)
        try:
            with ServeClient(sock) as client:
                ids = [client.submit("dp_add8", placer="structure",
                                     seed=s)["job_id"] for s in range(2)]
                deadline = 60.0
                for jid in ids:
                    state = client.result(
                        jid, wait=True, timeout=deadline)["state"]
                    assert state in ("quarantined", "error"), state
                stats = client.stats()["stats"]
                assert stats["arena"]["arena.references"] == 0
                client.shutdown(mode="drain")
        finally:
            daemon.request_shutdown("drain")
            thread.join(30)
            faults.reset()
        assert _shm_leftovers() == []


# ----------------------------------------------------------------------
# serve registry lifecycle
# ----------------------------------------------------------------------
class TestArenaRegistry:
    def test_refcount_lifecycle(self):
        reg = ArenaRegistry()
        try:
            assert reg.acquire("dp_add8")
            assert reg.acquire("dp_add8")
            stats = reg.stats()
            assert stats["arena.referenced_designs"] == 1
            assert stats["arena.references"] == 2
            shipment = reg.shipment("dp_add8")
            assert shipment is not None and shipment.transport == "shm"
            reg.release("dp_add8")
            assert _shm_leftovers() != [] or \
                reg.stats()["arena.references"] == 1
            reg.release("dp_add8")  # last ref: segment unlinked
            assert reg.stats()["arena.references"] == 0
            assert _shm_leftovers() == []
            reg.release("dp_add8")  # over-release is a no-op
        finally:
            reg.close()
        assert _shm_leftovers() == []

    def test_acquire_unknown_design_holds_no_ref(self):
        reg = ArenaRegistry()
        try:
            assert not reg.acquire("no_such_design")
            assert reg.stats()["arena.references"] == 0
        finally:
            reg.close()
