"""Netlist arenas: SoA compile, shm transport, and cancel tokens.

Covers the full dispatch stack bottom-up: bit-exact compile/serialize/
reconstruct round-trips (property-based, including zero-pin nets and
fixed-only designs), the shared-memory store and its pickled fallback,
the rebuilt netlist's flat view over the arena's arrays, cross-process
cancel boards, parallel-vs-serial placement bit-identity, the
worker-crash leak gate, the long-lived pool slot a daemon thread keeps,
and the serve registry's refcount lifecycle and byte-budget LRU.
"""

import errno
import os
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.gen import build_design
from repro.gen.composer import GeneratedDesign
from repro.kernels import IncrementalHPWL
from repro.netlist import Netlist, default_library
from repro.netlist.arena import NetlistArena
from repro.place import PlacementRegion
from repro.place.arrays import PlacementArrays
from repro.robust import faults
from repro.runtime import shm
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
def _walk_arrays(netlist):
    """The placement arrays and oracle lists of the nets that carry
    wirelength, walked from ``Net.pins`` as the flat view replaced."""
    pin_cell, pin_dx, pin_dy, start, weight = [], [], [], [0], []
    net_pins = []
    cell_nets = [[] for _ in netlist.cells]
    cell_pins = [[] for _ in netlist.cells]
    for net in netlist.nets:
        if net.degree < 2 or net.weight == 0.0:
            continue
        j = len(weight)
        pins = []
        for ref in net.pins:
            cell, pin = ref.cell, ref.pin
            pin_cell.append(cell.index)
            pin_dx.append(pin.x_offset - cell.width / 2.0)
            pin_dy.append(pin.y_offset - cell.height / 2.0)
            pins.append((cell.index, pin.x_offset, pin.y_offset))
            cell_pins[cell.index].append((j, pin.x_offset, pin.y_offset))
            if j not in cell_nets[cell.index]:
                cell_nets[cell.index].append(j)
        start.append(len(pin_cell))
        weight.append(net.weight)
        net_pins.append(pins)
    arrays = (np.asarray(pin_cell, dtype=np.int64), np.asarray(pin_dx),
              np.asarray(pin_dy), np.asarray(start, dtype=np.int64),
              np.asarray(weight))
    return arrays, (net_pins, cell_nets, cell_pins, weight)


class TestArenaArrays:
    @pytest.mark.parametrize("name", ["dp_add8", "dp_mix32"])
    def test_rebuilt_matches_generator_build(self, name):
        """A netlist rebuilt from an arena reads the arena's own arrays
        as its flat view, and every array consumer gives exactly what
        the generator-built netlist gives — and what an object walk
        gives."""
        built = build_design(name).netlist
        arena = NetlistArena.compile(build_design(name))
        rebuilt = arena.to_design().netlist
        assert rebuilt.flat().pin_cell is arena.pin_cell
        rng = np.random.default_rng(3)
        for a, b in zip(built.cells, rebuilt.cells):
            a.x = b.x = a.x + float(rng.uniform(-30.0, 30.0))
            a.y = b.y = a.y + float(rng.uniform(-12.0, 12.0))

        one, two = PlacementArrays.build(built), \
            PlacementArrays.build(rebuilt)
        for f in ("pin_cell", "pin_dx", "pin_dy", "net_start",
                  "net_weight", "movable", "width", "height"):
            a, b = getattr(one, f), getattr(two, f)
            assert a.dtype == b.dtype, f
            np.testing.assert_array_equal(a, b)
            assert a.flags.writeable and b.flags.writeable, f
        assert built.hpwl() == rebuilt.hpwl()
        np.testing.assert_array_equal(built.sizes(), rebuilt.sizes())
        np.testing.assert_array_equal(built.movable_mask(),
                                      rebuilt.movable_mask())

        inc_one, inc_two = IncrementalHPWL(built), IncrementalHPWL(rebuilt)
        assert inc_one.total == inc_two.total
        assert [inc_one.cost_of_nets([j]) for j in range(inc_one.num_nets)] \
            == [inc_two.cost_of_nets([j]) for j in range(inc_two.num_nets)]
        np.testing.assert_array_equal(inc_one.pin_cell, inc_two.pin_cell)
        np.testing.assert_array_equal(inc_one.net_start, inc_two.net_start)

        arrays, lists = _walk_arrays(built)
        for got, want in zip((one.pin_cell, one.pin_dx, one.pin_dy,
                              one.net_start, one.net_weight), arrays):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        for inc in (inc_one, inc_two):
            assert (inc._net_pins, inc._cell_nets, inc._cell_pins,
                    inc._weight) == lists


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

    def test_full_shm_falls_back_to_pickle(self, monkeypatch):
        """An export /dev/shm cannot hold ships pickled: writing it into
        pages tmpfs cannot back would be a SIGBUS."""
        def full(fd, offset, size):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(shm.os, "posix_fallocate", full)
        store = ArenaStore()
        try:
            shipment = store.shipment("dp_add8")
            assert shipment.transport == "pickle"
            stats = store.stats()
            assert stats["arena.fallback_pickle"] == 1
            assert stats["arena.segments"] == 0
            assert _shm_leftovers() == []
        finally:
            store.close()

    def test_attach_cache_evicts_past_the_budget(self, monkeypatch):
        store = ArenaStore()
        try:
            ships = [store.shipment(d) for d in ("dp_add8", "dp_alu16")]
            # room for the larger blob, not for both
            monkeypatch.setattr(shm, "ARENA_BUDGET_BYTES",
                                max(s.ref.nbytes for s in ships))
            _clear_attach_cache()
            for shipment in ships:
                assert attach_shipment(shipment).digest == shipment.digest
            assert list(shm._ATTACH_CACHE) == [ships[1].digest]
            assert list(shm._ATTACH_LRU) == [ships[1].digest]
            assert shm._CLOSING == []  # the evicted mapping was closed
        finally:
            _clear_attach_cache()
            store.close()
        assert _shm_leftovers() == []


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
            cache_dir=None, spool_dir=None, retries=0, max_attempts=2, backoff_base_s=0.05,
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


def _pool_daemon(sock: str, **overrides):
    """An in-process ``--pool --workers 1`` daemon with no persistence."""
    from repro.serve.daemon import PlacementDaemon, ServeConfig

    config = dict(socket_path=sock, workers=1, pool=True, shm=True,
                  cache_dir=None, spool_dir=None)
    config.update(overrides)
    return PlacementDaemon(ServeConfig(**config))


def _serve(daemon):
    import threading

    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    assert daemon.started.wait(15)
    return thread


def _wait_running(client, job_id: str) -> None:
    """Poll until the job runs; fail naming the state it ended in."""
    deadline = time.monotonic() + 60
    while (state := client.status(job_id)["state"]) != "running":
        assert state == "queued", \
            f"job ended {state} before it was seen running"
        assert time.monotonic() < deadline, "job never ran"
        time.sleep(0.005)


class TestPoolSlot:
    def test_late_interrupt_spares_the_next_job(self, tmp_path,
                                                 monkeypatch):
        """A finished job's interrupt must not kill the worker that now
        runs the slot's next job."""
        from repro.serve.client import ServeClient

        daemon = _pool_daemon(str(tmp_path / "late.sock"))
        interrupts = {}
        acquire = daemon.supervisor.acquire

        def spy(record, **kwargs):
            interrupts[record.job_id] = kwargs["interrupt"]
            return acquire(record, **kwargs)

        monkeypatch.setattr(daemon.supervisor, "acquire", spy)
        thread = _serve(daemon)
        try:
            with ServeClient(daemon.config.socket_path) as client:
                first = client.submit("dp_add8",
                                      placer="structure")["job_id"]
                assert client.result(first, wait=True,
                                     timeout=120)["state"] == "done"
                second = client.submit("ctrl_glue2k",
                                       placer="structure")["job_id"]
                _wait_running(client, second)
                interrupts[first]()
                # the interrupt landed while the next job held the slot
                assert client.status(second)["state"] == "running"
                final = client.result(second, wait=True, timeout=120)
                assert final["state"] == "done", final
                assert final["attempts"] == 1
                stats = client.stats()["stats"]
                assert stats["executor"]["executor.pool_starts"] == 1
                client.shutdown(mode="drain")
        finally:
            daemon.request_shutdown("drain")
            thread.join(30)
        assert _shm_leftovers() == []

    def test_admission_holds_the_arena_before_enqueue(self, tmp_path,
                                                      monkeypatch):
        """A cold submit holds its design's arena before the job is
        enqueued (a bridge thread may ship it at once, and an eviction
        must not unlink it first); a rejected submit hands it back."""
        from repro.serve.client import ServeClient, ServeError

        daemon = _pool_daemon(str(tmp_path / "hold.sock"), max_pending=1)
        held = []
        submit = daemon.queue.submit

        def spy(job, **kwargs):
            held.append(daemon.arenas.stats()["arena.references"])
            return submit(job, **kwargs)

        monkeypatch.setattr(daemon.queue, "submit", spy)
        thread = _serve(daemon)
        try:
            with ServeClient(daemon.config.socket_path) as client:
                first = client.submit("ctrl_glue2k",
                                      placer="structure")["job_id"]
                with pytest.raises(ServeError, match="queue is full"):
                    client.submit("dp_add8", placer="baseline")
                assert held == [1, 2]
                assert client.result(first, wait=True,
                                     timeout=120)["state"] == "done"
                stats = client.stats()["stats"]["arena"]
                assert stats["arena.references"] == 0
                assert stats["arena.retained_designs"] == 2
                client.shutdown(mode="drain")
        finally:
            daemon.request_shutdown("drain")
            thread.join(30)
        assert _shm_leftovers() == []

    def test_worker_kill_replaces_the_slot_pool(self, tmp_path,
                                                monkeypatch):
        """A reused worker that dies mid-job costs one requeue and one
        fresh pool; the job then ends done and no segment leaks."""
        from repro.serve.client import ServeClient

        # each worker process survives its first job, dies in its second
        monkeypatch.setenv(faults.ENV_VAR, "worker_kill:1:1")
        faults.reset()
        daemon = _pool_daemon(str(tmp_path / "kill.sock"), retries=0,
                              backoff_base_s=0.05, scan_interval_s=0.05)
        thread = _serve(daemon)
        try:
            with ServeClient(daemon.config.socket_path) as client:
                first = client.submit("dp_add8", placer="baseline")
                assert client.result(first["job_id"], wait=True,
                                     timeout=120)["state"] == "done"
                second = client.submit("dp_add8", placer="baseline",
                                       seed=1)
                final = client.result(second["job_id"], wait=True,
                                      timeout=120)
                assert final["state"] == "done", final
                assert final["attempts"] == 2
                stats = client.stats()["stats"]
                assert stats["executor"]["executor.pool_starts"] == 2
                assert stats["executor"]["worker.crash"] == 1
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
        """The last release keeps the export for the next job; close()
        (or eviction, below) is what unlinks it."""
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
            assert reg.stats()["arena.references"] == 1
            reg.release("dp_add8")  # last ref: retained, still linked
            stats = reg.stats()
            assert stats["arena.references"] == 0
            assert stats["arena.retained_designs"] == 1
            assert stats["arena.retained_bytes"] == shipment.ref.nbytes
            assert shipment.ref.segment in _shm_leftovers()
            # the next job reuses the compile and the export
            assert reg.acquire("dp_add8")
            assert reg.shipment("dp_add8") is shipment
            assert reg.stats()["arena.compiles"] == 1
            assert reg.stats()["arena.exports"] == 1
            reg.release("dp_add8")
            reg.release("dp_add8")  # over-release is a no-op
            assert reg.stats()["arena.references"] == 0
        finally:
            reg.close()  # unlinks what the LRU kept
        assert _shm_leftovers() == []

    def test_eviction_unlinks_the_least_recently_used(self, monkeypatch):
        reg = ArenaRegistry()
        try:
            ships = {}
            for design in ("dp_add8", "dp_alu16"):
                assert reg.acquire(design)
                ships[design] = reg.shipment(design)
            # room for the larger segment, not for both
            monkeypatch.setattr(shm, "ARENA_BUDGET_BYTES", max(
                s.ref.nbytes for s in ships.values()))
            reg.release("dp_add8")
            reg.release("dp_alu16")  # over budget: dp_add8 goes
            leftovers = _shm_leftovers()
            assert ships["dp_add8"].ref.segment not in leftovers
            assert ships["dp_alu16"].ref.segment in leftovers
            stats = reg.stats()
            assert stats["arena.designs"] == 1
            assert stats["arena.retained_designs"] == 1
            # a referenced design is never evicted, whatever the budget
            monkeypatch.setattr(shm, "ARENA_BUDGET_BYTES", 0)
            assert reg.acquire("dp_alu16")
            assert reg.digest("dp_add8")  # compiled, evicted at once
            assert ships["dp_alu16"].ref.segment in _shm_leftovers()
            assert reg.stats()["arena.designs"] == 1
            assert reg.stats()["arena.compiles"] == 3
        finally:
            reg.close()
        assert _shm_leftovers() == []

    def test_budget_is_capped_by_free_shm(self, monkeypatch):
        """A ceiling larger than /dev/shm can hold is cut to a quarter
        of the space /dev/shm has free."""
        reg = ArenaRegistry()
        try:
            ships = {}
            for design in ("dp_add8", "dp_alu16"):
                assert reg.acquire(design)
                ships[design] = reg.shipment(design)
            largest = max(s.ref.nbytes for s in ships.values())
            statvfs = os.statvfs

            def small_shm(path):
                if path == shm._SHM_DIR:  # a quarter holds one design
                    return SimpleNamespace(f_bavail=4 * largest,
                                           f_frsize=1)
                return statvfs(path)

            monkeypatch.setattr(shm, "ARENA_BUDGET_BYTES", 1 << 40)
            monkeypatch.setattr(shm.os, "statvfs", small_shm)
            assert shm.arena_budget() == largest
            reg.release("dp_add8")
            reg.release("dp_alu16")  # over a quarter: dp_add8 goes
            leftovers = _shm_leftovers()
            assert ships["dp_add8"].ref.segment not in leftovers
            assert ships["dp_alu16"].ref.segment in leftovers
            assert reg.stats()["arena.retained_bytes"] == largest
        finally:
            reg.close()
        assert _shm_leftovers() == []

    def test_concurrent_churn_never_unlinks_a_referenced_export(
            self, monkeypatch):
        """More threads than cores acquire, ship, fingerprint and
        release under a budget that holds one design, so every release
        evicts: a segment must stay linked while its job holds it."""
        import threading

        designs = ("dp_add8", "dp_alu16")
        reg = ArenaRegistry()
        budget = max(reg.shipment(d).ref.nbytes for d in designs)
        monkeypatch.setattr(shm, "ARENA_BUDGET_BYTES", budget)
        problems: list[str] = []

        def churn(k: int) -> None:
            for i in range(8):
                design = designs[(k + i) % 2]
                if not reg.acquire(design):
                    problems.append(f"acquire {design} failed")
                    continue
                segment = reg.shipment(design).ref.segment
                reg.digest(designs[(k + i + 1) % 2])
                if not os.path.exists(f"/dev/shm/{segment}"):
                    problems.append(f"{segment} unlinked while held")
                reg.release(design)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=churn, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert not any(t.is_alive() for t in threads)
            assert problems == []
            stats = reg.stats()
            assert stats["arena.references"] == 0
            assert stats["arena.retained_bytes"] <= budget
        finally:
            sys.setswitchinterval(interval)
            reg.close()
        assert _shm_leftovers() == []

    def test_cache_hit_arenas_stay_within_budget(self, tmp_path,
                                                 monkeypatch):
        """A cache hit compiles its design to fingerprint it but takes
        no reference; those compiles must live under the budget too."""
        from repro.runtime import run_suite
        from repro.serve.client import ServeClient

        designs = ("dp_mul16", "dp_alu16", "dp_add8")
        cache_dir = tmp_path / "cache"
        run_suite(designs, ("baseline",), cache_dir=cache_dir)
        arrays = {d: sum(v.nbytes for v in
                         vars(ArenaStore().arena(d)).values()
                         if isinstance(v, np.ndarray)) for d in designs}
        # holds dp_add8's compile alone, fewer than the three designs
        budget = arrays["dp_add8"]
        monkeypatch.setattr(shm, "ARENA_BUDGET_BYTES", budget,
                            raising=False)
        daemon = _pool_daemon(str(tmp_path / "hit.sock"),
                              cache_dir=str(cache_dir))
        thread = _serve(daemon)
        try:
            with ServeClient(daemon.config.socket_path) as client:
                for design in designs:
                    reply = client.submit(design, placer="baseline")
                    assert reply["cached"] is True
                stats = client.stats()["stats"]["arena"]
                assert stats["arena.references"] == 0
                assert stats["arena.designs"] == 1
                assert stats["arena.retained_bytes"] <= budget
                client.shutdown(mode="drain")
        finally:
            daemon.request_shutdown("drain")
            thread.join(30)
        assert _shm_leftovers() == []

    def test_acquire_unknown_design_holds_no_ref(self):
        reg = ArenaRegistry()
        try:
            assert not reg.acquire("no_such_design")
            assert reg.stats()["arena.references"] == 0
        finally:
            reg.close()
