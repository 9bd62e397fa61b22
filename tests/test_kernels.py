"""Property-based equivalence tests: vectorized kernels vs references.

Every kernel in :mod:`repro.kernels` must agree with its retained scalar
reference (:mod:`repro.kernels.reference`) to 1e-9 relative tolerance —
this suite is the CI gate the perf harness relies on: a kernel change
that drifts from the reference fails here before any benchmark runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval.steiner import rmst_length, steiner_length, total_steiner
from repro.gen import build_design
from repro.kernels import (IncrementalHPWL, Workspace, b2b_grad,
                           bell_value_grad, hpwl_kernel,
                           hpwl_per_net_kernel, rasterize_overlap)
from repro.kernels.reference import (bell_value_grad_reference,
                                     hpwl_per_net_reference, hpwl_reference,
                                     incident_cost_reference,
                                     poisson_reference,
                                     rasterize_overlap_reference,
                                     rmst_length_reference)
from repro.place import PlacementArrays
from repro.place.b2b import B2BBuilder

RTOL = 1e-9


_coord = st.floats(-500.0, 500.0, allow_nan=False, allow_infinity=False)
_weight = st.floats(0.0, 8.0, allow_nan=False)


@st.composite
def _csr_nets(draw):
    """Random CSR pin layout: degrees in [2, 6], positions, weights."""
    degrees = draw(st.lists(st.integers(2, 6), min_size=1, max_size=8))
    starts = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
    n_pins = int(starts[-1])
    px = np.array(draw(st.lists(_coord, min_size=n_pins, max_size=n_pins)))
    py = np.array(draw(st.lists(_coord, min_size=n_pins, max_size=n_pins)))
    weights = np.array(draw(st.lists(_weight, min_size=len(degrees),
                                     max_size=len(degrees))))
    return px, py, starts, weights


class TestSegmentKernels:
    @settings(max_examples=50, deadline=None)
    @given(_csr_nets())
    def test_hpwl_matches_reference(self, nets):
        px, py, starts, weights = nets
        got = hpwl_kernel(px, py, starts, weights)
        want = hpwl_reference(px, py, starts, weights)
        assert got == pytest.approx(want, rel=RTOL, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(_csr_nets())
    def test_per_net_matches_reference(self, nets):
        px, py, starts, _weights = nets
        got = hpwl_per_net_kernel(px, py, starts)
        want = hpwl_per_net_reference(px, py, starts)
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-12)

    def test_empty_csr(self):
        starts = np.zeros(1, dtype=np.int64)
        e = np.empty(0)
        assert hpwl_kernel(e, e, starts, e) == 0.0
        assert hpwl_per_net_kernel(e, e, starts).shape == (0,)


@st.composite
def _rects(draw):
    """Random rectangles inside (and slightly beyond) a [0, 10]^2 grid."""
    n = draw(st.integers(1, 12))
    xl = np.array(draw(st.lists(st.floats(-1.0, 9.5), min_size=n,
                                max_size=n)))
    yb = np.array(draw(st.lists(st.floats(-1.0, 9.5), min_size=n,
                                max_size=n)))
    w = np.array(draw(st.lists(st.floats(0.1, 4.0), min_size=n,
                               max_size=n)))
    h = np.array(draw(st.lists(st.floats(0.1, 4.0), min_size=n,
                               max_size=n)))
    return xl, xl + w, yb, yb + h


class TestDensityKernels:
    GRID = dict(nx=5, ny=4, bin_w=2.0, bin_h=2.5, origin_x=0.0,
                origin_y=0.0)

    @settings(max_examples=50, deadline=None)
    @given(_rects())
    def test_rasterize_matches_reference(self, rects):
        xl, xr, yb, yt = rects
        got = rasterize_overlap(xl, xr, yb, yt, **self.GRID)
        want = rasterize_overlap_reference(xl, xr, yb, yt, **self.GRID)
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-12)

    def test_rasterize_total_area_conserved(self):
        # fully-interior rectangles deposit exactly their area
        xl = np.array([1.0, 4.2, 7.7])
        yb = np.array([2.0, 0.5, 6.1])
        xr, yt = xl + 1.5, yb + 2.0
        area = rasterize_overlap(xl, xr, yb, yt, nx=10, ny=10, bin_w=1.0,
                                 bin_h=1.0, origin_x=0.0, origin_y=0.0)
        assert area.sum() == pytest.approx(3 * 1.5 * 2.0, rel=RTOL)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 2 ** 32 - 1))
    def test_bell_matches_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 8.0, n)
        y = rng.uniform(0.0, 6.0, n)
        half_w = rng.uniform(0.2, 1.5, n)
        half_h = rng.uniform(0.2, 1.0, n)
        cell_area = 4.0 * half_w * half_h
        grid = dict(cx=np.arange(8) + 0.5, cy=np.arange(6) + 0.5,
                    bin_w=1.0, bin_h=1.0, origin_x=0.0, origin_y=0.0,
                    target=rng.uniform(0.0, 1.0, (8, 6)))
        got = bell_value_grad(x, y, half_w, half_h, cell_area, **grid)
        want = bell_value_grad_reference(x, y, half_w, half_h, cell_area,
                                         **grid)
        assert got[0] == pytest.approx(want[0], rel=RTOL, abs=1e-12)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(got[2], want[2], rtol=1e-8, atol=1e-10)


def _design_arrays():
    design = build_design("dp_add8")
    return design, PlacementArrays.build(design.netlist)


class TestB2BAssembly:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
    def test_build_axis_matches_reference(self, seed, with_anchors,
                                          with_extra):
        design, arrays = _design_arrays()
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0.0, 100.0, arrays.num_cells)
        anchors = rng.uniform(0.0, 100.0, arrays.num_cells) \
            if with_anchors else None
        weight = 0.05 if with_anchors else 0.0
        extra = [(0, 1, 0.5, 2.0), (2, 3, 1.25, -1.0)] if with_extra \
            else None
        builder = B2BBuilder(arrays)
        fast = builder.build_axis(coords, arrays.pin_dx, anchors=anchors,
                                  anchor_weight=weight, extra_pairs=extra)
        slow = builder.build_axis_reference(
            coords, arrays.pin_dx, anchors=anchors, anchor_weight=weight,
            extra_pairs=extra)
        np.testing.assert_allclose(fast.A.toarray(), slow.A.toarray(),
                                   rtol=RTOL, atol=1e-12)
        np.testing.assert_allclose(fast.b, slow.b, rtol=RTOL, atol=1e-12)
        np.testing.assert_array_equal(fast.cells, slow.cells)

    def test_solve_residual_and_warm_start(self):
        design, arrays = _design_arrays()
        builder = B2BBuilder(arrays)
        x0, _y0 = arrays.initial_positions()
        system = builder.build_axis(x0, arrays.pin_dx, anchors=x0,
                                    anchor_weight=0.1)
        sol = system.solve(max_iterations=2000)
        residual = np.linalg.norm(system.A @ sol - system.b)
        assert residual <= 1e-5 * max(1.0, np.linalg.norm(system.b))
        # a warm start from the exact solution converges in ~no iterations
        system2 = builder.build_axis(x0, arrays.pin_dx, anchors=x0,
                                     anchor_weight=0.1)
        sol2 = system2.solve(x0=sol, max_iterations=2000)
        assert system2.last_cg_iterations <= max(
            system.last_cg_iterations, 1)
        np.testing.assert_allclose(sol2, sol, rtol=1e-6, atol=1e-8)

    def test_direct_seed_parity(self):
        """A cold solve seeded from solve_direct equals the direct result.

        This is the f4_400 drift fix: a tight CG budget on the first GP
        iteration used to return a slightly-off "converged" solution on
        small designs; seeding from the direct solve pins the cold solve
        to the exact trajectory regardless of the budget.
        """
        design, arrays = _design_arrays()
        builder = B2BBuilder(arrays)
        x0, _y0 = arrays.initial_positions()
        # centered start: the degenerate system the first GP solve sees
        centered = x0.copy()
        centered[arrays.movable] = np.mean(x0)
        system = builder.build_axis(centered, arrays.pin_dx)
        exact = system.solve_direct()
        system2 = builder.build_axis(centered, arrays.pin_dx)
        seeded = system2.solve(x0=exact, max_iterations=25)
        # CG sees a converged residual at the seed and returns it as-is
        np.testing.assert_array_equal(seeded, exact)
        assert system2.last_cg_iterations == 0

    def test_placer_cold_solve_matches_direct_trajectory(self):
        """QuadraticPlacer's cold axis solve is CG-budget independent."""
        from repro.place.quadratic import QuadraticPlacer
        design, arrays = _design_arrays()
        x0, _y0 = arrays.initial_positions()
        centered = x0.copy()
        centered[arrays.movable] = np.mean(x0)
        tight = QuadraticPlacer(arrays, design.region)
        tight._cg_budget = {"x": 25, "y": 25}
        roomy = QuadraticPlacer(arrays, design.region)
        got_tight = tight._solve_axis(centered, arrays.pin_dx, None, 0.0,
                                      [], axis="x")
        got_roomy = roomy._solve_axis(centered, arrays.pin_dx, None, 0.0,
                                      [], axis="x")
        np.testing.assert_array_equal(got_tight, got_roomy)


def _tracked_total(netlist) -> float:
    """Object-model total over the nets IncrementalHPWL tracks."""
    return sum(net.weight * net.hpwl() for net in netlist.nets
               if net.degree >= 2 and net.weight != 0.0)


_move = st.tuples(st.integers(0, 10 ** 9),       # cell picker
                  st.floats(-20.0, 20.0),        # dx
                  st.floats(-20.0, 20.0),        # dy
                  st.sampled_from(["commit", "rollback", "update"]))


class TestIncrementalHPWL:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(_move, min_size=1, max_size=12))
    def test_move_sequence_matches_scratch(self, moves):
        design, _arrays = _design_arrays()
        nl = design.netlist
        inc = IncrementalHPWL(nl)
        cells = nl.movable_cells()
        for pick, dx, dy, action in moves:
            cell = cells[pick % len(cells)]
            nx, ny = cell.x + dx, cell.y + dy
            if action == "update":
                cell.x, cell.y = nx, ny
                inc.update_cells([cell.index], [nx], [ny])
            else:
                inc.propose([cell.index], [nx], [ny])
                if action == "commit":
                    cell.x, cell.y = nx, ny
                    inc.commit()
                else:
                    inc.rollback()
        assert inc.total == pytest.approx(inc.check_total(), rel=RTOL)
        assert inc.total == pytest.approx(_tracked_total(nl), rel=RTOL)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10 ** 9),
                              st.integers(0, 10 ** 9), st.booleans()),
                    min_size=1, max_size=15))
    def test_swap_sequence_matches_scratch(self, swaps):
        design, _arrays = _design_arrays()
        nl = design.netlist
        inc = IncrementalHPWL(nl)
        cells = nl.movable_cells()
        for pa, pb, accept in swaps:
            a = cells[pa % len(cells)]
            b = cells[pb % len(cells)]
            if a is b:
                continue
            a.x, b.x = b.x, a.x
            a.y, b.y = b.y, a.y
            inc.propose([a.index, b.index], [a.x, b.x], [a.y, b.y])
            if accept:
                inc.commit()
            else:
                a.x, b.x = b.x, a.x
                a.y, b.y = b.y, a.y
                inc.rollback()
        fresh = IncrementalHPWL(nl)
        assert inc.total == pytest.approx(fresh.total, rel=RTOL)
        assert inc.total == pytest.approx(inc.check_total(), rel=RTOL)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=4))
    def test_incident_cost_matches_reference(self, picks):
        design, _arrays = _design_arrays()
        nl = design.netlist
        inc = IncrementalHPWL(nl)
        cells = [nl.movable_cells()[p % len(nl.movable_cells())]
                 for p in picks]
        got = inc.incident_cost([c.index for c in cells])
        want = incident_cost_reference(nl, cells)
        assert got == pytest.approx(want, rel=RTOL, abs=1e-12)

    def test_resync_after_external_moves(self):
        design, _arrays = _design_arrays()
        nl = design.netlist
        inc = IncrementalHPWL(nl)
        for cell in nl.movable_cells()[:5]:
            cell.x += 3.0
        inc.resync()
        assert inc.total == pytest.approx(_tracked_total(nl), rel=RTOL)


_points = st.lists(st.tuples(_coord, _coord), min_size=2, max_size=20)


class TestSteinerKernels:
    @settings(max_examples=50, deadline=None)
    @given(_points)
    def test_rmst_matches_reference(self, pts):
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        got = rmst_length(xs, ys)
        want = rmst_length_reference(xs, ys)
        assert got == pytest.approx(want, rel=RTOL, abs=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(st.booleans(), st.booleans())
    def test_total_steiner_matches_per_net_walk(self, use_weights,
                                                skip_zero):
        design, _arrays = _design_arrays()
        nl = design.netlist
        got = total_steiner(nl, use_weights=use_weights,
                            skip_zero_weight=skip_zero)
        want = 0.0
        for net in nl.nets:
            if net.degree < 2:
                continue
            if skip_zero and net.weight == 0.0:
                continue
            xs = np.array([ref.position()[0] for ref in net.pins])
            ys = np.array([ref.position()[1] for ref in net.pins])
            w = net.weight if use_weights else 1.0
            want += w * steiner_length(xs, ys)
        assert got == pytest.approx(want, rel=RTOL, abs=1e-12)


class TestWorkspace:
    def test_take_reuses_and_grows(self):
        ws = Workspace()
        a = ws.take("t", (4, 3))
        b = ws.take("t", (2, 3))
        assert b.base is a or b.base is a.base  # same storage, sliced
        c = ws.take("t", (8, 5))                # grows: fresh buffer
        assert c.shape == (8, 5)
        assert ws.take("t", (4, 3), zero=True).sum() == 0.0

    def test_workspace_bell_bit_identical(self):
        rng = np.random.default_rng(7)
        n = 40
        x = rng.uniform(0.0, 8.0, n)
        y = rng.uniform(0.0, 6.0, n)
        half_w = rng.uniform(0.2, 1.5, n)
        half_h = rng.uniform(0.2, 1.0, n)
        area = 4.0 * half_w * half_h
        grid = dict(cx=np.arange(8) + 0.5, cy=np.arange(6) + 0.5,
                    bin_w=1.0, bin_h=1.0, origin_x=0.0, origin_y=0.0,
                    target=rng.uniform(0.0, 1.0, (8, 6)))
        plain = bell_value_grad(x, y, half_w, half_h, area, **grid)
        ws = Workspace()
        for _ in range(3):  # reuse across calls must not change bits
            reused = bell_value_grad(x, y, half_w, half_h, area, **grid,
                                     workspace=ws)
            assert reused[0] == plain[0]
            np.testing.assert_array_equal(reused[1], plain[1])
            np.testing.assert_array_equal(reused[2], plain[2])

    def test_workspace_b2b_bit_identical(self):
        design, arrays = _design_arrays()
        rng = np.random.default_rng(11)
        coords = rng.uniform(0.0, 100.0, arrays.num_cells)
        builder_ws = B2BBuilder(arrays)     # workspace path (default)
        from repro.kernels import b2b_pairs, expand_pin_net
        pin_net = expand_pin_net(arrays.net_start)
        pin_pos = coords[arrays.pin_cell] + arrays.pin_dx
        plain = b2b_pairs(pin_pos, arrays.net_start, arrays.net_weight,
                          arrays.pin_cell, arrays.pin_dx, pin_net, 1e-2)
        for _ in range(2):
            reused = b2b_pairs(pin_pos, arrays.net_start,
                               arrays.net_weight, arrays.pin_cell,
                               arrays.pin_dx, pin_net, 1e-2,
                               workspace=builder_ws.workspace)
            for got, want in zip(reused, plain):
                np.testing.assert_array_equal(got, want)


class TestPoissonSolver:
    """The spectral Neumann Poisson solve vs the dense reference."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(3, 8), st.integers(3, 8),
           st.integers(0, 2 ** 32 - 1))
    def test_fft_matches_dense_reference(self, nx, ny, seed):
        from repro.gen import build_design
        from repro.place.electrostatic import ElectrostaticDensity
        from repro.place.region import BinGrid, PlacementRegion
        rng = np.random.default_rng(seed)
        region = PlacementRegion(x=0.0, y=0.0, width=float(2 * nx),
                                 height=float(8 * ny), row_height=8.0)
        grid = BinGrid(region=region, nx=nx, ny=ny)
        design = build_design("dp_add8")
        arrays = PlacementArrays.build(design.netlist)
        dens = ElectrostaticDensity.__new__(ElectrostaticDensity)
        dens.arrays = arrays
        dens.grid = grid
        kx = np.arange(2 * nx)
        ky = np.arange(2 * ny)
        lam = ((2.0 - 2.0 * np.cos(np.pi * kx / nx))
               / grid.bin_w ** 2)[:, None] \
            + ((2.0 - 2.0 * np.cos(np.pi * ky / ny))
               / grid.bin_h ** 2)[None, :]
        lam[0, 0] = 1.0
        dens._lam = lam
        rho = rng.normal(size=(nx, ny))
        rho -= rho.mean()  # compatible Neumann right-hand side
        psi = dens.solve_poisson(rho)
        want = poisson_reference(rho, grid.bin_w, grid.bin_h)
        np.testing.assert_allclose(psi - psi.mean(), want,
                                   rtol=1e-7, atol=1e-8)

    def test_field_pushes_away_from_peak(self):
        """A point charge's field points outward from the charge."""
        from repro.place.electrostatic import ElectrostaticDensity
        from repro.place.region import BinGrid, PlacementRegion
        region = PlacementRegion(x=0.0, y=0.0, width=9.0, height=72.0,
                                 row_height=8.0)
        grid = BinGrid(region=region, nx=9, ny=9)
        design = build_design("dp_add8")
        arrays = PlacementArrays.build(design.netlist)
        dens = ElectrostaticDensity.__new__(ElectrostaticDensity)
        dens.arrays = arrays
        dens.grid = grid
        kx = np.arange(18)
        lam = ((2.0 - 2.0 * np.cos(np.pi * kx / 9))
               / grid.bin_w ** 2)[:, None] \
            + ((2.0 - 2.0 * np.cos(np.pi * kx / 9))
               / grid.bin_h ** 2)[None, :]
        lam[0, 0] = 1.0
        dens._lam = lam
        rho = np.full((9, 9), -1.0 / 80.0)
        rho[4, 4] = 1.0
        psi = dens.solve_poisson(rho)
        ex, ey = dens.field(psi)
        assert ex[2, 4] < 0 and ex[6, 4] > 0  # outward in x
        assert ey[4, 2] < 0 and ey[4, 6] > 0  # outward in y


class TestB2BGrad:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_grad_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        n_pairs = 20
        ca = rng.integers(0, n, n_pairs)
        cb = rng.integers(0, n, n_pairs)
        keep = ca != cb
        ca, cb = ca[keep], cb[keep]
        w = rng.uniform(0.1, 2.0, ca.shape[0])
        const = rng.normal(size=ca.shape[0])
        coords = rng.uniform(0.0, 10.0, n)

        def value(c):
            d = c[ca] - c[cb] + const
            return float(np.dot(w, d * d))

        got_v, got_g = b2b_grad(ca, cb, w, const, coords)
        assert got_v == pytest.approx(value(coords), rel=RTOL)
        eps = 1e-6
        for k in range(n):
            bumped = coords.copy()
            bumped[k] += eps
            fd = (value(bumped) - value(coords)) / eps
            assert got_g[k] == pytest.approx(fd, rel=1e-4, abs=1e-5)

    def test_grad_axis_matches_system_gradient(self):
        """grad_axis equals the assembled quadratic system's gradient
        ``A x - b`` at the linearisation point (movable rows)."""
        design, arrays = _design_arrays()
        rng = np.random.default_rng(5)
        coords = rng.uniform(0.0, 100.0, arrays.num_cells)
        builder = B2BBuilder(arrays)
        system = builder.build_axis(coords, arrays.pin_dx)
        _value, grad = builder.grad_axis(coords, arrays.pin_dx)
        want = 2.0 * (system.A @ coords[system.cells] - system.b)
        # accumulation orders differ (bincount vs CSR row sums), so this
        # is an analytic-identity check, not a bit-identity one
        np.testing.assert_allclose(grad[system.cells], want,
                                   rtol=1e-6, atol=1e-5)
