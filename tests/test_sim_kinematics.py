import numpy as np
import pytest

from telefitts.sim import parabola_landing, sphere_hit_test

from oracles import rk4_landing_batch


class TestParabolaLanding:
    def test_reference_launch(self):
        result = parabola_landing(
            np.array([0.0, 1.5, 0.0]), np.array([0.0, 3.0, 6.0]), 9.81, 0.0
        )
        assert result is not None
        point, t = result
        assert t == pytest.approx(0.9377363400541842, rel=1e-12)
        assert point == pytest.approx([0.0, 0.0, 5.626418040325105], abs=1e-12)

    def test_degenerate_root_at_plane(self):
        result = parabola_landing(
            np.array([1.0, 0.5, 2.0]), np.array([3.0, 0.0, 1.0]), 9.81, 0.5
        )
        assert result is not None
        point, t = result
        assert t == 0.0
        assert point == pytest.approx([1.0, 0.5, 2.0])

    def test_unreachable_height(self):
        # apex of a 3 m/s vertical launch from the ground is ~0.46 m
        assert parabola_landing(
            np.array([0.0, 0.0, 0.0]), np.array([0.0, 3.0, 1.0]), 9.81, 2.0
        ) is None

    def test_landing_height_is_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            origin = rng.uniform([-2, 0.5, -2], [2, 2.0, 2])
            vel = rng.uniform([-5, -2, 0.5], [5, 8, 12])
            h = float(rng.uniform(0.0, 0.4))
            result = parabola_landing(origin, vel, 9.81, h)
            if result is None:
                continue
            point, _ = result
            assert abs(point[1] - h) < 1e-9

    def test_matches_rk4_oracle(self):
        rng = np.random.default_rng(7)
        launches = []
        for _ in range(60):
            origin = rng.uniform([-2, 0.8, -2], [2, 1.8, 2])
            vel = rng.uniform([-4, 0.0, 1.0], [4, 7.0, 10.0])
            h = float(rng.uniform(0.0, 0.5))
            launches.append((origin, vel, h))
        origins, velocities, heights = (np.array(column) for column in zip(*launches))
        oracles = rk4_landing_batch(origins, velocities, 9.81, heights, dt=1e-4, t_max=60.0)
        checked = 0
        for (origin, vel, h), oracle in zip(launches, oracles):
            mine = parabola_landing(origin, vel, 9.81, h)
            if mine is None:
                assert oracle is None
                continue
            assert oracle is not None
            point, t = mine
            opoint, ot = oracle
            assert np.linalg.norm(point - opoint) < 1e-3
            assert abs(t - ot) < 1e-3
            checked += 1
        assert checked >= 30

    def test_gravity_must_be_positive(self):
        for gravity in (0.0, float("nan")):
            with pytest.raises(ValueError):
                parabola_landing(np.zeros(3), np.ones(3), gravity, 0.0)

    @pytest.mark.parametrize("origin, velocity, height", [
        ([0.0, np.nan, 0.0], [0.0, 3.0, 6.0], 0.0),
        ([np.inf, 1.5, 0.0], [0.0, 3.0, 6.0], 0.0),
        ([0.0, 1.5, 0.0], [np.nan, 3.0, 6.0], 0.0),
        ([0.0, 1.5, 0.0], [0.0, 3.0, -np.inf], 0.0),
        ([0.0, 1.5, 0.0], [0.0, 3.0, 6.0], np.nan),
        ([0.0, 1.5, 0.0], [0.0, 3.0, 6.0], -np.inf),
    ])
    def test_rejects_non_finite_arcs(self, origin, velocity, height):
        with pytest.raises(ValueError, match="finite origin, velocity"):
            parabola_landing(np.array(origin), np.array(velocity), 9.81, height)

    def test_rejects_a_landing_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="beyond the float range"):
            parabola_landing(np.array([0.0, 1.5, 0.0]), np.array([1e300, 1e200, 0.0]))


class TestSphereHitTest:
    def test_center_hit(self):
        hit, dev = sphere_hit_test(np.array([0.0, 0.0, 3.0]), np.array([0.0, 0.0, 3.0]), 0.2)
        assert hit
        assert dev == 0.0

    def test_boundary_inclusive(self):
        hit, dev = sphere_hit_test(np.array([0.1, 0.0, 3.0]), np.array([0.0, 0.0, 3.0]), 0.2)
        assert hit
        assert dev == pytest.approx(0.1)

    def test_miss_just_outside(self):
        hit, dev = sphere_hit_test(np.array([0.0, 0.0, 3.15]), np.array([0.0, 0.0, 3.0]), 0.2)
        assert not hit
        assert dev == pytest.approx(0.15)

    def test_rejects_bad_width(self):
        for width in (0.0, float("nan")):
            with pytest.raises(ValueError):
                sphere_hit_test(np.zeros(3), np.zeros(3), width)
