import numpy as np
import pytest

from dephrasure.pso import PsoConfig, pso_minimize, rowwise


def _sphere(x):
    return float(np.sum(x**2))


def test_sphere_converges():
    config = PsoConfig(bounds=((-5.0, 5.0),) * 4, seed=1)
    res = pso_minimize(rowwise(_sphere), 4, config)
    assert res.best_value < 1e-6
    assert np.all(np.abs(res.best_position) < 1e-2)


def test_shifted_sphere():
    target = np.array([1.0, -2.0, 0.5])
    config = PsoConfig(bounds=((-5.0, 5.0),) * 3, seed=2)
    res = pso_minimize(rowwise(lambda x: _sphere(x - target)), 3, config)
    assert res.best_value < 1e-6
    assert np.allclose(res.best_position, target, atol=1e-2)


def test_deterministic_per_seed():
    config = PsoConfig(bounds=((-5.0, 5.0),) * 4, seed=7, max_iterations=50)
    r1 = pso_minimize(rowwise(_sphere), 4, config)
    r2 = pso_minimize(rowwise(_sphere), 4, config)
    assert r1.best_value == r2.best_value
    assert np.array_equal(r1.best_position, r2.best_position)
    r3 = pso_minimize(rowwise(_sphere), 4, PsoConfig(bounds=((-5.0, 5.0),) * 4,
                                                     seed=8, max_iterations=50))
    assert r3.best_value != r1.best_value


def test_positions_respect_bounds():
    bounds = ((0.5, 2.0),) * 3
    config = PsoConfig(bounds=bounds, seed=3, max_iterations=40)
    res = pso_minimize(rowwise(_sphere), 3, config)
    assert np.all(res.best_position >= 0.5 - 1e-12)
    assert np.all(res.best_position <= 2.0 + 1e-12)
    # constrained optimum sits on the boundary
    assert res.best_value == pytest.approx(3 * 0.25, abs=1e-6)


def test_warm_start_is_kept_when_optimal():
    config = PsoConfig(bounds=((-5.0, 5.0),) * 4, seed=4, max_iterations=5)
    res = pso_minimize(rowwise(_sphere), 4, config, warm_starts=[np.zeros(4)])
    assert res.best_value == 0.0


def test_stall_stops_early():
    config = PsoConfig(
        bounds=((-5.0, 5.0),) * 2,
        seed=5,
        max_iterations=500,
        stall_iterations=20,
        stall_tolerance=1e-12,
    )
    res = pso_minimize(rowwise(_sphere), 2, config)
    assert res.iterations_run < 500


def test_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(n_particles=0, bounds=((-1, 1),))
    with pytest.raises(ValueError):
        PsoConfig(bounds=((1.0, -1.0),))
    with pytest.raises(ValueError):
        PsoConfig(bounds=((-1, 1),), max_iterations=0)


def test_variant_flags_still_converge():
    config = PsoConfig(
        bounds=((-5.0, 5.0),) * 3, seed=6, per_dimension_draws=True
    )
    res = pso_minimize(rowwise(_sphere), 3, config)
    assert res.best_value < 1e-6


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


@pytest.mark.parametrize(
    "config, warm_starts, value, position, iterations, evaluations",
    [
        (
            PsoConfig(bounds=((-2.0, 2.0),) * 3, seed=11, max_iterations=60),
            (),
            "0x1.44b5f9634bcfap-16",
            ["0x1.ff5ed5693a1f7p-1", "0x1.fe9ba6341d3cbp-1", "0x1.fd1f4609dc494p-1"],
            60,
            3904,
        ),
        (
            PsoConfig(bounds=((-2.0, 2.0),) * 3, seed=12, max_iterations=60,
                      n_particles=9, per_dimension_draws=True),
            ([0.5, 0.5, 0.5],),
            "0x1.f15ec819854cap-3",
            ["0x1.88a64287c2854p-1", "0x1.2aa26ac4b088fp-1", "0x1.50ec041aeb986p-2"],
            60,
            549,
        ),
    ],
)
def test_rowwise_reproduces_per_particle_trajectory(
    config, warm_starts, value, position, iterations, evaluations
):
    # the results of the per-particle evaluation loop this swarm-level
    # objective replaced, bit for bit
    res = pso_minimize(rowwise(_rosenbrock), 3, config, warm_starts=warm_starts)
    assert res.best_value == float.fromhex(value)
    assert [float(x) for x in res.best_position] == [float.fromhex(h) for h in position]
    assert (res.iterations_run, res.evaluations) == (iterations, evaluations)


def test_swarm_objective_shape_is_checked():
    config = PsoConfig(bounds=((-1.0, 1.0),) * 2, seed=0, max_iterations=2)
    with pytest.raises(ValueError):
        pso_minimize(lambda pos: np.sum(pos), 2, config)
