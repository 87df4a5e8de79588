"""Seeded, deterministic particle swarm optimization.

A gradient-free population minimizer: each particle carries a position
and a velocity; the velocity update mixes inertia with attraction
towards the particle's own best point and the swarm's best point.
Identical seeds give bit-identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PsoConfig:
    n_particles: int = 64
    c_inertia: float = 0.729
    c_self: float = 1.49445
    c_social: float = 1.49445
    max_iterations: int = 500
    bounds: tuple = ()  # per-dimension (lo, hi)
    seed: int = 0
    stall_tolerance: float = 1e-9
    stall_iterations: int = 50
    per_dimension_draws: bool = False

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("need at least 2 particles")
        if self.c_inertia < 0 or self.c_self < 0 or self.c_social < 0:
            raise ValueError("coefficients must be nonnegative")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"degenerate bound ({lo}, {hi})")


@dataclass(frozen=True)
class PsoResult:
    best_position: np.ndarray
    best_value: float
    iterations_run: int
    evaluations: int


def rowwise(f):
    """Adapt a scalar objective ``f(x) -> float`` to ``pso_minimize``.

    The adapter calls ``f`` once per row of the swarm's positions.
    """
    return lambda positions: np.array([f(x) for x in positions], dtype=float)


def pso_minimize(objective, dim, config, warm_starts=()):
    """Minimize ``objective`` over the bounded box in ``config.bounds``.

    ``objective`` is evaluated on the whole swarm at once: it maps an
    (m, dim) array of positions to m values (wrap a scalar function in
    ``rowwise``).  Positions are clipped to the box after every step.
    ``warm_starts`` replace the first particles' initial positions
    (clipped to bounds).  Terminates at max_iterations or when the
    incumbent improves by less than stall_tolerance over
    stall_iterations consecutive iterations.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if len(config.bounds) != dim:
        raise ValueError(f"need {dim} bounds, got {len(config.bounds)}")
    lo = np.array([b[0] for b in config.bounds])
    hi = np.array([b[1] for b in config.bounds])
    span = hi - lo
    rng = np.random.default_rng(config.seed)
    npart = config.n_particles

    def evaluate(positions):
        values = np.asarray(objective(positions), dtype=float)
        if values.shape != (npart,):
            raise ValueError(
                f"objective returned shape {values.shape}, expected ({npart},)"
            )
        return values

    pos = lo + rng.uniform(size=(npart, dim)) * span
    vel = rng.uniform(-1.0, 1.0, size=(npart, dim)) * span
    for i, w in enumerate(warm_starts[: npart]):
        pos[i] = np.clip(np.asarray(w, dtype=float), lo, hi)

    values = evaluate(pos)
    evaluations = npart
    pbest_pos = pos.copy()
    pbest_val = values.copy()
    g_idx = int(np.argmin(pbest_val))
    gbest_pos = pbest_pos[g_idx].copy()
    gbest_val = float(pbest_val[g_idx])

    stall_anchor = gbest_val
    stall_count = 0
    iterations = 0
    for _ in range(config.max_iterations):
        iterations += 1
        draw_shape = (npart, dim) if config.per_dimension_draws else (npart, 1)
        u_self = rng.uniform(size=draw_shape)
        u_soc = rng.uniform(size=draw_shape)
        vel = (
            config.c_inertia * vel
            + config.c_self * u_self * (pbest_pos - pos)
            + config.c_social * u_soc * (gbest_pos - pos)
        )
        pos = np.clip(pos + vel, lo, hi)
        values = evaluate(pos)
        evaluations += npart

        improved = values < pbest_val
        pbest_pos[improved] = pos[improved]
        pbest_val[improved] = values[improved]
        g_idx = int(np.argmin(pbest_val))
        if pbest_val[g_idx] < gbest_val:
            gbest_val = float(pbest_val[g_idx])
            gbest_pos = pbest_pos[g_idx].copy()

        stall_count += 1
        if stall_anchor - gbest_val > config.stall_tolerance:
            stall_anchor = gbest_val
            stall_count = 0
        elif stall_count >= config.stall_iterations:
            break

    return PsoResult(gbest_pos, gbest_val, iterations, evaluations)

