import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dephrasure.antideg import (
    _BLOCK_POINTS,
    NotAntidegradableHere,
    _map_stack,
    antidegrading_map,
    verify_antidegradable,
)
from dephrasure.channel import (
    _channel_ops,
    _complement_ops,
    complementary_kraus,
    dephrasure_kraus,
    region_k,
)
from dephrasure.qinfo import _choi_of_terms, apply_kraus, choi_of, compose_kraus


def test_x_param_value():
    report = verify_antidegradable(0.25, 0.4)
    assert report.map_kind == "usd"
    assert report.x_param == pytest.approx(1 - 0.6 * 0.5 / 0.4, abs=1e-12)
    assert report.x_param == pytest.approx(0.25, abs=1e-12)


def test_composition_recovers_channel_usd_region():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = float(rng.uniform(0.01, 0.49))
        q = float(rng.uniform(region_k(p), 0.5))
        amap = antidegrading_map(p, q)
        composed = compose_kraus(amap, complementary_kraus(p, q))
        assert np.allclose(
            choi_of(composed), choi_of(dephrasure_kraus(p, q)), atol=1e-10
        )


def test_composition_recovers_channel_trivial_region():
    for p in (0.0, 0.2, 0.5):
        for q in (0.5, 0.7, 0.9):
            amap = antidegrading_map(p, q)
            composed = compose_kraus(amap, complementary_kraus(p, q))
            assert np.allclose(
                choi_of(composed), choi_of(dephrasure_kraus(p, q)), atol=1e-10
            )


def test_antidegrading_map_action():
    p, q = 0.1, 0.47
    amap = antidegrading_map(p, q)
    rho = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
    env = apply_kraus(complementary_kraus(p, q), rho)
    out = apply_kraus(amap, env)
    expect = apply_kraus(dephrasure_kraus(p, q), rho)
    assert np.allclose(out, expect, atol=1e-10)


def test_raises_below_boundary():
    with pytest.raises(NotAntidegradableHere):
        antidegrading_map(0.25, 0.2)  # k(0.25) = 1/3
    with pytest.raises(NotAntidegradableHere):
        antidegrading_map(0.1, 0.0)


def test_verify_reports_cp_failure_below_boundary():
    report = verify_antidegradable(0.25, 0.25)
    assert not report.antidegradable
    assert report.x_param < 0
    assert report.cp_min_eigenvalue < -1e-6
    # the composition identity itself still holds algebraically
    assert report.composition_residual < 1e-10


def test_verify_boundary_is_cp_marginal():
    p = 0.2
    q = region_k(p)
    report = verify_antidegradable(p, q)
    assert report.antidegradable
    assert report.x_param == pytest.approx(0.0, abs=1e-12)


def test_report_fields_on_grid():
    for p in (0.05, 0.25, 0.45):
        k = region_k(p)
        for q in (k + 0.005, (k + 0.5) / 2, 0.5):
            report = verify_antidegradable(p, q)
            assert report.antidegradable
            assert report.composition_residual < 1e-10
            assert report.cp_min_eigenvalue > -1e-10


def _choi_of_terms_loop(weights, ops):
    """Reference: the outer products of the flattened K_i.T, added in order."""
    d = ops.shape[1] * ops.shape[2]
    choi = np.zeros((d, d), dtype=complex)
    for w, K in zip(weights, ops):
        vec = K.T.reshape(-1)
        choi += float(w) * np.outer(vec, vec.conj())
    return choi


def test_choi_of_terms_matches_the_loop_bit_for_bit():
    # usd and trivial maps, on and above k(p), and below it (negative weights)
    points = [(0.25, 0.25), (0.1, 0.1), (0.4, 0.05), (0.2, region_k(0.2)),
              (0.3, 0.45), (0.05, 0.49), (0.1, 0.7), (0.0, 0.5), (0.5, 0.3)]
    for p, q in points:
        _, weights, ops = _map_stack(p, q)
        if q < region_k(p) - 1e-15:
            assert weights.min() < 0.0
        comp = complementary_kraus(p, q).operators
        composed = np.array([K @ C for K in ops for C in comp])
        for w, stack in ((weights, ops), (np.repeat(weights, len(comp)), composed)):
            got = _choi_of_terms(w, stack)
            # bytes, so signed zeros count too
            assert got.tobytes() == _choi_of_terms_loop(w, stack).tobytes()
    # the nine maps at once: one Choi matrix per point, each summed in order
    _, weights, ops = _map_stack(*np.transpose(points))
    stacked = _choi_of_terms(weights, ops)
    for choi, w, stack in zip(stacked, weights, ops):
        assert choi.tobytes() == _choi_of_terms_loop(w, stack).tobytes()


_FIELDS = ("p", "q", "map_kind", "x_param", "composition_residual",
           "cp_min_eigenvalue", "antidegradable")


def _assert_matches_one_point_calls(p, q, report):
    """Every field of the stacked ``report`` has the broadcast shape and
    the bytes of the one-point calls'."""
    bp, bq = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    singles = [verify_antidegradable(pi, qi) for pi, qi in zip(bp.flat, bq.flat)]
    for field in _FIELDS:
        got = np.asarray(getattr(report, field))
        want = np.array([getattr(r, field) for r in singles], dtype=got.dtype)
        assert got.shape == bp.shape, field
        assert got.tobytes() == want.tobytes(), field


def test_stacked_report_matches_one_point_calls_bit_for_bit():
    p, q = np.meshgrid(np.linspace(0.0, 0.5, 41), np.linspace(0.0, 1.0, 41),
                       indexing="ij")
    # q = 0, q = 1/2 and p = 0 lie on the grid; the boundary q = k(p)
    # replaces q = 0.025
    q[:, 1] = [region_k(pi) for pi in p[:, 0]]
    report = verify_antidegradable(p, q)
    _assert_matches_one_point_calls(p, q, report)
    # at q = 0 the USD map takes x = 1: the residual is the inconclusive
    # mass 1 - 2p, and only complete dephasing, p = 1/2, is antidegradable
    assert report.map_kind[0, 0] == "usd" and (report.x_param[:, 0] == 1.0).all()
    assert np.allclose(report.composition_residual[:, 0], 1 - 2 * p[:, 0], atol=1e-15)
    assert np.abs(report.cp_min_eigenvalue[:, 0]).max() <= 1e-15
    assert report.antidegradable[:, 0].tolist() == [False] * 40 + [True]
    assert report.antidegradable[:-1, 1].all()  # k(1/2) = 0 is the q = 0 row
    assert (report.map_kind[:, 20:] == "trivial").all()


@st.composite
def _broadcastable_points(draw):
    # empty arrays and subnormals included; at a subnormal q the USD map's
    # x = 1 - (1-q)(1-2p)/q may overflow, which gives the q = 0 row
    shapes = draw(hnp.mutually_broadcastable_shapes(
        num_shapes=2, max_dims=3, min_side=0, max_side=3))
    p_shape, q_shape = shapes.input_shapes
    p = draw(hnp.arrays(float, p_shape, elements=st.floats(0.0, 0.5)))
    q = draw(hnp.arrays(float, q_shape, elements=st.floats(0.0, 1.0)))
    return p, q


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_broadcastable_points())
def test_stacked_report_properties(points):
    p, q = points
    report = verify_antidegradable(p, q)
    _assert_matches_one_point_calls(p, q, report)
    bp, bq = np.broadcast_arrays(p, q)
    k = np.array([region_k(pi) for pi in bp.flat]).reshape(bp.shape)
    assert np.asarray(report.antidegradable)[bq >= k + 1e-9].all()


def _complex_verify_block(p, q):
    """_verify_block as built in complex arithmetic, the reference for
    its float64 build: every stack, Choi matrix and the composition
    complex."""
    x, weights, ops = _map_stack(p, q)
    cp_min = np.linalg.eigvalsh(_choi_of_terms(weights, ops)).min(axis=-1)
    comp = _complement_ops(p, q)  # term (i, j): weights_i, ops_i @ comp_j
    terms = weights.shape[1] * comp.shape[1]
    composed = (ops[:, :, None] @ comp[:, None]).reshape(len(p), terms, 3, 2)
    choi_comp = _choi_of_terms(np.repeat(weights, comp.shape[1], axis=1), composed)
    target = _choi_of_terms(np.ones((len(p), 4)), _channel_ops(p, q))
    residual = np.abs(choi_comp - target).max(axis=(-2, -1))
    return np.stack([x, residual, cp_min])


def _suite_grid():
    ps = np.linspace(0.0, 0.5, 20)  # as verify.antideg_suite builds it
    lows = np.maximum(region_k(ps), 1e-6)
    return np.repeat(ps, 20), np.linspace(lows, 0.5, 20, axis=-1).reshape(-1)


def _edge_points():
    ps = np.linspace(0.0, 0.5, 11)
    k = np.array([region_k(p) for p in ps])
    below = np.stack([ps[1:-1], 0.5 * k[1:-1]])  # x < 0: negative weights
    above = np.stack([np.repeat(ps, 3), np.tile([0.5, 0.75, 1.0], len(ps))])
    q_zero = np.stack([ps, np.zeros_like(ps)])
    p_half = np.stack([np.full(6, 0.5), np.linspace(0.0, 1.0, 6)])
    return np.concatenate([below, above, q_zero, p_half], axis=1)


_REFERENCE_GRIDS = {
    "antideg_suite_20x20": _suite_grid(),
    "grid_15x15": tuple(x.reshape(-1) for x in np.meshgrid(
        np.linspace(0.0, 0.5, 15), np.linspace(0.0, 0.5, 15), indexing="ij")),
    "edges": tuple(_edge_points()),
}


@pytest.mark.parametrize("name", list(_REFERENCE_GRIDS))
def test_float64_check_matches_the_complex_reference_byte_for_byte(name):
    p, q = _REFERENCE_GRIDS[name]
    report = verify_antidegradable(p, q)
    want = np.concatenate([
        _complex_verify_block(p[i : i + _BLOCK_POINTS], q[i : i + _BLOCK_POINTS])
        for i in range(0, len(p), _BLOCK_POINTS)
    ], axis=1)
    for field, rows in zip(("x_param", "composition_residual", "cp_min_eigenvalue"), want):
        assert np.asarray(getattr(report, field)).tobytes() == rows.tobytes(), field
