from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dephrasure.channel import (
    bloch_state,
    coherent_info_xz,
    coherent_info_z,
    complementary_kraus,
    region_curves,
)
from dephrasure.compci import (
    UnderflowAtParams,
    WitnessResult,
    comp_ci_eps,
    comp_ci_x_state,
    epsilon_bound,
    positivity_witness,
)
from dephrasure.qinfo import binary_entropy, coherent_information


_EDGE_PQ = (0.0, 5e-324, 1e-12, 0.5, 1 - 1e-12, 1.0)
_EDGE_M = (0.0, 1e-17, 1 - 1e-16, 1.0)


def _edge_examples(test):
    """``test`` with every (p, q, m) of the edge values as an explicit example."""
    for p, q, m in product(_EDGE_PQ, _EDGE_PQ, _EDGE_M):
        test = example(p, q, m)(test)
    return test


@settings(max_examples=200, deadline=None, derandomize=True)
@_edge_examples
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_closed_form_vs_direct_kraus(p, q, m):
    # the whole documented domain p, q, m in [0, 1], against the Kraus route
    direct = coherent_information(complementary_kraus(p, q), bloch_state(m, 0, 0))
    assert comp_ci_x_state(p, q, m) == pytest.approx(direct, abs=1e-12)


def test_closed_form_explicit():
    p, q, m = 0.2, 0.3, 0.5
    eps = 0.25
    expect = q * binary_entropy(eps) + (1 - q) * (
        binary_entropy(p) - binary_entropy(p + eps * (1 - 2 * p))
    )
    assert comp_ci_x_state(p, q, m) == pytest.approx(expect, abs=1e-12)


def test_comp_ci_eps_matches_m_form():
    assert comp_ci_eps(0.2, 0.3, 0.25) == pytest.approx(
        comp_ci_x_state(0.2, 0.3, 0.5), abs=1e-14
    )


def test_zero_at_pure_and_negative_at_mixed():
    # m = 1 (pure |+>) gives exactly zero; the maximally mixed state is
    # strictly negative when the erasure weight is small
    assert comp_ci_x_state(0.2, 0.3, 1.0) == 0.0
    assert comp_ci_x_state(0.2, 0.05, 0.0) < 0.0


def test_epsilon_bound_value():
    # exponent (1-q)/q (1-2p) log2((1-p)/p)
    p, q = 0.25, 0.25
    expect = 2.0 ** (-(0.75 / 0.25) * 0.5 * np.log2(3.0))
    assert epsilon_bound(p, q) == pytest.approx(expect, rel=1e-12)


def test_epsilon_bound_errors():
    with pytest.raises(ValueError):
        epsilon_bound(0.0, 0.3)
    with pytest.raises(ValueError):
        epsilon_bound(0.2, 0.0)
    with pytest.raises(ValueError):
        epsilon_bound(0.2, 0.7)


def test_witness_positive_on_grid():
    for p in np.arange(0.05, 0.51, 0.05):
        for q in np.arange(0.05, 0.51, 0.05):
            w = positivity_witness(p, q)
            assert w.ci_value > 0.0
            assert 0.0 < w.epsilon <= 0.5


def test_witness_small_p_small_q():
    # tiny-epsilon regime: requires the cancellation-free entropy
    # difference to see the positive value at all
    w = positivity_witness(0.05, 0.05)
    assert w.ci_value > 0.0
    assert w.epsilon < 1e-20


def test_witness_tiny_eps_leading_order():
    # value ~ eps [ q log2(1/eps) - (1-q)(1-2p) log2((1-p)/p) ] to
    # leading order
    p, q = 0.05, 0.05
    w = positivity_witness(p, q)
    eps = w.epsilon
    lead = eps * (
        q * (np.log2(1 / eps) + 1 / np.log(2))
        - (1 - q) * (1 - 2 * p) * np.log2((1 - p) / p)
    )
    assert w.ci_value == pytest.approx(lead, rel=1e-2)


_LN2 = np.log(2.0)


def _scalar_entropy_diff(p, delta):
    """Reference: the one-point h(p + delta) - h(p) in float arithmetic."""
    if delta == 0.0:
        return 0.0
    if p == 0.0:
        return binary_entropy(delta)
    if p + delta >= 1.0:
        return -binary_entropy(p)
    return (
        -p * np.log1p(delta / p) / _LN2
        - delta * np.log2(p + delta)
        - (1 - p) * np.log1p(-delta / (1 - p)) / _LN2
        + delta * np.log2(1 - p - delta)
    )


def _scalar_witness(p, q):
    """Reference: the one-point witness, from half the bound (at most 1/2)
    halving at most 64 times; (ci_value, epsilon), or None on underflow."""
    p, q = min(float(p), 0.5), float(q)
    exponent = (1.0 - q) / q * (1.0 - 2.0 * p) * np.log2((1.0 - p) / p)
    eps = min(0.5, float(2.0 ** (-exponent)) / 2.0)
    for _ in range(64):
        if eps == 0.0:
            break
        value = q * binary_entropy(eps) - (1 - q) * _scalar_entropy_diff(p, eps * (1 - 2 * p))
        if value > 0.0:
            return value, eps
        eps /= 2.0
    return None


def test_batched_witness_matches_the_scalar_loop_bit_for_bit():
    grid = np.linspace(0.01, 0.5, 41)  # p = 1/2 and q = 1/2 included
    p, q = (a.reshape(-1) for a in np.meshgrid(grid, grid, indexing="ij"))
    # points where the loop halves down to subnormal epsilons
    halving = [(0.065, 0.0031177472668774816), (0.08166666666666667, 0.002732529295556357),
               (0.2516666666666667, 0.0007308092274701785)]
    edges = [(0.5, 0.5), (0.5, 0.01), (0.01, 0.5), (0.5, 1e-3)]
    p, q = (np.concatenate([a, b]) for a, b in zip((p, q), np.transpose(halving + edges)))
    witness = positivity_witness(p, q)
    want = np.array([_scalar_witness(pi, qi) for pi, qi in zip(p, q)])
    assert witness.ci_value.tobytes() == want[:, 0].tobytes()
    assert witness.epsilon.tobytes() == want[:, 1].tobytes()
    for pi, qi in halving:
        w = positivity_witness(pi, qi)
        assert 0.0 < w.epsilon < epsilon_bound(pi, qi) / 2 and w.epsilon < 1e-300
        assert (w.ci_value, w.epsilon) == _scalar_witness(pi, qi)


def test_witness_underflow_names_the_first_failing_point():
    # the bound is 1e-323 here, and halving reaches 0 before a positive
    # value; (0.001, 0.001), whose bound is 0, fails later in C order
    bad = (0.05847457627118644, 0.003288135593220339)
    assert epsilon_bound(*bad) > 0.0 and _scalar_witness(*bad) is None
    with pytest.raises(UnderflowAtParams) as info:
        positivity_witness([0.2, bad[0], 0.001], [0.2, bad[1], 0.001])
    assert str(info.value) == f"no positive witness found at (p, q) = {bad}"


def _assert_batched_matches_one_point_calls(fn, fields, *args):
    """``fn`` over the broadcast ``args`` gives, field by field, the shape
    and bytes of one-point calls; or, if some of them raise, the error of
    the first in C order, a domain error before any underflow."""
    points = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    singles = []
    for point in zip(*(a.flat for a in points)):
        try:
            singles.append(fn(*point))
        except (ValueError, UnderflowAtParams) as exc:
            singles.append(exc)
    # sorted is stable: the first domain error, else the first underflow
    errors = sorted((s for s in singles if isinstance(s, Exception)),
                    key=lambda exc: not isinstance(exc, ValueError))
    if errors:
        with pytest.raises((ValueError, UnderflowAtParams)) as info:
            fn(*args)
        assert type(info.value) is type(errors[0])
        assert str(info.value) == str(errors[0])
        return
    batched = fn(*args)
    for field in fields:
        got = np.asarray(field(batched))
        assert got.shape == points[0].shape
        assert got.tobytes() == np.array([field(s) for s in singles], dtype=float).tobytes()


@st.composite
def _broadcastable(draw, elements, bad):
    """Arrays of mutually broadcastable shapes (empty ones included), one
    per element strategy, with up to two entries replaced by values from
    ``bad``."""
    shapes = draw(hnp.mutually_broadcastable_shapes(
        num_shapes=len(elements), max_dims=3, min_side=0, max_side=3))
    arrays = [draw(hnp.arrays(float, shape, elements=element))
              for shape, element in zip(shapes.input_shapes, elements)]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        array = draw(st.sampled_from(arrays))
        if array.size:
            array.flat[draw(st.integers(0, array.size - 1))] = draw(st.sampled_from(bad))
    return arrays


_UNIT = st.floats(0.0, 1.0)
_HALF = st.floats(0.0, 0.5)
_WITNESS = st.floats(1e-6, 0.5)  # 0 is among the bad values
_NAN = float("nan")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_broadcastable([_WITNESS, _WITNESS], [0.0, -0.0, 0.5 + 1e-16, 0.75, -0.25, 1e-320, _NAN]))
def test_batched_witness_properties(points):
    fields = [lambda w, name=name: getattr(w, name) for name in WitnessResult.__annotations__]
    _assert_batched_matches_one_point_calls(positivity_witness, fields, *points)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_broadcastable([_UNIT, _UNIT, _HALF], [1.5, -0.5, 0.75, 1.0, 0.0, 1e-320, _NAN]))
def test_batched_comp_ci_eps_properties(points):
    _assert_batched_matches_one_point_calls(comp_ci_eps, [lambda v: v], *points)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_broadcastable([_HALF], [0.75, -0.1, 0.5, 0.0, 0.5 - 1e-6, _NAN]))
def test_batched_region_curves_properties(points):
    fields = [lambda curves, i=i: curves[i] for i in range(3)]
    _assert_batched_matches_one_point_calls(region_curves, fields, *points)


_BLOCH = st.floats(-0.7, 0.7)  # (x, z) inside the unit disk


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_broadcastable([_UNIT, _UNIT, _BLOCH], [1.5, -0.5, 1.0, 0.9, _NAN]))
def test_batched_coherent_info_z_properties(points):
    _assert_batched_matches_one_point_calls(coherent_info_z, [lambda v: v], *points)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_broadcastable([_UNIT, _UNIT, _BLOCH, _BLOCH], [1.5, -0.5, 1.0, 0.9, _NAN]))
def test_batched_coherent_info_xz_properties(points):
    _assert_batched_matches_one_point_calls(coherent_info_xz, [lambda v: v], *points)


def test_comp_ci_eps_at_p_one_is_the_entropy_of_eps():
    # p = 1 dephases as p = 0 does, up to a relabelling of the environment
    for eps in (0.0, 1e-30, 0.1, 0.5):
        assert comp_ci_eps(1.0, 0.3, eps) == comp_ci_eps(0.0, 0.3, eps)
