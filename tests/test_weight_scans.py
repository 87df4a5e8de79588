"""Batched weight scans: one call over many (p, q) points."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephrasure import channel, codes
from dephrasure.channel import maximize_over_weights, region_g, single_letter_ci
from dephrasure.codes import (
    multiletter_ci,
    repetition_ci,
    repetition_ci_opt,
    repetition_code_state,
)
from dephrasure.private_info import private_lower_bound
from dephrasure.qinfo import binary_entropy

_AXIS = (0.0, 0.11, 0.25, 0.5)
# q = g(p) - 1e-3, where the best weight sits in the log tail of the grid
_NEAR_G = [(p, region_g(p) - 1e-3) for p in (0.05, 0.15, 0.25, 0.35)]
POINTS = [(p, q) for p in _AXIS for q in _AXIS] + _NEAR_G

SCANS = [
    ("single_letter_ci", single_letter_ci),
    ("private_lower_bound", private_lower_bound),
] + [
    (f"repetition_ci_opt(n={n})", lambda p, q, n=n: repetition_ci_opt(p, q, n))
    for n in range(1, 7)
]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _batched(fn):
    p, q = np.transpose(POINTS)
    return fn(p, q)


@pytest.mark.parametrize("name,fn", SCANS, ids=[s[0] for s in SCANS])
def test_batched_matches_one_point_calls_bit_for_bit(name, fn):
    values, args = _batched(fn)
    single = [fn(p, q) for p, q in POINTS]
    assert np.array_equal(_bits(values), _bits([s[0] for s in single]))
    assert np.array_equal(_bits(args), _bits([s[1] for s in single]))


@pytest.mark.parametrize("name,fn", SCANS, ids=[s[0] for s in SCANS])
def test_results_do_not_depend_on_the_scan_block(name, fn, monkeypatch):
    values, args = _batched(fn)
    monkeypatch.setattr(channel, "_SCAN_BYTES", 1)  # one weight per block
    narrow_values, narrow_args = _batched(fn)
    assert np.array_equal(_bits(values), _bits(narrow_values))
    assert np.array_equal(_bits(args), _bits(narrow_args))


@pytest.mark.parametrize("name,fn", SCANS, ids=[s[0] for s in SCANS])
def test_scalar_call_returns_floats(name, fn):
    value, arg = fn(0.11, 0.33)
    assert type(value) is float and type(arg) is float


def test_arguments_broadcast_to_the_result_shape():
    p = np.array([[0.1], [0.2]])
    q = np.array([0.1, 0.2, 0.3])
    values, z = single_letter_ci(p, q)
    assert values.shape == z.shape == (2, 3)
    assert values[1, 2] == single_letter_ci(0.2, 0.3)[0]
    values, lam = repetition_ci_opt(0.11, q, np.array([[1], [3]]))
    assert values.shape == lam.shape == (2, 3)
    assert values[1, 0] == repetition_ci_opt(0.11, 0.1, 3)[0]
    values, _ = private_lower_bound(np.array([]), np.array([]))
    assert values.shape == (0,)


def test_first_bad_point_raises_its_one_point_error():
    # point 0 has a bad q, point 1 a bad p: points run in order, p before q
    with pytest.raises(ValueError, match=r"^q = 0\.6 outside \[0, 0\.5\]$"):
        single_letter_ci([0.1, 0.7], [0.6, 0.1])
    with pytest.raises(ValueError, match=r"^p = 0\.7 outside \[0, 0\.5\]$"):
        private_lower_bound([0.1, 0.7], [0.4, 0.6])
    # repetition checks q against [0, 1], then n, at each point
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        repetition_ci_opt([0.1, 0.7], [0.9, 0.1], 0)
    with pytest.raises(ValueError, match=r"^p = 0\.7 outside \[0, 0\.5\]$"):
        repetition_ci_opt([0.1, 0.7], [0.9, 0.1], [2, 0])


def _one_point_reference(value_fn, step, tol):
    """The scan of the whole grid and scalar golden section, one point at a time."""
    grid = channel._lambda_grid(step)
    vals = value_fn(grid)
    i = int(np.argmax(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = float(value_fn(c)), float(value_fn(d))
    while abs(b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = float(value_fn(c))
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = float(value_fn(d))
    x = (a + b) / 2
    fx = float(value_fn(x))
    return (float(vals[i]), float(grid[i])) if vals[i] > fx else (fx, x)


def _single_letter_value(p, q):
    def value(lam):
        w = 16 * p * (1 - p) * lam * (1 - lam)
        k = np.sqrt(np.clip(1.0 - w, 0.0, None))
        return (1 - 2 * q) * binary_entropy(lam) - (1 - q) * binary_entropy(
            w / (2 * (1 + k))
        )

    return value


def test_lockstep_scan_reproduces_the_one_point_golden_section():
    p, q = (np.array(x, dtype=float)[:, None] for x in zip(*POINTS))
    values, lams = maximize_over_weights(_single_letter_value(p, q), 1e-3, 1e-10)
    for i, (pi, qi) in enumerate(POINTS):
        value, lam = _one_point_reference(_single_letter_value(pi, qi), 1e-3, 1e-10)
        assert _bits(values[i]) == _bits(value)
        assert _bits(lams[i]) == _bits(lam)
    # the log tail: below g(p) the best weight is far under the linear grid
    assert np.all(lams[-len(_NEAR_G):] < 1e-4)


# The unfactored scans, each point's whole value taken at every weight of
# the grid: the reference that the factored scans must match bit for bit.
def _unfactored_single_letter(p, q):
    p, q = (np.reshape(x, (-1, 1)) for x in (p, q))
    values, lams = maximize_over_weights(_single_letter_value(p, q), 1e-3, 1e-10)
    return values, 1 - 2 * lams


def _unfactored_private(p, q):
    p, q = (np.reshape(x, (-1, 1)) for x in (p, q))

    def value(m):
        lam = 1.0 - m
        mix = p + (1 - lam) * (1 - 2 * p)
        return (1 - q) * (1 - binary_entropy(mix)) - q * (1 - binary_entropy(lam))

    values, mu = maximize_over_weights(value, 1e-3, 1e-10)
    return values, 1.0 - mu


def _unfactored_repetition(p, q, n):
    _, *terms = codes._repetition_terms(p, q, n)
    c, kept, erased = (np.reshape(term, (-1, 1)) for term in terms)

    def value(lam):
        small = channel._small_eigenvalue(4 * lam * (1 - lam) * c)
        return (kept - erased) * binary_entropy(lam) - kept * binary_entropy(small)

    return maximize_over_weights(value, 1e-4, 1e-12)


# p = 0, p = 1/2, q = 0, q = 1/2 and the near-g(p) points, each p with
# several q, so that the factored terms are shared between points
_REFERENCE_SCANS = [
    ("single_letter_ci", single_letter_ci, _unfactored_single_letter),
    ("private_lower_bound", private_lower_bound, _unfactored_private),
] + [
    (f"repetition_ci_opt(n={n})", lambda p, q, n=n: repetition_ci_opt(p, q, n),
     lambda p, q, n=n: _unfactored_repetition(p, q, n))
    for n in range(1, 7)
]


@pytest.mark.parametrize("name,fn,reference", _REFERENCE_SCANS,
                         ids=[s[0] for s in _REFERENCE_SCANS])
def test_factored_scan_matches_the_unfactored_reference(name, fn, reference):
    p, q = np.transpose(POINTS)
    assert len(np.unique(p)) < len(p)
    values, args = fn(p, q)
    ref_values, ref_args = reference(p, q)
    assert np.array_equal(_bits(values), _bits(ref_values))
    assert np.array_equal(_bits(args), _bits(ref_args))


def test_factored_repetition_scan_keys_on_c_of_p_and_n():
    # the shape of verify thresholds: n in 1..5 over an 11 x 11 grid, where
    # c(p, n) takes 47 distinct values (c = 0 at p = 0, 1 at p = 1/2) on
    # 605 points
    p, q = np.linspace(0.0, 0.5, 11)[:, None], np.linspace(0.0, 0.5, 11)
    n = np.arange(1, 6)[:, None, None]
    values, lams = repetition_ci_opt(p, q, n)
    assert values.shape == (5, 11, 11)
    assert len(np.unique(codes._repetition_terms(p, q, n)[1])) == 47
    bp, bq, bn = np.broadcast_arrays(p, q, n)
    ref_values, ref_lams = _unfactored_repetition(bp, bq, bn)
    assert np.array_equal(_bits(values.reshape(-1)), _bits(ref_values))
    assert np.array_equal(_bits(lams.reshape(-1)), _bits(ref_lams))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(0.0, 0.5), st.floats(0.0, 1.0), st.integers(1, 4), st.floats(0.0, 1.0))
def test_repetition_closed_form_is_the_block_engine(p, q, n, lam):
    # the closed form the factored scan splits into h(lam) and the block term
    value = repetition_ci(p, q, n, lam)
    assert value == pytest.approx(
        multiletter_ci(repetition_code_state(n, lam), p, q), abs=1e-10
    )


def _scan_columns(points):
    """Weights a scan block holds at ``points`` points."""
    return max(1, channel._SCAN_BYTES // (8 * points))


_GRID_15 = [x.reshape(-1) for x in np.meshgrid(
    np.linspace(0.0, 0.5, 15), np.linspace(0.0, 0.5, 15), indexing="ij")]


@pytest.mark.parametrize("name,fn,reference", _REFERENCE_SCANS[:3],
                         ids=[s[0] for s in _REFERENCE_SCANS[:3]])
def test_ragged_last_block_matches_the_unfactored_reference(name, fn, reference):
    # the 15 x 15 grid of [0, 1/2]^2: 145 weights a block, and neither grid
    # (1684 weights at step 1e-3, 6184 at 1e-4) fills its last block
    p, q = _GRID_15
    cols = _scan_columns(len(p))
    for step in (1e-3, 1e-4):
        assert (len(channel._lambda_grid(step)) - 1) % cols != 0
    values, args = fn(p, q)
    ref_values, ref_args = reference(p, q)
    assert np.array_equal(_bits(values), _bits(ref_values))
    assert np.array_equal(_bits(args), _bits(ref_args))


def test_repetition_scan_at_q_one_matches_the_unfactored_reference():
    # q = 1: (1-q)^n = 0, so the block term's coefficient b is zero and
    # the value is -h(lam) at every weight
    p = np.repeat(np.linspace(0.0, 0.5, 11), 4)
    n = np.tile(np.arange(1, 5), 11)
    q = np.ones_like(p)
    assert not codes._repetition_terms(p, q, n)[2].any()
    values, lams = repetition_ci_opt(p, q, n)
    ref_values, ref_lams = _unfactored_repetition(p, q, n)
    assert np.array_equal(_bits(values), _bits(ref_values))
    assert np.array_equal(_bits(lams), _bits(ref_lams))


@pytest.mark.parametrize("name,fn,reference", _REFERENCE_SCANS[:3],
                         ids=[s[0] for s in _REFERENCE_SCANS[:3]])
def test_one_column_blocks_on_a_201_point_axis(name, fn, reference, monkeypatch):
    # the default sweep axis, 201 distinct p; from about 33k points every
    # block holds one weight, set here by the block size
    p, q = np.linspace(0.0, 0.5, 201), np.linspace(0.5, 0.0, 201)
    monkeypatch.setattr(channel, "_SCAN_BYTES", 8 * len(p))
    assert _scan_columns(len(p)) == 1
    values, args = fn(p, q)
    ref_values, ref_args = reference(p, q)
    assert np.array_equal(_bits(values), _bits(ref_values))
    assert np.array_equal(_bits(args), _bits(ref_args))
