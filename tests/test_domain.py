"""The probability-domain rule at every public (p, q) entry point.

Each coordinate is checked against [0, hi] up to 1e-15 and clamped at hi:
a coordinate at hi + 1e-15 gives the result at hi, bit for bit, and one
at hi + 1e-14 raises that coordinate's one-line error.  One table of
entry points holds every copy of the rule to the same edge.

Each entry point either broadcasts its points, giving a loop of one-point
calls bit for bit, or takes exactly one point and raises numpy's size-1
error for more.
"""

import dataclasses
import inspect

import numpy as np
import pytest

import dephrasure as d

_CODE = d.repetition_code_state(2, 0.3)
_ENSEMBLE = d.plusminus_ensemble(0.3)
_RHO = d.bloch_state(0.4, 0.0, 0.3)

# name -> (the call at (p, q), p's bound, q's bound, or None for a
# function of p alone); the witness's q lies in (0, 1/2]
ENTRY_POINTS = {
    "region_g": (lambda p, q: d.region_g(p), 0.5, None),
    "region_j": (lambda p, q: d.region_j(p), 0.5, None),
    "region_k": (lambda p, q: d.region_k(p), 0.5, None),
    "region_curves": (lambda p, q: d.region_curves(p), 0.5, None),
    "coherent_info_z": (lambda p, q: d.coherent_info_z(p, q, 0.3), 1.0, 1.0),
    "coherent_info_xz": (lambda p, q: d.coherent_info_xz(p, q, 0.4, 0.3), 1.0, 1.0),
    "coherent_info_state": (lambda p, q: d.coherent_info_state(p, q, _RHO), 1.0, 1.0),
    "xz_grid_max": (lambda p, q: d.xz_grid_max(p, q, steps=5), 1.0, 1.0),
    "comp_ci_eps": (lambda p, q: d.comp_ci_eps(p, q, 0.1), 1.0, 1.0),
    "comp_ci_x_state": (lambda p, q: d.comp_ci_x_state(p, q, 0.8), 1.0, 1.0),
    "repetition_ci": (lambda p, q: d.repetition_ci(p, q, 2, 0.3), 0.5, 1.0),
    "single_letter_ci": (d.single_letter_ci, 0.5, 0.5),
    "private_lower_bound": (d.private_lower_bound, 0.5, 0.5),
    "repetition_ci_opt": (lambda p, q: d.repetition_ci_opt(p, q, 2), 0.5, 1.0),
    "optimize_zdiag": (lambda p, q: d.optimize_zdiag(p, q, 2, n_starts=2), 0.5, 0.5),
    "optimize_chi3": (lambda p, q: d.optimize_chi3(p, q, n_starts=0, max_iterations=3),
                      0.5, 0.5),
    "optimize_code_ci": (lambda p, q: d.optimize_code_ci(p, q, 1, n_starts=1), 0.5, 0.5),
    "dephrasure_kraus": (d.dephrasure_kraus, 1.0, 1.0),
    "complementary_kraus": (d.complementary_kraus, 1.0, 1.0),
    "antidegrading_map": (d.antidegrading_map, 0.5, 1.0),
    "verify_antidegradable": (d.verify_antidegradable, 0.5, 1.0),
    "multiletter_ci": (lambda p, q: d.multiletter_ci(_CODE, p, q), 1.0, 1.0),
    "brute_force_ci": (lambda p, q: d.brute_force_ci(_CODE, p, q), 1.0, 1.0),
    "pattern_decompose": (lambda p, q: d.pattern_decompose(_CODE, p, q), 1.0, 1.0),
    "ensemble_private_info": (lambda p, q: d.ensemble_private_info(_ENSEMBLE, p, q), 1.0, 1.0),
    "epsilon_bound": (d.epsilon_bound, 0.5, 0.5),
    "positivity_witness": (d.positivity_witness, 0.5, 0.5),
}
_WITNESS = ("epsilon_bound", "positivity_witness")
# the entry points that take exactly one point; every other one broadcasts
ONE_POINT = {
    "coherent_info_state", "xz_grid_max", "optimize_code_ci", "dephrasure_kraus",
    "complementary_kraus", "antidegrading_map", "multiletter_ci", "brute_force_ci",
    "pattern_decompose", "ensemble_private_info",
}
# numpy's error for more than one point at a one-point entry point
_SIZE_1 = r"^can only convert an array of size 1 to a Python scalar$"


def _bits(value):
    """A result's types and exact bits, for results of any form."""
    if dataclasses.is_dataclass(value):
        return [_bits(getattr(value, field.name)) for field in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    array = np.asarray(value)
    return type(value).__name__, array.dtype.str, array.shape, array.tobytes()


@pytest.mark.parametrize("name, coordinate", [
    (name, coordinate)
    for name, (_, _, q_hi) in ENTRY_POINTS.items()
    for coordinate in (("p",) if q_hi is None else ("p", "q"))
])
def test_a_coordinate_past_its_bound_is_clamped_within_1e_15_and_raises_beyond(name, coordinate):
    call, p_hi, q_hi = ENTRY_POINTS[name]
    hi = p_hi if coordinate == "p" else q_hi

    def at(value):
        # the other coordinate inside its domain, and inside the witness region
        return call(value, 0.2) if coordinate == "p" else call(0.1, value)

    assert _bits(at(hi + 1e-15)) == _bits(at(hi))
    with pytest.raises(ValueError) as err:
        at(hi + 1e-14)
    domain = "(0, 1/2]" if coordinate == "q" and name in _WITNESS else f"[0, {hi}]"
    assert str(err.value) == f"{coordinate} = {hi + 1e-14} outside {domain}"


def _fields(result):
    """A result's top-level fields: a report's, a tuple's, or the result."""
    if dataclasses.is_dataclass(result):
        return [getattr(result, field.name) for field in dataclasses.fields(result)]
    return list(result) if isinstance(result, tuple) else [result]


def _leaves(value):
    """Every scalar or array a result holds, through reports, tuples and lists."""
    if dataclasses.is_dataclass(value):
        return _leaves(_fields(value))
    if isinstance(value, (tuple, list)):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


def test_every_public_function_of_a_point_is_an_entry_point():
    # a new public route cannot skip the domain and point-count tests
    routes = {
        name for name in d.__all__
        if inspect.isfunction(function := getattr(d, name))
        and "p" in inspect.signature(function).parameters
    }
    assert routes == set(ENTRY_POINTS)
    assert ONE_POINT < routes


@pytest.mark.parametrize("name", sorted(set(ENTRY_POINTS) - ONE_POINT))
def test_a_broadcasting_entry_point_gives_a_loop_of_one_point_calls(name):
    call = ENTRY_POINTS[name][0]
    # one point searched and one antidegradable, each inside the witness region
    p, q = np.array([0.1, 0.25]), np.array([0.2, 0.35])
    batch = _fields(call(p, q))
    for i, one in enumerate(call(pi, qi) for pi, qi in zip(p.tolist(), q.tolist())):
        assert not any(isinstance(leaf, np.floating) for leaf in _leaves(one))
        for field, one_field in zip(batch, _fields(one), strict=True):
            assert np.shape(field)[:1] == (2,)
            row, want = np.asarray(field)[i], np.asarray(one_field)
            assert (row.dtype.kind, row.shape) == (want.dtype.kind, want.shape)
            assert row.astype(want.dtype).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(ONE_POINT))
def test_a_one_point_entry_point_takes_exactly_one_point(name):
    call = ENTRY_POINTS[name][0]
    # antidegradable, so that antidegrading_map has a map here
    one = call(0.4, 0.3)
    assert not any(isinstance(leaf, np.floating) for leaf in _leaves(one))
    assert _bits(call([0.4], 0.3)) == _bits(call(0.4, np.array([0.3]))) == _bits(one)
    for p, q in (([0.4, 0.45], 0.3), (0.4, [0.3, 0.35])):
        with pytest.raises(ValueError, match=_SIZE_1):
            call(p, q)
