import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import phasebal
from phasebal import fixtures, lindist, powerflow
from phasebal.errors import MetricError, ValidationError
from phasebal.metrics import (ALL_METRICS, ObjectiveSpec, _phase_max, _phase_sum, aggregate,
                              denominator, p_u_star_values, pvur_star_values, pvur_values,
                              unbalance_rate_values)
from phasebal.network import LoadSeries, original_assignment
from phasebal.problem import metric_values_exact, metric_values_ld3f
from reference_impls import (aggregate_per_call, metric_values_exact_per_call,
                             metric_values_ld3f_per_call, metric_values_loop,
                             p_u_star_values_reduce, pvur_star_values_reduce,
                             pvur_values_reduce, unbalance_rate_values_reduce)

finite_pos = st.floats(0.2, 5.0, allow_nan=False)


# -- pvur ----------------------------------------------------------------------


def test_pvur_examples():
    assert pvur_values((1.0, 1.0, 1.0)) == 0.0
    assert np.isclose(pvur_values((0.95, 1.00, 1.05)), 5.0)
    assert np.isclose(pvur_values((0.9, 0.9, 1.2)), 20.0)


def test_pvur_zero_voltage_rejected():
    with pytest.raises(MetricError):
        pvur_values((0.0, 1.0, 1.0))


def test_pvur_star_examples():
    assert pvur_star_values((1.0, 1.0, 1.0)) == 0.0
    assert np.isclose(pvur_star_values((1.02, 0.98, 1.00)), 2.0)
    assert np.isclose(pvur_star_values((0.9, 1.0, 1.1)), 10.0)


# -- flow rates ------------------------------------------------------------------


def test_unbalance_rate_examples():
    assert unbalance_rate_values((2.0, 2.0, 2.0)) == 0.0
    assert np.isclose(unbalance_rate_values((1.0, 2.0, 3.0)), 50.0)
    assert np.isclose(unbalance_rate_values((0.0, 0.0, 3.0)), 200.0)


def test_unbalance_rate_zero_mean():
    assert np.isnan(unbalance_rate_values((1.0, -1.0, 0.0)))


def test_p_u_star_examples():
    assert p_u_star_values((2.0, 2.0, 2.0), 2.0) == 0.0
    assert np.isclose(p_u_star_values((1.0, 2.0, 3.0), 2.0), 150.0)
    assert np.isclose(p_u_star_values((1.0, 2.0, 3.0), 1.0), 600.0)


def test_p_u_star_needs_positive_denominator():
    assert np.isnan(p_u_star_values((1.0, 2.0, 3.0), 0.0))
    assert np.isnan(p_u_star_values((1.0, 2.0, 3.0), -1.0))


def test_p_u_star_uses_cyclic_pairs():
    # (p1-p2)^2 + (p2-p3)^2 + (p3-p1)^2, not just adjacent pairs
    assert np.isclose(p_u_star_values((1.0, 1.0, 2.0), 1.0), 200.0)


# -- the phase axis --------------------------------------------------------------

PHASE_FUNCTIONS = {"pvur": pvur_values, "pvur_star": pvur_star_values,
                   "unbalance_rate": unbalance_rate_values,
                   "p_u_star": lambda v: p_u_star_values(v, 1.0)}


@pytest.mark.parametrize("shape", [(2,), (4,), (5, 2)])
@pytest.mark.parametrize("name", sorted(PHASE_FUNCTIONS))
def test_metric_needs_a_last_axis_of_three_phases(name, shape):
    with pytest.raises(ValidationError, match="last axis of 3"):
        PHASE_FUNCTIONS[name](np.ones(shape))


phase_floats = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.0e-308, -1.0]))


@st.composite
def phase_arrays(draw):
    """(..., 3) floats with 0-3 leading axes: contiguous, a [..., :3] slice
    of a wider array, or a moveaxis view of a phase-major one."""
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=4))
    layout = draw(st.sampled_from(["contiguous", "slice", "moveaxis"]))
    if layout == "slice":
        wide = lead + (draw(st.integers(4, 6)),)
        return draw(hnp.arrays(float, wide, elements=phase_floats))[..., :3]
    if layout == "moveaxis":
        return np.moveaxis(draw(hnp.arrays(float, (3,) + lead, elements=phase_floats)), 0, -1)
    return draw(hnp.arrays(float, lead + (3,), elements=phase_floats))


def _same_bits(a, b) -> bool:
    """Bitwise equal, except that a NaN's sign and payload are not compared:
    which NaN operand an add or max returns is up to the compiled loop."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.where(nan, 0.0, a).tobytes() == np.where(nan, 0.0, b).tobytes())


@settings(max_examples=400, deadline=None)
@given(phase_arrays(), phase_floats)
def test_phase_kernels_equal_ufunc_reductions(x, denom):
    with np.errstate(all="ignore"):
        assert _same_bits(_phase_max(x), np.maximum.reduce(x, axis=-1))
        # numpy's sum starts from +0.0: three -0.0 sum to +0.0 there, -0.0 here
        all_neg_zero = np.all((x == 0.0) & np.signbit(x), axis=-1)
        got, ref = _phase_sum(x), np.add.reduce(x, axis=-1)
        assert np.all(got[all_neg_zero] == 0.0)
        assert _same_bits(np.where(all_neg_zero, 0.0, got), np.where(all_neg_zero, 0.0, ref))
        for v in (x, np.abs(x)):
            if np.any(v <= 0.0):
                with pytest.raises(MetricError):
                    pvur_values(v)
            else:
                assert _same_bits(pvur_values(v), pvur_values_reduce(v))
        assert _same_bits(pvur_star_values(x), pvur_star_values_reduce(x))
        assert _same_bits(unbalance_rate_values(x), unbalance_rate_values_reduce(x))
        assert _same_bits(p_u_star_values(x, denom), p_u_star_values_reduce(x, denom))


# -- metric invariants -----------------------------------------------------------


@given(st.tuples(finite_pos, finite_pos, finite_pos))
@settings(max_examples=100)
def test_metrics_nonnegative_and_zero_iff_balanced(v):
    arr = np.array(v)
    for fn in (pvur_values, pvur_star_values, unbalance_rate_values):
        val = fn(arr)
        assert val >= 0.0
        if np.ptp(arr) == 0.0:
            assert val < 1e-10
        if val == 0.0:
            assert np.ptp(arr) < 1e-12
    val = p_u_star_values(arr, 1.0)
    assert val >= 0.0
    if np.ptp(arr) == 0.0:
        assert val == 0.0  # exact: built from pairwise differences
    if val == 0.0:
        assert np.ptp(arr) < 1e-12


@given(st.tuples(finite_pos, finite_pos, finite_pos),
       st.permutations([0, 1, 2]))
@settings(max_examples=100)
def test_metrics_permutation_invariant(v, perm):
    arr = np.array(v)
    pv = arr[perm]
    assert np.isclose(pvur_values(arr), pvur_values(pv))
    assert np.isclose(pvur_star_values(arr), pvur_star_values(pv))
    assert np.isclose(unbalance_rate_values(arr), unbalance_rate_values(pv))
    assert np.isclose(p_u_star_values(arr, 1.3), p_u_star_values(pv, 1.3))


@given(st.tuples(st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3),
                 st.floats(-1e-3, 1e-3)))
@settings(max_examples=60)
def test_pvur_star_first_order_twice_pvur(eps):
    mags = 1.0 + np.array(eps)
    lhs = pvur_star_values(mags ** 2)
    rhs = 2.0 * pvur_values(mags)
    assert abs(lhs - rhs) <= 40.0 * float(np.max(np.abs(eps)) ** 2) * 100 + 1e-9


# -- denominator -------------------------------------------------------------------


def test_denominator_single_user():
    feeder, _ = fixtures.fixture("two_bus")
    ids = tuple(u.id for u in feeder.users)
    p = np.zeros((4, 3))
    p[:, 0] = 3000.0
    loads = fixtures.LoadSeries(ids, p, np.zeros_like(p))
    value = denominator(feeder, loads, feeder.branches[0])
    assert np.isclose(value, 1000.0 / feeder.base_power)


def test_denominator_three_equal_users(two_bus):
    feeder, _ = two_bus
    ids = tuple(u.id for u in feeder.users)
    p = np.full((4, 3), 1000.0)
    loads = fixtures.LoadSeries(ids, p, np.zeros_like(p))
    value = denominator(feeder, loads, feeder.branches[0])
    assert np.isclose(value, 1000.0 / feeder.base_power)


def test_denominator_brute_force(line):
    feeder, loads = line
    for br in feeder.branches:
        from phasebal.network import downstream_users
        total = sum(loads.p[:, loads.column(uid)].mean()
                    for uid in downstream_users(feeder, br))
        assert np.isclose(denominator(feeder, loads, br),
                          total / 3.0 / feeder.base_power)


def test_denominator_no_downstream_demand(line):
    feeder, _ = line
    ids = tuple(u.id for u in feeder.users)
    p = np.zeros((2, 3))
    loads = fixtures.LoadSeries(ids, p, p.copy())
    with pytest.raises(MetricError):
        denominator(feeder, loads, feeder.branches[0])


_DENOMINATORS = """
from phasebal import fixtures
from phasebal.metrics import denominator
feeder, loads = fixtures.fixture("twenty_user")
print([repr(denominator(feeder, loads, br)) for br in feeder.branches])
"""


def test_denominator_independent_of_hash_seed():
    """Downstream demand is summed in a fixed order, not in the order of a
    set of user ids, which changes with the interpreter's hash seed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(phasebal.__file__)))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _DENOMINATORS], capture_output=True,
                             text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr[-2000:]
        outs.append(out.stdout)
    assert outs[0] == outs[1]


# -- aggregate ----------------------------------------------------------------------


def test_aggregate_single_value():
    spec = ObjectiveSpec("pvur")
    assert aggregate(spec, np.array([[7.0]])) == 7.0


def test_aggregate_voltage_takes_worst_bus():
    spec = ObjectiveSpec("pvur")
    assert aggregate(spec, np.array([[3.0], [5.0]])) == 5.0


def test_aggregate_time_mean():
    spec = ObjectiveSpec("pvur")
    assert aggregate(spec, np.array([[2.0, 4.0]])) == 3.0


def test_aggregate_flow_takes_branch_mean():
    spec = ObjectiveSpec("pu")
    assert aggregate(spec, np.array([[3.0], [5.0]])) == 4.0


def test_aggregate_skips_nan_timesteps_with_warning():
    spec = ObjectiveSpec("pu")
    values = np.array([[2.0, np.nan, 4.0]])
    with pytest.warns(UserWarning, match="skipping"):
        assert aggregate(spec, values) == 3.0


def test_aggregate_all_nan_is_error():
    spec = ObjectiveSpec("pu")
    with pytest.warns(UserWarning):
        with pytest.raises(MetricError):
            aggregate(spec, np.array([[np.nan, np.nan]]))


def test_aggregate_empty_rejected():
    with pytest.raises(ValidationError):
        aggregate(ObjectiveSpec("pvur"), np.zeros((0, 4)))


# -- objective spec -----------------------------------------------------------------


def test_objective_spec_unknown_metric():
    with pytest.raises(ValidationError, match="unknown metric"):
        ObjectiveSpec("vuf")


def test_objective_spec_defaults(line):
    feeder, _ = line
    spec = ObjectiveSpec("pvur")
    assert set(spec.buses_for(feeder)) == {"b1", "b2", "b3"}
    flow = ObjectiveSpec("pu")
    assert [br.key for br in flow.branches_for(feeder)] == [("r", "b1")]


def test_default_balance_branches_feed_a_user(unloaded_cable):
    feeder, _ = unloaded_cable
    assert [br.key for br in feeder.reference_branches()] == [("r", "b1"), ("r", "spare")]
    assert [br.key for br in ObjectiveSpec("pu").branches_for(feeder)] == [("r", "b1")]


def test_no_branch_feeding_a_user_is_a_metric_error(two_bus):
    feeder, _ = two_bus
    # every user sits on the reference bus, so no reference branch feeds one
    feeder = dataclasses.replace(
        feeder, users=tuple(dataclasses.replace(u, bus="r") for u in feeder.users))
    with pytest.raises(MetricError, match="feeds a user"):
        ObjectiveSpec("pu").branches_for(feeder)


def test_unloaded_explicit_branch_raises_for_pu_star(unloaded_cable):
    feeder, loads = unloaded_cable
    sols = powerflow.solve_series(feeder, original_assignment(feeder), loads)
    spec = ObjectiveSpec("pu_star", balance_branches=(("r", "b1"), ("r", "spare")))
    with pytest.raises(MetricError, match="zero downstream demand"):
        metric_values_exact(spec, spec.sites(feeder, loads), sols)


@pytest.mark.parametrize("keys", [(("r",),), (("r", "b1", "b2"),), ("rb1",), (3,)])
def test_balance_branch_must_be_a_pair(keys):
    with pytest.raises(ValidationError, match="pair"):
        ObjectiveSpec("pu", balance_branches=keys)


def test_unknown_balance_bus_is_a_validation_error(line):
    feeder, loads = line
    spec = ObjectiveSpec("pvur", balance_buses=("zz",))
    sols = powerflow.solve_series(feeder, original_assignment(feeder), loads)
    with pytest.raises(ValidationError, match="unknown bus 'zz'"):
        metric_values_exact(spec, spec.sites(feeder, loads), sols)


def test_objective_spec_explicit_sets(line):
    feeder, _ = line
    spec = ObjectiveSpec("pvur", balance_buses=("b3",))
    assert spec.buses_for(feeder) == ("b3",)
    flow = ObjectiveSpec("pu_star", balance_branches=(("b1", "b2"),))
    assert [br.key for br in flow.branches_for(feeder)] == [("b1", "b2")]


def test_balance_branch_named_against_its_orientation(line):
    feeder, loads = line
    sols = powerflow.solve_series(feeder, original_assignment(feeder), loads)
    assert feeder.branch("b2", "b1") is feeder.branch("b1", "b2")
    assert feeder.branch("b2", "b1").key == ("b1", "b2")
    for metric in ("iu", "pu", "pu_star"):
        oriented, named = (ObjectiveSpec(metric, balance_branches=(key,))
                           for key in (("b1", "b2"), ("b2", "b1")))
        np.testing.assert_array_equal(
            metric_values_exact(named, named.sites(feeder, loads), sols),
            metric_values_exact(oriented, oriented.sites(feeder, loads), sols))
    for key in (("b1", "b3"), ("r", "b2"), ("b1", "b1")):
        with pytest.raises(ValidationError, match="unknown branch"):
            ObjectiveSpec("pu", balance_branches=(key,)).sites(feeder, loads)


# -- vectorized evaluation against the per-(location, t) loop ---------------------

IDLE_STEPS = [3, 10]


def _with_idle_steps(loads):
    """Zero demand at IDLE_STEPS: every flow's phase mean vanishes there."""
    p, q = loads.p.copy(), loads.q.copy()
    p[IDLE_STEPS] = 0.0
    q[IDLE_STEPS] = 0.0
    return LoadSeries(loads.user_ids, p, q, loads.resolution_s)


@pytest.mark.parametrize("name", ["line", "twenty_user"])
@pytest.mark.parametrize("metric", ALL_METRICS)
def test_metric_values_match_loop(name, metric):
    feeder, loads = fixtures.fixture(name)
    loads = _with_idle_steps(loads)
    a = original_assignment(feeder)
    specs = [ObjectiveSpec(metric)]
    if metric in ("iu", "pu", "pu_star"):
        specs.append(ObjectiveSpec(metric, balance_branches=[br.key for br in
                                                             feeder.branches]))
    sols = powerflow.solve_series(feeder, a, loads)
    state = lindist.evaluate_series(feeder, a, loads)
    for spec in specs:
        sites = spec.sites(feeder, loads)
        vals = metric_values_exact(spec, sites, sols)
        np.testing.assert_allclose(
            vals, metric_values_loop(spec, feeder, loads, solutions=sols),
            rtol=1e-12, atol=1e-12)
        if metric in ("iu", "pu"):
            assert np.all(np.isnan(vals[:, IDLE_STEPS]))
            assert not np.any(np.isnan(np.delete(vals, IDLE_STEPS, axis=1)))
        if metric == "iu":
            continue
        np.testing.assert_allclose(
            metric_values_ld3f(spec, sites, state),
            metric_values_loop(spec, feeder, loads, state=state),
            rtol=1e-12, atol=1e-12)


def _same_bits(a, b):
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def _scored(metric_values, aggregate_fn, spec):
    """(values, aggregate hex, warning messages), or the exception type."""
    try:
        vals = metric_values()
    except (MetricError, ValidationError) as exc:
        return type(exc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = aggregate_fn(spec, vals)
    return vals, value.hex(), [str(w.message) for w in caught]


@pytest.mark.parametrize("name", ["line", "twenty_user"])
def test_metric_values_match_the_per_call_formulas(name):
    """Resolved once per spec, the metric values and aggregates equal the
    per-call formulas bit for bit: every exact metric and every ld3f one,
    default and explicit balance sets, with and without zero-demand steps
    (NaN flow metrics and the aggregate's warning)."""
    feeder, base = fixtures.fixture(name)
    c0 = original_assignment(feeder)
    assignments = (c0, dataclasses.replace(c0, phases=tuple(p % 3 + 1 for p in c0.phases)))
    specs = [ObjectiveSpec(m) for m in ALL_METRICS]
    specs += [ObjectiveSpec(m, balance_buses=feeder.buses[1:]) for m in ("pvur", "pvur_star")]
    specs += [ObjectiveSpec(m, balance_branches=[br.key for br in feeder.branches])
              for m in ("iu", "pu", "pu_star")]
    warned = 0
    for loads in (base, _with_idle_steps(base)):
        for a in assignments:
            sols = powerflow.solve_series(feeder, a, loads)
            state = lindist.evaluate_series(feeder, a, loads)
            for spec in specs:
                sites = spec.sites(feeder, loads)
                pairs = [(lambda: metric_values_exact(spec, sites, sols),
                          lambda: metric_values_exact_per_call(spec, feeder, loads, sols))]
                pairs.append((lambda: metric_values_ld3f(spec, sites, state),
                              lambda: metric_values_ld3f_per_call(spec, feeder, loads, state)))
                for ours, reference in pairs:
                    got = _scored(ours, aggregate, spec)
                    want = _scored(reference, aggregate_per_call, spec)
                    if isinstance(want, type):
                        assert got is want and spec.metric == "iu"
                        continue
                    assert _same_bits(got[0], want[0]), spec
                    assert got[1:] == want[1:], spec
                    warned += bool(got[2])
    assert warned  # the zero-demand steps reached the NaN path
