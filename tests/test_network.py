import dataclasses
import gc
import itertools
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impls as ref
from phasebal import fixtures
from phasebal.errors import InputParseError, PhasebalError, ValidationError
from phasebal.metrics import ObjectiveSpec
from phasebal.miqp import _gather_sum, build_program
from phasebal.network import (PHASES, Branch, ConstraintConfig, Feeder, LoadSeries,
                              PhaseAssignment, User, as_phase, binary_feasible,
                              completion_count, completions, downstream_users,
                              feasible_mask, fixed_phase_counts, injection_series,
                              load_feeder, load_profiles, original_assignment,
                              switch_count)
from phasebal.problem import Problem, evaluate_exact, evaluate_ld3f
from strategies import radial_cases

Z_R = [[0.1, 0.03, 0.03], [0.03, 0.1, 0.03], [0.03, 0.03, 0.1]]
Z_X = [[0.06, 0.02, 0.02], [0.02, 0.06, 0.02], [0.02, 0.02, 0.06]]


def feeder_dict(**overrides):
    base = {
        "base_voltage_V": 230.0,
        "base_power_VA": 10000.0,
        "reference_bus": "r",
        "buses": ["r", "b1"],
        "branches": [{"from": "r", "to": "b1", "R": Z_R, "X": Z_X}],
        "users": [{"id": "u1", "bus": "b1", "phase": 1},
                  {"id": "u2", "bus": "b1", "phase": 1},
                  {"id": "u3", "bus": "b1", "phase": 1}],
    }
    base.update(overrides)
    return base


def write_json(tmp_path, payload, name="feeder.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# -- load_feeder -------------------------------------------------------------


def test_load_two_bus_fixture_file(fixture_files):
    feeder = load_feeder(fixture_files["two_bus"][0])
    assert len(feeder.buses) == 2
    assert len(feeder.branches) == 1
    assert len(feeder.users) == 3


def test_load_feeder_cycle_is_non_radial(tmp_path):
    payload = feeder_dict(branches=[
        {"from": "r", "to": "b1", "R": Z_R, "X": Z_X},
        {"from": "b1", "to": "r", "R": Z_R, "X": Z_X},
    ])
    with pytest.raises(ValidationError, match="non-radial"):
        load_feeder(write_json(tmp_path, payload))


def test_load_feeder_zero_impedance_is_singular(tmp_path):
    zero = [[0.0] * 3 for _ in range(3)]
    payload = feeder_dict(branches=[{"from": "r", "to": "b1", "R": zero, "X": zero}])
    with pytest.raises(ValidationError, match="positive|singular"):
        load_feeder(write_json(tmp_path, payload))


def test_load_feeder_singular_z(tmp_path):
    ones_r = [[1.0, 1.0, 1.0]] * 3
    payload = feeder_dict(branches=[{"from": "r", "to": "b1", "R": ones_r,
                                     "X": [[0.0] * 3] * 3}])
    with pytest.raises(ValidationError, match="singular"):
        load_feeder(write_json(tmp_path, payload))


def test_load_feeder_unknown_user_bus_names_user(tmp_path):
    payload = feeder_dict(users=[{"id": "ux", "bus": "nowhere", "phase": 2}])
    with pytest.raises(ValidationError, match="ux"):
        load_feeder(write_json(tmp_path, payload))


def test_load_feeder_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InputParseError):
        load_feeder(path)


def test_branch_direction_normalized_toward_leaves(tmp_path):
    payload = feeder_dict(branches=[{"from": "b1", "to": "r", "R": Z_R, "X": Z_X}])
    feeder = load_feeder(write_json(tmp_path, payload))
    assert feeder.branches[0].key == ("r", "b1")


@pytest.mark.parametrize("field, value", [("phase", 2.7), ("phase", True),
                                          ("reconfigurable", "false"), ("reconfigurable", 1)],
                         ids=["phase_fraction", "phase_bool", "flag_text", "flag_int"])
def test_load_feeder_rejects_inexact_phase_or_flag(tmp_path, field, value):
    payload = feeder_dict()
    payload["users"][0][field] = value
    with pytest.raises(PhasebalError):
        load_feeder(write_json(tmp_path, payload))


def test_load_feeder_reads_integral_float_phase(tmp_path):
    payload = feeder_dict()
    payload["users"][0]["phase"] = 2.0
    phase = load_feeder(write_json(tmp_path, payload)).users[0].original_phase
    assert phase == 2 and type(phase) is int


def test_feeder_orients_branches_in_walk_order():
    """Branches come out oriented away from the reference, numbered in the
    order one depth-first walk from it reaches them (a bus's branches in
    the order given, the last bus found explored first)."""
    def br(a, b):
        return Branch(a, b, Z_R, Z_X)

    given = [br("b", "a"), br("d", "r"), br("a", "c"), br("e", "d"), br("r", "a")]
    feeder = Feeder(["r", "a", "b", "c", "d", "e"], given, "r",
                    [User("u1", "e", 1)], 230.0, 10000.0)
    expected = [("r", "d"), ("r", "a"), ("a", "b"), ("a", "c"), ("d", "e")]
    assert [b.key for b in feeder.branches] == expected
    assert [b.key for b in dataclasses.replace(feeder).branches] == expected
    # |buses| - 1 branches, one pair joined twice: bus c is cut off
    with pytest.raises(ValidationError, match=r"non-radial: buses \['c'\] unreachable"):
        Feeder(["r", "a", "b", "c"], [br("r", "a"), br("a", "r"), br("a", "b")], "r",
               [], 230.0, 10000.0)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_nonfinite_r_rejected(value):
    bad = [[value, 0.03, 0.03], [0.03, 0.1, 0.03], [0.03, 0.03, 0.1]]
    with pytest.raises(ValidationError, match="finite"):
        Branch("a", "b", bad, Z_X)


def test_asymmetric_r_rejected():
    bad = [[0.1, 0.05, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]]
    with pytest.raises(ValidationError, match="symmetric"):
        Branch("a", "b", bad, Z_X)


# -- load_profiles -----------------------------------------------------------


def make_profile_csv(tmp_path, feeder, rows=96, with_q=False, drop_user=None):
    path = tmp_path / "profiles.csv"
    ids = [u.id for u in feeder.users if u.id != drop_user]
    header = ["t"]
    for uid in ids:
        header.append(f"{uid}:p")
        if with_q:
            header.append(f"{uid}:q")
    lines = [",".join(header)]
    for t in range(rows):
        row = [str(t)]
        for _ in ids:
            row.append("1000.0")
            if with_q:
                row.append("250.0")
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_profiles_horizon(tmp_path, two_bus):
    feeder, _ = two_bus
    path = make_profile_csv(tmp_path, feeder, rows=96)
    loads = load_profiles(path, feeder)
    assert loads.horizon == 96
    assert loads.user_ids == tuple(u.id for u in feeder.users)


def test_load_profiles_missing_user_column(tmp_path, two_bus):
    feeder, _ = two_bus
    path = make_profile_csv(tmp_path, feeder, drop_user="u3")
    with pytest.raises(ValidationError, match="u3"):
        load_profiles(path, feeder)


def test_load_profiles_unity_pf_gives_zero_q(tmp_path, two_bus):
    feeder, _ = two_bus
    path = make_profile_csv(tmp_path, feeder)
    loads = load_profiles(path, feeder, power_factor=1.0)
    assert np.allclose(loads.q, 0.0)


def test_load_profiles_default_pf(tmp_path, two_bus):
    feeder, _ = two_bus
    path = make_profile_csv(tmp_path, feeder)
    loads = load_profiles(path, feeder)  # 0.95 lagging
    assert np.allclose(loads.q, loads.p * np.tan(np.arccos(0.95)))


def test_load_profiles_explicit_q_kept(tmp_path, two_bus):
    feeder, _ = two_bus
    path = make_profile_csv(tmp_path, feeder, with_q=True)
    loads = load_profiles(path, feeder)
    assert np.allclose(loads.q, 250.0)


def test_load_profiles_ragged_row(tmp_path, two_bus):
    feeder, _ = two_bus
    path = make_profile_csv(tmp_path, feeder, rows=3)
    with open(path, "a") as fh:
        fh.write("3,1.0\n")
    with pytest.raises(ValidationError, match="fields"):
        load_profiles(path, feeder)


# -- phase assignments -------------------------------------------------------

NOT_PHASES = [2.7, np.float64(1.5), "2", True, False, np.True_, np.False_, 0, 4, -1,
              None, [1]]


@pytest.mark.parametrize("bad", NOT_PHASES, ids=repr)
def test_phase_assignment_rejects_what_is_not_a_phase(bad):
    """Fractions, text and bools of either kind raise rather than being
    truncated by int(): (2.7, True) once read as (2, 1)."""
    with pytest.raises(ValidationError, match="phase must be in"):
        PhaseAssignment((1, bad))
    with pytest.raises(ValidationError, match="phase must be in"):
        as_phase(bad, "user u1")


def test_phase_assignment_reads_integer_kinds_as_ints():
    a = PhaseAssignment((np.int8(1), np.int64(2), 3, 2.0))
    assert a.phases == (1, 2, 3, 2)
    assert all(type(p) is int for p in a.phases)
    assert PhaseAssignment(np.array([3, 1], dtype=np.int8)).phases == (3, 1)
    assert type(as_phase(np.int64(3), "user u1")) is int


# -- switch_count ------------------------------------------------------------


def test_switch_count_examples():
    a0 = PhaseAssignment((1, 1, 1))
    assert switch_count(a0, a0) == 0
    assert switch_count(PhaseAssignment((1, 2, 3)), a0) == 2
    assert switch_count(PhaseAssignment((3, 1, 2)), PhaseAssignment((1, 2, 3))) == 3


def test_switch_count_length_mismatch():
    with pytest.raises(ValidationError, match="mismatch"):
        switch_count(PhaseAssignment((1,)), PhaseAssignment((1, 2)))


@given(st.lists(st.integers(1, 3), min_size=1, max_size=12),
       st.data())
@settings(max_examples=80)
def test_switch_count_is_a_metric(ca, data):
    cb = data.draw(st.lists(st.integers(1, 3), min_size=len(ca), max_size=len(ca)))
    cc = data.draw(st.lists(st.integers(1, 3), min_size=len(ca), max_size=len(ca)))
    a, b, c = (PhaseAssignment(tuple(v)) for v in (ca, cb, cc))
    assert switch_count(a, a) == 0
    assert (switch_count(a, b) == 0) == (ca == cb)
    assert switch_count(a, b) == switch_count(b, a)
    assert switch_count(a, c) <= switch_count(a, b) + switch_count(b, c)


# -- one-hot encoding --------------------------------------------------------


def _to_delta(a):
    """One-hot (n_users, 3) 0/1 matrix; row i has a 1 at phases[i]-1."""
    delta = np.zeros((len(a), 3), dtype=np.int8)
    delta[np.arange(len(a)), np.array(a.phases, dtype=int) - 1] = 1
    return delta


def _from_delta(delta):
    delta = np.asarray(delta)
    if not np.all(delta.sum(axis=1) == 1) or not np.all((delta == 0) | (delta == 1)):
        raise ValidationError("each delta row must be one-hot")
    return PhaseAssignment(tuple(int(np.argmax(row)) + 1 for row in delta))


@given(st.lists(st.integers(1, 3), min_size=1, max_size=20))
def test_delta_round_trip(phases):
    a = PhaseAssignment(tuple(phases))
    assert _from_delta(_to_delta(a)) == a


def test_delta_rows_one_hot():
    delta = _to_delta(PhaseAssignment((2, 3, 1)))
    assert np.array_equal(delta.sum(axis=1), np.ones(3))
    assert np.array_equal(delta, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def test_from_delta_rejects_bad_rows():
    with pytest.raises(ValidationError, match="one-hot"):
        _from_delta([[1, 1, 0]])


def test_feeder_and_loads_freed_after_use():
    """Derived tables live on their objects; nothing outlives them."""
    feeder, loads = fixtures.fixture("line")
    problem = Problem(feeder, loads, ConstraintConfig(delta_max=1), ObjectiveSpec("pu_star"))
    evaluate_exact(problem, original_assignment(problem.feeder))
    evaluate_ld3f(problem, original_assignment(problem.feeder))
    build_program(feeder, loads, problem.constraints, problem.objective)
    refs = (weakref.ref(feeder), weakref.ref(loads))
    del feeder, loads, problem
    gc.collect()
    assert [alive() for alive in refs] == [None, None]


# -- downstream users --------------------------------------------------------


def test_downstream_two_bus(two_bus):
    feeder, _ = two_bus
    assert downstream_users(feeder, feeder.branches[0]) == {"u1", "u2", "u3"}


def test_downstream_line(line):
    feeder, _ = line
    assert downstream_users(feeder, feeder.branch("b2", "b3")) == {"u3"}
    assert downstream_users(feeder, feeder.branch("r", "b1")) == {"u1", "u2", "u3"}


def test_downstream_unknown_branch(line):
    feeder, _ = line
    rogue = Branch("b3", "b0x", Z_R, Z_X)
    with pytest.raises(ValidationError, match="unknown branch"):
        downstream_users(feeder, rogue)


def test_downstream_nested_along_path(twenty_user):
    feeder, _ = twenty_user
    parent = {br.to_bus: br for br in feeder.branches}
    for bus in feeder.buses:
        path = []
        while bus != feeder.reference_bus:
            path.insert(0, parent[bus])
            bus = parent[bus].from_bus
        sets = [downstream_users(feeder, br) for br in path]
        for outer, inner in zip(sets, sets[1:]):
            assert inner <= outer


# -- injections --------------------------------------------------------------


def one_user_feeder(phase):
    return Feeder(
        buses=["r", "b1"],
        branches=[Branch("r", "b1", Z_R, Z_X)],
        reference_bus="r",
        users=[User("u1", "b1", phase)],
        base_voltage=230.0, base_power=10000.0)


def const_loads(user_ids, watts, horizon=2):
    p = np.full((horizon, len(user_ids)), float(watts))
    return fixtures.LoadSeries(tuple(user_ids), p, np.zeros_like(p))


def at_branches(feeder, s):
    """The (n_branches, 2, T, 3) real and imaginary parts of complex
    (T, n_buses, 3) watts s / base_power at each branch's to-bus."""
    s = s[:, [feeder.bus_index(br.to_bus) for br in feeder.branches]] / feeder.base_power
    return np.moveaxis(np.stack((s.real, s.imag)), 2, 0)


def test_injection_one_hot_placement():
    feeder = one_user_feeder(phase=2)
    loads = const_loads(["u1"], 1000.0)
    s = injection_series(feeder, PhaseAssignment((2,)), loads.slice_window(0, 1))
    b1 = feeder.branch_index(feeder.branch("r", "b1"))
    assert np.allclose(s[b1, :, 0, 0] * feeder.base_power, [[0, 1000, 0], [0, 0, 0]])


def test_injection_passive_bus_zero(line):
    feeder, loads = line
    s = injection_series(feeder, original_assignment(feeder), loads.slice_window(0, 1))
    # one slot per non-reference bus: the reference bus carries no load
    # injection, and neither does a phase without users
    assert s.shape == (len(feeder.buses) - 1, 2, 1, 1, 3)
    assert np.all(s[..., 1:] == 0.0) and np.all(s[:, 0, ..., 0] > 0.0)


def test_injection_additive_same_phase(two_bus):
    feeder, _ = two_bus
    loads = const_loads(["u1", "u2", "u3"], 1000.0)
    b1 = feeder.branch_index(feeder.branch("r", "b1"))
    s = injection_series(feeder, PhaseAssignment((1, 1, 1)), loads.slice_window(0, 1))
    assert np.allclose(s[b1, :, 0, 0] * feeder.base_power, [[3000, 0, 0], [0, 0, 0]])
    two = injection_series(feeder, PhaseAssignment((1, 1, 2)), loads.slice_window(0, 1))
    assert np.allclose(two[b1, :, 0, 0] * feeder.base_power, [[2000, 1000, 0], [0, 0, 0]])


def test_injection_bad_timestep(two_bus):
    _, loads = two_bus
    for start, stop in [(loads.horizon, loads.horizon + 1), (-1, 0), (2, 2),
                        (3, 2), (0, loads.horizon + 1)]:
        with pytest.raises(ValidationError, match="horizon"):
            loads.slice_window(start, stop)
    with pytest.raises(ValidationError, match="no timesteps"):
        LoadSeries(loads.user_ids, loads.p[:0], loads.q[:0])


# -- constraint config -------------------------------------------------------


def test_constraint_config_validation():
    with pytest.raises(ValidationError):
        ConstraintConfig(delta_max=-1)
    with pytest.raises(ValidationError):
        ConstraintConfig(delta_max=0, gamma_low=5, gamma_upp=2)
    with pytest.raises(ValidationError):
        ConstraintConfig(delta_max=0, v_min=1.2, v_max=1.1)


@pytest.mark.parametrize("field, value", [("delta_max", 2.5), ("delta_max", "2"),
                                          ("delta_max", True), ("gamma_low", 0.5),
                                          ("gamma_upp", None)])
def test_constraint_config_integer_fields_take_whole_numbers(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be a whole number"):
        ConstraintConfig(**{"delta_max": 2, field: value})


def test_constraint_config_reads_integral_floats_as_ints():
    cons = ConstraintConfig(delta_max=2.0, gamma_low=1.0, gamma_upp=4.0)
    assert (cons.delta_max, cons.gamma_low, cons.gamma_upp) == (2, 1, 4)
    assert all(type(v) is int for v in (cons.delta_max, cons.gamma_low, cons.gamma_upp))


def test_constraint_config_fractions(twenty_user):
    feeder, _ = twenty_user
    cons = ConstraintConfig.from_fractions(feeder, delta_max=5)
    assert cons.gamma_low == 4    # floor(0.2 * 20)
    assert cons.gamma_upp == 8    # ceil(0.4 * 20)


def test_phase_user_counts(twenty_user):
    feeder, _ = twenty_user
    c0 = original_assignment(feeder).phases
    counts = np.add(fixed_phase_counts(feeder), [c0.count(p) for p in PHASES])
    assert sum(counts) == 20


def test_feasible_mask_counts_fixed_users():
    feeder = Feeder(
        buses=["r", "b1"],
        branches=[Branch("r", "b1", Z_R, Z_X)],
        reference_bus="r",
        users=[User("fix", "b1", 3, reconfigurable=False), User("u1", "b1", 1),
               User("u2", "b1", 1), User("u3", "b1", 2)],
        base_voltage=230.0, base_power=10000.0)
    assert fixed_phase_counts(feeder) == (0, 0, 1)
    c0 = original_assignment(feeder).phases
    configs = list(itertools.product(PHASES, repeat=3))
    for budget, gamma in ((3, None), (1, None), (2, (1, 1)), (3, (1, 2))):
        cons = ConstraintConfig(delta_max=budget, gamma_low=gamma[0] if gamma else 0,
                                gamma_upp=gamma[1] if gamma else 10 ** 9,
                                enforce_phase_counts=gamma is not None)
        expected = []
        for c in configs:
            counts = [list(ref.user_phases(feeder, PhaseAssignment(c)).values()).count(p)
                      for p in PHASES]
            expected.append(switch_count(PhaseAssignment(c), PhaseAssignment(c0)) <= budget
                            and (gamma is None
                                 or all(gamma[0] <= k <= gamma[1] for k in counts)))
        mask = feasible_mask(configs, c0, budget, fixed_phase_counts(feeder), gamma)
        assert mask.tolist() == expected
        assert [binary_feasible(feeder, PhaseAssignment(c), cons) for c in configs] == expected


def _assert_carried_sums(c0, fixed, budget, columns):
    """The rows ``completions`` returns with ``columns`` are byte for byte
    its rows without them, and the sums it carries are ``_gather_sum``'s."""
    rows, sums = completions(c0, fixed, budget, columns)
    plain = completions(c0, fixed, budget)
    assert len(rows) == completion_count(list(fixed).count(0), budget)
    want = _gather_sum(columns, plain)
    for got, ref_ in ((rows, plain), (sums, want)):
        assert (got.shape, got.dtype, got.tobytes()) == (ref_.shape, ref_.dtype, ref_.tobytes())


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_completions_match_filtered_product(data):
    n = data.draw(st.integers(0, 6))
    c0 = data.draw(st.lists(st.sampled_from(PHASES), min_size=n, max_size=n))
    fixed = data.draw(st.lists(st.sampled_from((0,) + PHASES), min_size=n, max_size=n))
    budget = data.draw(st.integers(-1, 6))
    free = [i for i in range(n) if fixed[i] == 0]
    expected = [c for c in itertools.product(PHASES, repeat=n)
                if all(c[i] == fixed[i] for i in range(n) if fixed[i])
                and sum(c[i] != c0[i] for i in free) <= budget]
    rows = completions(c0, fixed, budget)
    assert rows.shape == (len(expected), n)
    assert [tuple(row) for row in rows.tolist()] == expected
    assert len(rows) == completion_count(len(free), budget)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    # spread magnitudes, so that another order of additions would round differently
    columns = rng.normal(size=(3 * n, data.draw(st.integers(0, 5)))) \
        * 10.0 ** rng.integers(-6, 7, size=(3 * n, 1))
    _assert_carried_sums(c0, fixed, budget, columns)


@pytest.mark.parametrize("budget", [-1, 0, 2])
def test_completion_sums_corner_cases(budget):
    rng = np.random.default_rng(budget + 5)
    c0 = rng.integers(1, 4, size=6).tolist()
    # fixed users interleaved with free ones, all fixed, all free
    for fixed in ([0, 2, 0, 0, 3, 0], [1, 2, 3, 3, 2, 1], [0] * 6):
        for width in (0, 4):
            _assert_carried_sums(c0, fixed, budget, rng.normal(size=(18, width)))
    _assert_carried_sums([], [], budget, np.zeros((0, 3)))


def test_injection_series_matches_loop(twenty_user):
    feeder, loads = twenty_user
    n = len(feeder.reconfigurable_users())
    rng = np.random.default_rng(3)
    # all on phase 1 stacks every bus's users on one (bus, phase)
    draws = [(1,) * n] + [tuple(int(p) for p in rng.integers(1, 4, size=n))
                          for _ in range(20)]
    for c in draws:
        a = PhaseAssignment(c)
        phases = ref.user_phases(feeder, a)
        expected = np.zeros((loads.horizon, len(feeder.buses), 3), dtype=complex)
        for u in feeder.users:
            col = loads.column(u.id)
            expected[:, feeder.bus_index(u.bus), phases[u.id] - 1] += (
                loads.p[:, col] + 1j * loads.q[:, col])
        expected = at_branches(feeder, expected)
        assert np.array_equal(injection_series(feeder, a, loads)[:, :, 0], expected)
        for t in range(loads.horizon):
            one = injection_series(feeder, a, loads.slice_window(t, t + 1))
            assert np.array_equal(one[:, :, 0, 0], expected[:, :, t])


@given(case=radial_cases(), horizon=st.sampled_from([1, 12, 720]), crowd=st.booleans(),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_injection_series_is_bitwise_the_sequential_sum(case, horizon, crowd, data):
    """Users sharing a (bus, phase) add up in feeder.users order, zeros of
    both signs included, whatever the horizon and the load column order:
    each branch's parts are bitwise the sequential sum / base_power at its
    to-bus, so users at the reference bus add nothing, and each candidate
    of a batch gets exactly the block of its own sum.  A crowded feeder has
    every user, fixed ones included, on one bus, and its first candidate
    puts every reconfigurable user on phase 1."""
    feeder, _, rng = case
    if crowd:
        feeder = Feeder(feeder.buses, feeder.branches, feeder.reference_bus,
                        [dataclasses.replace(u, bus=feeder.buses[-1]) for u in feeder.users],
                        feeder.base_voltage, feeder.base_power)
    n = len(feeder.reconfigurable_users())
    batch = [PhaseAssignment(c) for c in data.draw(st.lists(
        st.lists(st.integers(1, 3), min_size=n, max_size=n), min_size=1, max_size=5))]
    if crowd:
        batch[0] = PhaseAssignment((1,) * n)
    p, q = rng.uniform(-5000.0, 5000.0, (2, horizon, len(feeder.users)))
    for x in (p, q):
        x[rng.random(x.shape) < 0.3] = -0.0
        x[rng.random(x.shape) < 0.1] = 0.0
    ids = tuple(u.id for u in feeder.users)
    loads = LoadSeries(tuple(ids[k] for k in rng.permutation(len(ids))), p, q)
    stacked = injection_series(feeder, batch, loads)
    assert stacked.shape == (len(feeder.branches), 2, len(batch), horizon, 3)
    for k, a in enumerate(batch):
        expected = at_branches(feeder, ref.injection_series_sequential(feeder, a, loads))
        assert injection_series(feeder, a, loads)[:, :, 0].tobytes() == expected.tobytes()
        assert stacked[:, :, k].tobytes() == expected.tobytes(), k


def test_injection_series_rejects_a_wrong_length_in_a_batch(two_bus):
    feeder, loads = two_bus
    good = original_assignment(feeder)
    with pytest.raises(ValidationError, match="reconfigurable users"):
        injection_series(feeder, [good, PhaseAssignment((1, 2))], loads)


def test_injection_series_rejects_an_empty_batch(two_bus):
    feeder, loads = two_bus
    with pytest.raises(ValidationError, match="reconfigurable users"):
        injection_series(feeder, [], loads)


def test_user_phases_respects_fixed_users():
    feeder = Feeder(
        buses=["r", "b1"],
        branches=[Branch("r", "b1", Z_R, Z_X)],
        reference_bus="r",
        users=[User("fix", "b1", 3, reconfigurable=False), User("u1", "b1", 1)],
        base_voltage=230.0, base_power=10000.0)
    demand = {"fix": 1000.0, "u1": 10.0}
    loads = LoadSeries(tuple(demand), np.array([list(demand.values())]), np.zeros((1, 2)))
    b1 = feeder.branch_index(feeder.branch("r", "b1"))
    s = injection_series(feeder, PhaseAssignment((2,)), loads)[b1, 0, 0, 0]
    phases = {uid: int(np.flatnonzero(s == w * (1.0 / feeder.base_power))[0]) + 1
              for uid, w in demand.items()}
    assert phases == {"fix": 3, "u1": 2}
