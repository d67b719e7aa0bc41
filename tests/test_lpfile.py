import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from phasebal import fixtures
from phasebal.errors import MetricError
from phasebal.lpfile import (_CONST_VAR, _program_objective, _program_rows, export_lp,
                             parse_lp)
from phasebal.metrics import ObjectiveSpec
from phasebal.miqp import build_program
from phasebal.network import ConstraintConfig
from strategies import radial_cases


@pytest.fixture(scope="module")
def line_programs(line):
    feeder, loads = line
    window = loads.slice_window(0, 4)
    cons = ConstraintConfig(delta_max=1)
    return {
        metric: build_program(feeder, window, cons, ObjectiveSpec(metric))
        for metric in ("pvur_star", "pu_star")
    }


def test_one_hot_rows_present(tmp_path, line_programs):
    path = tmp_path / "prog.lp"
    export_lp(line_programs["pvur_star"], path)
    model = parse_lp(path)
    rows = {label: (terms, sense, rhs)
            for label, terms, sense, rhs in model.constraints}
    terms, sense, rhs = rows["onehot_u1"]
    assert terms == {"d_u1_1": 1.0, "d_u1_2": 1.0, "d_u1_3": 1.0}
    assert sense == "="
    assert rhs == 1.0


def test_budget_row_rewritten_over_original_phases(tmp_path, line_programs):
    path = tmp_path / "prog.lp"
    export_lp(line_programs["pvur_star"], path)
    model = parse_lp(path)
    rows = {label: (terms, sense, rhs)
            for label, terms, sense, rhs in model.constraints}
    terms, sense, rhs = rows["budget"]
    # 3 - (d_u1_1 + d_u2_1 + d_u3_1) <= 1  rearranged with constants on the rhs
    assert terms == {"d_u1_1": -1.0, "d_u2_1": -1.0, "d_u3_1": -1.0}
    assert sense == "<="
    assert rhs == 1.0 - 3.0


def test_epigraph_objective_has_no_quadratic_section(tmp_path, line_programs):
    path = tmp_path / "linear.lp"
    export_lp(line_programs["pvur_star"], path)
    model = parse_lp(path)
    assert not model.quadratic
    assert "[" not in path.read_text().splitlines()[2]
    # mean over four timesteps
    assert np.isclose(model.objective["m_0"], 0.25)


def test_quadratic_objective_section_present(tmp_path, line_programs):
    path = tmp_path / "quad.lp"
    export_lp(line_programs["pu_star"], path)
    model = parse_lp(path)
    assert model.quadratic
    text = path.read_text()
    assert "] / 2" in text
    assert "^ 2" in text


def test_binaries_declared(tmp_path, line_programs):
    path = tmp_path / "prog.lp"
    export_lp(line_programs["pu_star"], path)
    model = parse_lp(path)
    assert model.binaries == {f"d_u{i}_{ph}" for i in (1, 2, 3)
                              for ph in (1, 2, 3)}


def test_variable_order_stable(tmp_path, line_programs):
    prog = line_programs["pvur_star"]
    assert prog.var_names()[:3] == ["d_u1_1", "d_u1_2", "d_u1_3"]
    assert prog.var_names()[-1] == "m_3"


def test_roundtrip_drift_detected(tmp_path, line_programs):
    # export always re-parses its output; it must pass on its own file
    path = tmp_path / "ok.lp"
    export_lp(line_programs["pu_star"], path)


def test_parser_handles_scientific_notation(tmp_path):
    path = tmp_path / "sci.lp"
    path.write_text("""\\ comment
Minimize
obj: 1e-05 x + 2.5e+2 y
Subject To
 c1: 3.0e-2 x - 1e1 y <= 4e0
Bounds
 0 <= x
Binaries
 y
End
""")
    model = parse_lp(path)
    assert np.isclose(model.objective["x"], 1e-05)
    assert np.isclose(model.objective["y"], 250.0)
    label, terms, sense, rhs = model.constraints[0]
    assert np.isclose(terms["x"], 0.03)
    assert np.isclose(terms["y"], -10.0)
    assert rhs == 4.0
    assert model.binaries == {"y"}


def _written(terms):
    """Parsed terms without the ``0 ONE_VAR_CONSTANT`` that stands for an
    empty expression."""
    return {name: c for name, c in terms.items() if not (name == _CONST_VAR and c == 0.0)}


@given(radial_cases(), st.integers(0, 3), st.sampled_from(["pvur_star", "pu_star"]),
       st.floats(0.97, 0.999), st.integers(0, 2), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_export_parse_round_trip_is_exact(case, budget, metric, v_min, low, width):
    feeder, loads, _ = case
    cons = ConstraintConfig(delta_max=budget, gamma_low=low, gamma_upp=low + width,
                            v_min=v_min, enforce_phase_counts=True)
    try:
        prog = build_program(feeder, loads, cons, ObjectiveSpec(metric))
    except MetricError:  # pu_star with no reference branch that feeds a user
        reject()
    assume(prog.side_labels)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prog.lp")
        export_lp(prog, path)
        model = parse_lp(path)
    assert [(label, _written(terms), sense, rhs)
            for label, terms, sense, rhs in model.constraints] == _program_rows(prog)
    lin, quad, const = _program_objective(prog)
    assert _written(model.objective) == {**lin, **({_CONST_VAR: const} if const else {})}
    assert model.quadratic == quad
    assert model.binaries == {f"d_{u}_{ph}" for u in prog.users for ph in (1, 2, 3)}
