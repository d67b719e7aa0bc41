"""Fuzz the four input readers: malformed input may raise only PhasebalError.

Each reader gets random bytes and a valid file with a random span
replaced; the feeder reader also gets a valid document with one field
deleted or replaced by an arbitrary JSON value, and the LP reader sections
filled with the dialect's tokens in random order.  Anything other than a ``PhasebalError``
escaping would break the CLI's 0/2/3 exit-code contract.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phasebal.cli import load_config
from phasebal.errors import PhasebalError
from phasebal.lpfile import export_lp, parse_lp
from phasebal.metrics import ObjectiveSpec
from phasebal.miqp import build_program
from phasebal.network import (ConstraintConfig, feeder_to_dict, load_feeder,
                              load_profiles, save_profiles)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8)

# characters that mean something to one of the four formats
FORMAT_TEXT = st.text(alphabet="0123456789.eE+-<>=:,[]{}\"'*^/\\#_ \nxdtpqRX", max_size=12)

# LP sections filled with tokens of the dialect in random order
LP_SOUP = st.lists(st.sampled_from(
    ["x", "d_u1_1", "c1:", "3", "1e", ".5", "+", "-", "*", "^", "2", "<=", ">=",
     "=", "[", "]", "/", "\n"]), max_size=25).map(" ".join)
LP_TEXT = st.tuples(LP_SOUP, LP_SOUP, LP_SOUP).map(
    lambda t: "Minimize\nobj: {}\nSubject To\n{}\nBounds\n{}\nEnd\n".format(*t).encode())


@pytest.fixture(scope="module")
def samples(line, tmp_path_factory):
    """One valid file of each kind, as bytes, plus the feeder as a dict."""
    feeder, loads = line
    out = tmp_path_factory.mktemp("samples")
    window = loads.slice_window(0, 2)
    save_profiles(window, out / "p.csv")
    prog = build_program(feeder, window, ConstraintConfig(delta_max=1),
                         ObjectiveSpec("pu_star"))
    export_lp(prog, out / "prog.lp")
    raw = feeder_to_dict(feeder)
    return {"feeder": json.dumps(raw).encode(),
            "profiles": (out / "p.csv").read_bytes(),
            "lp": (out / "prog.lp").read_bytes(),
            "config": b"method = miqp\ndelta_max = 3\nv_min = 0.95 # low\n",
            "feeder_dict": raw}


def _splice(valid):
    """``valid`` with the span [i, j) replaced by random bytes or format text."""
    insert = st.binary(max_size=12) | FORMAT_TEXT.map(str.encode)
    return st.tuples(st.integers(0, len(valid)), st.integers(0, len(valid)),
                     insert).map(lambda t: valid[:min(t[:2])] + t[2] + valid[max(t[:2]):])


@st.composite
def _feeder_field_edit(draw, raw):
    raw = copy.deepcopy(raw)
    where = draw(st.sampled_from([None, "branches", "users"]))
    target = raw if where is None else draw(st.sampled_from(raw[where]))
    key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(json_values)
    return json.dumps(raw).encode()


def _read(kind, path, feeder):
    if kind == "feeder":
        return load_feeder(path)
    if kind == "profiles":
        return load_profiles(path, feeder)
    if kind == "lp":
        return parse_lp(path)
    return load_config(path)


@pytest.mark.parametrize("kind", ["feeder", "profiles", "lp", "config"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_readers_raise_only_phasebal_errors(kind, data, samples, line, tmp_path):
    strategies = [st.binary(max_size=300), _splice(samples[kind])]
    if kind == "feeder":
        strategies += [_feeder_field_edit(samples["feeder_dict"]),
                       json_values.map(lambda v: json.dumps(v).encode())]
    if kind == "lp":
        strategies.append(LP_TEXT)
    blob = data.draw(st.one_of(strategies))
    path = tmp_path / f"input.{kind}"
    path.write_bytes(blob)
    try:
        _read(kind, path, line[0])
    except PhasebalError:
        pass
