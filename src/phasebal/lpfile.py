"""CPLEX-style LP file export of the binary program, plus a reader.

The writer materializes every row of the program (one-hot rows, then the
non-zero entries of ``BinaryProgram.rows``: switch budget, optional
phase-count rows and screened voltage/thermal rows, all in ``<=`` form, so
a lower count bound is written negated; and, for the epigraph objective,
both signs of every deviation ``const + coef . delta`` against its
timestep's auxiliary) in a fixed order: binaries first (users by id,
phases 1..3), then auxiliaries.  Quadratic objectives
use the bracketed section with doubled coefficients and the trailing
``/ 2``, as CPLEX expects.  Objective constants ride on the conventional
ONE_VAR_CONSTANT variable fixed to 1.

The reader understands exactly this dialect; ``export_lp`` re-parses its
own output and verifies the round trip before returning.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import InputParseError, ValidationError
from .miqp import BinaryProgram, _quadratic_parts

_CONST_VAR = "ONE_VAR_CONSTANT"


@dataclass
class LpModel:
    """Parsed LP file: linear/quadratic objective, rows, bounds, binaries."""

    objective: dict = field(default_factory=dict)       # name -> coef
    quadratic: dict = field(default_factory=dict)       # (name, name) -> coef
    constraints: list = field(default_factory=list)     # (label, {name: coef}, sense, rhs)
    bounds: dict = field(default_factory=dict)          # name -> (lo, hi)
    binaries: set = field(default_factory=set)


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_linear(terms, out, indent=" "):
    wrote = False
    for name, coef in terms:
        if coef == 0.0:
            continue
        sign = "-" if coef < 0 else "+"
        if not wrote and sign == "+":
            out.append(f"{indent}{_fmt(coef)} {name}")
        else:
            out.append(f"{indent}{sign} {_fmt(abs(coef))} {name}")
        wrote = True
    if not wrote:
        out.append(f"{indent}0 {_CONST_VAR}")


def _program_rows(prog: BinaryProgram):
    """Every constraint row as (label, {var: coef}, sense, rhs)."""
    rows = [(f"onehot_{u}", {f"d_{u}_{ph}": 1.0 for ph in (1, 2, 3)}, "=", 1.0)
            for u in prog.users]
    coef, rhs, labels = prog.rows
    coef, labels = coef.reshape(len(labels), -1), list(labels)
    n_side = len(labels)
    if prog.objective_kind == "pvur_star":
        # per (t, k, ph): coef . delta - m_t <= -const, then -coef . delta - m_t <= const
        t_dim, k_dim, _ = prog.const.shape
        labels += [f"dev_t{t}_k{k}_ph{ph}_{tag}" for t in range(t_dim) for k in range(k_dim)
                   for ph in (1, 2, 3) for tag in ("pos", "neg")]
        dev = np.stack([prog.coef, -prog.coef], axis=3)
        coef = np.concatenate([coef, dev.reshape(len(labels) - n_side, -1)])
        rhs = np.concatenate([rhs, np.stack([-prog.const, prog.const], axis=3).ravel()])
    names = prog.var_names()
    terms = [{} for _ in labels]
    for r, col in zip(*np.nonzero(coef)):
        terms[r][names[col]] = float(coef[r, col])
    for r in range(n_side, len(labels)):
        terms[r][f"m_{(r - n_side) // (6 * k_dim)}"] = -1.0
    return rows + [(label, row, "<=", float(b)) for label, row, b in zip(labels, terms, rhs)]


def _program_objective(prog: BinaryProgram):
    """(linear terms dict, quadratic dict, constant)."""
    names = prog.var_names()
    if prog.objective_kind == "pvur_star":
        lin = {f"m_{t}": 1.0 / prog.horizon for t in range(prog.horizon)}
        return lin, {}, 0.0
    q_mat, q_lin, const = _quadratic_parts(prog)
    lin = {names[a]: float(q_lin[a]) for a in range(len(q_lin)) if q_lin[a] != 0.0}
    quad = {}
    for a in range(q_mat.shape[0]):
        for b in range(a, q_mat.shape[0]):
            coef = q_mat[a, b] if a == b else q_mat[a, b] + q_mat[b, a]
            if coef != 0.0:
                quad[(names[a], names[b])] = float(coef)
    return lin, quad, float(const)


def export_lp(prog: BinaryProgram, path) -> None:
    """Write the program in LP format; verifies its own round trip."""
    lin, quad, const = _program_objective(prog)
    out = ["\\ phase re-assignment binary program", "Minimize"]
    obj_parts = []
    _write_linear([(name, lin[name]) for name in prog.var_names() if name in lin], obj_parts)
    if const != 0.0:
        obj_parts.append(f" + {_fmt(const)} {_CONST_VAR}")
    if quad:
        quad_parts = [f"{_fmt(2.0 * coef)} {na} " + ("^ 2" if na == nb else f"* {nb}")
                      for (na, nb), coef in sorted(quad.items())]
        obj_parts.append(" + [ " + " + ".join(quad_parts) + " ] / 2")
    out.append("obj:" + "".join(obj_parts))
    out.append("Subject To")
    rows = _program_rows(prog)
    for label, terms, sense, rhs in rows:
        row_parts = []
        _write_linear(sorted(terms.items()), row_parts)
        out.append(f" {label}:" + "".join(row_parts) + f" {sense} {_fmt(rhs)}")
    out.append("Bounds")
    if const != 0.0:
        out.append(f" {_CONST_VAR} = 1")
    if prog.objective_kind == "pvur_star":
        out += [f" 0 <= m_{t}" for t in range(prog.horizon)]
    out.append("Binaries")
    out += [" " + " ".join(f"d_{u}_{ph}" for ph in (1, 2, 3)) for u in prog.users]
    out.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
    _verify_roundtrip(prog, parse_lp(path), lin, quad, const, len(rows))


def _verify_roundtrip(prog, model, lin, quad, const, want_rows):
    for name, coef in lin.items():
        if abs(model.objective.get(name, 0.0) - coef) > 1e-12 * max(1, abs(coef)):
            raise ValidationError(f"round-trip drift on objective term {name}")
    if const != 0.0 and abs(model.objective.get(_CONST_VAR, 0.0) - const) > 1e-9:
        raise ValidationError("round-trip drift on objective constant")
    for key, coef in quad.items():
        got = model.quadratic.get(key, model.quadratic.get((key[1], key[0]), 0.0))
        if abs(got - coef) > 1e-12 * max(1, abs(coef)):
            raise ValidationError(f"round-trip drift on quadratic term {key}")
    if len(model.constraints) != want_rows:
        raise ValidationError(
            f"round-trip row count {len(model.constraints)} != {want_rows}")
    want_bin = {f"d_{u}_{ph}" for u in prog.users for ph in (1, 2, 3)}
    if model.binaries != want_bin:
        raise ValidationError("round-trip drift in binary declarations")


_SECTION = re.compile(
    r"^(minimize|maximize|subject to|st|s\.t\.|bounds|binaries|binary|generals|end)$",
    re.IGNORECASE)


_TOKEN = re.compile(
    r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"   # number (incl. scientific)
    r"|[A-Za-z_]\w*"                            # identifier
    r"|[\^*+\-]")


def _tokenize_expr(text: str):
    """Yield (coef, name) pairs plus quadratic (coef, name_a, name_b) pieces."""
    tokens = _TOKEN.findall(text)
    i, n = 0, len(tokens)
    while i < n:
        sign = 1.0
        while i < n and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= n:
            break
        coef = 1.0
        try:
            coef = float(tokens[i])
            i += 1
        except ValueError:
            pass
        name = tokens[i]
        i += 1
        c = sign * coef
        if i + 1 < n and tokens[i] == "*":
            yield (c, name, tokens[i + 1])
            i += 2
        elif i + 1 < n and tokens[i] == "^" and tokens[i + 1] == "2":
            yield (c, name, name)
            i += 2
        else:
            yield (c, name)


def parse_lp(path) -> LpModel:
    """Read the LP dialect written by export_lp."""
    try:
        return _parse_lp(path)
    except (ValueError, IndexError) as exc:  # bad numbers, truncated terms, bad UTF-8
        raise InputParseError(f"cannot parse LP file {path}: {exc}") from exc


def _parse_lp(path) -> LpModel:
    model = LpModel()
    with open(path) as fh:  # text after a backslash is a comment
        lines = [ln for ln in (raw.split("\\")[0].strip() for raw in fh) if ln]
    section = None
    buffer = []

    def flush_objective(buf):
        text = " ".join(buf)
        text = re.sub(r"^\s*\w+\s*:", "", text)
        quad_match = re.search(r"\[(.*)\]\s*/\s*2", text)
        if quad_match:
            for piece in _tokenize_expr(quad_match.group(1)):
                if len(piece) == 3:
                    c, na, nb = piece
                    model.quadratic[(na, nb)] = model.quadratic.get((na, nb), 0) + c / 2
                else:
                    raise InputParseError(f"{path}: linear term inside quadratic block")
            text = text[: quad_match.start()] + text[quad_match.end():]
        for piece in _tokenize_expr(text):
            if len(piece) == 2:
                c, name = piece
                model.objective[name] = model.objective.get(name, 0.0) + c
            else:
                raise InputParseError(f"{path}: quadratic term outside block")

    def flush_constraint(buf):
        text = " ".join(buf)
        label = None
        m = re.match(r"^\s*([\w.\-]+)\s*:", text)
        if m:
            label = m.group(1)
            text = text[m.end():]
        m = re.search(r"(<=|>=|=)\s*([\-+0-9.eE]+)\s*$", text)
        if not m:
            raise InputParseError(f"{path}: constraint without sense/rhs: {text!r}")
        sense, rhs = m.group(1), float(m.group(2))
        terms = {}
        for piece in _tokenize_expr(text[: m.start()]):
            if len(piece) != 2:
                raise InputParseError(f"{path}: quadratic constraint unsupported")
            c, name = piece
            terms[name] = terms.get(name, 0.0) + c
        model.constraints.append((label, terms, sense, rhs))

    flushes = {"minimize": flush_objective, "subject to": flush_constraint,
               "st": flush_constraint, "s.t.": flush_constraint}
    for ln in lines + ["End"]:
        flush = flushes.get(section)
        if _SECTION.match(ln):
            if flush and buffer:
                flush(buffer)
            buffer, section = [], ln.lower()
        elif flush:  # a labelled line starts the next objective or row
            if re.match(r"^\s*[\w.\-]+\s*:", ln) and buffer:
                flush(buffer)
                buffer = []
            buffer.append(ln)
        elif section == "bounds":
            m = re.match(r"^([\w.\-]+)\s*=\s*([\-+0-9.eE]+)$", ln)
            if m:
                val = float(m.group(2))
                model.bounds[m.group(1)] = (val, val)
                continue
            m = re.match(r"^([\-+0-9.eE]+)\s*<=\s*([\w.\-]+)(?:\s*<=\s*([\-+0-9.eE]+))?$", ln)
            if m:
                lo = float(m.group(1))
                hi = float(m.group(3)) if m.group(3) else np.inf
                model.bounds[m.group(2)] = (lo, hi)
                continue
            raise InputParseError(f"{path}: cannot parse bound line {ln!r}")
        elif section in ("binaries", "binary"):
            model.binaries.update(ln.split())
    return model
