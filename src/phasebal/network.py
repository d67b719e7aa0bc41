"""Feeder data model, file ingestion and topology queries.

A feeder is a radial three-wire LV network: buses, directed branches with
3x3 series impedance matrices, a reference bus at the transformer, and
single-phase users attached to buses.  Phase choices of the reconfigurable
users are represented either as an integer list ``c`` (one entry per
reconfigurable user, values in {1,2,3}) or as a one-hot 0/1 matrix
``delta`` with one row per user; the two views round-trip exactly.

Impedances are stored in ohms and converted to per-unit on
(base_voltage, base_power), where base_voltage is line-to-neutral volts
and base_power is the per-phase VA base.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputParseError, ValidationError

PHASES = (1, 2, 3)


def _as_z_matrix(rows, what):
    m = np.asarray(rows, dtype=float)
    if m.shape != (3, 3):
        raise ValidationError(f"{what}: expected a 3x3 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{what}: entries must be finite")
    return m


@dataclass(frozen=True, eq=False)
class Branch:
    """Directed branch with 3x3 series impedance Z = R + jX in ohms."""

    from_bus: str
    to_bus: str
    r: np.ndarray
    x: np.ndarray
    ampacity_a: float | None = None
    power_limit_va: float | None = None

    def __post_init__(self):
        r = _as_z_matrix(self.r, f"branch {self.from_bus}->{self.to_bus} R")
        x = _as_z_matrix(self.x, f"branch {self.from_bus}->{self.to_bus} X")
        r.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "x", x)
        for limit in ("ampacity_a", "power_limit_va"):
            if getattr(self, limit) is not None:
                object.__setattr__(self, limit, float(getattr(self, limit)))
        name = self.key
        if not np.allclose(r, r.T) or not np.allclose(x, x.T):
            raise ValidationError(f"branch {name}: R and X must be symmetric")
        if np.any(np.diag(r) <= 0.0):
            raise ValidationError(f"branch {name}: diagonal of R must be strictly positive")
        z = r + 1j * x
        if abs(np.linalg.det(z)) < 1e-15 * max(1.0, np.abs(z).max() ** 3):
            raise ValidationError(f"branch {name}: singular impedance matrix")

    @property
    def key(self) -> tuple[str, str]:
        return (self.from_bus, self.to_bus)

    def z_ohm(self) -> np.ndarray:
        return self.r + 1j * self.x

    def reversed(self) -> "Branch":
        return Branch(self.to_bus, self.from_bus, self.r, self.x,
                      self.ampacity_a, self.power_limit_va)


@dataclass(frozen=True)
class User:
    id: str
    bus: str
    original_phase: int
    reconfigurable: bool = True

    def __post_init__(self):
        if self.original_phase not in PHASES:
            raise ValidationError(
                f"user {self.id}: phase must be in {PHASES}, got {self.original_phase}")


@dataclass(frozen=True, eq=False)
class Feeder:
    """Validated radial feeder. Immutable; safe to share across workers."""

    buses: tuple[str, ...]
    branches: tuple[Branch, ...]
    reference_bus: str
    users: tuple[User, ...]
    base_voltage: float  # line-to-neutral volts
    base_power: float    # per-phase VA

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(str(b) for b in self.buses))
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "users", tuple(self.users))
        if self.base_voltage <= 0 or self.base_power <= 0:
            raise ValidationError("base_voltage and base_power must be positive")
        if len(set(self.buses)) != len(self.buses):
            raise ValidationError("duplicate bus ids")
        bus_set = set(self.buses)
        if self.reference_bus not in bus_set:
            raise ValidationError(f"reference bus {self.reference_bus!r} not in bus list")
        if len(self.branches) != len(self.buses) - 1:
            raise ValidationError(
                f"non-radial: {len(self.branches)} branches for {len(self.buses)} buses "
                f"(need exactly |buses|-1)")
        for br in self.branches:
            for end in br.key:
                if end not in bus_set:
                    raise ValidationError(f"branch {br.key}: unknown bus {end!r}")
        seen_users = set()
        for u in self.users:
            if u.bus not in bus_set:
                raise ValidationError(f"user {u.id}: unknown bus {u.bus!r}")
            if u.id in seen_users:
                raise ValidationError(f"duplicate user id {u.id!r}")
            seen_users.add(u.id)
        # connectivity + orientation away from the reference
        children: dict[str, list] = {b: [] for b in self.buses}
        for br in self.branches:
            children[br.from_bus].append(br)
        order: list[Branch] = []
        stack = [self.reference_bus]
        visited = {self.reference_bus}
        while stack:
            bus = stack.pop()
            for br in children[bus]:
                if br.to_bus in visited:
                    raise ValidationError(f"non-radial: bus {br.to_bus!r} reached twice")
                visited.add(br.to_bus)
                order.append(br)
                stack.append(br.to_bus)
        if visited != bus_set:
            missing = sorted(bus_set - visited)
            raise ValidationError(
                f"non-radial: buses {missing} unreachable from the reference "
                f"(are all branches directed away from it?)")
        object.__setattr__(self, "_topo_branches", tuple(order))
        object.__setattr__(self, "_bus_index", {b: i for i, b in enumerate(self.buses)})
        object.__setattr__(
            self, "_branch_by_key", {br.key: br for br in self.branches})
        object.__setattr__(
            self, "_branch_index", {br.key: k for k, br in enumerate(self.branches)})

    # -- bases -------------------------------------------------------------

    @property
    def z_base(self) -> float:
        return self.base_voltage ** 2 / self.base_power

    @property
    def i_base(self) -> float:
        return self.base_power / self.base_voltage

    def z_pu(self, branch: Branch) -> np.ndarray:
        return branch.z_ohm() / self.z_base

    # -- lookups -----------------------------------------------------------

    def bus_index(self, bus: str) -> int:
        return self._bus_index[bus]

    def branch(self, from_bus: str, to_bus: str) -> Branch:
        try:
            return self._branch_by_key[(from_bus, to_bus)]
        except KeyError:
            raise ValidationError(f"unknown branch ({from_bus!r}, {to_bus!r})") from None

    def branch_index(self, branch: Branch) -> int:
        return self._branch_index[branch.key]

    def topo_branches(self) -> tuple[Branch, ...]:
        """Branches ordered root-first (every parent before its children)."""
        return self._topo_branches

    def reconfigurable_users(self) -> tuple[User, ...]:
        """Reconfigurable users in canonical (id-sorted) order.

        This ordering defines the gene order of integer configurations,
        the row order of one-hot matrices and the variable order of
        exported programs.
        """
        return tuple(sorted((u for u in self.users if u.reconfigurable),
                            key=lambda u: u.id))

    def reference_branches(self) -> tuple[Branch, ...]:
        return tuple(br for br in self.branches if br.from_bus == self.reference_bus)


def _users_downstream(feeder: Feeder, branch: Branch) -> frozenset[str]:
    reachable = {branch.to_bus}
    for br in feeder.topo_branches():
        if br.from_bus in reachable:
            reachable.add(br.to_bus)
    return frozenset(u.id for u in feeder.users if u.bus in reachable)


@lru_cache(maxsize=None)
def _downstream_table(feeder: Feeder) -> dict[tuple[str, str], frozenset[str]]:
    return {br.key: _users_downstream(feeder, br) for br in feeder.branches}


def downstream_users(feeder: Feeder, branch: Branch) -> frozenset[str]:
    """Ids of users whose path from the reference runs through ``branch``."""
    table = _downstream_table(feeder)
    try:
        return table[branch.key]
    except KeyError:
        raise ValidationError(f"unknown branch {branch.key}") from None


# -- phase assignments -----------------------------------------------------


@dataclass(frozen=True)
class PhaseAssignment:
    """Phases of the reconfigurable users, in canonical user order."""

    phases: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(int(p) for p in self.phases))
        for p in self.phases:
            if p not in PHASES:
                raise ValidationError(f"phase {p} not in {PHASES}")

    def __len__(self):
        return len(self.phases)



def original_assignment(feeder: Feeder) -> PhaseAssignment:
    return PhaseAssignment(tuple(u.original_phase for u in feeder.reconfigurable_users()))


def switch_count(a: PhaseAssignment, a0: PhaseAssignment) -> int:
    """Number of users whose phase differs between the two assignments."""
    if len(a) != len(a0):
        raise ValidationError(
            f"assignment length mismatch: {len(a)} vs {len(a0)}")
    return sum(1 for p, p0 in zip(a.phases, a0.phases) if p != p0)


def user_phases(feeder: Feeder, assignment: PhaseAssignment) -> dict[str, int]:
    """Phase of every user under ``assignment`` (fixed users keep their own)."""
    pr = feeder.reconfigurable_users()
    if len(assignment) != len(pr):
        raise ValidationError(
            f"assignment has {len(assignment)} entries for {len(pr)} reconfigurable users")
    phases = {u.id: u.original_phase for u in feeder.users}
    for u, p in zip(pr, assignment.phases):
        phases[u.id] = p
    return phases


# -- load series -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LoadSeries:
    """Per-user demand time series in SI units (W / var), shape (T, n_users)."""

    user_ids: tuple[str, ...]
    p: np.ndarray
    q: np.ndarray
    resolution_s: float = 900.0

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if p.shape != q.shape or p.ndim != 2 or p.shape[1] != len(self.user_ids):
            raise ValidationError(
                f"load series shape mismatch: p {p.shape}, q {q.shape}, "
                f"{len(self.user_ids)} users")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise ValidationError("load series contains missing or non-finite values")
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "user_ids", tuple(self.user_ids))
        object.__setattr__(self, "_col", {u: i for i, u in enumerate(self.user_ids)})

    @property
    def horizon(self) -> int:
        return self.p.shape[0]

    def column(self, user_id: str) -> int:
        try:
            return self._col[user_id]
        except KeyError:
            raise ValidationError(f"no load series for user {user_id!r}") from None

    def slice_window(self, start: int, stop: int) -> "LoadSeries":
        return LoadSeries(self.user_ids, self.p[start:stop], self.q[start:stop],
                          self.resolution_s)


# -- injections ------------------------------------------------------------


def injections(feeder: Feeder, assignment: PhaseAssignment, loads: LoadSeries,
               t: int) -> np.ndarray:
    """Complex per-bus, per-phase load injections at timestep t, in watts.

    Rows follow feeder.buses order; passive buses get the zero vector.
    """
    if t < 0 or t >= loads.horizon:
        raise ValidationError(f"timestep {t} outside horizon {loads.horizon}")
    return injection_series(feeder, assignment, loads)[t]


def injection_series(feeder: Feeder, assignment: PhaseAssignment,
                     loads: LoadSeries) -> np.ndarray:
    """Complex (T, n_buses, 3) injections in watts for every timestep."""
    phases = user_phases(feeder, assignment)
    cols = [loads.column(u.id) for u in feeder.users]
    buses = [feeder.bus_index(u.bus) for u in feeder.users]
    user_phase = [phases[u.id] - 1 for u in feeder.users]
    out = np.zeros((loads.horizon, len(feeder.buses), 3), dtype=complex)
    # unbuffered: users sharing a (bus, phase) add up in feeder.users order
    np.add.at(out, (slice(None), buses, user_phase),
              loads.p[:, cols] + 1j * loads.q[:, cols])
    return out


# -- constraint configuration ----------------------------------------------


@dataclass(frozen=True)
class ConstraintConfig:
    """Planning constraints: switch budget, per-phase counts, voltage band."""

    delta_max: int
    gamma_low: int = 0
    gamma_upp: int = 10 ** 9
    v_min: float = 0.90
    v_max: float = 1.10
    enforce_phase_counts: bool = False

    def __post_init__(self):
        if self.delta_max < 0:
            raise ValidationError("delta_max must be >= 0")
        if not (0 <= self.gamma_low <= self.gamma_upp):
            raise ValidationError("need 0 <= gamma_low <= gamma_upp")
        if not (0 < self.v_min < self.v_max):
            raise ValidationError("need 0 < v_min < v_max")

    @property
    def phase_count_bounds(self) -> tuple[int, int] | None:
        """(gamma_low, gamma_upp) when phase counts are enforced, else None."""
        return (self.gamma_low, self.gamma_upp) if self.enforce_phase_counts else None

    @classmethod
    def from_fractions(cls, feeder: Feeder, delta_max: int,
                       low: float = 0.20, upp: float = 0.40,
                       v_min: float = 0.90, v_max: float = 1.10,
                       enforce_phase_counts: bool = False) -> "ConstraintConfig":
        n = len(feeder.users)
        return cls(delta_max=delta_max,
                   gamma_low=math.floor(low * n),
                   gamma_upp=math.ceil(upp * n),
                   v_min=v_min, v_max=v_max,
                   enforce_phase_counts=enforce_phase_counts)


def fixed_phase_counts(feeder: Feeder) -> tuple[int, int, int]:
    """Users per phase among the users that cannot be reconfigured."""
    counts = [0, 0, 0]
    for u in feeder.users:
        if not u.reconfigurable:
            counts[u.original_phase - 1] += 1
    return tuple(counts)


def completion_count(n_free: int, budget: int) -> int:
    """Number of ways to give ``n_free`` users a phase with at most
    ``budget`` of them off their original phase: sum_k C(n_free, k) 2^k,
    and 0 for a negative budget."""
    return sum(math.comb(n_free, k) * 2 ** k for k in range(min(budget, n_free) + 1))


def completions(c0, fixed, budget: int) -> np.ndarray:
    """Every completion of the partial configuration ``fixed`` (0 = free)
    that moves at most ``budget`` of its free users off their phase in
    ``c0``, as an (M, n) int8 array in lexicographic order.

    Prefixes are extended one position at a time; each prefix with budget
    left has at least one completion, so no intermediate array outgrows
    the result.
    """
    c0 = np.asarray(c0, dtype=np.int8)
    rows = np.array([fixed], dtype=np.int8)
    if budget < 0:
        return rows[:0]
    left = np.array([budget])
    phases = np.array(PHASES, dtype=np.int8)
    for pos in np.flatnonzero(rows[0] == 0):
        cost = (phases != c0[pos]).astype(int)
        parent, choice = np.nonzero(cost[None, :] <= left[:, None])
        rows = rows[parent]
        rows[:, pos] = phases[choice]
        left = left[parent] - cost[choice]
    return rows


def feasible_mask(phases, c0, delta_max: int, fixed_counts,
                  gamma: tuple[int, int] | None) -> np.ndarray:
    """Which rows of the (M, n) configurations ``phases`` keep the switch
    budget and, when ``gamma`` = (low, upp) is given, put between low and
    upp users on every phase, counting the fixed users' ``fixed_counts``."""
    phases = np.asarray(phases)
    if phases.ndim != 2 or phases.shape[1] != len(c0):
        raise ValidationError(
            f"configurations of shape {phases.shape} for {len(c0)} reconfigurable users")
    ok = (phases != np.asarray(c0)).sum(axis=1) <= delta_max
    if gamma is not None:
        counts = (phases[:, :, None] == PHASES).sum(axis=1) + np.asarray(fixed_counts)
        ok &= np.all((counts >= gamma[0]) & (counts <= gamma[1]), axis=1)
    return ok


def binary_feasible(feeder: Feeder, assignment: PhaseAssignment,
                    constraints: ConstraintConfig,
                    a0: PhaseAssignment | None = None) -> bool:
    """Check the switch budget and (optionally) per-phase user counts."""
    if a0 is None:
        a0 = original_assignment(feeder)
    return bool(feasible_mask([assignment.phases], a0.phases, constraints.delta_max,
                              fixed_phase_counts(feeder),
                              constraints.phase_count_bounds)[0])


# -- file ingestion ----------------------------------------------------------


def make_feeder(buses, branches, reference_bus, users, base_voltage,
                base_power) -> Feeder:
    """Build a Feeder, flipping any branch that points toward the reference."""
    reference_bus = str(reference_bus)
    adjacency: dict[str, list[Branch]] = {str(b): [] for b in buses}
    for br in branches:
        if br.from_bus not in adjacency or br.to_bus not in adjacency:
            raise ValidationError(f"branch {br.key}: unknown bus")
        adjacency[br.from_bus].append(br)
        adjacency[br.to_bus].append(br)
    oriented: list[Branch] = []
    visited = {reference_bus}
    stack = [reference_bus]
    while stack:
        bus = stack.pop()
        for br in adjacency[bus]:
            other = br.to_bus if br.from_bus == bus else br.from_bus
            if other in visited:
                continue
            visited.add(other)
            oriented.append(br if br.from_bus == bus else br.reversed())
            stack.append(other)
    if len(oriented) != len(branches):
        # cycle or disconnection; let Feeder validation produce the message
        oriented = list(branches)
    return Feeder(tuple(buses), tuple(oriented), reference_bus, tuple(users),
                  base_voltage, base_power)


def load_feeder(path) -> Feeder:
    """Read and validate a feeder description from a JSON file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # JSON, UTF-8 and nesting errors
        raise InputParseError(f"cannot parse feeder file {path}: {exc}") from exc
    try:
        buses = [str(b) for b in raw["buses"]]
        branches = []
        for spec in raw["branches"]:
            branches.append(Branch(
                from_bus=str(spec["from"]),
                to_bus=str(spec["to"]),
                r=spec["R"],
                x=spec["X"],
                ampacity_a=spec.get("ampacity_A"),
                power_limit_va=spec.get("power_limit_VA"),
            ))
        users = []
        for spec in raw["users"]:
            users.append(User(
                id=str(spec["id"]),
                bus=str(spec["bus"]),
                original_phase=int(spec["phase"]),
                reconfigurable=bool(spec.get("reconfigurable", True)),
            ))
        return make_feeder(
            buses=buses,
            branches=branches,
            reference_bus=raw["reference_bus"],
            users=users,
            base_voltage=float(raw["base_voltage_V"]),
            base_power=float(raw["base_power_VA"]),
        )
    except KeyError as exc:
        raise InputParseError(f"feeder file {path}: missing field {exc}") from exc
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise InputParseError(f"feeder file {path}: malformed value: {exc}") from exc


def feeder_to_dict(feeder: Feeder) -> dict:
    return {
        "base_voltage_V": feeder.base_voltage,
        "base_power_VA": feeder.base_power,
        "reference_bus": feeder.reference_bus,
        "buses": list(feeder.buses),
        "branches": [
            {
                "from": br.from_bus,
                "to": br.to_bus,
                "R": br.r.tolist(),
                "X": br.x.tolist(),
                **({"ampacity_A": br.ampacity_a} if br.ampacity_a is not None else {}),
                **({"power_limit_VA": br.power_limit_va}
                   if br.power_limit_va is not None else {}),
            }
            for br in feeder.branches
        ],
        "users": [
            {"id": u.id, "bus": u.bus, "phase": u.original_phase,
             "reconfigurable": u.reconfigurable}
            for u in feeder.users
        ],
    }


def save_feeder(feeder: Feeder, path) -> None:
    with open(path, "w") as fh:
        json.dump(feeder_to_dict(feeder), fh, indent=1, sort_keys=True)


def load_profiles(path, feeder: Feeder, power_factor: float = 0.95,
                  resolution_s: float = 900.0) -> LoadSeries:
    """Read per-user demand profiles from CSV.

    Expected header: ``t,<user>:p[,<user>:q]...`` with W / var values.
    Users without a q column get q = p * tan(acos(power_factor)).
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputParseError(f"cannot read profiles file {path}: {exc}") from exc
    if not rows:
        raise InputParseError(f"profiles file {path} is empty")
    header = [h.strip() for h in rows[0]]
    if not header or header[0] != "t":
        raise InputParseError(f"profiles file {path}: first column must be 't'")
    p_col: dict[str, int] = {}
    q_col: dict[str, int] = {}
    for idx, name in enumerate(header[1:], start=1):
        if ":" not in name:
            raise InputParseError(
                f"profiles file {path}: column {name!r} is not '<user>:p' or '<user>:q'")
        uid, kind = name.rsplit(":", 1)
        if kind == "p":
            p_col[uid] = idx
        elif kind == "q":
            q_col[uid] = idx
        else:
            raise InputParseError(f"profiles file {path}: unknown column kind {name!r}")
    user_ids = tuple(u.id for u in feeder.users)
    for uid in user_ids:
        if uid not in p_col:
            raise ValidationError(f"profiles file missing p column for user {uid!r}")
    width = len(header)
    data = []
    for ln, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise ValidationError(
                f"profiles file {path}: line {ln} has {len(row)} fields, expected {width}")
        try:
            data.append([float(v) for v in row])
        except ValueError as exc:
            raise InputParseError(f"profiles file {path}: line {ln}: {exc}") from exc
    if not data:
        raise ValidationError(f"profiles file {path} has a header but no rows")
    arr = np.array(data, dtype=float)
    tan_phi = math.tan(math.acos(power_factor))
    p = np.empty((arr.shape[0], len(user_ids)))
    q = np.empty_like(p)
    for j, uid in enumerate(user_ids):
        p[:, j] = arr[:, p_col[uid]]
        q[:, j] = arr[:, q_col[uid]] if uid in q_col else p[:, j] * tan_phi
    return LoadSeries(user_ids, p, q, resolution_s)


def save_profiles(loads: LoadSeries, path) -> None:
    header = ["t"]
    for uid in loads.user_ids:
        header += [f"{uid}:p", f"{uid}:q"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(loads.horizon):
            row = [t]
            for j in range(len(loads.user_ids)):
                row += [repr(float(loads.p[t, j])), repr(float(loads.q[t, j]))]
            writer.writerow(row)
