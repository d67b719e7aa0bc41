"""Feeder data model, file ingestion and topology queries.

A feeder is a radial three-wire LV network: buses, branches with 3x3
series impedance matrices, a reference bus at the transformer, and
single-phase users attached to buses; branches are oriented away from the
reference, in walk order.  Phase choices of the reconfigurable users are
represented either as an integer list ``c`` (one entry per reconfigurable
user, values in {1,2,3}) or as a one-hot 0/1 matrix ``delta`` with one
row per user; the two views round-trip exactly.

Impedances are stored in ohms and converted to per-unit on
(base_voltage, base_power), where base_voltage is line-to-neutral volts
and base_power is the per-phase VA base.

Derived tables live on the object they derive from, never in a
module-level cache: a Feeder holds its sweep tables and power-flow
operators, a LoadSeries its users' mean demand and demand rows.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dropmatrices import ab_matrices
from .errors import InputParseError, ValidationError

PHASES = (1, 2, 3)

REFERENCE_PHASORS = np.array([1.0,
                              np.exp(-2j * np.pi / 3),
                              np.exp(+2j * np.pi / 3)])


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


_PHASE_OF = {p: p for p in PHASES}  # 2.0 finds 2; 2.7, "2" and None find nothing
_BOOL_TYPES = frozenset((bool, np.bool_))


def as_phases(values, what: str) -> tuple[int, ...]:
    """Phases as ints; a bool (Python or numpy), text or a fraction (2.7,
    which int() reads as 2) raises.  One dict lookup per entry, as every GA
    candidate and oracle row passes here; ``tolist`` reads an array row."""
    values = values.tolist() if isinstance(values, np.ndarray) else tuple(values)
    try:
        phases = tuple(map(_PHASE_OF.get, values))
    except TypeError:  # an unhashable entry
        phases = (None,)
    if None in phases or not _BOOL_TYPES.isdisjoint(map(type, values)):
        bad = next((p for p in values if type(p) in _BOOL_TYPES or p not in PHASES), values)
        raise ValidationError(f"{what}: phase must be in {PHASES}, got {bad!r}")
    return phases


def as_phase(p, what: str) -> int:
    return as_phases((p,), what)[0]


def is_whole(value) -> bool:
    """An int or an integral float, not a bool (type(), not isinstance())."""
    return type(value) is int or type(value) is float and value.is_integer()


@dataclass(frozen=True)
class User:
    id: str
    bus: str
    original_phase: int
    reconfigurable: bool = True

    def __post_init__(self):
        phase = as_phase(self.original_phase, f"user {self.id}")
        object.__setattr__(self, "original_phase", phase)
        if not isinstance(self.reconfigurable, bool):
            raise ValidationError(f"user {self.id}: reconfigurable is not a bool")


@dataclass(frozen=True, eq=False)
class SweepTables:
    """A feeder's radial sweep as index tables, built once per feeder.

    ``to_bus`` holds each branch's to-bus index, in ``feeder.branches``
    order; ``children`` lists (branch, child branch) pairs leaves first,
    siblings in order, for accumulating flows; ``downward`` lists (branch,
    from-bus, to-bus) root first, for spreading voltages.  ``a_t`` and
    ``b_t`` are transposed views of the stacked (n_branches, 3, 3)
    voltage-drop matrices of ``dropmatrices.ab_matrices``.
    """

    to_bus: np.ndarray
    children: tuple[tuple[int, int], ...]
    downward: tuple[tuple[int, int, int], ...]
    a_t: np.ndarray
    b_t: np.ndarray


class PFTables:
    """A feeder's exact power-flow operators, per-unit.

    ``ybus`` is the dense nodal admittance matrix over the flat (bus,
    phase) axis, index 3 * bus_index + phase, assembled from the branch
    admittances ``y_branch``; ``other`` lists the non-reference entries of
    that axis, ``y_nn`` is the Y-bus reduced to them, ``z_nn`` its inverse
    and ``slack_rhs`` their coupling to the reference phasors; ``z_nn_t``
    is the contiguous transpose of ``z_nn``, the right operand of the
    iteration's row product.  ``limits`` holds each branch's (apparent
    power, current) limit per-unit, ``inf`` where none is given.  Branch
    arrays follow ``feeder.branches`` order.
    """

    def __init__(self, feeder: Feeder):
        self.y_branch = np.stack([np.linalg.inv(feeder.z_pu(br)) for br in feeder.branches])
        self.from_bus = np.array([feeder.bus_index(br.from_bus) for br in feeder.branches])
        n = 3 * len(feeder.buses)
        y = self.ybus = np.zeros((n, n), dtype=complex)
        for yb, i, j in zip(self.y_branch, 3 * self.from_bus, 3 * feeder.sweep_tables().to_bus):
            y[i:i + 3, i:i + 3] += yb
            y[j:j + 3, j:j + 3] += yb
            y[i:i + 3, j:j + 3] -= yb
            y[j:j + 3, i:i + 3] -= yb
        ref = 3 * feeder.bus_index(feeder.reference_bus) + np.arange(3)
        self.other = np.setdiff1d(np.arange(n), ref)
        self.y_nn = y[np.ix_(self.other, self.other)]
        self.z_nn = np.linalg.inv(self.y_nn)
        self.z_nn_t = np.ascontiguousarray(self.z_nn.T)
        self.slack_rhs = y[np.ix_(self.other, ref)] @ REFERENCE_PHASORS
        self.limits = np.array([[np.inf if lim is None else lim / base for lim, base in
                                 ((br.power_limit_va, feeder.base_power),
                                  (br.ampacity_a, feeder.i_base))]
                                for br in feeder.branches])


@dataclass(frozen=True, eq=False)
class Feeder:
    """Validated radial feeder. Immutable; safe to share across workers.
    ``branches`` holds the given branches oriented away from the reference,
    in the order one depth-first walk from it reaches them."""

    buses: tuple[str, ...]
    branches: tuple[Branch, ...]
    reference_bus: str
    users: tuple[User, ...]
    base_voltage: float  # line-to-neutral volts
    base_power: float    # per-phase VA

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(str(b) for b in self.buses))
        object.__setattr__(self, "reference_bus", str(self.reference_bus))
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
        adjacency: dict[str, list[Branch]] = {b: [] for b in self.buses}
        for br in self.branches:
            for end in br.key:
                if end not in bus_set:
                    raise ValidationError(f"branch {br.key}: unknown bus {end!r}")
                adjacency[end].append(br)
        seen_users = set()
        for u in self.users:
            if u.bus not in bus_set:
                raise ValidationError(f"user {u.id}: unknown bus {u.bus!r}")
            if u.id in seen_users:
                raise ValidationError(f"duplicate user id {u.id!r}")
            seen_users.add(u.id)
        # the one walk of the tree: depth first from the reference, each
        # branch oriented away from it and numbered in the order it is reached;
        # ``children`` lists each bus's child branches in that order
        order: list[Branch] = []
        children: dict[str, list[int]] = {b: [] for b in self.buses}
        stack = [self.reference_bus]
        visited = {self.reference_bus}
        while stack:
            bus = stack.pop()
            for br in adjacency[bus]:
                other = br.to_bus if br.from_bus == bus else br.from_bus
                if other in visited:
                    continue
                visited.add(other)
                children[bus].append(len(order))
                order.append(br if br.from_bus == bus else br.reversed())
                stack.append(other)
        if visited != bus_set:
            raise ValidationError(
                f"non-radial: buses {sorted(bus_set - visited)} unreachable from the reference")
        object.__setattr__(self, "branches", tuple(order))
        bus_index = {b: i for i, b in enumerate(self.buses)}
        branch_index = {key: k for k, br in enumerate(order) for key in (br.key, br.key[::-1])}
        # flows and user sets accumulate leaves first, up the walk
        below = {b: set() for b in self.buses}
        place = []  # each user's place among the users of its bus
        for u in self.users:
            place.append(len(below[u.bus]))
            below[u.bus].add(u.id)
        pairs = []
        for k in reversed(range(len(order))):
            bus = order[k].to_bus
            for child in children[bus]:
                below[bus] |= below[order[child].to_bus]
                pairs.append((k, child))
        z_pu = np.stack([self.z_pu(br) for br in self.branches])
        a, b = ab_matrices(z_pu.real, z_pu.imag)
        to_bus = np.array([bus_index[br.to_bus] for br in self.branches])
        for arr in (a, b, to_bus):
            arr.setflags(write=False)
        object.__setattr__(self, "_bus_index", bus_index)
        object.__setattr__(self, "_branch_index", branch_index)
        object.__setattr__(self, "_sweep_tables", SweepTables(
            to_bus=to_bus, children=tuple(pairs),
            downward=tuple((k, bus_index[br.from_bus], bus_index[br.to_bus])
                           for k, br in enumerate(order)),
            a_t=a.swapaxes(-1, -2), b_t=b.swapaxes(-1, -2)))
        object.__setattr__(
            self, "_downstream", {br.key: frozenset(below[br.to_bus]) for br in self.branches})
        at = sorted((i for i, u in enumerate(self.users) if u.reconfigurable),
                    key=lambda i: self.users[i].id)
        object.__setattr__(self, "_reconfigurable", tuple(self.users[i] for i in at))
        # per user: its bus, the branch into it (-1 at the reference) and its
        # original phase - 1; layer j holds the j-th user of each bus, one per bus
        into = {br.to_bus: k for k, br in enumerate(order)}
        for name, values in (("_user_bus", [bus_index[u.bus] for u in self.users]),
                             ("_user_branch", [into.get(u.bus, -1) for u in self.users]),
                             ("_user_phase", [u.original_phase - 1 for u in self.users])):
            object.__setattr__(self, name, np.array(values, dtype=int))
        object.__setattr__(self, "_reconfigurable_at", np.array(at, dtype=int))
        object.__setattr__(self, "_user_ids", tuple(u.id for u in self.users))
        object.__setattr__(self, "_user_layers", tuple(
            np.flatnonzero(np.equal(place, j)) for j in range(max(place, default=-1) + 1)))

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
        try:
            return self._bus_index[bus]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ValidationError(f"unknown bus {bus!r}") from None

    def branch(self, from_bus: str, to_bus: str) -> Branch:
        """The branch between two buses, named either way round, oriented."""
        try:
            return self.branches[self._branch_index[(from_bus, to_bus)]]
        except (KeyError, TypeError):
            raise ValidationError(f"unknown branch ({from_bus!r}, {to_bus!r})") from None

    def branch_index(self, branch: Branch) -> int:
        return self._branch_index[branch.key]

    def sweep_tables(self) -> SweepTables:
        return self._sweep_tables

    @functools.cached_property
    def pf_tables(self) -> PFTables:
        """Built on first use, as the linear-model routes never need it."""
        return PFTables(self)

    def reconfigurable_users(self) -> tuple[User, ...]:
        """Reconfigurable users in canonical (id-sorted) order.

        This ordering defines the gene order of integer configurations,
        the row order of one-hot matrices and the variable order of
        exported programs.
        """
        return self._reconfigurable

    def reference_branches(self) -> tuple[Branch, ...]:
        return tuple(br for br in self.branches if br.from_bus == self.reference_bus)


def downstream_users(feeder: Feeder, branch: Branch) -> frozenset[str]:
    """Ids of users whose path from the reference runs through ``branch``."""
    try:
        return feeder._downstream[branch.key]
    except KeyError:
        raise ValidationError(f"unknown branch {branch.key}") from None


# -- phase assignments -----------------------------------------------------


@dataclass(frozen=True)
class PhaseAssignment:
    """Phases of the reconfigurable users, in canonical user order."""

    phases: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "phases", as_phases(self.phases, "assignment"))

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
        if p.shape[0] == 0:
            raise ValidationError("load series has no timesteps")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise ValidationError("load series contains missing or non-finite values")
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "user_ids", tuple(self.user_ids))
        object.__setattr__(self, "_col", {u: i for i, u in enumerate(self.user_ids)})
        object.__setattr__(self, "_rows", {})

    @property
    def horizon(self) -> int:
        return self.p.shape[0]

    def column(self, user_id: str) -> int:
        try:
            return self._col[user_id]
        except KeyError:
            raise ValidationError(f"no load series for user {user_id!r}") from None

    @functools.cached_property
    def user_demand(self) -> np.ndarray:
        """Complex demand p + jq in W / var, one contiguous (T,) row per column."""
        return np.ascontiguousarray((self.p + 1j * self.q).T)

    @functools.cached_property
    def user_demand_pq(self) -> np.ndarray:
        """Real demand (n_users, 2, T): ``user_demand``'s p and q rows per column."""
        return np.ascontiguousarray(np.stack((self.p.T, self.q.T), axis=1))

    def demand_of(self, user_ids: tuple[str, ...], pq: bool = False) -> np.ndarray:
        """``user_demand`` (or ``user_demand_pq``) rows of ``user_ids`` in order, cached."""
        if (user_ids, pq) not in self._rows:
            rows = (self.user_demand_pq if pq else self.user_demand)[
                [self.column(u) for u in user_ids]]
            rows.setflags(write=False)
            self._rows[user_ids, pq] = rows
        return self._rows[user_ids, pq]

    @functools.cached_property
    def mean_p(self) -> np.ndarray:
        """Each column's time-mean active demand in W, bitwise p[:, c].mean()."""
        return np.ascontiguousarray(self.p.T).mean(axis=1)

    def slice_window(self, start: int, stop: int) -> "LoadSeries":
        """Timesteps start..stop-1; raises unless 0 <= start < stop <= horizon."""
        if not 0 <= start < stop <= self.horizon:
            raise ValidationError(
                f"window [{start}, {stop}) outside horizon {self.horizon}")
        return LoadSeries(self.user_ids, self.p[start:stop], self.q[start:stop],
                          self.resolution_s)


# -- injections ------------------------------------------------------------


def batch_phases(feeder: Feeder, assignments: PhaseAssignment | Sequence[PhaseAssignment]):
    """(K, n_users) phase - 1 of each of ``feeder.users`` under K assignments
    (one assignment is a batch of one); an empty batch is an error."""
    batch = (assignments,) if isinstance(assignments, PhaseAssignment) else assignments
    n = len(feeder.reconfigurable_users())
    if not batch or any(len(a) != n for a in batch):
        raise ValidationError(f"phases {[len(a) for a in batch]} for {n} reconfigurable users")
    phases = np.tile(feeder._user_phase, (len(batch), 1))
    phases[:, feeder._reconfigurable_at] = np.array([a.phases for a in batch], dtype=int) - 1
    return phases


def injection_series(feeder: Feeder, assignments: PhaseAssignment | Sequence[PhaseAssignment],
                     loads: LoadSeries) -> np.ndarray:
    """Complex (K * T, n_buses, 3) injections in watts of K assignments, the
    exact power flow's input (the linear model scatters into its own layout):
    candidate-major, buses in feeder.buses order.  Each (bus, phase) adds its
    users in feeder.users order from +0, one scatter per layer (the j-th user
    of every bus), so each candidate's rows are bitwise its own call's."""
    phases = batch_phases(feeder, assignments)
    width = 3 * len(feeder.buses)
    # the out row of each (candidate, user) pair, candidate k's from k * width
    slots = 3 * feeder._user_bus + phases + width * np.arange(len(phases))[:, None]
    demand = loads.demand_of(feeder._user_ids)
    out = np.zeros((len(phases) * width, loads.horizon), dtype=complex)
    for layer in feeder._user_layers:
        out[slots[:, layer]] += demand[layer]
    return out.reshape(len(phases), width, -1).transpose(0, 2, 1).reshape(-1, len(feeder.buses), 3)


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
        for name in ("delta_max", "gamma_low", "gamma_upp"):
            if not is_whole(getattr(self, name)):
                raise ValidationError(f"{name} must be a whole number, got {getattr(self, name)!r}")
            object.__setattr__(self, name, int(getattr(self, name)))
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
    fixed = [u.original_phase for u in feeder.users if not u.reconfigurable]
    return tuple(fixed.count(p) for p in PHASES)


def completion_count(n_free: int, budget: int) -> int:
    """Number of ways to give ``n_free`` users a phase with at most
    ``budget`` of them off their original phase: sum_k C(n_free, k) 2^k,
    and 0 for a negative budget."""
    return sum(math.comb(n_free, k) * 2 ** k for k in range(min(budget, n_free) + 1))


def completions(c0, fixed, budget: int, columns=None, prune=None):
    """Every completion of the partial configuration ``fixed`` (0 = free)
    that moves at most ``budget`` of its free users off their phase in
    ``c0``, as an (M, n) int8 array in lexicographic order.

    Prefixes are extended one position at a time; without ``prune`` each
    prefix with budget left has at least one completion, so no intermediate
    array outgrows the result.  Given ``columns`` (3n, L), one row per
    (user, phase), it returns ``(rows, sums)``: each prefix carries its
    users' columns added in user order from +0, so ``sums`` is bitwise
    ``miqp._gather_sum``'s.  Given ``prune(pos, sums, left)``, called after
    each free position ``pos`` is extended with the prefixes' sums over
    positions 0..pos and their budgets left, only the prefixes its boolean
    mask keeps are extended further (the rest are dropped at the end); the
    rows that remain keep their order and their sums.
    """
    c0 = np.asarray(c0, dtype=np.int8)
    rows = np.array([fixed], dtype=np.int8)
    cols = np.zeros((3 * rows.shape[1], 0)) if columns is None else columns
    sums = np.zeros((1, cols.shape[1]))
    left = np.array([budget])
    phases = np.array(PHASES, dtype=np.int8)
    for pos, ph in enumerate(rows[0].tolist()):
        if ph:
            sums += cols[3 * pos + ph - 1]
            continue
        cost = (phases != c0[pos]).astype(int)
        parent, choice = np.nonzero(cost[None, :] <= left[:, None])
        rows, sums = rows.take(parent, axis=0), sums.take(parent, axis=0)
        rows[:, pos] = phases.take(choice)
        left = left.take(parent) - cost.take(choice)
        sums += cols.take(3 * pos + choice, axis=0)
        if prune is not None:  # a dropped prefix gets no budget, so no extension
            left = np.where(prune(pos, sums, left), left, -1)
    if budget < 0 or prune is not None:  # the rows left without budget
        kept = left >= 0
        rows, sums = rows[kept], sums[kept]
    return rows if columns is None else (rows, sums)


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
        counts = np.stack([np.count_nonzero(phases == p, axis=1) for p in PHASES], axis=1)
        counts += np.asarray(fixed_counts)
        ok &= np.all((counts >= gamma[0]) & (counts <= gamma[1]), axis=1)
    return ok


def binary_feasible(feeder: Feeder, assignment: PhaseAssignment,
                    constraints: ConstraintConfig) -> bool:
    """Check the switch budget and (optionally) per-phase user counts."""
    return bool(feasible_mask([assignment.phases], original_assignment(feeder).phases,
                              constraints.delta_max,
                              fixed_phase_counts(feeder),
                              constraints.phase_count_bounds)[0])


# -- file ingestion ----------------------------------------------------------


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
                original_phase=spec["phase"],
                reconfigurable=spec.get("reconfigurable", True),
            ))
        return Feeder(
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
    p = arr[:, [p_col[uid] for uid in user_ids]]
    q = p * tan_phi
    for j, uid in enumerate(user_ids):
        if uid in q_col:
            q[:, j] = arr[:, q_col[uid]]
    return LoadSeries(user_ids, p, q, resolution_s)


def save_profiles(loads: LoadSeries, path) -> None:
    header = ["t"]
    for uid in loads.user_ids:
        header += [f"{uid}:p", f"{uid}:q"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([t] + [repr(float(x)) for pq in zip(loads.p[t], loads.q[t]) for x in pq]
                         for t in range(loads.horizon))
