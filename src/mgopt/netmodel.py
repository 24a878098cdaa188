"""Network and scenario data model.

A study case bundles the radial low-voltage network, hourly load profiles,
distributed generator fleet, battery, grid tariff and reliability data into a
single immutable ``MicrogridCase``.  Cases are stored on disk as one YAML
document (see ``docs/case-format.md``) so a scenario stays atomic.

All powers are kW, energies kWh, prices euro-cents per kWh, impedances ohm,
voltages per-unit unless a field name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import lru_cache
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple, Union, get_args, get_origin, get_type_hints

import yaml

from .ahp import validate_matrix

CASE_FORMAT_VERSION = 1

BUS_KINDS = ("slack", "load", "generation")
LOAD_CATEGORIES = ("domestic", "industrial", "commercial")

TRANSFORMER_ELEMENT = "transformer"


class CaseError(ValueError):
    """A case document violates the schema or the network rules."""


@dataclass(frozen=True)
class Bus:
    id: str
    kind: str = "load"
    base_voltage_kv: Optional[float] = None


@dataclass(frozen=True)
class Branch:
    id: str
    from_bus: str = field(metadata={"key": "from"})
    to_bus: str = field(metadata={"key": "to"})
    resistance_ohm: float
    reactance_ohm: float


@dataclass(frozen=True)
class LoadPoint:
    """Aggregated consumer group at one bus with an hourly demand profile."""

    bus: str
    category: str
    profile_kw: Tuple[float, ...]
    power_factor: float = 0.9


@dataclass(frozen=True)
class DgUnit:
    """Distributed generator with an affine running cost b*P + c."""

    name: str
    bus: str
    p_min_kw: float = field(metadata={"default": 0.0})
    p_max_kw: float
    cost_slope_ct_per_kwh: float
    cost_fixed_ct_per_h: float = 0.0
    renewable: bool = False

    @property
    def committable(self) -> bool:
        return self.p_min_kw > 0.0


@dataclass(frozen=True)
class Battery:
    """Storage unit following the SOC recursion with charge-positive power."""

    bus: str
    soc_min_kwh: float
    soc_max_kwh: float
    soc_initial_kwh: float
    p_max_kw: float
    eta_charge: float = 0.9
    eta_discharge: float = 0.9
    self_discharge_per_h: float = 0.002
    usage_cost_ct_per_kwh: float = 0.38


@dataclass(frozen=True)
class Contingency:
    """Random outage of one network element.

    ``element`` is a branch id, or ``"transformer"`` for loss of the upstream
    grid connection (islands every bus).
    """

    id: str
    element: str
    rate_per_hour: float
    repair_hours: float


@dataclass(frozen=True)
class OutageCostTable:
    """Outage cost per load category, optionally stepped by outage duration.

    Each category maps to a sorted tuple of (up_to_hours, cost_ct_per_kwh)
    steps; the cost of an outage is the first step whose duration bound covers
    it, or the last step's cost beyond the table.
    """

    steps: Dict[str, Tuple[Tuple[float, float], ...]]

    @classmethod
    def from_mapping(cls, raw: Dict[str, object]) -> "OutageCostTable":
        steps: Dict[str, Tuple[Tuple[float, float], ...]] = {}
        for category, value in raw.items():
            where = f"outage_costs.{category}"
            if isinstance(value, (int, float)):
                steps[category] = ((math.inf, _number(float, value, where)),)
            else:
                rows = tuple(
                    (_number(float, d, f"{where}[{i}][0]"), _number(float, c, f"{where}[{i}][1]"))
                    for i, (d, c) in enumerate(value)  # type: ignore[arg-type]
                )
                if not rows or any(rows[i][0] >= rows[i + 1][0] for i in range(len(rows) - 1)):
                    raise CaseError(f"outage cost steps for {category!r} must increase in duration")
                steps[category] = rows
        return cls(steps)

    def cost(self, category: str, duration_hours: float) -> float:
        try:
            rows = self.steps[category]
        except KeyError:
            raise CaseError(f"no outage cost for load category {category!r}") from None
        for up_to, cost in rows:
            if duration_hours <= up_to:
                return cost
        return rows[-1][1]

    def to_mapping(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for category, rows in self.steps.items():
            if len(rows) == 1 and math.isinf(rows[0][0]):
                out[category] = rows[0][1]
            else:
                out[category] = [[d, c] for d, c in rows]
        return out


@dataclass(frozen=True)
class DrProgram:
    """Demand response program: same-day energy-neutral load shifting."""

    shiftable_fraction: float = 0.15
    participating: Tuple[str, ...] = LOAD_CATEGORIES
    incentive_ct_per_kwh: float = 0.0


@dataclass(frozen=True, kw_only=True)
class MicrogridCase:
    """Complete input for one day-ahead dispatch study.

    The fields are the case document's keys, in its order (see ``_record``);
    a document that leaves a key out gets the field default.
    """

    name: str = "unnamed"
    base_voltage_kv: float = field(default=0.4, metadata={"key": "base.voltage_kv"})
    base_power_kva: float = field(default=100.0, metadata={"key": "base.power_kva"})
    horizon: int = 24
    period_hours: float = 1.0
    voltage_limits: Tuple[float, float] = field(
        default=(0.95, 1.05), metadata={"key": ("voltage_limits.min", "voltage_limits.max")}
    )
    grid_limit_kw: float = field(metadata={"key": "grid.import_limit_kw"})
    prices_ct_per_kwh: Tuple[float, ...] = field(metadata={"key": "grid.price_ct_per_kwh"})
    export_limit_kw: Optional[float] = field(default=None, metadata={"key": "grid.export_limit_kw"})
    buses: Tuple[Bus, ...]
    branches: Tuple[Branch, ...]
    load_points: Tuple[LoadPoint, ...] = field(metadata={"key": "loads"})
    units: Tuple[DgUnit, ...] = ()
    availability_kw: Dict[str, Tuple[float, ...]] = field(default_factory=dict, metadata={"key": "availability"})
    contingencies: Tuple[Contingency, ...] = ()
    outage_costs: OutageCostTable = field(default_factory=lambda: OutageCostTable({}))
    battery: Optional[Battery] = None
    weights: Optional[Tuple[float, float, float, float]] = None
    judgment_matrix: Optional[Tuple[Tuple[float, ...], ...]] = None
    dr: Optional[DrProgram] = field(default=None, metadata={"key": "demand_response"})

    @property
    def z_base_ohm(self) -> float:
        return 1000.0 * self.base_voltage_kv ** 2 / self.base_power_kva

    @property
    def slack_bus(self) -> str:
        for bus in self.buses:
            if bus.kind == "slack":
                return bus.id
        raise CaseError("case has no slack bus")

    @property
    def effective_export_limit_kw(self) -> float:
        """Export bound on the grid tie; defaults to the import limit."""
        return self.grid_limit_kw if self.export_limit_kw is None else self.export_limit_kw

    def bus_ids(self) -> Tuple[str, ...]:
        return tuple(b.id for b in self.buses)

    def unit(self, name: str) -> DgUnit:
        for u in self.units:
            if u.name == name:
                return u
        raise KeyError(name)

    def total_load_kw(self, hour: int) -> float:
        return sum(lp.profile_kw[hour] for lp in self.load_points)

    def peak_load_kw(self) -> float:
        return max(self.total_load_kw(t) for t in range(self.horizon))

    def unit_cap_kw(self, unit: DgUnit, hour: int) -> float:
        """Upper dispatch bound for a unit at one hour: a renewable's
        availability within its nameplate, a dispatchable's nameplate."""
        if unit.renewable:
            return min(self.availability_kw[unit.name][hour], unit.p_max_kw)
        return unit.p_max_kw


def validate_radial(buses: Sequence[Bus], branches: Sequence[Branch]) -> List[Branch]:
    """Check the network is a tree rooted at a single slack bus.

    Returns the branches reoriented parent-to-child and ordered so that each
    branch's to_bus subtree appears before the branch itself (the backward
    sweep order).  Raises ``CaseError`` on multiple or missing slacks,
    unknown bus references, cycles or disconnected buses.
    """
    ids = [b.id for b in buses]
    if len(set(ids)) != len(ids):
        raise CaseError("duplicate bus ids")
    slacks = [b.id for b in buses if b.kind == "slack"]
    if len(slacks) != 1:
        raise CaseError(f"exactly one slack bus required, found {len(slacks)}")
    for b in buses:
        if b.kind not in BUS_KINDS:
            raise CaseError(f"bus {b.id!r} has unknown kind {b.kind!r}")

    known = set(ids)
    adjacency: Dict[str, List[Branch]] = {i: [] for i in ids}
    branch_ids = set()
    for br in branches:
        if br.id in branch_ids:
            raise CaseError(f"duplicate branch id {br.id!r}")
        branch_ids.add(br.id)
        if br.from_bus not in known or br.to_bus not in known:
            raise CaseError(f"branch {br.id!r} references unknown bus")
        if br.from_bus == br.to_bus:
            raise CaseError(f"branch {br.id!r} is a self loop")
        if br.resistance_ohm < 0 or br.reactance_ohm < 0:
            raise CaseError(f"branch {br.id!r} has negative impedance")
        if br.resistance_ohm == 0 and br.reactance_ohm == 0:
            raise CaseError(f"branch {br.id!r} has zero impedance")
        adjacency[br.from_bus].append(br)
        adjacency[br.to_bus].append(br)

    # Depth-first with an explicit stack, so a deep feeder cannot hit the
    # recursion limit.  A frame is (bus, branch it was reached by, that branch
    # oriented parent-to-child, the rest of the bus's branches); the oriented
    # branch is emitted once its frame is done.
    visited = {slacks[0]}
    ordered: List[Branch] = []
    stack = [(slacks[0], None, None, iter(adjacency[slacks[0]]))]
    while stack:
        bus, via, oriented, pending = stack[-1]
        for br in pending:
            if br is not via:
                child = br.to_bus if br.from_bus == bus else br.from_bus
                if child in visited:
                    raise CaseError(f"network has a cycle through branch {br.id!r}")
                visited.add(child)
                down = br if br.from_bus == bus else replace(br, from_bus=bus, to_bus=child)
                stack.append((child, br, down, iter(adjacency[child])))
                break
        else:
            stack.pop()
            if oriented is not None:
                ordered.append(oriented)
    if len(visited) != len(ids):
        missing = sorted(set(ids) - visited)
        raise CaseError(f"buses not connected to the slack: {missing}")
    return ordered


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CaseError(message)


def validate_case(case: MicrogridCase) -> MicrogridCase:
    """Full semantic validation; returns the case unchanged when sound."""
    T = case.horizon
    _require(T >= 1, "horizon must be at least 1")
    _require(case.period_hours > 0, "period_hours must be positive")
    _require(case.base_voltage_kv > 0 and case.base_power_kva > 0, "bases must be positive")
    vmin, vmax = case.voltage_limits
    _require(0 < vmin < 1 < vmax, "voltage limits must bracket 1.0 pu")
    _require(case.grid_limit_kw > 0, "grid import limit must be positive")
    if case.export_limit_kw is not None:
        _require(case.export_limit_kw >= 0, "grid export limit must be non-negative")

    validate_radial(case.buses, case.branches)
    bus_ids = set(case.bus_ids())
    branch_ids = {b.id for b in case.branches}

    _require(len(case.prices_ct_per_kwh) == T, "price series length must equal the horizon")

    for lp in case.load_points:
        _require(lp.bus in bus_ids, f"load point references unknown bus {lp.bus!r}")
        _require(lp.category in LOAD_CATEGORIES, f"unknown load category {lp.category!r}")
        _require(len(lp.profile_kw) == T, f"load profile at {lp.bus!r} must have {T} entries")
        _require(all(p >= 0 for p in lp.profile_kw), f"load profile at {lp.bus!r} has negative entries")
        _require(0 < lp.power_factor <= 1, f"load at {lp.bus!r} needs power factor in (0, 1]")
        case.outage_costs.cost(lp.category, 1.0)

    seen_units = set()
    for u in case.units:
        _require(u.name not in seen_units, f"duplicate unit name {u.name!r}")
        seen_units.add(u.name)
        _require(u.bus in bus_ids, f"unit {u.name!r} references unknown bus {u.bus!r}")
        _require(0 <= u.p_min_kw <= u.p_max_kw, f"unit {u.name!r} has inconsistent power limits")
        if u.renewable:
            profile = case.availability_kw.get(u.name)
            _require(profile is not None, f"renewable unit {u.name!r} has no availability profile")
            _require(len(profile) == T, f"availability for {u.name!r} must have {T} entries")  # type: ignore[arg-type]
            _require(
                all(0 <= a <= u.p_max_kw + 1e-9 for a in profile),  # type: ignore[union-attr]
                f"availability for {u.name!r} must stay within [0, p_max]",
            )
    for name in case.availability_kw:
        _require(name in seen_units, f"availability profile for unknown unit {name!r}")
        _require(case.unit(name).renewable, f"unit {name!r} is not renewable but has availability")

    if case.battery is not None:
        b = case.battery
        _require(b.bus in bus_ids, f"battery references unknown bus {b.bus!r}")
        _require(0 <= b.soc_min_kwh < b.soc_max_kwh, "battery SOC bounds are inconsistent")
        _require(b.soc_min_kwh <= b.soc_initial_kwh <= b.soc_max_kwh, "battery initial SOC out of bounds")
        _require(b.p_max_kw > 0, "battery power limit must be positive")
        _require(0 < b.eta_charge <= 1 and 0 < b.eta_discharge <= 1, "battery efficiencies must be in (0, 1]")
        _require(0 <= b.self_discharge_per_h < 1, "battery self-discharge must be in [0, 1)")
        _require(b.usage_cost_ct_per_kwh >= 0, "battery usage cost must be non-negative")

    seen_cont = set()
    for c in case.contingencies:
        _require(c.id not in seen_cont, f"duplicate contingency id {c.id!r}")
        seen_cont.add(c.id)
        _require(
            c.element == TRANSFORMER_ELEMENT or c.element in branch_ids,
            f"contingency {c.id!r} references unknown element {c.element!r}",
        )
        _require(c.rate_per_hour >= 0, f"contingency {c.id!r} has negative failure rate")
        _require(c.repair_hours > 0, f"contingency {c.id!r} needs positive repair time")

    if case.weights is not None:
        _require(len(case.weights) == 4, "weights must have four entries")
        _require(all(w >= 0 for w in case.weights), "weights must be non-negative")
        _require(abs(sum(case.weights) - 1.0) <= 1e-9, "weights must sum to 1")
    if case.judgment_matrix is not None:
        n = len(case.judgment_matrix)
        _require(n == 4, "judgment matrix must be 4x4")
        _require(all(len(row) == n for row in case.judgment_matrix), "judgment matrix must be square")
        try:
            validate_matrix(case.judgment_matrix)
        except ValueError as exc:
            raise CaseError(f"judgment_matrix: {exc}") from None
    if case.dr is not None:
        _require(0 <= case.dr.shiftable_fraction < 1, "shiftable fraction must be in [0, 1)")
        _require(len(case.dr.participating) > 0, "DR program needs participating categories")
        for cat in case.dr.participating:
            _require(cat in LOAD_CATEGORIES, f"unknown DR category {cat!r}")
        _require(case.dr.incentive_ct_per_kwh >= 0, "DR incentive must be non-negative")
    return case


@lru_cache(maxsize=None)
def _hints(cls: type) -> Dict[str, object]:
    return get_type_hints(cls)


def _number(kind, value, path: str):
    """A number read from the case document at ``path``.

    Every number in a case must be finite, with one exception:
    ``grid.export_limit_kw`` may be ``.inf``, meaning no export limit.
    """
    number = float(value)
    if not (math.isfinite(number) or (path == "grid.export_limit_kw" and number == math.inf)):
        raise CaseError(f"{path} must be a finite number, got {value!r}")
    return kind(value)


def _shaped(value, kind, noun: str, path: str):
    """The parsed YAML value at ``path`` if it is a ``kind``, the
    container the document needs there; else an error naming the key."""
    if not isinstance(value, kind):
        raise CaseError(f"malformed case document: {path!r} must be a {noun}, got {value!r}")
    return value


def _coerce(kind, value, path: str):
    """Convert the parsed YAML value at ``path`` to an annotated type: a
    record or scalar type, ``Optional[X]``, ``Tuple[X, ...]`` or
    ``Dict[K, V]``.  The outage cost table reads its own mapping form."""
    if kind is OutageCostTable:
        return OutageCostTable.from_mapping(_shaped(value, dict, "mapping", path))
    if isinstance(kind, type):
        if is_dataclass(kind):
            return _record(kind, value, path)
        return _number(kind, value, path) if kind in (int, float) else kind(value)
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:
        return None if value is None else _coerce(args[0], value, path)
    if origin is tuple:
        items = _shaped(value, (list, tuple), "list", path)
        return tuple(_coerce(args[0], v, f"{path}[{i}]") for i, v in enumerate(items))
    return {args[0](k): _coerce(args[1], v, f"{path}.{k}") for k, v in _shaped(value, dict, "mapping", path).items()}


def _keys(f) -> Tuple[str, ...]:
    """A field's keys in its mapping: its ``key`` metadata, else its name; a
    tuple of keys holds the items of a tuple field."""
    key = f.metadata.get("key", f.name)
    return key if isinstance(key, tuple) else (key,)


def _record(cls, raw, path: str):
    """Build a record from its YAML mapping at ``path``.

    A field's key (``_keys``) is dotted where it sits in a section of the
    mapping, as ``grid.import_limit_kw`` does.  The type is the field
    annotation, and a field whose keys are all missing takes its
    ``default`` metadata, then the field default.  A key that names no
    field is rejected, so a misspelt optional cannot pass as its default.
    The case document is the record at path ''; its errors name the dotted
    key.
    """
    if not isinstance(raw, dict):
        raise CaseError(f"malformed case document: {path!r}: {cls.__name__} record must be a mapping, got {raw!r}")
    what = f"{cls.__name__} record" if path else "case document"
    lacks = f"{what} lacks required key" if path else "missing required field"
    keys = {f.name: _keys(f) for f in fields(cls)}
    known = {key for ks in keys.values() for key in ks}
    sections = {key.split(".")[0] for key in known if "." in key}
    flat = {}
    for key, value in raw.items():
        if key in sections:
            section = _shaped(value, dict, "mapping", f"{path}.{key}" if path else key)
            flat.update({f"{key}.{k}": v for k, v in section.items()})
        else:
            flat[key] = value
    for key in flat:
        if key not in known:
            raise CaseError(f"{what} has unknown key {key!r}")
    values = {}
    for f in fields(cls):
        ks, hint = keys[f.name], _hints(cls)[f.name]
        absent = [key for key in ks if key not in flat]
        if len(absent) == len(ks):
            if "default" in f.metadata:
                values[f.name] = f.metadata["default"]
            elif f.default is MISSING and f.default_factory is MISSING:
                raise CaseError(f"{lacks} {ks[0]!r}")
            continue
        if absent:
            raise CaseError(f"{lacks} {absent[0]!r}")
        kinds = get_args(hint) if len(ks) > 1 else (hint,)
        items = tuple(_coerce(kind, flat[key], f"{path}.{key}" if path else key) for kind, key in zip(kinds, ks))
        values[f.name] = items if len(ks) > 1 else items[0]
    return cls(**values)


def _plain(value):
    """YAML form of a value: a record becomes a mapping of its fields under
    their keys (``_record``), the outage cost table its own mapping, a
    mapping drops its ``None`` entries (unset optionals), and a tuple
    becomes a list."""
    if isinstance(value, OutageCostTable):
        value = value.to_mapping()
    elif is_dataclass(value):
        doc: Dict[str, object] = {}
        for f in fields(value):
            ks, item = _keys(f), getattr(value, f.name)
            for key, part in zip(ks, item if len(ks) > 1 else (item,)):
                section, _, name = key.rpartition(".")
                (doc.setdefault(section, {}) if section else doc)[name] = part
        value = doc
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items() if v is not None}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def case_from_dict(doc: Dict) -> MicrogridCase:
    """Build and validate a case from a parsed YAML document."""
    if not isinstance(doc, dict):
        raise CaseError("case document must be a mapping")
    version = doc.get("format_version")
    if version != CASE_FORMAT_VERSION:
        raise CaseError(f"unsupported case format_version {version!r}, expected {CASE_FORMAT_VERSION}")
    try:
        case = _record(MicrogridCase, {k: v for k, v in doc.items() if k != "format_version"}, "")
    except CaseError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise CaseError(f"malformed case document: {exc}") from exc
    return validate_case(case)


def case_to_dict(case: MicrogridCase) -> Dict:
    """Inverse of case_from_dict; round-trips through YAML without loss."""
    return {"format_version": CASE_FORMAT_VERSION, **_plain(case)}


# libyaml's parser where PyYAML was built with it: the same document, parsed
# several times faster than by the pure-Python SafeLoader.
_CASE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_case(path) -> MicrogridCase:
    """Read and validate a case file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_CASE_LOADER)
        except yaml.YAMLError as exc:
            raise CaseError(f"cannot parse case file: {exc}") from exc
    return case_from_dict(doc)


def save_case(case: MicrogridCase, path) -> None:
    """Write a case file that load_case reads back structurally identical."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(case_to_dict(case), fh, sort_keys=False, default_flow_style=None)


def benchmark_case_path() -> str:
    """Filesystem path of the packaged benchmark case."""
    return str(resources.files(__package__).joinpath("data/benchmark.case"))


def load_benchmark_case() -> MicrogridCase:
    return load_case(benchmark_case_path())
