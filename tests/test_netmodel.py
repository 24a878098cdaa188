import copy
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from mgopt.cli import EXIT_VALIDATION, main
from mgopt.netmodel import (
    Battery,
    Branch,
    Bus,
    CaseError,
    Contingency,
    DgUnit,
    DrProgram,
    LoadPoint,
    MicrogridCase,
    OutageCostTable,
    _keys,
    _record,
    benchmark_case_path,
    case_from_dict,
    case_to_dict,
    load_benchmark_case,
    load_case,
    save_case,
    validate_case,
    validate_radial,
)

from oracles import random_feeder_with_empty_buses, random_radial_network, recursive_radial_order, sectioned_case


def test_benchmark_case_shape(benchmark_case):
    case = benchmark_case
    assert len(case.buses) == 14
    assert len(case.branches) == 13
    assert len(case.load_points) == 12
    assert [u.name for u in case.units] == ["PV1", "PV2", "WT", "MT", "FC"]
    assert case.battery is not None and case.battery.bus == "f1-2"
    assert case.slack_bus == "mv"
    assert case.horizon == 24
    assert len(case.prices_ct_per_kwh) == 24
    assert case.dr is not None and case.dr.shiftable_fraction == 0.15
    assert case.judgment_matrix is not None and case.weights is None


def test_round_trip(tmp_path, benchmark_case):
    path = tmp_path / "copy.case"
    save_case(benchmark_case, path)
    again = load_case(path)
    assert again == benchmark_case


def test_dict_round_trip(benchmark_case):
    assert case_from_dict(case_to_dict(benchmark_case)) == benchmark_case


def _square(n=4):
    buses = [Bus("s", "slack")] + [Bus(f"b{i}") for i in range(1, n)]
    branches = [Branch(f"l{i}", "s" if i == 1 else f"b{i-1}", f"b{i}", 0.01, 0.01) for i in range(1, n)]
    return buses, branches


def test_radial_ordering_children_first():
    buses = [Bus("s", "slack"), Bus("a"), Bus("b"), Bus("c")]
    branches = [
        Branch("sa", "s", "a", 0.01, 0.01),
        Branch("ab", "a", "b", 0.01, 0.01),
        Branch("ac", "a", "c", 0.01, 0.01),
    ]
    ordered = validate_radial(buses, branches)
    position = {br.id: i for i, br in enumerate(ordered)}
    assert position["ab"] < position["sa"]
    assert position["ac"] < position["sa"]
    for br in ordered:
        assert br.from_bus in {"s", "a"}


def test_radial_reorients_flipped_branch():
    buses = [Bus("s", "slack"), Bus("a")]
    ordered = validate_radial(buses, [Branch("x", "a", "s", 0.01, 0.0)])
    assert ordered[0].from_bus == "s" and ordered[0].to_bus == "a"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda b, l: (b + [Bus("s2", "slack")], l), "exactly one slack"),
        (lambda b, l: (b, l + [Branch("dup", "s", "b1", 0.01, 0.01)]), "cycle"),
        (lambda b, l: (b + [Bus("iso")], l), "not connected"),
        (lambda b, l: (b, l[:-1] + [replace(l[-1], resistance_ohm=0.0, reactance_ohm=0.0)]), "zero impedance"),
        (lambda b, l: (b, l + [Branch("l1", "b1", "b2", 0.01, 0.01)]), "duplicate branch"),
        (lambda b, l: (b, l[:-1] + [Branch("bad", "b2", "nope", 0.01, 0.01)]), "unknown bus"),
    ],
)
def test_radial_rejects(mutate, message):
    buses, branches = _square()
    buses, branches = mutate(buses, branches)
    with pytest.raises(CaseError, match=message):
        validate_radial(buses, branches)


def test_validate_rejects_bad_fields(benchmark_case):
    case = benchmark_case
    with pytest.raises(CaseError, match="sum to 1"):
        validate_case(replace(case, weights=(0.5, 0.5, 0.5, 0.5)))
    with pytest.raises(CaseError, match="shiftable fraction"):
        validate_case(replace(case, dr=DrProgram(shiftable_fraction=1.0)))
    with pytest.raises(CaseError, match="unknown bus"):
        validate_case(replace(case, load_points=(LoadPoint("ghost", "domestic", (1.0,) * 24),)))
    with pytest.raises(CaseError, match="price series"):
        validate_case(replace(case, prices_ct_per_kwh=case.prices_ct_per_kwh[:-1]))
    with pytest.raises(CaseError, match="unknown element"):
        validate_case(replace(case, contingencies=(Contingency("c", "l-none", 0.1, 1.0),)))


def test_dr_fraction_zero_is_valid(benchmark_case):
    validate_case(replace(benchmark_case, dr=DrProgram(shiftable_fraction=0.0)))


def test_case_from_dict_errors():
    with pytest.raises(CaseError, match="format_version"):
        case_from_dict({"format_version": 99})
    with pytest.raises(CaseError, match="missing required field"):
        case_from_dict({"format_version": 1})
    with pytest.raises(CaseError, match="mapping"):
        case_from_dict([1, 2])


def test_outage_cost_steps():
    table = OutageCostTable.from_mapping({"domestic": 50.0, "industrial": [[2.0, 80.0], [8.0, 120.0]]})
    assert table.cost("domestic", 100.0) == 50.0
    assert table.cost("industrial", 1.0) == 80.0
    assert table.cost("industrial", 2.0) == 80.0
    assert table.cost("industrial", 4.0) == 120.0
    assert table.cost("industrial", 24.0) == 120.0
    with pytest.raises(CaseError, match="no outage cost"):
        table.cost("commercial", 1.0)
    with pytest.raises(CaseError, match="increase in duration"):
        OutageCostTable.from_mapping({"x": [[4.0, 1.0], [2.0, 2.0]]})
    round_tripped = OutageCostTable.from_mapping(table.to_mapping())
    assert round_tripped == table
    assert table.to_mapping()["domestic"] == 50.0


def test_effective_export_limit(benchmark_case):
    assert benchmark_case.effective_export_limit_kw == 120.0
    no_export = replace(benchmark_case, export_limit_kw=None)
    assert no_export.effective_export_limit_kw == no_export.grid_limit_kw


def test_unit_cap_uses_availability(benchmark_case):
    case = benchmark_case
    pv1 = case.unit("PV1")
    assert case.unit_cap_kw(pv1, 0) == 0.0
    assert case.unit_cap_kw(pv1, 12) == 25.0
    mt = case.unit("MT")
    assert case.unit_cap_kw(mt, 0) == 30.0
    assert math.isclose(case.peak_load_kw(), 162.8)


def test_benchmark_path_loads():
    case = load_benchmark_case()
    assert case.name == "lv-benchmark"


def _minimal_doc(n_buses=2):
    """A chain feeder document that sets every required key and no optional one."""
    return {
        "format_version": 1,
        "grid": {"import_limit_kw": 50.0, "price_ct_per_kwh": [5.0] * 24},
        "buses": [{"id": "b0", "kind": "slack"}] + [{"id": f"b{i}"} for i in range(1, n_buses)],
        "branches": [
            {"id": f"l{i}", "from": f"b{i-1}", "to": f"b{i}", "resistance_ohm": 0.01, "reactance_ohm": 0.01}
            for i in range(1, n_buses)
        ],
        "loads": [{"bus": "b1", "category": "domestic", "profile_kw": [1.0] * 24}],
        "units": [{"name": "MT", "bus": "b1", "p_max_kw": 10.0, "cost_slope_ct_per_kwh": 4.0}],
        "battery": {"bus": "b1", "soc_min_kwh": 1.0, "soc_max_kwh": 10.0, "soc_initial_kwh": 5.0, "p_max_kw": 3.0},
        "contingencies": [{"id": "c1", "element": "l1", "rate_per_hour": 0.01, "repair_hours": 2.0}],
        "demand_response": {},
        "outage_costs": {"domestic": 50.0},
    }


def test_omitted_record_keys_take_the_dataclass_defaults():
    case = case_from_dict(_minimal_doc())
    assert case.buses == (Bus("b0", "slack"), Bus("b1"))
    assert case.buses[1].kind == "load" and case.buses[1].base_voltage_kv is None
    assert case.branches == (Branch("l1", "b0", "b1", 0.01, 0.01),)
    assert case.load_points == (LoadPoint("b1", "domestic", (1.0,) * 24),)
    assert case.load_points[0].power_factor == 0.9
    assert case.units == (DgUnit("MT", "b1", 0.0, 10.0, 4.0),)
    assert case.units[0].p_min_kw == 0.0 and not case.units[0].committable
    assert case.battery == Battery("b1", 1.0, 10.0, 5.0, 3.0)
    assert case.contingencies == (Contingency("c1", "l1", 0.01, 2.0),)
    assert case.dr == DrProgram()


def test_record_values_take_their_annotated_types():
    doc = _minimal_doc()
    doc["buses"][0]["base_voltage_kv"] = 20
    doc["units"][0].update(p_max_kw=10, renewable=0)
    doc["demand_response"] = {"participating": ["domestic"], "incentive_ct_per_kwh": 2}
    case = case_from_dict(doc)
    assert type(case.buses[0].base_voltage_kv) is float
    assert type(case.units[0].p_max_kw) is float and case.units[0].renewable is False
    assert case.dr.participating == ("domestic",) and type(case.dr.incentive_ct_per_kwh) is float


@pytest.mark.parametrize(
    "kind, section, index, key",
    [
        ("Bus", "buses", 1, "id"),
        ("Branch", "branches", 0, "from"),
        ("Branch", "branches", 0, "reactance_ohm"),
        ("LoadPoint", "loads", 0, "profile_kw"),
        ("DgUnit", "units", 0, "p_max_kw"),
        ("Battery", "battery", None, "soc_initial_kwh"),
        ("Contingency", "contingencies", 0, "repair_hours"),
    ],
)
def test_missing_record_key_is_named(kind, section, index, key):
    doc = _minimal_doc()
    record = doc[section] if index is None else doc[section][index]
    del record[key]
    with pytest.raises(CaseError, match=f"{kind} record lacks required key '{key}'"):
        case_from_dict(doc)


@pytest.mark.parametrize(
    "kind, section, index",
    [
        ("Bus", "buses", 1),
        ("Branch", "branches", 0),
        ("LoadPoint", "loads", 0),
        ("DgUnit", "units", 0),
        ("Battery", "battery", None),
        ("Contingency", "contingencies", 0),
        ("DrProgram", "demand_response", None),
    ],
)
def test_record_that_is_not_a_mapping_is_named(kind, section, index):
    doc = _minimal_doc()
    if index is None:
        doc[section] = "oops"
    else:
        doc[section][index] = "oops"
    with pytest.raises(CaseError, match=f"{kind} record must be a mapping"):
        case_from_dict(doc)


# The case document's own keys, dotted inside its sections (grid, base and
# voltage_limits), as MicrogridCase declares them.
_DOC_KEYS = [key for f in fields(MicrogridCase) for key in _keys(f)]


def _misspelt(key):
    """``key`` with the letter before its last one dropped."""
    section, dot, name = key.rpartition(".")
    return section + dot + name[:-2] + name[-1]


_MISSPELT_KEYS = [("LoadPoint", "loads", "power_factr", 0.5), ("DgUnit", "units", "renewabel", True)] + [
    ("case document", *_misspelt(key).rpartition(".")[::2], 1.0) for key in _DOC_KEYS
]


def _with_unknown_key(kind, section, key, value):
    """The packaged document with ``key`` added to ``section`` (to its first
    record where the section is a list), and the message that must name it."""
    doc = _packaged_doc()
    target = doc[section] if section else doc
    (target[0] if isinstance(target, list) else target)[key] = value
    if kind == "case document":
        return doc, f"case document has unknown key '{section + '.' if section else ''}{key}'"
    return doc, f"{kind} record has unknown key '{key}'"


@pytest.mark.parametrize("kind, section, key, value", _MISSPELT_KEYS)
def test_unknown_record_key_is_rejected(kind, section, key, value):
    # Before, a misspelt optional key was dropped and its field took the default.
    doc, message = _with_unknown_key(kind, section, key, value)
    with pytest.raises(CaseError, match=re.escape(message)):
        case_from_dict(doc)


@pytest.mark.parametrize("kind, section, key, value", _MISSPELT_KEYS)
def test_validate_rejects_unknown_record_key(kind, section, key, value, tmp_path, capsys):
    doc, message = _with_unknown_key(kind, section, key, value)
    path = tmp_path / "misspelt.case"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def _top_level_table():
    """The rows of the top-level table in docs/case-format.md: key, whether
    it is required, and its default (``None`` for an optional key that is
    absent unless set)."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "case-format.md").read_text(encoding="utf-8")
    table = text.split("## Top level", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in table.splitlines():
        if line.startswith("| `"):
            key, required, default = (cell.strip() for cell in line.strip("|").split("|")[:3])
            rows.append((key.strip("`"), required == "yes", yaml.safe_load(default.strip("`")) if "`" in default else None))
    return rows


_TOP_LEVEL = _top_level_table()


def test_the_top_level_table_lists_every_key_the_reader_knows():
    assert {key for key, _, _ in _TOP_LEVEL} == {"format_version"} | {key.split(".")[0] for key in _DOC_KEYS}


@pytest.mark.parametrize("key, required, default", _TOP_LEVEL[1:], ids=[key for key, _, _ in _TOP_LEVEL[1:]])
def test_an_omitted_top_level_key_reads_as_documented(key, required, default):
    doc = _packaged_doc()
    del doc["format_version"]
    doc.pop(key, None)
    if required:
        with pytest.raises(CaseError, match=re.escape(f"missing required field '{key}")):
            _record(MicrogridCase, doc, "")
    elif default is None:
        assert key not in case_to_dict(_record(MicrogridCase, doc, ""))
    else:
        assert _record(MicrogridCase, doc, "") == _record(MicrogridCase, {**doc, key: default}, "")


def _every_option_set(case):
    slack = replace(case.buses[0], base_voltage_kv=20.0)
    return validate_case(
        replace(
            case,
            buses=(slack,) + case.buses[1:],
            export_limit_kw=80.0,
            weights=(0.4, 0.3, 0.2, 0.1),
            dr=DrProgram(0.1, ("domestic", "commercial"), 1.5),
            outage_costs=OutageCostTable.from_mapping(
                {"domestic": [[1.0, 40.0], [4.0, 60.0]], "industrial": 120.0, "commercial": [[2.0, 80.0], [8.0, 95.0]]}
            ),
        )
    )


def _bare(case):
    return validate_case(
        replace(case, battery=None, dr=None, units=(), availability_kw={}, export_limit_kw=None, judgment_matrix=None)
    )


@pytest.mark.parametrize("variant", [_every_option_set, _bare])
def test_round_trips_keep_every_value(tmp_path, benchmark_case, variant):
    case = variant(benchmark_case)
    doc = case_to_dict(case)
    assert case_from_dict(copy.deepcopy(doc)) == case
    path = tmp_path / "copy.case"
    save_case(case, path)
    assert load_case(path) == case
    optional = {"battery", "weights", "judgment_matrix", "demand_response"}
    if variant is _bare:
        assert not optional & doc.keys() and "export_limit_kw" not in doc["grid"] and doc["units"] == []
    else:
        assert optional <= doc.keys() and doc["grid"]["export_limit_kw"] == 80.0
        assert doc["buses"][0]["base_voltage_kv"] == 20.0 and "base_voltage_kv" not in doc["buses"][1]


_NON_FINITE_FIELDS = [
    (("grid", "price_ct_per_kwh", 0), math.nan, "grid.price_ct_per_kwh[0]"),
    (("grid", "price_ct_per_kwh", 7), math.inf, "grid.price_ct_per_kwh[7]"),
    (("loads", 0, "profile_kw", 5), math.inf, "loads[0].profile_kw[5]"),
    (("units", 3, "cost_slope_ct_per_kwh"), math.nan, "units[3].cost_slope_ct_per_kwh"),
    (("units", 4, "p_max_kw"), math.inf, "units[4].p_max_kw"),
    (("battery", "p_max_kw"), math.inf, "battery.p_max_kw"),
    (("branches", 2, "resistance_ohm"), math.nan, "branches[2].resistance_ohm"),
    (("branches", 2, "resistance_ohm"), math.inf, "branches[2].resistance_ohm"),
    (("outage_costs", "domestic"), math.nan, "outage_costs.domestic"),
    (("judgment_matrix", 1, 2), math.nan, "judgment_matrix[1][2]"),
    (("contingencies", 0, "repair_hours"), math.inf, "contingencies[0].repair_hours"),
    (("grid", "import_limit_kw"), math.inf, "grid.import_limit_kw"),
    (("base", "power_kva"), math.inf, "base.power_kva"),
    (("horizon",), math.inf, "horizon"),
]


def _packaged_doc():
    with open(benchmark_case_path(), encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


@pytest.mark.parametrize("keys, value, field", _NON_FINITE_FIELDS, ids=[f"{f}={v}" for _, v, f in _NON_FINITE_FIELDS])
def test_validate_rejects_non_finite_number(keys, value, field, tmp_path, capsys):
    # Before, each of these loaded (and a nan price optimised to a cost of
    # LARGE_OBJECTIVE); an infinite horizon ended in an OverflowError.
    doc = _packaged_doc()
    _set(doc, keys, value)
    with pytest.raises(CaseError, match=re.escape(f"{field} must be a finite number")):
        case_from_dict(copy.deepcopy(doc))
    path = tmp_path / "non-finite.case"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and field in captured.err


_BAD_JUDGMENTS = [
    ((1, 0), -3.0, "positive and finite"),
    ((1, 0), 0.0, "positive and finite"),
    ((2, 3), 4.0, "reciprocal"),
]


@pytest.mark.parametrize("cell, value, rule", _BAD_JUDGMENTS, ids=[f"{c}={v}" for c, v, _ in _BAD_JUDGMENTS])
def test_validate_rejects_bad_judgment_matrix(cell, value, rule, tmp_path, capsys):
    # Before, only the matrix's shape was checked at load: the case passed
    # validate, and optimize --scenario 5 failed later.
    doc = _packaged_doc()
    doc["judgment_matrix"][cell[0]][cell[1]] = value
    with pytest.raises(CaseError, match=f"judgment_matrix: .*{rule}"):
        case_from_dict(copy.deepcopy(doc))
    path = tmp_path / "judgments.case"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and "judgment_matrix" in captured.err


def test_infinite_export_limit_means_no_limit(tmp_path, benchmark_case):
    doc = _packaged_doc()
    doc["grid"]["export_limit_kw"] = math.inf
    case = case_from_dict(doc)
    assert case == replace(benchmark_case, export_limit_kw=math.inf)
    assert case.effective_export_limit_kw == math.inf
    path = tmp_path / "no-export-limit.case"
    save_case(case, path)
    assert load_case(path) == case
    doc["grid"]["export_limit_kw"] = math.nan
    with pytest.raises(CaseError, match="grid.export_limit_kw must be a finite number"):
        case_from_dict(doc)


def test_packaged_and_sectioned_cases_load_unchanged(benchmark_case):
    assert case_from_dict(_packaged_doc()) == benchmark_case
    sectioned = sectioned_case(benchmark_case, 4)
    assert case_from_dict(case_to_dict(sectioned)) == sectioned


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_libyaml_and_python_loaders_read_the_same_document(tmp_path, benchmark_case):
    path = tmp_path / "sectioned.case"
    save_case(sectioned_case(benchmark_case, 4), path)
    for case_file in (benchmark_case_path(), path):
        text = Path(case_file).read_text(encoding="utf-8")
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


def test_validate_rejects_unparsable_yaml(tmp_path, capsys):
    path = tmp_path / "broken.case"
    path.write_text("format_version: 1\ngrid: {import_limit_kw: [300.0\n", encoding="utf-8")
    with pytest.raises(CaseError, match="cannot parse case file"):
        load_case(path)
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    assert "cannot parse case file" in capsys.readouterr().err


def test_deep_chain_walks_without_recursion():
    # 2,000 tree levels: one interpreter frame per level would pass the
    # default recursion limit of 1,000.
    case = case_from_dict(_minimal_doc(n_buses=2000))
    ordered = validate_radial(case.buses, case.branches)
    assert ordered == list(reversed(case.branches))


def _tree_case(rng, make_tree):
    """A random tree with branches listed in random order, some reversed."""
    n, edges, _ = make_tree(rng, 12)
    buses = [Bus("b0", "slack")] + [Bus(f"b{i}") for i in range(1, n)]
    branches = []
    for j, (parent, child, _) in enumerate(edges):
        ends = (f"b{parent}", f"b{child}") if rng.random() < 0.7 else (f"b{child}", f"b{parent}")
        branches.append(Branch(f"l{j}", *ends, 0.01, 0.01))
    return buses, [branches[k] for k in rng.permutation(len(branches))]


def test_radial_order_matches_the_recursive_walk(benchmark_case):
    trees = [(benchmark_case.buses, benchmark_case.branches)]
    sectioned = sectioned_case(benchmark_case, 4)
    trees.append((sectioned.buses, sectioned.branches))
    rng = np.random.default_rng(11)
    for k in range(200):
        trees.append(_tree_case(rng, random_radial_network if k % 2 else random_feeder_with_empty_buses))
    for buses, branches in trees:
        assert validate_radial(buses, branches) == recursive_radial_order(buses, branches)


def test_section_of_the_wrong_shape_is_a_case_error():
    doc = _minimal_doc()
    doc["availability"] = None
    with pytest.raises(CaseError, match="malformed case document"):
        case_from_dict(doc)


def _dotted(path):
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)[1:]


_WRONG_SHAPES = [
    (("grid",), 5),
    (("availability",), None),
    (("outage_costs",), 5),
    (("loads",), 5),
    (("demand_response", "participating"), "domestic"),
    (("loads", 0, "profile_kw"), None),
    (("battery",), 5),
    (("loads", 0), 5),
]


@pytest.mark.parametrize("path, value", _WRONG_SHAPES, ids=[_dotted(path) for path, _ in _WRONG_SHAPES])
def test_a_section_or_list_of_the_wrong_shape_is_named(path, value):
    doc = _minimal_doc()
    doc["availability"] = {"MT": [1.0] * 24}
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    with pytest.raises(CaseError, match=f"^malformed case document: {re.escape(repr(_dotted(path)))}:? "):
        case_from_dict(doc)
