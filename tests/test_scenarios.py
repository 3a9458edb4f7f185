import json

import numpy as np
import pytest

from wcelab.operator import WeightedCondExpOperator
from wcelab.scenarios import (
    SCENARIO_BUILDERS,
    ScenarioParameterError,
    SpaceFileError,
    build_block_partition,
    build_full_algebra,
    build_geometric_blowup,
    build_poisson_parity,
    build_product_grid,
    build_scenario,
    build_symmetric_interval,
    build_trivial_algebra,
    geometric_blowup_spec,
    load_space_file,
    poisson_parity_spec,
)


def test_registry_defaults_all_build():
    for name in SCENARIO_BUILDERS:
        sc = build_scenario(name)
        assert sc.space.n == sc.partition.n == sc.symbol.n
        # every scenario must produce a constructible operator
        WeightedCondExpOperator(sc.space, sc.partition, sc.symbol)


def test_builders_deterministic():
    a = build_scenario("symmetric-interval", {"N": 16})
    b = build_scenario("symmetric-interval", {"N": 16})
    assert np.array_equal(a.space.masses, b.space.masses)
    assert np.array_equal(a.symbol.values, b.symbol.values)


def test_unknown_scenario_and_parameter_rejected():
    with pytest.raises(ScenarioParameterError):
        build_scenario("no-such-scenario")
    with pytest.raises(ScenarioParameterError):
        build_scenario("full-algebra", {"bogus": 1})


def test_full_vs_trivial_partitions():
    full = build_full_algebra(5)
    assert full.partition.is_singletons
    triv = build_trivial_algebra(5)
    assert triv.partition.atom_count == 1


def test_block_partition_shape():
    sc = build_block_partition(8, 3)
    assert sc.partition.atom_count == 3
    # contiguous blocks
    assert list(sc.partition.atom_of) == sorted(sc.partition.atom_of)
    with pytest.raises(ScenarioParameterError):
        build_block_partition(3, 5)


def test_product_grid_structure():
    m = 5
    sc = build_product_grid(m)
    assert sc.space.n == m * m
    assert sc.partition.atom_count == m
    # atoms are rows of constant first coordinate
    for a in range(m):
        idx = sc.partition.atom_of == a
        assert len(set(sc.space.labels[idx, 0])) == 1
    # default symbol is the second coordinate
    assert np.allclose(sc.symbol.values.real, sc.space.labels[:, 1])


def test_symmetric_interval_mirror_pairing():
    N = 10
    sc = build_symmetric_interval(N)
    x = sc.space.labels[:, 0]
    assert np.allclose(x + x[::-1], 0.0)  # symmetric nodes
    assert np.array_equal(sc.partition.atom_of, sc.partition.atom_of[::-1])
    with pytest.raises(ScenarioParameterError):
        build_symmetric_interval(7)  # odd N breaks the pairing


def test_symmetric_interval_averaging_identities_exact():
    sc = build_symmetric_interval(64)
    T = WeightedCondExpOperator(sc.space, sc.partition, sc.symbol)
    x, atom_of = sc.space.labels[:, 0], sc.partition.atom_of
    assert np.max(np.abs(T.atom_mean[atom_of] - np.cosh(x))) < 1e-14
    assert np.max(np.abs(T.atom_sq_mean[atom_of] - np.cosh(2 * x))) < 1e-14


def test_poisson_truncation_and_atoms():
    sc = build_poisson_parity(1.0)
    # atom of point i follows parity with 0 split off
    spec = poisson_parity_spec(1.0)
    assert spec.atom_of(0) == "zero"
    assert spec.atom_of(3) == "odd"
    assert spec.atom_of(4) == "even"
    # the symbol grows, so the weighted cut keeps at least as many points
    # as the plain-mass cut
    from wcelab.measure import truncate

    plain = truncate(spec, 1e-12)
    assert sc.space.n >= plain.size


def test_poisson_tail_bounds_are_honest():
    spec = poisson_parity_spec(1.0)
    for N in (5, 10, 20):
        actual = sum(spec.mass_at(i) for i in range(N, N + 300))
        assert actual <= spec.tail_bound(N)
        actual_w = sum(spec.mass_at(i) * i * i for i in range(N, N + 300))
        assert actual_w <= spec.weighted_tail_bound(N)


def test_geometric_blowup_scenario():
    sc = build_geometric_blowup()
    assert sc.partition.atom_count == 1
    spec = geometric_blowup_spec()
    assert "all" in spec.divergent_atoms
    # witness really reaches its target
    for target in (1e3, 1e6):
        upto = spec.divergent_atoms["all"](target)
        partial = sum(spec.mass_at(i) * abs(spec.symbol_at(i)) ** 2 for i in range(upto + 1))
        assert partial >= target


# ------------------------------------------------------------------ space files


def write_doc(tmp_path, doc, name="space.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def valid_doc():
    return {
        "name": "demo",
        "points": [
            {"weight": 0.25, "label": [0.0]},
            {"weight": 0.25, "label": [0.5]},
            {"weight": 0.5, "label": [1.0]},
        ],
        "atoms": [[0, 1], [2]],
        "u": {"values": [[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]]},
    }


def test_load_valid_space_file(tmp_path):
    sc = load_space_file(write_doc(tmp_path, valid_doc()))
    assert sc.name == "demo"
    assert sc.space.n == 3
    assert sc.partition.atom_count == 2
    assert sc.symbol.values[2] == 2.0 - 1.0j
    assert np.allclose(sc.space.labels[:, 0], [0.0, 0.5, 1.0])


def test_builtin_symbols(tmp_path):
    doc = valid_doc()
    doc["u"] = {"builtin": "exp_label0"}
    sc = load_space_file(write_doc(tmp_path, doc))
    assert np.allclose(sc.symbol.values.real, np.exp([0.0, 0.5, 1.0]))

    doc["u"] = {"builtin": "identity_label0"}
    sc = load_space_file(write_doc(tmp_path, doc))
    assert np.allclose(sc.symbol.values.real, [0.0, 0.5, 1.0])

    doc["u"] = {"builtin": "sign_alternating"}
    sc = load_space_file(write_doc(tmp_path, doc))
    assert np.allclose(sc.symbol.values.real, [1.0, -1.0, 1.0])


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("points"),
        lambda d: d.pop("atoms"),
        lambda d: d.pop("u"),
        lambda d: d["points"].clear(),
        lambda d: d["points"][0].update(weight=-1.0),
        lambda d: d["points"][0].update(weight=0.0),
        lambda d: d["points"][0].pop("label"),  # mixed labelling
        lambda d: d["atoms"].__setitem__(0, [0, 1, 2]),  # overlap with atom 1
        lambda d: d["atoms"].__setitem__(1, []),  # empty atom + uncovered point
        lambda d: d["atoms"].__setitem__(1, [5]),  # index out of range
        lambda d: d["atoms"].__setitem__(1, [2.0]),  # non-integer index
        lambda d: d["atoms"].append([]),  # trailing empty atom
        lambda d: d["u"].update(builtin="exp_label0"),  # both values and builtin
        lambda d: d["u"]["values"].pop(),  # wrong length
        lambda d: d.update(u={"builtin": "no-such"}),
        lambda d: d["points"][0].update(label=5),  # label not a list
        lambda d: d["points"][0].update(label=[0.0, 1.0]),  # labels of unequal length
        lambda d: d["points"][0].update(label=["a"]),  # non-numeric label
        lambda d: (  # empty labels for a builtin that reads label[0]
            [p.update(label=[]) for p in d["points"]],
            d.update(u={"builtin": "exp_label0"}),
        ),
        lambda d: d["points"][0].update(weight=True),  # boolean weight
        lambda d: d["points"][0].update(weight=float("inf")),
        lambda d: d.update(u={"values": 5}),  # values not a list
        lambda d: d["points"][0].update(weight=10**400),  # beyond float range
        lambda d: d["u"]["values"].__setitem__(0, [float("inf"), 0.0]),
        lambda d: d["u"]["values"].__setitem__(0, [1.0]),  # not a pair
        lambda d: d["u"]["values"].__setitem__(0, [1e200, 0.0]),  # |u|^2 overflows
        lambda d: (  # exp of a large label: |u|^2 overflows
            d["points"][0].update(label=[400.0]),
            d.update(u={"builtin": "exp_label0"}),
        ),
        lambda d: d.update(  # the total weight overflows
            points=[{"weight": 1e308}, {"weight": 1e308}, {"weight": 1}],
            u={"values": [[1, 0], [2, 0], [3, 0]]},
        ),
        lambda d: d.update(  # the total weight is finite, weight * |u|^2 overflows
            points=[{"weight": 1e300}, {"weight": 1e300}, {"weight": 1}],
            u={"values": [[1e5, 0], [2e5, 0], [3, 0]]},
        ),
    ],
)
def test_invalid_space_files_rejected(tmp_path, mutate):
    doc = valid_doc()
    mutate(doc)
    with pytest.raises(SpaceFileError):
        load_space_file(write_doc(tmp_path, doc))


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(SpaceFileError):
        load_space_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpaceFileError):
        load_space_file(str(bad))


def test_builtin_needing_labels_without_labels(tmp_path):
    doc = valid_doc()
    for rec in doc["points"]:
        rec.pop("label")
    doc["u"] = {"builtin": "exp_label0"}
    with pytest.raises(SpaceFileError):
        load_space_file(write_doc(tmp_path, doc))
