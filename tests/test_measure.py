import math

import numpy as np
import pytest
from ess_range_reference import ess_range_reference
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wcelab.measure import (
    CountableSpaceSpec,
    DimensionMismatchError,
    FiniteMeasureSpace,
    MFunction,
    NotSummableError,
    Partition,
    ess_range,
    realize,
    support,
    truncate,
    weighted_inner_product,
)
from wcelab.sampling import random_operator


def uniform_space(n):
    return FiniteMeasureSpace(np.full(n, 1.0 / n))


# ---------------------------------------------------------------- construction


def test_space_rejects_zero_mass():
    with pytest.raises(ValueError):
        FiniteMeasureSpace(np.array([0.5, 0.0]))


def test_space_rejects_negative_mass():
    with pytest.raises(ValueError):
        FiniteMeasureSpace(np.array([0.5, -0.1]))


def test_label_length_must_match():
    with pytest.raises(DimensionMismatchError):
        FiniteMeasureSpace(np.array([1.0, 1.0]), labels=np.array([[0.0]]))


def test_partition_requires_contiguous_atoms():
    for atom_of in ([0, 2], [0, -1, 1]):  # atom 1 missing; a negative label
        with pytest.raises(ValueError, match="atom indices must cover 0..m-1 with no gaps"):
            Partition(np.array(atom_of))


@pytest.mark.parametrize(
    "values, dtype",
    [
        ([True, False], float),
        (np.arange(3), float),
        (np.arange(3, dtype=np.float32), float),
        ([1.0, 2.5], float),
        ([1.0, 2.0j], complex),
        (np.ones(2, dtype=np.complex64), complex),
    ],
)
def test_mfunction_keeps_real_input_real(values, dtype):
    f = MFunction(values)
    assert f.values.dtype == dtype
    np.testing.assert_array_equal(f.values, np.asarray(values))


def test_partition_from_blocks_rejects_overlap():
    with pytest.raises(ValueError):
        Partition.from_blocks([[0, 1], [1, 2]], 3)


def test_partition_from_blocks_rejects_gap():
    with pytest.raises(ValueError):
        Partition.from_blocks([[0], [2]], 3)


@pytest.mark.parametrize("blocks", [[[0, 1], [2], []], [[0], [], [1, 2]]])
def test_partition_from_blocks_rejects_empty_block(blocks):
    with pytest.raises(ValueError, match="atom . is empty"):
        Partition.from_blocks(blocks, 3)


@pytest.mark.parametrize("index", [1.0, "1", True, None])
def test_partition_from_blocks_rejects_non_integer_index(index):
    with pytest.raises(ValueError, match="not an integer"):
        Partition.from_blocks([[0, index], [2]], 3)


def test_realize_in_orthonormal_coordinates():
    sp = FiniteMeasureSpace(np.array([0.1, 0.2, 0.7]))
    u = np.array([1.0, 2j, -3.0])
    calls = []
    mat = realize(sp, lambda f: calls.append(f) or MFunction(u * f.values))
    assert np.allclose(mat, np.diag(u)) and len(calls) == 3  # one action per basis vector
    assert np.allclose(realize(sp, lambda f: f), np.eye(3))
    with pytest.raises(DimensionMismatchError):
        realize(sp, lambda f: MFunction(f.values[:2]))


# -------------------------------------------------------------- inner product


def test_inner_product_normalized_mass():
    sp = uniform_space(4)
    one = MFunction(np.ones(4))
    assert weighted_inner_product(one, one, sp) == pytest.approx(1.0)


def test_inner_product_quadrature_refinement():
    # <u, u> with u = exp on midpoint grids of [-1, 1], d(mass) = dx/2,
    # against the closed integral of exp(2x)/2 = sinh(2)/2
    target = math.sinh(2.0) / 2.0
    errors = []
    for n in (8, 32, 128, 512):
        x = -1.0 + (np.arange(n) + 0.5) * 2.0 / n
        sp = FiniteMeasureSpace(np.full(n, 1.0 / n))
        u = MFunction(np.exp(x))
        errors.append(abs(weighted_inner_product(u, u, sp) - target))
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 1e-5


def test_inner_product_dimension_error():
    sp = uniform_space(3)
    with pytest.raises(DimensionMismatchError):
        weighted_inner_product(MFunction(np.ones(2)), MFunction(np.ones(3)), sp)


@given(
    st.lists(
        st.tuples(
            st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)
        ),
        min_size=1,
        max_size=12,
    )
)
def test_inner_product_conjugate_symmetry(pairs):
    n = len(pairs)
    sp = uniform_space(n)
    f = MFunction(np.array([complex(a, b) for a, b, _, _ in pairs]))
    g = MFunction(np.array([complex(c, d) for _, _, c, d in pairs]))
    lhs = weighted_inner_product(f, g, sp)
    rhs = weighted_inner_product(g, f, sp)
    assert lhs == pytest.approx(rhs.conjugate(), abs=1e-12)


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=12))
def test_inner_product_positive(vals):
    n = len(vals)
    sp = uniform_space(n)
    f = MFunction(np.array(vals, dtype=complex))
    q = weighted_inner_product(f, f, sp)
    assert abs(q.imag) <= 1e-12
    assert q.real >= -1e-12
    if q.real <= 1e-15:
        assert not support(f, 1e-7).any()


# -------------------------------------------------------------------- support


def test_support_of_zero_is_empty():
    s = support(MFunction(np.zeros(5)), 0.0)
    assert s.dtype == bool and s.shape == (5,)
    assert not s.any()


def test_support_indicator():
    f = MFunction(np.array([1.0, 0.0, 1.0, 0.0]))
    np.testing.assert_array_equal(support(f, 0.0), [True, False, True, False])


def test_support_below_tolerance():
    f = MFunction(np.full(6, 1e-14))
    assert not support(f, 1e-12).any()


# ------------------------------------------------------------------ ess_range


def test_ess_range_constant():
    sp = uniform_space(5)
    reps = ess_range(MFunction(np.full(5, 3.0 + 1.0j)), sp, 1e-12)
    assert len(reps) == 1
    assert reps[0] == pytest.approx(3.0 + 1.0j, abs=1e-14)


def test_ess_range_merges_close_values():
    sp = FiniteMeasureSpace(np.array([1.0, 1.0, 1.0]))
    f = MFunction(np.array([1.0, 1.0 + 1e-14, 2.0]))
    reps = ess_range(f, sp, 1e-12)
    assert len(reps) == 2
    assert reps[0] == pytest.approx(1.0, abs=1e-13)
    assert reps[1] == pytest.approx(2.0)


def brute_force_clusters(values, tol):
    """Independent clustering oracle: transitive closure of pairwise closeness."""
    groups = []
    for v in values:
        hits = [g for g in groups if any(abs(v - w) <= tol for w in g)]
        merged = [v]
        for g in hits:
            merged.extend(g)
            groups.remove(g)
        groups.append(merged)
    return groups


def test_ess_range_against_pairwise_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        base = rng.choice([0.0, 1.0, 2.5], size=n)
        vals = base + rng.normal(scale=1e-13, size=n)
        sp = FiniteMeasureSpace(rng.uniform(0.1, 1.0, size=n))
        reps = ess_range(MFunction(vals.astype(complex)), sp, 1e-9)
        assert len(reps) == len(brute_force_clusters(list(vals), 1e-9))


def test_ess_range_cosh_nodes():
    n = 16
    x = -1.0 + (np.arange(n) + 0.5) * 2.0 / n
    sp = FiniteMeasureSpace(np.full(n, 1.0 / n))
    reps = ess_range(MFunction(np.cosh(x).astype(complex)), sp, 1e-12)
    expected = sorted({round(float(np.cosh(xi)), 15) for xi in x})
    assert len(reps) == len(expected)
    assert np.allclose([r.real for r in reps], expected)


def test_ess_range_rejects_non_finite_values():
    f = MFunction(np.array([1.0, np.nan, 2.0, np.inf, complex(0.0, -np.inf)]))
    with pytest.raises(ValueError, match="3 non-finite"):
        ess_range(f, uniform_space(5), 1e-12)


def same_clusters(got, want, scale):
    """Same count, representatives within 1e-12 * scale; matched by distance,
    since representatives an ulp apart in real part can sort either way."""
    if len(got) != len(want):
        return False
    dist = np.abs(np.subtract.outer(np.array(got), np.array(want)))
    return max(dist.min(axis=1).max(), dist.min(axis=0).max()) <= 1e-12 * scale


@st.composite
def clustering_inputs(draw):
    """Values on a line at spacings near tol, with exact duplicates."""
    tol = draw(st.just(0.0) | st.floats(1e-9, 1.0))
    unit = tol if tol > 0 else 1.0
    distinct = draw(st.integers(1, 12))
    steps = draw(st.lists(st.floats(0.5, 2.0), min_size=distinct, max_size=distinct))
    direction = draw(st.sampled_from([1.0, 1j, (3.0 + 4.0j) / 5.0]))
    base = complex(draw(st.floats(-10, 10)), draw(st.floats(-10, 10)))
    line = base + direction * unit * np.cumsum(steps)
    copies = draw(st.lists(st.integers(0, distinct - 1), min_size=1, max_size=30))
    values = line[copies]
    masses = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(values), max_size=len(values)))
    return MFunction(values), FiniteMeasureSpace(np.array(masses)), tol


@given(clustering_inputs())
@settings(max_examples=300, deadline=None)
def test_ess_range_matches_reference_loop(inputs):
    f, sp, tol = inputs
    got = ess_range(f, sp, tol)
    if tol == 0:
        # the reference's running mean of copies of one value can round off
        # it by an ulp, after which a tol = 0 comparison splits the copies;
        # the clusters are exactly the distinct values
        assert got == np.unique(f.values).tolist()
        return
    want = ess_range_reference(f, sp, tol)
    scale = float(np.max(np.abs(f.values)))
    # a value exactly tol from a representative joins or not by the last bits
    # of the representative, which collapsing copies may change; such ties
    # show as reference clusters that change when tol moves by 1e-12 * scale
    near = 1e-12 * scale
    assume(all(same_clusters(ess_range_reference(f, sp, tol + d), want, scale) for d in (-near, near)))
    assert same_clusters(got, want, scale)


def test_ess_range_follows_a_drifting_representative():
    # each value outweighs everything before it, so the representative
    # trails the latest value and one cluster spans many grid cells
    tol = 1e-3
    f = MFunction(1j * tol * 0.8 * np.arange(20))
    sp = FiniteMeasureSpace(100.0 ** np.arange(20))
    got = ess_range(f, sp, tol)
    assert len(got) == 1
    assert same_clusters(got, ess_range_reference(f, sp, tol), float(np.max(np.abs(f.values))))


def test_ess_range_matches_reference_on_random_operators():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        T = random_operator(rng, max_n=24)
        scale = float(np.max(np.abs(T.symbol.values)))
        for g in (T.symbol, T.symbol_mean):
            for tol in (1e-12, 1e-8, 0.3):
                assert same_clusters(
                    ess_range(g, T.space, tol), ess_range_reference(g, T.space, tol), scale
                )


def test_ess_range_atom_constant_is_bounded_by_atom_count():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        m = int(rng.integers(1, n + 1))
        atom_of = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
        vals = rng.standard_normal(m)[atom_of]
        sp = FiniteMeasureSpace(rng.uniform(0.1, 1.0, size=n))
        assert len(ess_range(MFunction(vals.astype(complex)), sp, 1e-12)) <= m


# ------------------------------------------------------------------- truncate


def poisson_spec(theta=1.0):
    from wcelab.scenarios import poisson_parity_spec

    return poisson_parity_spec(theta)


def test_truncate_poisson_mass_tail():
    t = truncate(poisson_spec(), 1e-12)
    assert 10 <= t.size <= 25
    actual_discarded = sum(
        math.exp(-1.0 - math.lgamma(x + 1)) for x in range(t.size, 400)
    )
    assert actual_discarded < 1e-12
    assert actual_discarded <= t.discarded_mass_bound


def test_truncate_geometric():
    # masses 1/2, 1/4, ...: discarding all but the first N leaves exactly 2^-N
    spec = CountableSpaceSpec(
        mass_at=lambda i: 2.0 ** (-(i + 1)),
        tail_bound=lambda N: 2.0 ** (-N),
        atom_of=lambda i: 0,
        symbol_at=lambda i: 1.0,
    )
    assert truncate(spec, 2.0**-10).size == 10


def test_truncate_degenerate_tolerance_keeps_one_point():
    spec = CountableSpaceSpec(
        mass_at=lambda i: 2.0 ** (-(i + 1)),
        tail_bound=lambda N: 2.0 ** (-N),
        atom_of=lambda i: 0,
        symbol_at=lambda i: 1.0,
    )
    assert truncate(spec, 5.0).size == 1


def test_truncate_preserves_weights_and_symbol_exactly():
    t = truncate(poisson_spec(), 1e-10)
    spec = poisson_spec()
    for i in range(t.size):
        assert t.space.masses[i] == spec.mass_at(i)
        assert t.symbol.values[i] == spec.symbol_at(i)


def test_truncate_non_summable_errors():
    spec = CountableSpaceSpec(
        mass_at=lambda i: 1.0,
        tail_bound=lambda N: 1.0,
        atom_of=lambda i: 0,
        symbol_at=lambda i: 1.0,
    )
    with pytest.raises(NotSummableError):
        truncate(spec, 1e-6)
