import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcelab.measure import (
    CountableSpaceSpec,
    DimensionMismatchError,
    FiniteMeasureSpace,
    MFunction,
    NotSummableError,
    ROUNDING_GAP,
    TRUNCATION_CAP,
    Partition,
    ess_range,
    read_points,
    realize,
    support,
    tail_cutoff,
    truncate,
    weighted_inner_product,
)
from wcelab.operator import (
    WeightedCondExpOperator,
    apply,
    apply_adjoint,
    apply_isometry,
    apply_modulus,
    polar,
)


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


def test_partition_rejects_fractional_atom_labels():
    # from_blocks rejects non-integer indices; a label array must not
    # truncate them into atoms either
    for atom_of in ([0, 1.5, 2.7], [0.0, np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError, match="atom indices must be whole numbers"):
            Partition(np.array(atom_of))
    p = Partition(np.array([0.0, 1.0, 1.0]))
    assert p.atom_of.dtype == int and p.atom_of.tolist() == [0, 1, 1]


@pytest.mark.parametrize(
    "atom_of, points",
    [([0, 1, 2], []), ([1, 0, 1, 2], [1, 3]), ([0, 0, 1, 1], [])],
    ids=["all-singletons", "mixed", "no-singletons"],
)
def test_partition_keeps_the_points_of_its_singleton_atoms(atom_of, points):
    # all-singleton partitions keep none: E is the identity on all of them
    assert Partition(np.array(atom_of)).singleton_points.tolist() == points


@pytest.mark.parametrize(
    "values, dtype, kept",
    [
        ([True, False], float, False),
        (np.arange(3), float, False),
        (np.arange(3, dtype=np.float32), float, False),
        ([1.0, 2.5], float, False),
        ([1.0, 2.0j], complex, False),
        (np.ones(2, dtype=np.complex64), complex, False),
        (np.arange(3.0).astype(">f8"), float, False),
        (np.array([1.0, -0.0, np.nan]), float, True),
        (np.array([1.0, 2.0j, np.nan]), complex, True),
        (np.arange(6.0)[::2], float, True),
        (np.ma.masked_array([1.0, 2.0], mask=[False, True]), float, False),
    ],
)
def test_mfunction_keeps_real_input_real(values, dtype, kept):
    # a 1-d float64 or complex128 ndarray, strided or not, is kept as the
    # same object, as the conversion would keep it; anything else becomes
    # a plain ndarray of one of those two dtypes
    f = MFunction(values)
    assert f.values.dtype == dtype and type(f.values) is np.ndarray
    assert (f.values is values) == kept
    np.testing.assert_array_equal(f.values, np.asarray(values))


@pytest.mark.parametrize(
    "values",
    [np.array(1.0), np.ones((2, 2)), np.ones((1, 3), dtype=complex), np.array([]), np.empty(0, complex)],
    ids=["0-d", "2-d", "2-d-complex", "empty", "empty-complex"],
)
def test_mfunction_rejects_anything_but_a_nonempty_vector(values):
    with pytest.raises(ValueError, match="nonempty 1-d"):
        MFunction(values)


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


def _reference_realize(sp, action):
    # a fresh basis vector per column and a fresh product per column
    n = sp.n
    sqrt_m = np.sqrt(sp.masses)
    mat = np.empty((n, n), dtype=complex)
    for i in range(n):
        basis = np.zeros(n, dtype=complex)
        basis[i] = 1.0 / sqrt_m[i]
        mat[:, i] = action(MFunction(basis)).values * sqrt_m
    return mat


def _bits(a):
    return a.dtype, a.shape, np.ascontiguousarray(a).view(np.uint64).tobytes()


@pytest.mark.parametrize("kind", ["coarse", "mixed", "singletons"])
@pytest.mark.parametrize("n", [1, 2, 33, 64, 256])
def test_realize_keeps_the_bits_of_a_fresh_basis_per_column(kind, n):
    # coarse: atoms of up to 4 points; mixed: pairs on half the points and
    # singleton atoms on the rest; the labels are shuffled over the points.
    # The matrix is C-ordered, the layout the gemms and SVDs downstream read
    rng = np.random.default_rng(n)
    pairs = 2 * (n // 4)
    atom_of = {
        "coarse": np.arange(n) // 4,
        "mixed": np.concatenate([np.arange(pairs) // 2, pairs // 2 + np.arange(n - pairs)]),
        "singletons": np.arange(n),
    }[kind]
    sp = FiniteMeasureSpace(rng.uniform(0.1, 3.0, n))
    p = Partition(atom_of[rng.permutation(n)])
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for symbol in (MFunction(u), MFunction(u.real.copy())):  # complex and float64
        T = WeightedCondExpOperator(sp, p, symbol)
        parts = polar(T, 1e-8)
        for action in (
            lambda f: apply(T, f),
            lambda f: apply_adjoint(T, f),
            lambda f: apply_isometry(T, parts, f),
            lambda f: apply_modulus(T, parts, f),
        ):
            calls = []
            mat = realize(sp, lambda f: calls.append(f) or action(f))
            assert len(calls) == n
            assert mat.flags.c_contiguous
            assert _bits(mat) == _bits(_reference_realize(sp, action))


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
# Rounding copies of one value merge: those within ROUNDING_GAP * scale of
# the last value kept in (real, imag) order.


def test_ess_range_constant():
    # exact duplicates collapse to the value itself
    reps = ess_range(MFunction(np.full(5, 3.0 + 1.0j)), 3.0)
    assert reps == [3.0 + 1.0j]


def test_ess_range_merges_close_values():
    # copies that differ only by rounding collapse to the first in order
    f = MFunction(np.array([2.0, 1.0 + 1e-14, 1.0, 1.0 + 3e-16j]))
    assert ess_range(f, 2.0) == [1.0, 2.0]


def test_ess_range_compares_with_the_last_value_kept():
    # a chain of copies each close to the one before does not merge values
    # farther apart than the gap
    step = 0.6 * ROUNDING_GAP
    assert ess_range(MFunction(1.0 + step * np.arange(3)), 1.0) == [1.0, 1.0 + 2 * step]


def test_ess_range_keeps_values_2_to_the_minus_30_of_the_scale_apart():
    for scale in (1e-9, 1.0, 1e9):
        step = 2.0**-30 * scale
        f = MFunction(scale * 0.5 + step * np.array([0.0, 1.0, 2.0, 1j, 1.0 + 1j]))
        got = ess_range(f, scale)
        assert got == sorted(f.values.tolist(), key=lambda z: (z.real, z.imag))


def brute_force_clusters(values, gap):
    """Independent oracle: transitive closure of pairwise closeness."""
    groups = []
    for v in values:
        hits = [g for g in groups if any(abs(v - w) <= gap for w in g)]
        merged = [v]
        for g in hits:
            merged.extend(g)
            groups.remove(g)
        groups.append(merged)
    return groups


def test_ess_range_against_pairwise_oracle():
    # values scattered by 1e-13 around three well-separated bases
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        base = rng.choice([0.0, 1.0, 2.5], size=n)
        vals = base + rng.normal(scale=1e-13, size=n)
        scale = float(np.max(np.abs(vals)))
        reps = ess_range(MFunction(vals), scale)
        assert len(reps) == len(brute_force_clusters(list(vals), ROUNDING_GAP * scale))
        assert set(reps) <= set(vals.astype(complex).tolist())


def test_ess_range_cosh_nodes():
    n = 16
    x = -1.0 + (np.arange(n) + 0.5) * 2.0 / n
    reps = ess_range(MFunction(np.cosh(x)), float(np.cosh(1.0)))
    expected = sorted({round(float(np.cosh(xi)), 15) for xi in x})
    assert len(reps) == len(expected)
    assert np.allclose([r.real for r in reps], expected)


def test_ess_range_rejects_non_finite_values():
    f = MFunction(np.array([1.0, np.nan, 2.0, np.inf, complex(0.0, -np.inf)]))
    with pytest.raises(ValueError, match="3 non-finite"):
        ess_range(f, 2.0)


def test_ess_range_atom_constant_is_bounded_by_atom_count():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        m = int(rng.integers(1, n + 1))
        atom_of = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
        vals = rng.standard_normal(m)[atom_of]
        assert len(ess_range(MFunction(vals), float(np.max(np.abs(vals))))) <= m


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


def test_truncate_drops_points_whose_mass_underflows():
    # masses 0 at indices 0, 2 and 3: atom "a" loses every point, and the
    # atoms left are numbered in order of their first kept point
    masses = [0.0, 0.25, 0.0, 0.0, 0.25, 0.5]
    atoms = ["a", "b", "a", "c", "c", "b"]
    def tail(N):  # nothing past index 5
        return 0.0 if N >= 6 else 1.0

    spec = CountableSpaceSpec(
        mass_at=lambda i: masses[i],
        tail_bound=tail,
        atom_of=lambda i: atoms[i],
        symbol_at=lambda i: complex(i),
        weighted_tail_bound=tail,
    )
    t = truncate(spec, 0.5)
    assert t.size == 6  # indices read, zero masses included
    assert t.space.masses.tolist() == [0.25, 0.25, 0.5]
    assert t.symbol.values.tolist() == [1, 4, 5]
    assert t.partition.atom_of.tolist() == [0, 1, 0]
    assert t.atom_ids == ("b", "c")
    # each dropped point's mass is below the smallest subnormal
    assert t.discarded_mass_bound == 3 * 2.0**-1074
    w = truncate(spec, 0.5, weighted=True)
    assert w.discarded_mass_bound == (0 + 4 + 9) * 2.0**-1074


@pytest.mark.parametrize("weighted", [False, True])
def test_truncate_poisson_at_theta_1000(weighted):
    # exp(-1000 + x log 1000 - lgamma(x + 1)) underflows to 0.0 at 71 of the
    # indices read: the lowest ones, the atom {0} among them, and the highest
    spec = poisson_spec(1000.0)
    t = truncate(spec, 1e-12, weighted=weighted)
    read = np.array([spec.mass_at(i) for i in range(t.size)])
    assert t.space.n == t.size - 71 == np.count_nonzero(read)
    assert t.space.masses.tolist() == read[read > 0].tolist()
    assert t.atom_ids == ("odd", "even")
    ids = np.array(t.atom_ids)[t.partition.atom_of]
    kept = np.flatnonzero(read)
    assert ids.tolist() == [spec.atom_of(int(i)) for i in kept]
    assert t.discarded_mass_bound <= 1e-12


def test_truncate_non_summable_errors():
    bound = Counted(lambda N: 1.0)
    spec = CountableSpaceSpec(
        mass_at=lambda i: 1.0,
        tail_bound=bound,
        atom_of=lambda i: 0,
        symbol_at=lambda i: 1.0,
    )
    with pytest.raises(NotSummableError):
        truncate(spec, 1e-6)
    # N = 1, 2, 4, ..., 2^17 and TRUNCATION_CAP
    assert bound.calls == 19


# ------------------------------------------------------------ kept points


def three_atom_spec():
    """Atoms "b" and "a" alternate; atom "c" first appears at index 24."""
    return CountableSpaceSpec(
        mass_at=lambda i: 0.1 * 0.9**i,
        tail_bound=lambda N: 0.9**N,
        atom_of=lambda i: "c" if i % 25 == 24 else ("a" if i % 2 else "b"),
        symbol_at=lambda i: complex(i, -i),
    )


def assert_same_points(got, want):
    for g, w in zip(got[:3], want[:3]):
        assert g.dtype == w.dtype
        assert g.shape == w.shape and (g == w).all()
    assert got[3] == want[3]


@pytest.mark.parametrize("sizes", [(40, 20), (20, 40), (24, 25, 24), (30, 30)])
def test_read_points_of_a_prefix_match_a_fresh_read(sizes):
    spec = three_atom_spec()
    for size in sizes:
        got = read_points(spec, size)
        assert_same_points(got, read_points(three_atom_spec(), size))
    assert read_points(spec, 24)[3] == ("b", "a")
    assert read_points(spec, 25)[3] == ("b", "a", "c")


def assert_same_truncation(t, fresh):
    assert t.size == fresh.size
    assert t.space.masses.tolist() == fresh.space.masses.tolist()
    assert t.symbol.values.tolist() == fresh.symbol.values.tolist()
    assert t.partition.atom_of.tolist() == fresh.partition.atom_of.tolist()
    assert t.atom_ids == fresh.atom_ids
    assert t.discarded_mass_bound == fresh.discarded_mass_bound


@pytest.mark.parametrize("tols", [(1e-6, 1e-9, 1e-12), (1e-12, 1e-9, 1e-6)])
def test_truncations_of_one_spec_match_fresh_ones(tols):
    # at theta = 1000 the lowest and highest masses read underflow to 0.0
    spec = poisson_spec(1000.0)
    for tol in tols:
        for weighted in (False, True):
            t = truncate(spec, tol, weighted=weighted)
            assert_same_truncation(t, truncate(poisson_spec(1000.0), tol, weighted=weighted))


def test_kept_points_cannot_be_written():
    spec = three_atom_spec()
    masses, symbol, atom_of, _ = read_points(spec, 30)
    t = truncate(spec, 1e-3)
    for a in (masses, symbol, atom_of, t.space.masses, t.symbol.values, t.partition.atom_of):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7
    assert_same_points(read_points(spec, 30), read_points(three_atom_spec(), 30))


@pytest.mark.parametrize("weighted", [False, True])
def test_a_cut_that_drops_underflowed_points_cannot_be_written(weighted):
    t = truncate(poisson_spec(1000.0), 1e-12, weighted=weighted)
    assert t.space.n < t.size  # the zero masses were dropped, so these are copies
    for a in (t.space.masses, t.symbol.values, t.partition.atom_of):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7


# ---------------------------------------------------------------- tail cutoff

#: evaluations allowed to tail_cutoff: doubling, the cap, then bisection
MAX_EVALS = 2 * math.ceil(math.log2(TRUNCATION_CAP)) + 1


class Counted:
    """A bound that counts its evaluations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, N):
        self.calls += 1
        return self.fn(N)


def linear_cutoff(bound, tol):
    """Reference: the first N in 1..TRUNCATION_CAP with bound(N) <= tol, by scanning."""
    for N in range(1, TRUNCATION_CAP + 1):
        if bound(N) <= tol:
            return N
    return None


def step_bound(steps):
    """Nonincreasing step function: the number of steps above N."""
    steps = sorted(steps)
    return lambda N: len(steps) - bisect.bisect_right(steps, N)


def check_cutoff(bound, tol):
    counted = Counted(bound)
    got = tail_cutoff(counted, tol)
    assert got == linear_cutoff(bound, tol)
    assert counted.calls <= MAX_EVALS
    return got


@pytest.mark.parametrize(
    "steps, want",
    [
        ([], 1),
        ([1], 1),
        ([2], 2),
        ([3], 3),
        ([2**17], 2**17),
        ([2**17 + 1], 2**17 + 1),
        ([TRUNCATION_CAP - 1], TRUNCATION_CAP - 1),
        ([TRUNCATION_CAP], TRUNCATION_CAP),
        ([TRUNCATION_CAP + 1], None),
    ],
)
def test_tail_cutoff_answers_at_the_edges(steps, want):
    assert check_cutoff(step_bound(steps), 0.0) == want


tolerances = st.floats(-15.0, 2.0).map(lambda x: 10.0**x)
geometric_cases = st.tuples(
    st.builds(lambda c, r: lambda N: c * r**N, st.floats(1e-3, 1e3), st.floats(0.5, 0.9999)),
    tolerances,
)
poisson_cases = st.tuples(
    st.builds(
        lambda spec, weighted: spec.weighted_tail_bound if weighted else spec.tail_bound,
        st.floats(0.1, 1000.0).map(poisson_spec),
        st.booleans(),
    ),
    tolerances,
)
step_cases = st.tuples(
    st.lists(
        st.one_of(
            st.integers(1, TRUNCATION_CAP + 1),
            st.sampled_from([1, TRUNCATION_CAP, TRUNCATION_CAP + 1]),
        ),
        max_size=6,
    ).map(step_bound),
    st.integers(0, 6).map(float),
)


@given(case=st.one_of(geometric_cases, poisson_cases, step_cases))
@settings(max_examples=80, deadline=None)
def test_tail_cutoff_matches_a_linear_scan(case):
    check_cutoff(*case)


@given(a=st.integers(1, 10**6), b=st.integers(0, 10**6), tol=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_tail_cutoff_of_a_non_monotone_bound_is_still_sound(a, b, tol):
    def bound(N):
        return (a * N + b) % 1009 / 1009

    counted = Counted(bound)
    got = tail_cutoff(counted, tol)
    assert counted.calls <= MAX_EVALS
    if got is None:
        assert bound(TRUNCATION_CAP) > tol
    else:
        assert 1 <= got <= TRUNCATION_CAP and bound(got) <= tol
