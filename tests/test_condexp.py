import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcelab.condexp import (
    BLOCK,
    _block_walk,
    atom_averages,
    atom_masses,
    cond_exp,
    is_A_measurable,
)
from wcelab.measure import (
    DimensionMismatchError,
    FiniteMeasureSpace,
    MFunction,
    Partition,
    realize,
    weighted_inner_product,
)
from wcelab.operator import WeightedCondExpOperator


def random_instance(rng, n=None, m=None):
    n = n or int(rng.integers(2, 30))
    m = m or int(rng.integers(1, n + 1))
    atom_of = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
    rng.shuffle(atom_of)
    sp = FiniteMeasureSpace(np.exp(rng.uniform(np.log(1e-3), 0.0, size=n)))
    p = Partition(atom_of)
    f = MFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return sp, p, f


instance_seeds = st.integers(min_value=0, max_value=10_000)


def test_atom_masses_sum_to_total():
    rng = np.random.default_rng(0)
    sp, p, _ = random_instance(rng)
    assert atom_masses(p, sp).sum() == pytest.approx(sp.masses.sum())


def test_averages_by_hand():
    sp = FiniteMeasureSpace(np.array([1.0, 3.0, 2.0]))
    p = Partition(np.array([0, 0, 1]))
    f = MFunction(np.array([4.0, 0.0, 5.0]))
    avg = atom_averages(f, p, sp)
    assert avg[0] == pytest.approx((1 * 4 + 3 * 0) / 4)
    assert avg[1] == pytest.approx(5.0)


@pytest.mark.parametrize(
    "value, atom_of",
    [(0.0, [0, 1, 1]), (0.5 - 2.0j, [0, 1, 1]), (0.0, [2, 0, 1]), (0.5 - 2.0j, [2, 0, 1])],
    ids=["zero", "complex", "zero-singletons", "complex-singletons"],
)
def test_average_on_an_atom_of_subnormal_mass(value, atom_of):
    # complex division by a subnormal mass overflows: [0j] / [2e-313] is nan+nanj
    masses = [2e-313, 1.0, 3.0]
    values = [value, 1.0, 2.0 + 1.0j]
    sp = FiniteMeasureSpace(np.array(masses))
    p = Partition(np.array(atom_of))
    avg = atom_averages(MFunction(np.array(values, dtype=complex)), p, sp)
    assert np.all(np.isfinite(avg))
    # on a singleton atom no average is taken, so the subnormal mass cannot
    # round the value
    assert avg[p.atom_of[0]] == values[0]
    if p.is_singletons:
        np.testing.assert_array_equal(avg[p.atom_of], values)
        return
    for a in range(1, p.atom_count):
        idx = [i for i in range(3) if atom_of[i] == a]
        mass = sum(masses[i] for i in idx)
        re = sum(masses[i] * complex(values[i]).real for i in idx) / mass
        im = sum(masses[i] * complex(values[i]).imag for i in idx) / mass
        assert avg[a] == complex(re, im)


def test_average_on_a_two_point_atom_of_subnormal_mass():
    # the atom {0, 1} is averaged, and its sums are divided in real arithmetic
    sp = FiniteMeasureSpace(np.array([2e-313, 2e-313, 1.0]))
    avg = atom_averages(MFunction(np.array([0.0, 0.0, 1.0j])), Partition(np.array([0, 0, 1])), sp)
    assert avg.tolist() == [0j, 1j]


@given(instance_seeds)
@settings(max_examples=60, deadline=None)
def test_idempotence(seed):
    rng = np.random.default_rng(seed)
    sp, p, f = random_instance(rng)
    once = cond_exp(f, p, sp)
    twice = cond_exp(once, p, sp)
    assert np.allclose(once.values, twice.values, atol=1e-13)


@given(instance_seeds)
@settings(max_examples=60, deadline=None)
def test_defining_property(seed):
    # integral of E(f) over each atom equals integral of f over the atom
    rng = np.random.default_rng(seed)
    sp, p, f = random_instance(rng)
    ef = cond_exp(f, p, sp)
    for a in range(p.atom_count):
        idx = p.atom_of == a
        lhs = np.sum(ef.values[idx] * sp.masses[idx])
        rhs = np.sum(f.values[idx] * sp.masses[idx])
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


@given(instance_seeds)
@settings(max_examples=60, deadline=None)
def test_projection_self_adjoint(seed):
    rng = np.random.default_rng(seed)
    sp, p, f = random_instance(rng)
    g = MFunction(rng.standard_normal(sp.n) + 1j * rng.standard_normal(sp.n))
    lhs = weighted_inner_product(cond_exp(f, p, sp), g, sp)
    rhs = weighted_inner_product(f, cond_exp(g, p, sp), sp)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@given(instance_seeds)
@settings(max_examples=60, deadline=None)
def test_contraction_in_norm(seed):
    rng = np.random.default_rng(seed)
    sp, p, f = random_instance(rng)
    ef = cond_exp(f, p, sp)
    norm_f = weighted_inner_product(f, f, sp).real
    norm_ef = weighted_inner_product(ef, ef, sp).real
    assert norm_ef <= norm_f + 1e-12 * (1.0 + norm_f)


@given(instance_seeds)
@settings(max_examples=60, deadline=None)
def test_conditional_cauchy_schwarz(seed):
    # |E(f conj(g))|^2 <= E(|f|^2) E(|g|^2) pointwise
    rng = np.random.default_rng(seed)
    sp, p, f = random_instance(rng)
    g = MFunction(rng.standard_normal(sp.n) + 1j * rng.standard_normal(sp.n))
    cross = cond_exp(MFunction(f.values * np.conj(g.values)), p, sp)
    ff = cond_exp(MFunction(np.abs(f.values) ** 2), p, sp)
    gg = cond_exp(MFunction(np.abs(g.values) ** 2), p, sp)
    lhs = np.abs(cross.values) ** 2
    rhs = ff.values.real * gg.values.real
    assert np.all(lhs <= rhs + 1e-10 * (1.0 + rhs))


@given(instance_seeds)
@settings(max_examples=60, deadline=None)
def test_pulls_out_atom_constant_factor(seed):
    rng = np.random.default_rng(seed)
    sp, p, f = random_instance(rng)
    h_atoms = rng.standard_normal(p.atom_count) + 1j * rng.standard_normal(p.atom_count)
    h = h_atoms[p.atom_of]
    lhs = cond_exp(MFunction(h * f.values), p, sp)
    rhs = h * cond_exp(f, p, sp).values
    assert np.allclose(lhs.values, rhs, atol=1e-12)


def test_positivity_preserved():
    rng = np.random.default_rng(3)
    sp, p, _ = random_instance(rng)
    f = MFunction(np.abs(rng.standard_normal(sp.n)).astype(complex))
    assert np.all(cond_exp(f, p, sp).values.real >= -1e-15)


def test_constants_fixed():
    rng = np.random.default_rng(4)
    sp, p, _ = random_instance(rng)
    c = MFunction(np.full(sp.n, 2.0 - 3.0j))
    assert np.allclose(cond_exp(c, p, sp).values, c.values)


def singleton_instance(rng, n=30):
    # atom labels in random order; values far from 1 so that a mass-weighted
    # average would round
    sp = FiniteMeasureSpace(np.exp(rng.uniform(np.log(1e-3), 0.0, size=n)))
    p = Partition(rng.permutation(n))
    f = MFunction(1e8 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    return sp, p, f


#: ±0, ±inf, NaNs with payloads and signs, and subnormals, as float64
_SPECIAL_BITS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310]
    + np.array([0x7FF8000000000123, 0xFFF0000000000001], dtype=np.uint64).view(float).tolist()
)


@pytest.mark.parametrize("n", [30, 1, 29, BLOCK + 1])
@pytest.mark.parametrize("order", ["permuted", "point-order"])
@given(seed=instance_seeds)
@settings(max_examples=30, deadline=None)
def test_singleton_partition_is_identity(n, order, seed):
    """E is the identity on singleton atoms: cond_exp returns f's bits,
    signed zeros and NaN payloads too, in a fresh array."""
    rng = np.random.default_rng(seed)
    sp, p, f = singleton_instance(rng, n)
    if order == "point-order":
        p = Partition(np.arange(n))
    for part in (f.values.real, f.values.imag):
        at = rng.integers(0, n, n // 3 + 1)
        part[at] = rng.choice(_SPECIAL_BITS, at.size)
    for g in (f, MFunction(f.values.real.copy())):
        np.testing.assert_array_equal(atom_averages(g, p, sp)[p.atom_of], g.values)
        eg = cond_exp(g, p, sp)
        assert eg.values.dtype == g.values.dtype
        assert eg.values.tobytes() == g.values.tobytes()
        assert not np.shares_memory(eg.values, g.values)


@given(instance_seeds)
@settings(max_examples=30, deadline=None)
def test_singleton_atoms_measure_every_function_exactly(seed):
    sp, p, f = singleton_instance(np.random.default_rng(seed))
    verdict = is_A_measurable(f, p, sp, 0.0)
    assert verdict.measurable
    assert verdict.max_deviation == 0.0


@given(instance_seeds, st.sampled_from(["random", "singletons"]))
@settings(max_examples=40, deadline=None)
def test_real_function_averages_as_its_complex_copy(seed, shape):
    rng = np.random.default_rng(seed)
    sp, p, f = singleton_instance(rng) if shape == "singletons" else random_instance(rng)
    real = MFunction(f.values.real.copy())
    assert real.values.dtype == float
    avg = atom_averages(real, p, sp)
    assert avg.dtype == float
    np.testing.assert_array_equal(avg, atom_averages(MFunction(real.values.astype(complex)), p, sp))


def _blocked_instance(rng, n, m):
    """n points in m atoms with shuffled labels; the last three atoms (none
    when m == 1) hold one point each, and five points, one of them such a
    singleton, have a subnormal mass."""
    lone = min(3, m - 1)
    atom_of = np.concatenate(
        [np.arange(m - lone), rng.integers(0, m - lone, size=n - m), np.arange(m - lone, m)]
    )
    rng.shuffle(atom_of)
    masses = np.exp(rng.uniform(np.log(1e-3), 0.0, size=n))
    masses[rng.choice(n, size=4, replace=False)] = 3e-310
    masses[np.flatnonzero(atom_of == m - 1)[0]] = 5e-321
    return FiniteMeasureSpace(masses), Partition(atom_of)


def _full_array_reference(v, p, sp):
    """Atom means from one bincount over all points per real part, divided
    in real arithmetic, with each singleton atom's value put back."""
    mass = np.bincount(p.atom_of, weights=sp.masses)
    ref = np.empty(p.atom_count, dtype=v.dtype)
    ref.real = np.bincount(p.atom_of, weights=sp.masses * v.real) / mass
    if np.iscomplexobj(v):
        ref.imag = np.bincount(p.atom_of, weights=sp.masses * v.imag) / mass
    lone = np.flatnonzero(np.bincount(p.atom_of)[p.atom_of] == 1)
    ref[p.atom_of[lone]] = v[lone]
    return ref


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
@pytest.mark.parametrize("m", [1, 16, 10**4])
def test_blocked_averages_equal_one_full_array_bincount(n, m):
    rng = np.random.default_rng([n, m])
    sp, p = _blocked_instance(rng, n, m)
    f = MFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    zero_mean = MFunction(f.values - cond_exp(f, p, sp).values)
    constant = MFunction((rng.standard_normal(m) + 1j * rng.standard_normal(m))[p.atom_of])
    real = MFunction(f.values.real.copy())
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for g in (f, zero_mean, constant, real):
        avg = atom_averages(g, p, sp)
        assert avg.tobytes() == _full_array_reference(g.values, p, sp).tobytes()
        assert avg.tobytes() == atom_averages(g, p, sp).tobytes()
        for times in (u, u.real.copy()):
            product = atom_averages(MFunction(times * g.values), p, sp)
            assert atom_averages(g, p, sp, times=times).tobytes() == product.tobytes()
        var = _full_array_reference(np.abs(g.values - avg[p.atom_of]) ** 2, p, sp)
        assert atom_averages(g, p, sp, center=avg).tobytes() == var.tobytes()
        dev = np.sqrt(np.maximum(var, 0.0))
        verdict = is_A_measurable(g, p, sp, 1e-8)
        assert np.float64(verdict.max_deviation).tobytes() == dev.max().tobytes()
        assert verdict.worst_atom == int(np.argmax(dev))
    np.testing.assert_array_equal(
        atom_averages(real, p, sp), atom_averages(MFunction(real.values.astype(complex)), p, sp)
    )


@pytest.mark.parametrize("n", [4, 29, 256])
@pytest.mark.parametrize("m", [1, 3, "half"])
def test_short_complex_averages_keep_the_bits_of_one_bincount_per_part(n, m):
    """Up to BLOCK points the real and imaginary sums of a complex term
    share one bincount over the labels 2a and 2a + 1, and one divide: each
    bin still adds its terms in index order, so every bit is that of one
    bincount per part, with infinities, NaNs, signed zeros and subnormal
    masses."""
    rng = np.random.default_rng([n, len(str(m))])
    sp, p = _blocked_instance(rng, n, n // 2 if m == "half" else m)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for part in (values.real, values.imag):
        at = rng.integers(0, n, n // 3 + 1)
        part[at] = rng.choice([0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan], at.size)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    with np.errstate(all="ignore"):
        for g in (MFunction(values), MFunction(values[::-1])):
            want = _full_array_reference(g.values, p, sp).tobytes()
            assert atom_averages(g, p, sp).tobytes() == want
            product = _full_array_reference(u * g.values, p, sp).tobytes()
            assert atom_averages(g, p, sp, times=u).tobytes() == product


def test_short_complex_averages_read_the_masses_of_each_call():
    """The record of (partition, space) holds the interleaved labels and
    masses of a complex short average beside the atom masses: a record
    that a real average built serves the complex call after it, and a
    call on another space over the same partition reads that space's
    masses, with the bits of a fresh bincount, as three spaces alternate."""
    rng = np.random.default_rng(5)
    p = Partition(np.array([0, 1, 0, 2, 1, 0]))
    f = MFunction(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    real = MFunction(f.values.real.copy())
    spaces = [FiniteMeasureSpace(rng.uniform(0.1, 1.0, 6)) for _ in range(3)]
    for sp in spaces + spaces[::-1] + spaces:
        for g in (real, f):
            assert atom_averages(g, p, sp).tobytes() == _full_array_reference(g.values, p, sp).tobytes()


def test_blocked_sums_keep_an_infinite_part_to_itself():
    """mu * Re(f) and mu * Im(f) are real products, so an infinite part
    puts no 0 * inf into the other part's sum."""
    n = BLOCK + 1
    rng = np.random.default_rng(11)
    sp, p = _blocked_instance(rng, n, 16)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    shared = np.flatnonzero(np.bincount(p.atom_of)[p.atom_of] > 1)
    values[shared[0]], values[shared[-1]] = np.inf, complex(0.0, -np.inf)
    avg = atom_averages(MFunction(values), p, sp)
    assert avg.tobytes() == _full_array_reference(values, p, sp).tobytes()


@pytest.mark.parametrize(
    "n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 3 * BLOCK + 17]
)
def test_the_block_walk_covers_every_point_once_in_order(n):
    """Blocks start at multiples of BLOCK, hold at most BLOCK + 1 points,
    and hold one point only when n = 1."""
    walk = list(_block_walk(n))
    assert [s for s, _ in walk] == list(range(0, BLOCK * len(walk), BLOCK))
    assert [e for _, e in walk[:-1]] == [s for s, _ in walk[1:]] and walk[-1][1] == n
    assert all(1 <= e - s <= BLOCK + 1 for s, e in walk)
    assert (min(e - s for s, e in walk) == 1) == (n == 1)


@pytest.mark.parametrize("m", [16, 10**4])
def test_long_inputs_make_no_point_sized_temporaries(m):
    """numpy reports its buffers to tracemalloc; at 8 * BLOCK points one
    complex n-sized array alone takes 4 MiB."""
    n = 8 * BLOCK
    rng = np.random.default_rng(m)
    sp, p = _blocked_instance(rng, n, m)
    f = MFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    calls = (
        lambda: is_A_measurable(f, p, sp, 1e-8),
        lambda: atom_averages(f, p, sp),
        lambda: atom_averages(f, p, sp, times=u),
    )
    for call in calls:
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@pytest.mark.parametrize("n", [8, BLOCK + 1])
@pytest.mark.parametrize("atom_of", ["singletons", "pairs"])
def test_times_must_match_the_function(n, atom_of):
    sp = FiniteMeasureSpace(np.ones(n))
    p = Partition(np.arange(n) if atom_of == "singletons" else np.arange(n) // 2)
    f = MFunction(np.ones(n))
    with pytest.raises(DimensionMismatchError):
        atom_averages(f, p, sp, times=np.ones(n - 1))


def test_one_atom_partition_is_global_mean():
    rng = np.random.default_rng(6)
    n = 12
    sp = FiniteMeasureSpace(rng.uniform(0.1, 1.0, size=n))
    p = Partition(np.zeros(n, dtype=int))
    f = MFunction(rng.standard_normal(n).astype(complex))
    mean = np.sum(f.values * sp.masses) / sp.masses.sum()
    assert np.allclose(cond_exp(f, p, sp).values, mean)


# ---------------------------------------------------------- projection matrix


def test_projection_matrix_hermitian_idempotent_and_ranked():
    rng = np.random.default_rng(7)
    for _ in range(5):
        sp, p, _ = random_instance(rng, n=int(rng.integers(3, 20)))
        P = realize(sp, lambda f: cond_exp(f, p, sp))
        assert np.allclose(P, P.conj().T, atol=1e-12)
        assert np.allclose(P @ P, P, atol=1e-12)
        assert round(float(np.trace(P).real)) == p.atom_count


def test_projection_matrix_matches_cond_exp_action():
    rng = np.random.default_rng(8)
    sp, p, f = random_instance(rng, n=15)
    P = realize(sp, lambda f: cond_exp(f, p, sp))
    # coordinates: c_i = f_i sqrt(mu_i)
    coords = f.values * np.sqrt(sp.masses)
    via_matrix = (P @ coords) / np.sqrt(sp.masses)
    assert np.allclose(via_matrix, cond_exp(f, p, sp).values, atol=1e-12)


# -------------------------------------------------------------- measurability


def test_measurable_iff_atom_constant():
    sp = FiniteMeasureSpace(np.array([1.0, 1.0, 2.0, 1.0]))
    p = Partition(np.array([0, 0, 1, 1]))
    const = MFunction(np.array([2.0, 2.0, -1.0, -1.0]))
    assert is_A_measurable(const, p, sp, 1e-12).measurable
    varying = MFunction(np.array([2.0, 2.0, -1.0, -1.0 + 1e-6]))
    verdict = is_A_measurable(varying, p, sp, 1e-12)
    assert not verdict.measurable
    assert verdict.worst_atom == 1
    assert 1e-8 < verdict.max_deviation < 1e-5


def test_cond_exp_output_is_measurable():
    rng = np.random.default_rng(9)
    sp, p, f = random_instance(rng)
    assert is_A_measurable(cond_exp(f, p, sp), p, sp, 1e-10).measurable


# ------------------------------------------------------- the (partition, space) record


def test_kept_atom_masses_are_one_fresh_bincount_per_space():
    """atom_masses keeps one read-only array per (partition, space): the
    bits of a fresh bincount, for each of two spaces that alternate on one
    partition, long and short, with complex averages read in between."""
    rng = np.random.default_rng(12)
    for n in (6, BLOCK + 1):
        p = _blocked_instance(rng, n, 5)[1]
        spaces = [_blocked_instance(rng, n, 5)[0] for _ in range(2)]
        f = MFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for sp in spaces + spaces[::-1] + spaces:
            fresh = np.bincount(p.atom_of, weights=sp.masses, minlength=p.atom_count)
            mass = atom_masses(p, sp)
            assert mass.tobytes() == fresh.tobytes()
            assert not mass.flags.writeable
            assert atom_masses(p, sp) is mass
            with pytest.raises(ValueError):
                mass[0] = 1.0
            assert atom_averages(f, p, sp).tobytes() == _full_array_reference(f.values, p, sp).tobytes()
            assert atom_masses(p, sp) is mass


def test_the_operator_shares_the_kept_atom_masses():
    rng = np.random.default_rng(13)
    sp, p = _blocked_instance(rng, 40, 6)
    u = MFunction(rng.standard_normal(40) + 1j * rng.standard_normal(40))
    T, T2 = WeightedCondExpOperator(sp, p, u), WeightedCondExpOperator(sp, p, MFunction(u.values.real))
    assert T.atom_mass is atom_masses(p, sp) is T2.atom_mass
    assert not T.atom_mass.flags.writeable


def _special_at_block_edges(rng, n, dtype):
    """A symbol of n points with ±0, ±subnormal, ±inf and NaN in its parts
    at and beside every block edge, and at both ends."""
    u = rng.standard_normal(n) + (1j * rng.standard_normal(n) if dtype == complex else 0.0)
    edges = {0, n - 1}
    for s in range(BLOCK, n, BLOCK):
        edges |= {s - 1, s, s + 1}
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, np.inf, -np.inf, np.nan]
    at = np.array(sorted(i for i in edges if 0 <= i < n))
    u.real[at] = rng.choice(specials, at.size)
    if dtype == complex:
        u.imag[at] = rng.choice(specials, at.size)
    return u


@pytest.mark.parametrize(
    "n", [1, 2, 3, 29, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 3 * BLOCK + 17]
)
@pytest.mark.parametrize("labels", ["singletons", "coarse", "mixed"])
def test_mean_square_of_the_symbol_keeps_the_bits_of_averaging_its_square(n, labels):
    """E(|u|^2) is formed a block at a time (center=0) with the bits of
    averaging np.square(np.abs(u)), an n-sized array, on every length and
    label kind, and the operator's atom_sq_mean is that average."""
    rng = np.random.default_rng([n, len(labels)])
    sp = FiniteMeasureSpace(np.exp(rng.uniform(np.log(1e-3), 0.0, size=n)))
    if labels == "singletons":
        p = Partition(rng.permutation(n))
    else:
        # coarse: at least two points in every atom, but at n = 1; mixed:
        # the last point alone in its atom beside coarse ones
        k = n - (labels == "mixed" and n > 1)
        m = max(1, min(16, k // 2))
        atom_of = rng.permutation(np.arange(k) % m)
        p = Partition(np.concatenate([atom_of, [m] * (n - k)]))
    with np.errstate(all="ignore"):
        for dtype in (complex, float):
            u = MFunction(_special_at_block_edges(rng, n, dtype))
            sq = np.square(np.abs(u.values))
            want = atom_averages(MFunction(sq), p, sp)
            assert want.tobytes() == _full_array_reference(sq, p, sp).tobytes()
            assert atom_averages(u, p, sp, center=0).tobytes() == want.tobytes()
            T = WeightedCondExpOperator(sp, p, u)
            assert T.atom_sq_mean.tobytes() == want.tobytes()
            assert T.symbol_sq_mean.values.tobytes() == want[p.atom_of].tobytes()


def test_construction_forms_no_point_sized_square():
    """Off singleton partitions the operator averages |u|^2 one block at a
    time: at 8 * BLOCK points an n-sized float64 |u|^2 takes 2 MiB, and
    construction holds no more than its point-level fields, symbol_mean
    and symbol_sq_mean, plus the walk's buffers."""
    n = 8 * BLOCK
    rng = np.random.default_rng(14)
    sp, p = _blocked_instance(rng, n, 16)
    u = MFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    WeightedCondExpOperator(sp, p, u)  # the record of (p, sp) is built here
    tracemalloc.start()
    try:
        T = WeightedCondExpOperator(sp, p, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fields = T.symbol_mean.values.nbytes + T.symbol_sq_mean.values.nbytes
    assert peak - fields < 2**20


def test_point_order_singletons_keep_u_and_its_square_once():
    """On singletons in point order E is the identity and atom order is
    point order: construction forms |u|^2, 8 bytes a point, and nothing
    else point-sized.  A complex u is viewed, not copied, and neither mean
    is scattered into atom order, each of which would add 16 bytes a
    point."""
    n = 8 * BLOCK
    rng = np.random.default_rng(15)
    sp = FiniteMeasureSpace(np.exp(rng.uniform(np.log(1e-3), 0.0, size=n)))
    p = Partition(np.arange(n))
    u = MFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    WeightedCondExpOperator(sp, p, u)  # the record of (p, sp) is built here
    tracemalloc.start()
    try:
        T = WeightedCondExpOperator(sp, p, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T.partition.in_point_order
    assert peak <= 8 * n + 2**20
