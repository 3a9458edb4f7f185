import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcelab.condexp import (
    BLOCK,
    atom_averages,
    atom_masses,
    cond_exp,
    is_A_measurable,
    projection_matrix,
)
from wcelab.measure import (
    DimensionMismatchError,
    FiniteMeasureSpace,
    MFunction,
    Partition,
    weighted_inner_product,
)


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
    assert atom_masses(p, sp).sum() == pytest.approx(sp.total_mass)


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


@given(instance_seeds)
@settings(max_examples=30, deadline=None)
def test_singleton_partition_is_identity(seed):
    sp, p, f = singleton_instance(np.random.default_rng(seed))
    np.testing.assert_array_equal(atom_averages(f, p, sp)[p.atom_of], f.values)
    ef = cond_exp(f, p, sp)
    np.testing.assert_array_equal(ef.values, f.values)
    assert not np.shares_memory(ef.values, f.values)


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


@given(instance_seeds, st.sampled_from(["random", "singletons"]))
@settings(max_examples=40, deadline=None)
def test_passing_the_atom_masses_changes_no_bit(seed, shape):
    rng = np.random.default_rng(seed)
    sp, p, f = singleton_instance(rng) if shape == "singletons" else random_instance(rng)
    mass = atom_masses(p, sp)
    for g in (f, MFunction(np.abs(f.values) ** 2)):
        assert atom_averages(g, p, sp, mass=mass).tobytes() == atom_averages(g, p, sp).tobytes()
        assert cond_exp(g, p, sp, mass=mass).values.tobytes() == cond_exp(g, p, sp).values.tobytes()
        assert is_A_measurable(g, p, sp, 1e-8, mass=mass) == is_A_measurable(g, p, sp, 1e-8)


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
    real = MFunction(f.values.real.copy())
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    mass = atom_masses(p, sp)
    for g in (f, zero_mean, real):
        avg = atom_averages(g, p, sp)
        assert avg.tobytes() == _full_array_reference(g.values, p, sp).tobytes()
        assert avg.tobytes() == atom_averages(g, p, sp, mass=mass).tobytes()
        for times in (u, u.real.copy()):
            product = atom_averages(MFunction(times * g.values), p, sp)
            assert atom_averages(g, p, sp, mass=mass, times=times).tobytes() == product.tobytes()
    np.testing.assert_array_equal(
        atom_averages(real, p, sp), atom_averages(MFunction(real.values.astype(complex)), p, sp)
    )


@pytest.mark.parametrize("n", [8, BLOCK + 1])
@pytest.mark.parametrize("atom_of", ["singletons", "pairs"])
def test_times_must_match_the_function(n, atom_of):
    sp = FiniteMeasureSpace(np.ones(n))
    p = Partition(np.arange(n) if atom_of == "singletons" else np.arange(n) // 2)
    f = MFunction(np.ones(n))
    for call in (atom_averages, cond_exp):
        with pytest.raises(DimensionMismatchError):
            call(f, p, sp, times=np.ones(n - 1))


def test_one_atom_partition_is_global_mean():
    rng = np.random.default_rng(6)
    n = 12
    sp = FiniteMeasureSpace(rng.uniform(0.1, 1.0, size=n))
    p = Partition(np.zeros(n, dtype=int))
    f = MFunction(rng.standard_normal(n).astype(complex))
    mean = np.sum(f.values * sp.masses) / sp.total_mass
    assert np.allclose(cond_exp(f, p, sp).values, mean)


# ---------------------------------------------------------- projection matrix


def test_projection_matrix_hermitian_idempotent_and_ranked():
    rng = np.random.default_rng(7)
    for _ in range(5):
        sp, p, _ = random_instance(rng, n=int(rng.integers(3, 20)))
        P = projection_matrix(p, sp)
        assert np.allclose(P, P.conj().T, atol=1e-12)
        assert np.allclose(P @ P, P, atol=1e-12)
        assert round(float(np.trace(P).real)) == p.atom_count


def test_projection_matrix_matches_cond_exp_action():
    rng = np.random.default_rng(8)
    sp, p, f = random_instance(rng, n=15)
    P = projection_matrix(p, sp)
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
