import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wcelab import operator as operator_module
from wcelab.condexp import BLOCK, atom_averages, atom_masses, cond_exp
from wcelab.measure import (
    CountableSpaceSpec,
    DimensionMismatchError,
    FiniteMeasureSpace,
    MFunction,
    NotSummableError,
    Partition,
    support,
    truncate,
    weighted_inner_product,
)
from wcelab.operator import (
    UndecidableDomainError,
    WeightedCondExpOperator,
    apply,
    apply_adjoint,
    apply_isometry,
    apply_modulus,
    classify,
    densely_defined,
    domain_invariance_min_c,
    multiplication_domain_min_c,
    polar,
    spectrum_formula,
    truncation_stability,
)
from wcelab.oracle import residuals
from wcelab.sampling import SPECIAL_KINDS, random_operator
from wcelab.scenarios import (
    SCENARIO_BUILDERS,
    build_scenario,
    geometric_blowup_spec,
    poisson_parity_spec,
)

seeds = st.integers(min_value=0, max_value=10_000)


def small_op(u, atom_of, masses=None):
    n = len(u)
    sp = FiniteMeasureSpace(np.full(n, 1.0 / n) if masses is None else np.asarray(masses))
    return WeightedCondExpOperator(sp, Partition(np.asarray(atom_of)), MFunction(np.asarray(u, dtype=complex)))


# --------------------------------------------------------------- apply / adjoint


def test_apply_by_hand():
    T = small_op([2.0, 4.0], [0, 0])
    out = apply(T, MFunction(np.array([1.0, 3.0])))
    # E(u f) over the single atom: (2*1 + 4*3)/2 = 7
    assert np.allclose(out.values, 7.0)


def _shaped_operator(rng, shape, n=40):
    """A random operator on permuted singletons, singletons in point order,
    one atom, or a random coarse partition, with a complex Gaussian
    symbol."""
    atom_of = {
        "singletons": rng.permutation(n),
        "point-order": np.arange(n),
        "one-atom": np.zeros(n, dtype=int),
        "coarse": np.concatenate([np.arange(5), rng.integers(0, 5, size=n - 5)]),
    }[shape]
    if shape != "point-order":
        rng.shuffle(atom_of)
    sp = FiniteMeasureSpace(np.exp(rng.uniform(np.log(1e-3), 0.0, size=n)))
    u = MFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return WeightedCondExpOperator(sp, Partition(atom_of), u)


def test_cached_means_match_recompute():
    rng = np.random.default_rng(0)
    for shape in ("singletons", "one-atom", "coarse", "point-order"):
        complex_symbol = _shaped_operator(rng, shape)
        p, sp = complex_symbol.partition, complex_symbol.space
        real_symbol = WeightedCondExpOperator(sp, p, MFunction(complex_symbol.symbol.values.real))
        for T in (complex_symbol, real_symbol):
            sq = MFunction(np.abs(T.symbol.values) ** 2)
            np.testing.assert_array_equal(T.atom_mass, atom_masses(p, sp))
            np.testing.assert_array_equal(T.atom_mean, atom_averages(T.symbol, p, sp))
            np.testing.assert_array_equal(T.atom_sq_mean, atom_averages(sq, p, sp))
            np.testing.assert_array_equal(T.symbol_mean.values, cond_exp(T.symbol, p, sp).values)
            np.testing.assert_array_equal(T.symbol_sq_mean.values, cond_exp(sq, p, sp).values)
            assert T.atom_mean.dtype == complex and T.atom_sq_mean.dtype == float
            assert T.atom_sq_mean.flags.owndata
            if shape in ("singletons", "point-order"):
                # the point-level means are u and |u|^2
                assert _bits(T.symbol_mean.values) == _bits(T.symbol.values.astype(complex))
                assert _bits(T.symbol_sq_mean.values) == _bits(sq.values)
            if shape == "point-order":
                # atom order is point order: one array each, nothing scattered,
                # with the bits of permuted labels' fields put back in point order
                assert T.atom_mean is T.symbol_mean.values
                assert T.atom_sq_mean is T.symbol_sq_mean.values
                perm = rng.permutation(T.n)
                P = WeightedCondExpOperator(sp, Partition(perm), T.symbol)
                assert _bits(T.atom_mean) == _bits(P.atom_mean[perm])
                assert _bits(T.atom_sq_mean) == _bits(P.atom_sq_mean[perm])


@pytest.mark.parametrize("shape", ["singletons", "point-order"])
@pytest.mark.parametrize("u_kind", ["real", "complex"])
def test_singleton_means_cannot_write_into_u(shape, u_kind):
    """On singletons symbol_mean is u itself, a view of a complex u, and in
    point order atom_mean is that same array: the point-level means, and
    the atom-level ones that share them, are read-only, so no write through
    the operator reaches the caller's u."""
    rng = np.random.default_rng(1)
    T = _shaped_operator(rng, shape)
    if u_kind == "real":
        T = WeightedCondExpOperator(T.space, T.partition, MFunction(T.symbol.values.real))
    u_before = _bits(T.symbol.values)
    fields = [T.symbol_mean.values, T.symbol_sq_mean.values]
    if shape == "point-order":
        fields += [T.atom_mean, T.atom_sq_mean]
    for field in fields:
        with pytest.raises(ValueError, match="read-only"):
            field[0] = 7.0
    assert _bits(T.symbol.values) == u_before
    assert np.shares_memory(T.symbol_mean.values, T.symbol.values) == (u_kind == "complex")


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _long_partition(rng, n, atoms):
    """Random masses and a shuffled partition of n points into ``atoms``
    atoms, or into permuted singletons for None."""
    if atoms is None:
        atom_of = rng.permutation(n)
    else:
        atom_of = np.concatenate([np.arange(atoms), rng.integers(0, atoms, size=n - atoms)])
        rng.shuffle(atom_of)
    return FiniteMeasureSpace(np.exp(rng.uniform(np.log(1e-3), 0.0, size=n))), Partition(atom_of)


@pytest.mark.parametrize("atoms", [16, 10**4, None], ids=["16", "1e4", "singletons"])
@pytest.mark.parametrize("symbol", ["complex", "real"])
def test_actions_past_one_block_match_point_level_formulas(atoms, symbol):
    rng = np.random.default_rng(11)
    n = 3 * BLOCK + 17
    sp, p = _long_partition(rng, n, atoms)
    u = rng.standard_normal(n)
    if symbol == "complex":
        u = u + 1j * rng.standard_normal(n)
    T = WeightedCondExpOperator(sp, p, MFunction(u))
    parts = polar(T, 1e-8)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    Tf = cond_exp(MFunction(u * f), p, sp).values
    assert _bits(apply(T, MFunction(f)).values) == _bits(Tf)
    assert _bits(apply_adjoint(T, MFunction(f)).values) == _bits(
        np.conj(u) * cond_exp(MFunction(f), p, sp).values
    )
    # U f = s E(u f) and |T| f = conj(u) U f, with s = 1/sqrt(E(|u|^2)) at
    # the points; polar scales on the atoms, so the last bits may differ
    sq_mean = cond_exp(MFunction(np.abs(u) ** 2), p, sp)
    s = np.divide(1.0, np.sqrt(sq_mean.values), out=np.zeros(n), where=support(sq_mean, 1e-8))
    Uf = s * Tf
    got_U = apply_isometry(T, parts, MFunction(f)).values
    got_modulus = apply_modulus(T, parts, MFunction(f)).values
    np.testing.assert_allclose(got_U, Uf, rtol=1e-14, atol=0)
    np.testing.assert_allclose(got_modulus, np.conj(u) * Uf, rtol=1e-14, atol=0)


@pytest.mark.parametrize("atoms", [3, None], ids=["coarse", "singletons"])
@pytest.mark.parametrize("n", [8, BLOCK + 1])
def test_actions_reject_a_misaligned_function(atoms, n):
    rng = np.random.default_rng(12)
    sp, p = _long_partition(rng, n, atoms)
    T = WeightedCondExpOperator(sp, p, MFunction(rng.standard_normal(n)))
    parts = polar(T, 1e-8)
    actions = (
        lambda f: apply(T, f),
        lambda f: apply_adjoint(T, f),
        lambda f: apply_isometry(T, parts, f),
        lambda f: apply_modulus(T, parts, f),
    )
    for f in (MFunction(np.ones(n - 1)), MFunction(np.ones(n + 1))):
        for action in actions:
            with pytest.raises(DimensionMismatchError):
                action(f)


@pytest.mark.parametrize("atoms", [3, None], ids=["coarse", "singletons"])
@pytest.mark.parametrize("n", [8, BLOCK + 1])
def test_construction_rejects_a_misaligned_symbol_or_partition(atoms, n):
    rng = np.random.default_rng(13)
    sp, p = _long_partition(rng, n, atoms)
    for m in (n - 1, n + 1):
        with pytest.raises(DimensionMismatchError):
            WeightedCondExpOperator(sp, p, MFunction(np.ones(m)))
        bad = Partition(np.arange(m) if atoms is None else np.arange(m) % atoms)
        with pytest.raises(DimensionMismatchError):
            WeightedCondExpOperator(sp, bad, MFunction(np.ones(n)))


def _polar_reference(T, tol):
    """polar from cond_exp and support at the points, placed in atom order:
    the atom scale, the atom support mask and the support's points."""
    p = T.partition
    sq_mean = cond_exp(MFunction(np.abs(T.symbol.values) ** 2), p, T.space)
    mask = support(sq_mean, tol)
    root = np.sqrt(sq_mean.values.real)
    inv_sqrt = np.divide(1.0, root, out=np.zeros(T.n), where=mask)
    scale = np.empty(p.atom_count)
    scale[p.atom_of] = inv_sqrt  # constant on each atom
    atom_support = np.empty(p.atom_count, dtype=bool)
    atom_support[p.atom_of] = mask
    return scale, atom_support, np.flatnonzero(mask)


def _classify_reference(T, tol):
    """classify's formula-layer outputs at the points, from cond_exp and
    support alone: verdicts, residuals, witnesses and the verdict source."""
    p, sp, u = T.partition, T.space, T.symbol
    mean = cond_exp(u, p, sp)
    var = cond_exp(MFunction(np.abs(u.values - mean.values) ** 2), p, sp).values.real
    dev = np.empty(p.atom_count)
    dev[p.atom_of] = np.sqrt(np.maximum(var, 0.0))  # constant on each atom
    worst = int(np.argmax(dev))
    normal = bool(dev[worst] <= tol)
    imag_abs = np.abs(u.values.imag)
    worst_imag = int(np.argmax(imag_abs))
    self_adjoint = normal and bool(imag_abs[worst_imag] <= tol)
    sq_mean = cond_exp(MFunction(np.abs(u.values) ** 2), p, sp)
    same_support = np.array_equal(support(mean, tol), support(sq_mean, tol))
    return {
        "normal": normal,
        "self_adjoint": self_adjoint,
        "atom_deviation": float(dev[worst]),
        "max_imag": float(imag_abs[worst_imag]),
        "normal_witness": None if normal else worst,
        "self_adjoint_witness": None if self_adjoint else worst_imag,
        "source": "formula" if normal or same_support else "oracle",
    }


@given(
    seed=seeds,
    shape=st.sampled_from(["random", "singletons", "point-order", "one-atom", "coarse"]),
    kind=st.sampled_from(SPECIAL_KINDS),
    tol=st.sampled_from([1e-12, 1e-8, 0.3, 2.0]),
)
@settings(max_examples=120, deadline=None)
def test_atom_level_closed_forms_match_a_point_level_reference(seed, shape, kind, tol):
    rng = np.random.default_rng(seed)
    if shape == "random":
        T = random_operator(rng, max_n=48, kind=kind)
    else:
        T = _shaped_operator(rng, shape)

    parts = polar(T, tol)
    scale, atom_support, support_set = _polar_reference(T, tol)
    assert _bits(parts.atom_scale) == _bits(scale)
    assert _bits(parts.atom_support) == _bits(atom_support)
    assert _bits(parts.support_set) == _bits(support_set)

    rep = classify(T, tol)
    ref = _classify_reference(T, tol)
    assert (rep.self_adjoint, rep.normal) == (ref["self_adjoint"], ref["normal"])
    assert rep.quasinormal_source == ref["source"]
    if rep.quasinormal_source == "formula":
        assert rep.quasinormal == ref["normal"]
        assert rep.witnesses["quasinormal"] == ref["normal_witness"]
    assert _bits(rep.residuals["atom_deviation"]) == _bits(ref["atom_deviation"])
    assert _bits(rep.residuals["max_imag"]) == _bits(ref["max_imag"])
    assert rep.witnesses["normal"] == ref["normal_witness"]
    assert rep.witnesses["self_adjoint"] == ref["self_adjoint_witness"]

    reference_c = multiplication_domain_min_c(cond_exp(T.symbol, T.partition, T.space))
    assert _bits(domain_invariance_min_c(T)) == _bits(reference_c)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_adjoint_identity(seed):
    # <T f, g> == <f, T* g> for random vectors
    rng = np.random.default_rng(seed)
    T = random_operator(rng, max_n=32)
    f = MFunction(rng.standard_normal(T.n) + 1j * rng.standard_normal(T.n))
    g = MFunction(rng.standard_normal(T.n) + 1j * rng.standard_normal(T.n))
    lhs = weighted_inner_product(apply(T, f), g, T.space)
    rhs = weighted_inner_product(f, apply_adjoint(T, g), T.space)
    scale = math.sqrt(
        weighted_inner_product(f, f, T.space).real
        * weighted_inner_product(g, g, T.space).real
    )
    assert abs(lhs - rhs) <= 1e-10 * max(scale, 1.0)


def test_rank_bounded_by_atom_count():
    rng = np.random.default_rng(1)
    for _ in range(5):
        T = random_operator(rng, max_n=24)
        from wcelab.oracle import matrix_of

        rank = np.linalg.matrix_rank(matrix_of(T), tol=1e-10)
        assert rank <= T.partition.atom_count


# -------------------------------------------------------------- classification


def test_classify_self_adjoint_instance():
    T = small_op([2.0, 2.0, -1.0], [0, 0, 1])
    rep = classify(T, 1e-8)
    assert rep.self_adjoint and rep.normal and rep.quasinormal
    assert rep.quasinormal_source == "formula"


def test_classify_normal_not_self_adjoint():
    T = small_op([2.0j, 2.0j, -1.0], [0, 0, 1])
    rep = classify(T, 1e-8)
    assert rep.normal and not rep.self_adjoint
    assert rep.witnesses["self_adjoint"] in (0, 1)


def test_classify_not_normal_with_witness():
    T = small_op([1.0, 3.0, -1.0], [0, 0, 1])
    rep = classify(T, 1e-8)
    assert not rep.normal and not rep.self_adjoint
    assert rep.witnesses["normal"] == 0  # the varying atom
    assert rep.residuals["atom_deviation"] > 0.9


def test_classify_real_not_normal_quasinormal_fails():
    # u = (1, 3) is not constant on its atom, so T is neither normal nor
    # quasinormal; the quasinormal witness is that atom
    T = small_op([1.0, 3.0], [0, 0])
    rep = classify(T, 1e-8)
    assert not rep.quasinormal
    assert rep.witnesses["quasinormal"] is not None


def test_classify_zero_mean_delegates_to_oracle():
    # u with E(u) = 0 but E(|u|^2) > 0: supports differ, dense fallback
    T = small_op([1.0, -1.0], [0, 0])
    rep = classify(T, 1e-8)
    assert rep.quasinormal_source == "oracle"
    assert not rep.normal


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_classify_ordering_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    T = random_operator(rng, max_n=32)
    rep = classify(T, 1e-8)
    if rep.self_adjoint:
        assert rep.normal
    if rep.normal:
        assert rep.quasinormal


def _verdicts(rep):
    return (rep.self_adjoint, rep.normal, rep.quasinormal)


def _rebuilt(masses, atom_of, u):
    return WeightedCondExpOperator(
        FiniteMeasureSpace(masses), Partition(atom_of), MFunction(u)
    )


def _scale_symbol(T, c, rng):
    return _rebuilt(T.space.masses, T.partition.atom_of, c * T.symbol.values)


def _scale_masses(T, c, rng):
    return _rebuilt(c * T.space.masses, T.partition.atom_of, T.symbol.values)


def _permute(T, c, rng):
    order = rng.permutation(T.n)
    return _rebuilt(T.space.masses[order], T.partition.atom_of[order], T.symbol.values[order])


def _split(T, c, rng):
    # one point of a non-singleton atom becomes two copies, each with half
    # its mass and the same symbol value
    sizes = np.bincount(T.partition.atom_of)
    candidates = np.flatnonzero(sizes[T.partition.atom_of] > 1)
    assume(candidates.size > 0)
    i = int(rng.choice(candidates))
    masses = T.space.masses.copy()
    masses[i] /= 2.0
    return _rebuilt(
        np.append(masses, masses[i]),
        np.append(T.partition.atom_of, T.partition.atom_of[i]),
        np.append(T.symbol.values, T.symbol.values[i]),
    )


@pytest.mark.parametrize("transform", [_scale_symbol, _scale_masses, _permute, _split])
@given(seed=seeds, log10_c=st.floats(min_value=-5.0, max_value=6.0))
@settings(max_examples=60, deadline=None)
def test_verdicts_do_not_depend_on_units_order_or_refinement(transform, seed, log10_c):
    rng = np.random.default_rng(seed)
    T = random_operator(rng, max_n=32)
    V = transform(T, 10.0**log10_c, rng)
    rep = classify(V, 1e-8)
    assert _verdicts(rep) == _verdicts(classify(T, 1e-8))
    if transform in (_scale_symbol, _scale_masses):
        assert _verdicts(rep) == residuals(V).verdicts(1e-8)
    if transform is _split:
        # the split changes the order of the atom sums, so the atom means
        # may move in the last bits
        before, after = spectrum_formula(T), spectrum_formula(V)
        assert after.includes_zero == before.includes_zero
        np.testing.assert_allclose(after.values, before.values, rtol=1e-12, atol=1e-12)


def test_classify_normal_symbol_above_the_oracle_cap():
    # E(u) = 1e-5 clears tol at the first point while E(|u|^2) = 1e-10 does
    # not, so the supports differ; a normal symbol needs no dense test
    u = np.concatenate([[1e-5], np.arange(1.0, 300.0)])
    rep = classify(small_op(u, np.arange(300)), 1e-8)
    assert _verdicts(rep) == (True, True, True)
    assert rep.quasinormal_source == "formula"


@pytest.mark.xfail(
    strict=True,
    reason="the normal and self-adjoint tests compare absolute residuals with tol",
)
def test_classify_tiny_non_constant_symbol_matches_oracle():
    # the atom deviation 5e-9 is under tol, but relative to |u| the symbol
    # varies by 0.5%, which the oracle sees
    T = small_op(1e-6 * np.array([1.0, 1.01]), [0, 0])
    assert _verdicts(classify(T, 1e-8)) == residuals(T).verdicts(1e-8)


def test_classify_singleton_atoms_of_a_large_symbol_matches_oracle():
    # E is the identity on singleton atoms; a mass-weighted average of u
    # rounds by about eps |u| = 1e-8, which would read as a varying symbol
    rng = np.random.default_rng(0)
    n = 64
    masses = np.exp(rng.uniform(np.log(1e-3), 0.0, size=n))
    T = small_op(1e8 * rng.standard_normal(n), rng.permutation(n), masses)
    rep = classify(T, 1e-8)
    assert _verdicts(rep) == residuals(T).verdicts(1e-8) == (True, True, True)
    assert rep.residuals["atom_deviation"] == 0.0


@pytest.mark.parametrize("seed", [0, 1, 3, 4])
def test_classify_singleton_atoms_beside_a_larger_atom_match_oracle(seed):
    # as above, but points 0 and 63 share one atom and one value, so the
    # partition is not all singletons; E is still the identity on the
    # singleton atoms, whose rounded averages read as a varying symbol
    rng = np.random.default_rng(seed)
    n = 64
    masses = np.exp(rng.uniform(np.log(1e-3), 0.0, size=n))
    u = 1e8 * rng.standard_normal(n)
    atom_of = rng.permutation(n)
    atom_of[63], u[63] = atom_of[0], u[0]
    T = small_op(u, np.unique(atom_of, return_inverse=True)[1], masses)
    lone = T.partition.singleton_points
    assert lone.size == n - 2
    assert np.array_equal(T.atom_mean[T.partition.atom_of[lone]], u[lone])
    rep = classify(T, 1e-8)
    assert _verdicts(rep) == residuals(T).verdicts(1e-8) == (True, True, True)


# ------------------------------------------------------------------------ polar


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_polar_reconstruction(seed):
    rng = np.random.default_rng(seed)
    T = random_operator(rng, max_n=32)
    parts = polar(T, 1e-10)
    f = MFunction(rng.standard_normal(T.n) + 1j * rng.standard_normal(T.n))
    lhs = apply_isometry(T, parts, apply_modulus(T, parts, f))
    rhs = apply(T, f)
    scale = max(float(np.linalg.norm(rhs.values)), 1.0)
    assert np.linalg.norm(lhs.values - rhs.values) <= 1e-9 * scale


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_modulus_is_positive(seed):
    # <|T| f, f> real and nonnegative
    rng = np.random.default_rng(seed)
    T = random_operator(rng, max_n=24)
    parts = polar(T, 1e-10)
    f = MFunction(rng.standard_normal(T.n) + 1j * rng.standard_normal(T.n))
    q = weighted_inner_product(apply_modulus(T, parts, f), f, T.space)
    scale = weighted_inner_product(f, f, T.space).real
    assert abs(q.imag) <= 1e-9 * max(scale, 1.0)
    assert q.real >= -1e-9 * max(scale, 1.0)


def test_polar_symbols_vanish_off_support():
    # second point has u = 0 on its own atom: E(|u|^2) = 0 there; the last
    # two share an atom with E(|u|^2) = 1e-12, below the cut but not 0
    T = small_op([3.0, 0.0, 1e-6, -1e-6j], [0, 1, 2, 2])
    parts = polar(T, 1e-10)
    np.testing.assert_array_equal(parts.support_set, [0])
    np.testing.assert_array_equal(parts.atom_support, [True, False, False])
    np.testing.assert_array_equal(parts.atom_scale, [1 / 3, 0.0, 0.0])
    f = MFunction(np.array([1 + 2j, 5 - 1j, 2.0, 3j]))
    for g in (apply_isometry(T, parts, f), apply_modulus(T, parts, f)):
        assert np.all(g.values[1:] == 0)
        assert g.values[0] != 0


@pytest.mark.parametrize("n", [1, 7, BLOCK + 1])
@pytest.mark.parametrize("shape", ["singletons", "point-order", "coarse"])
@pytest.mark.parametrize("support", ["full", "partial"])
def test_polar_support_set_is_the_points_of_the_supported_atoms(n, shape, support):
    """support_set is np.flatnonzero(atom_support[atom_of]), the same bits
    and dtype, whether every atom is in the support (then no point is
    gathered or scanned) or only some are, and whether singleton labels are
    in point order (then the mask is not gathered) or permuted."""
    rng = np.random.default_rng([n, len(shape), len(support)])
    m = max(1, n // 3) if shape == "coarse" else n
    atom_of = np.arange(n) if shape == "point-order" else rng.permutation(np.arange(n) % m)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if support == "partial":
        u[atom_of == m - 1] = 0.0  # E(|u|^2) = 0 on the last atom
    sp = FiniteMeasureSpace(np.exp(rng.uniform(np.log(1e-3), 0.0, size=n)))
    T = WeightedCondExpOperator(sp, Partition(atom_of), MFunction(u))
    parts = polar(T, 1e-8)
    assert parts.atom_support.all() == (support == "full")
    want = np.flatnonzero(parts.atom_support[atom_of])
    assert parts.support_set.dtype == want.dtype
    assert _bits(parts.support_set) == _bits(want)


@pytest.mark.parametrize("shape", ["singletons", "point-order", "one-atom", "coarse"])
def test_polar_parts_live_on_the_atoms(shape):
    rng = np.random.default_rng(5)
    T = _shaped_operator(rng, shape)
    parts = polar(T, 1e-8)
    m, atom_of = T.partition.atom_count, T.partition.atom_of
    assert parts.atom_scale.shape == parts.atom_support.shape == (m,)
    assert parts.atom_scale.dtype == float and parts.atom_support.dtype == bool
    assert parts.support_set.size == np.count_nonzero(parts.atom_support[atom_of])
    # U is T followed by the atom scale, with the same products
    f = MFunction(rng.standard_normal(T.n) + 1j * rng.standard_normal(T.n))
    assert _bits(apply_isometry(T, parts, f).values) == _bits(
        parts.atom_scale[atom_of] * apply(T, f).values
    )


@pytest.mark.parametrize("shape", ["singletons", "point-order", "coarse"])
@pytest.mark.parametrize("u_kind", ["real", "complex"])
@pytest.mark.parametrize("f_kind", ["real", "complex"])
def test_actions_leave_f_and_u_unchanged(shape, u_kind, f_kind):
    rng = np.random.default_rng(6)
    T = _shaped_operator(rng, shape)
    if u_kind == "real":
        T = WeightedCondExpOperator(T.space, T.partition, MFunction(T.symbol.values.real))
    f = rng.standard_normal(T.n)
    f = MFunction(f + 1j * rng.standard_normal(T.n) if f_kind == "complex" else f)
    parts = polar(T, 1e-8)
    f_before, u_before = _bits(f.values), _bits(T.symbol.values)
    for act in (
        lambda: apply_adjoint(T, f),
        lambda: apply_modulus(T, parts, f),
        lambda: apply_isometry(T, parts, f),
    ):
        out = act().values
        assert _bits(f.values) == f_before and _bits(T.symbol.values) == u_before
        assert not np.shares_memory(out, f.values) and not np.shares_memory(out, T.symbol.values)


@pytest.mark.parametrize("atoms", [16, None], ids=["16", "singletons"])
@pytest.mark.parametrize("u_kind", ["real", "complex"])
@pytest.mark.parametrize("f_kind", ["real", "complex"])
def test_adjoint_is_conj_u_times_E_f_bit_for_bit(atoms, u_kind, f_kind):
    rng = np.random.default_rng(7)
    n = BLOCK + 17
    sp, p = _long_partition(rng, n, atoms)
    u = rng.standard_normal(n) + (1j * rng.standard_normal(n) if u_kind == "complex" else 0)
    f = rng.standard_normal(n) + (1j * rng.standard_normal(n) if f_kind == "complex" else 0)
    T = WeightedCondExpOperator(sp, p, MFunction(u))
    want = np.conj(u) * cond_exp(MFunction(f), p, sp).values
    assert _bits(apply_adjoint(T, MFunction(f)).values) == _bits(want)


_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, np.nan)
_WALK_LENGTHS = (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 3 * BLOCK + 17)


def _with_specials(rng, n, kind):
    """Gaussian values, real or complex, with entries from _SPECIALS, drawn
    for each part apart, at the block edges, the last five points and 64
    random points."""
    v = rng.standard_normal(n) + (1j * rng.standard_normal(n) if kind == "complex" else 0)
    edges = [i for i in (0, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK) if i < n]
    at = np.unique(np.concatenate([edges, np.arange(max(0, n - 5), n), rng.integers(0, n, 64)]))
    for part in (v.real, v.imag) if kind == "complex" else (v,):
        part[at] = rng.choice(_SPECIALS, at.size)
    return v


def _walk_labels(rng, n, labels):
    if labels == "arange":
        return np.arange(n)
    if labels == "permuted":
        return rng.permutation(n)
    atom_of = np.concatenate([np.arange(min(n, 16)), rng.integers(0, 16, size=max(0, n - 16))])
    rng.shuffle(atom_of)
    return atom_of


def _whole_array_epilogues(T, parts, f):
    """T f, T* f, U f and |T| f as whole-array expressions: u f on
    singletons, else the gathered atom averages of u f; conj(u) E(f); the
    gathered scaled atom averages, or u f times the gathered scale in place
    on singletons; and conj(u) U f.  Each product's second operand is
    named: numpy elides a temporary operand of 256 KiB or more into the
    output, and for a real u it would swap the operands of conj(u) * g,
    which changes the sign of an underflowed zero or of a NaN."""
    sp, p, u = T.space, T.partition, T.symbol.values
    if p.is_singletons:
        tf = u * f.values
        iso = tf.copy()
        iso *= parts.atom_scale[p.atom_of]
    else:
        tf = atom_averages(f, p, sp, times=u)[p.atom_of]
        avg = atom_averages(f, p, sp, times=u)
        avg *= parts.atom_scale
        iso = avg[p.atom_of]
    g = cond_exp(f, p, sp).values
    return tf, np.conj(u) * g, iso, np.conj(u) * iso


@pytest.mark.parametrize("n", _WALK_LENGTHS)
@pytest.mark.parametrize("labels", ["arange", "permuted", "16 atoms"])
@pytest.mark.parametrize("u_kind", ["real", "complex"])
@pytest.mark.parametrize("f_kind", ["real", "complex"])
def test_blocked_epilogues_keep_the_bits_of_whole_array_ones(n, labels, u_kind, f_kind):
    """T*, U, |T| and classify's max |Im u| walk u in blocks; each output,
    and T f, is the whole-array one bit for bit, signed zeros, infinities
    and NaNs included, at every length around the block edges."""
    rng = np.random.default_rng([n, len(labels), len(u_kind), len(f_kind)])
    sp = FiniteMeasureSpace(np.exp(rng.uniform(np.log(1e-3), 0.0, size=n)))
    u, f = _with_specials(rng, n, u_kind), MFunction(_with_specials(rng, n, f_kind))
    with np.errstate(all="ignore"):
        T = WeightedCondExpOperator(sp, Partition(_walk_labels(rng, n, labels)), MFunction(u))
        parts = polar(T, 1e-8)
        tf, adjoint, iso, modulus = _whole_array_epilogues(T, parts, f)
        assert _bits(apply(T, f).values) == _bits(tf)
        assert _bits(apply_adjoint(T, f).values) == _bits(adjoint)
        assert _bits(apply_isometry(T, parts, f).values) == _bits(iso)
        assert _bits(apply_modulus(T, parts, f).values) == _bits(modulus)
        rep = classify(T, 1e-8)
    imag_abs = np.abs(u.imag)
    worst = int(np.argmax(imag_abs))
    assert _bits(rep.residuals["max_imag"]) == _bits(float(imag_abs[worst]))
    assert rep.self_adjoint == (rep.normal and bool(imag_abs[worst] <= 1e-8))
    assert rep.witnesses["self_adjoint"] == (None if rep.self_adjoint else worst)


@pytest.mark.parametrize("n", [1, 2, 33, BLOCK + 1])
@pytest.mark.parametrize("kind", ["coarse", "mixed", "singletons"])
@pytest.mark.parametrize("f_kind", ["real", "complex"])
def test_real_symbols_skip_imaginary_work_with_the_same_bits(n, kind, f_kind):
    """A float64 u is its own conjugate and has no imaginary part: T* f and
    |T| f multiply by u itself, and classify's max |Im u| and its witness
    come from the dtype.  Each is the conj(u) reference bit for bit, with
    NaN, -NaN and signed zero entries in u."""
    rng = np.random.default_rng([n, len(kind), len(f_kind)])
    pairs = 2 * (n // 4)
    atom_of = {
        "coarse": np.arange(n) // 4,
        "mixed": np.concatenate([np.arange(pairs) // 2, pairs // 2 + np.arange(n - pairs)]),
        "singletons": np.arange(n),
    }[kind][rng.permutation(n)]
    sp = FiniteMeasureSpace(np.exp(rng.uniform(np.log(1e-3), 0.0, size=n)))
    u = rng.standard_normal(n)
    at = rng.permutation(n)[: n // 3 + 1]
    u[at] = rng.choice([np.nan, -np.nan, 0.0, -0.0], at.size)
    f = MFunction(rng.standard_normal(n) + (1j * rng.standard_normal(n) if f_kind == "complex" else 0))
    with np.errstate(all="ignore"):
        T = WeightedCondExpOperator(sp, Partition(atom_of), MFunction(u))
        assert T.symbol.values.dtype == np.float64
        parts = polar(T, 1e-8)
        adjoint = np.multiply(np.conj(u), cond_exp(f, T.partition, sp).values)
        modulus = np.multiply(np.conj(u), apply_isometry(T, parts, f).values)
        for got, want in ((apply_adjoint(T, f).values, adjoint), (apply_modulus(T, parts, f).values, modulus)):
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        rep = classify(T, 1e-8)
    imag = np.abs(np.conj(u).imag)
    worst = int(np.argmax(imag))
    assert np.array_equal(np.float64(rep.residuals["max_imag"]).view(np.uint64), imag[worst].view(np.uint64))
    assert rep.witnesses["self_adjoint"] == (None if rep.self_adjoint else worst)


@pytest.mark.parametrize("n", [2 * BLOCK + 1, 3 * BLOCK + 17])
def test_max_imag_witness_is_the_first_maximum_or_the_first_nan(n):
    """Ties and NaNs in |Im u| across block edges: as ``np.argmax`` on the
    whole array, the first maximum wins, and any NaN beats every number."""
    rng = np.random.default_rng(n)
    sp, p = _long_partition(rng, n, None)
    u = rng.standard_normal(n) + 1j * rng.uniform(-1.0, 1.0, n)
    u.imag[[BLOCK - 1, BLOCK, 2 * BLOCK]] = 7.0, -7.0, 7.0
    T = WeightedCondExpOperator(sp, p, MFunction(u))
    rep = classify(T, 1e-8)
    assert rep.witnesses["self_adjoint"] == BLOCK - 1 and rep.residuals["max_imag"] == 7.0
    u.imag[[BLOCK + 5, 2 * BLOCK]] = np.nan
    rep = classify(WeightedCondExpOperator(sp, p, MFunction(u)), 1e-8)
    assert rep.witnesses["self_adjoint"] == BLOCK + 5 and math.isnan(rep.residuals["max_imag"])
    assert not rep.self_adjoint


@pytest.mark.parametrize("atoms", [16, None], ids=["16", "singletons"])
def test_blocked_epilogues_make_no_throwaway_point_array(atoms):
    """numpy reports its buffers to tracemalloc.  At 8 * BLOCK points T* f
    and |T| f hold one complex n-sized result, and classify on singletons
    none, each with two complex blocks of slack; a throwaway conj(u), a
    gathered scale or an n-sized |Im u| would each break its bound."""
    n = 8 * BLOCK
    rng = np.random.default_rng(14)
    sp, p = _long_partition(rng, n, atoms)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    T = WeightedCondExpOperator(sp, p, MFunction(u))
    parts = polar(T, 1e-8)
    f = MFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    calls = {
        "apply_adjoint": (lambda: apply_adjoint(T, f), 16 * n),
        "apply_modulus": (lambda: apply_modulus(T, parts, f), 16 * n),
    }
    if atoms is None:
        calls["classify"] = (lambda: classify(T, 1e-8), 0)
    for name, (call, result_bytes) in calls.items():
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= result_bytes + 2 * 16 * (BLOCK + 1), (
            f"{name} peaked at {peak / (16 * n):.2f}x 16n bytes"
        )


def test_isometry_is_isometric_on_modulus_range():
    rng = np.random.default_rng(2)
    for _ in range(10):
        T = random_operator(rng, max_n=24)
        parts = polar(T, 1e-10)
        f = MFunction(rng.standard_normal(T.n) + 1j * rng.standard_normal(T.n))
        g = apply_modulus(T, parts, f)
        ng = math.sqrt(weighted_inner_product(g, g, T.space).real)
        ug = apply_isometry(T, parts, g)
        nug = math.sqrt(weighted_inner_product(ug, ug, T.space).real)
        assert abs(nug - ng) <= 1e-9 * max(ng, 1.0)


# --------------------------------------------------------------------- spectrum


def test_spectrum_singleton_atoms_is_symbol_range():
    T = small_op([1.0, 2.0, 2.0, 5.0], [0, 1, 2, 3])
    rep = spectrum_formula(T)
    assert np.allclose(sorted(v.real for v in rep.values), [1.0, 2.0, 5.0])
    assert not rep.includes_zero


def test_spectrum_coarse_partition_adds_zero():
    T = small_op([1.0, 3.0, 5.0, 5.0], [0, 0, 1, 1])
    rep = spectrum_formula(T)
    # E(u) values: 2 and 5, plus 0
    assert np.allclose(sorted(v.real for v in rep.values), [0.0, 2.0, 5.0])
    assert rep.includes_zero


def test_spectrum_no_duplicate_zero():
    T = small_op([1.0, -1.0, 5.0, 5.0], [0, 0, 1, 1])
    rep = spectrum_formula(T)
    assert sum(1 for v in rep.values if abs(v) <= 1e-10) == 1


def test_spectrum_merges_zero_mean_noise_at_the_scale_of_u():
    # E(u) on a zero-mean atom is rounding noise of about eps |u|, different
    # on each atom; merged at the scale of u, not of E(u), it is one value,
    # which stands for the 0 of the kernel
    rng = np.random.default_rng(0)
    atom_of = np.repeat(np.arange(8), 3)
    masses = np.exp(rng.uniform(np.log(1e-3), 0.0, size=24))
    sp = FiniteMeasureSpace(masses)
    u = 1e3 * (rng.standard_normal(24) + 1j * rng.standard_normal(24))
    u -= cond_exp(MFunction(u), Partition(atom_of), sp).values
    T = small_op(u, atom_of, masses)
    assert np.unique(T.atom_mean).size > 1
    rep = spectrum_formula(T)
    assert rep.includes_zero
    assert len(rep.values) == 1 and rep.values[0] in T.atom_mean.tolist()


@pytest.mark.parametrize("tiny, includes_zero", [(1e-20, True), (1e-6, False)])
def test_spectrum_of_singletons_includes_zero_iff_a_value_is_at_rounding_scale(tiny, includes_zero):
    # the value is reported as it is, never snapped to 0
    rep = spectrum_formula(small_op([tiny, 1.0, 2.0], [0, 1, 2]))
    assert rep.values == (tiny, 1.0, 2.0)
    assert rep.includes_zero == includes_zero


def _assert_spectrum_scales_with_the_symbol(T):
    base = spectrum_formula(T)
    ref = np.array(base.values)
    scale = float(np.max(np.abs(T.symbol.values)))
    for j in range(-9, 10):
        c = 10.0**j
        rep = spectrum_formula(_scale_symbol(T, c, None))
        assert (len(rep.values), rep.includes_zero) == (len(ref), base.includes_zero), j
        # matched by distance: values with equal real parts may swap order
        dist = np.abs(np.subtract.outer(np.array(rep.values) / c, ref))
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-12 * scale, j


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_spectrum_of_a_scenario_scales_with_the_symbol(name):
    sc = build_scenario(name, {})
    T = WeightedCondExpOperator(sc.space, sc.partition, sc.symbol)
    _assert_spectrum_scales_with_the_symbol(T)


@given(seeds, st.sampled_from(SPECIAL_KINDS))
@settings(max_examples=60, deadline=None)
def test_spectrum_scales_with_the_symbol(seed, kind):
    _assert_spectrum_scales_with_the_symbol(random_operator(np.random.default_rng(seed), 32, kind))


# ----------------------------------------------------------------- domains


def test_poisson_densely_defined():
    rep = densely_defined(poisson_parity_spec(1.0), 1e-12)
    assert rep.densely_defined
    assert rep.sigma_finite_restriction
    assert rep.verdicts_agree
    assert set(rep.per_atom) == {"zero", "odd", "even"}
    assert all(v.converges for v in rep.per_atom.values())


def test_poisson_atom_means_match_series():
    rep = densely_defined(poisson_parity_spec(1.0), 1e-12)
    # E(|u|^2) on the odd atom: sum x^2 mu_x / sum mu_x over odd x
    num = sum(x * x * math.exp(-1.0 - math.lgamma(x + 1)) for x in range(1, 200, 2))
    den = sum(math.exp(-1.0 - math.lgamma(x + 1)) for x in range(1, 200, 2))
    assert rep.per_atom["odd"].sq_mean == pytest.approx(num / den, abs=1e-9)


@pytest.mark.parametrize("theta", [1.0, 10.0, 100.0, 700.0, 1000.0])
def test_poisson_zero_atom_sq_mean_is_zero(theta):
    # u = 0 on the atom {0}: the tail bound, which covers all atoms together,
    # must not be charged to its mean square.  At theta = 1000 the atom's mass
    # e^-1000 underflows to 0.0, so the cut drops it and the bound covers it.
    spec = poisson_parity_spec(theta)
    rep = densely_defined(spec, 1e-12)
    if theta < 746:
        assert rep.per_atom["zero"].sq_mean == 0.0
    else:
        assert tuple(rep.per_atom) == truncate(spec, 1e-12, weighted=True).atom_ids
        assert "zero" not in rep.per_atom
        assert rep.densely_defined and rep.sigma_finite_restriction


@pytest.mark.parametrize("tail_tol", [0.0, -1.0, math.nan])
def test_tail_tol_must_be_positive(tail_tol):
    # rejected before any point is read, NaN included
    spec = poisson_parity_spec(1.0)
    with pytest.raises(ValueError, match="tail_tol must be positive"):
        truncate(spec, tail_tol)
    with pytest.raises(ValueError, match="tail_tol must be positive"):
        densely_defined(spec, tail_tol)


def test_geometric_blowup_not_densely_defined():
    rep = densely_defined(geometric_blowup_spec(), 1e-12)
    assert not rep.densely_defined
    assert not rep.sigma_finite_restriction
    assert rep.verdicts_agree
    assert not rep.per_atom["all"].converges
    assert rep.per_atom["all"].partial_sum >= 1e12


def test_uncertified_spec_is_an_error_not_a_guess():
    spec = CountableSpaceSpec(
        mass_at=lambda i: 2.0 ** (-(i + 1)),
        tail_bound=lambda N: 2.0 ** (-N),
        atom_of=lambda i: 0,
        symbol_at=lambda i: 1.0,
        weighted_tail_bound=None,
        divergent_atoms={},
    )
    with pytest.raises(UndecidableDomainError):
        densely_defined(spec, 1e-10)


def test_false_divergence_witness_rejected():
    spec = CountableSpaceSpec(
        mass_at=lambda i: 2.0 ** (-(i + 1)),
        tail_bound=lambda N: 2.0 ** (-N),
        atom_of=lambda i: "all",
        symbol_at=lambda i: 1.0,  # weighted series converges to 1
        weighted_tail_bound=None,
        divergent_atoms={"all": lambda target: 50},
    )
    with pytest.raises(UndecidableDomainError):
        densely_defined(spec, 1e-10)


def counting(spec):
    """The same spec, with mass_at, symbol_at and atom_of counting their calls."""
    calls = {"mass_at": 0, "symbol_at": 0, "atom_of": 0}

    def counted(name):
        fn = getattr(spec, name)

        def call(i):
            calls[name] += 1
            return fn(i)

        return call

    return dataclasses.replace(spec, **{name: counted(name) for name in calls}), calls


def three_atom_geometric_spec():
    r = 0.5
    return CountableSpaceSpec(
        mass_at=lambda i: (1 - r) * r**i,
        tail_bound=lambda N: r**N,
        atom_of=lambda i: i % 3,
        symbol_at=lambda i: 1.0 + i % 3,
        weighted_tail_bound=lambda N: 9.0 * r**N,
    )


def test_densely_defined_reads_each_point_once():
    spec, calls = counting(three_atom_geometric_spec())
    rep = densely_defined(spec, 1e-9)
    scanned = sum(v.terms_used for v in rep.per_atom.values())
    assert scanned == math.ceil(math.log2(9e9))
    assert calls == {"mass_at": scanned, "symbol_at": scanned, "atom_of": scanned}


def test_truncate_then_densely_defined_reads_each_point_once():
    spec, calls = counting(three_atom_geometric_spec())
    assert truncate(spec, 1e-9).size == math.ceil(math.log2(1e9))
    densely_defined(spec, 1e-9)
    read = math.ceil(math.log2(9e9))  # the weighted cut is the longer one
    assert calls == {"mass_at": read, "symbol_at": read, "atom_of": read}


def test_two_divergence_witnesses_read_each_point_once():
    # mu_i |u_i|^2 = 2^i, so one term at index >= log2(target) reaches it
    def witness(parity):
        def end(target):  # the first index of this parity past log2(target)
            e = math.ceil(math.log2(target))
            return e + (e - parity) % 2

        return end

    spec, calls = counting(
        CountableSpaceSpec(
            mass_at=lambda i: 2.0 ** (-i),
            tail_bound=lambda N: 2.0 ** (1 - N),
            atom_of=lambda i: i % 2,
            symbol_at=lambda i: complex(2.0**i),
            divergent_atoms={0: witness(0), 1: witness(1)},
        )
    )
    rep = densely_defined(spec, 1e-12)
    assert not rep.densely_defined
    # the witnesses name 40 and 41 for 1e12 (log2 1e12 ~ 39.9)
    assert [v.terms_used for v in rep.per_atom.values()] == [41, 42]
    assert calls == {"mass_at": 42, "symbol_at": 42, "atom_of": 42}


@pytest.mark.parametrize("theta", [1.0, 10.0, 100.0, 700.0, 1000.0])
def test_poisson_parity_is_stable_in_the_truncation(theta):
    rep = truncation_stability(poisson_parity_spec(theta))
    tols = operator_module.STABILITY_TAIL_TOLS
    assert tols == (1e-6, 1e-9, 1e-12)
    cuts = [truncate(poisson_parity_spec(theta), t, weighted=True) for t in tols]
    assert rep.sizes == tuple(c.size for c in cuts)
    assert rep.verdicts == ((False, False, False),) * 3
    assert [(m.atom, m.coarse_tol, m.fine_tol) for m in rep.moves] == [
        (a, tols[i], tols[j])
        for i in range(3)
        for j in range(i + 1, 3)
        for a in cuts[i].atom_ids
    ]
    assert rep.stable


def test_stability_bounds_hold_against_a_much_finer_cut(monkeypatch):
    # the coarse cut's bound covers any longer cut, here one at 1e-15
    monkeypatch.setattr(operator_module, "STABILITY_TAIL_TOLS", (1e-3, 1e-15))
    rep = truncation_stability(poisson_parity_spec(10.0))
    assert rep.sizes[0] < rep.sizes[1]
    assert rep.means_within_bounds
    assert max(m.sq_mean_move for m in rep.moves) > 1e-6  # the cut at 1e-3 moved


def test_truncation_stability_reads_each_point_once():
    spec, calls = counting(poisson_parity_spec(1000.0))
    rep = truncation_stability(spec)
    assert calls == dict.fromkeys(calls, max(rep.sizes))
    assert densely_defined(spec, 1e-12).densely_defined  # the finest cut again
    assert calls == dict.fromkeys(calls, max(rep.sizes))


def test_a_weighted_bound_that_under_reports_moves_the_means_too_far():
    spec = poisson_parity_spec(10.0)
    lying = dataclasses.replace(spec, weighted_tail_bound=lambda N: 1e-6 * spec.weighted_tail_bound(N))
    rep = truncation_stability(lying)
    assert rep.verdicts_stable
    assert not rep.means_within_bounds and not rep.stable
    assert truncation_stability(spec).stable


def test_an_infinite_mass_bound_certifies_only_through_the_weighted_bound():
    # u = 0 on atom 0, so its E(|u|^2) stays certified by W alone
    spec = CountableSpaceSpec(
        mass_at=lambda i: 2.0 ** (-(i + 1)),
        tail_bound=lambda N: math.inf,
        atom_of=lambda i: i % 2,
        symbol_at=lambda i: float(i % 2),
        weighted_tail_bound=lambda N: 2.0 ** (-N),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = truncation_stability(spec)
    assert rep.stable
    for m in rep.moves:
        assert m.mean_allowed == math.inf
        assert math.isfinite(m.sq_mean_allowed) == (m.atom == 0)


def test_a_verdict_the_cut_decides_is_not_stable():
    # u is 1 up to index 39 and 2 after: the cut at 1e-6 ends before index 40
    spec = CountableSpaceSpec(
        mass_at=lambda i: 2.0 ** (-(i + 1)),
        tail_bound=lambda N: 2.0 ** (-N),
        atom_of=lambda i: 0,
        symbol_at=lambda i: 1.0 if i < 40 else 2.0,
        weighted_tail_bound=lambda N: 4.0 * 2.0 ** (-N),
    )
    rep = truncation_stability(spec)
    assert rep.sizes[0] < 40 < rep.sizes[-1]
    assert rep.verdicts[0] == (True, True, True) and rep.verdicts[-1] == (False, False, False)
    assert rep.means_within_bounds
    assert not rep.verdicts_stable and not rep.stable


@pytest.mark.parametrize("theta", [1.0, 10.0, 100.0, 700.0, 1000.0])
def test_poisson_sq_means_match_the_truncated_space(theta):
    spec = poisson_parity_spec(theta)
    rep = densely_defined(spec, 1e-12)
    tr = truncate(spec, 1e-12, weighted=True)
    sq = MFunction(np.abs(tr.symbol.values) ** 2)
    expected = atom_averages(sq, tr.partition, tr.space)
    sizes = np.bincount(tr.partition.atom_of)
    assert tuple(rep.per_atom) == tr.atom_ids
    for k, a in enumerate(tr.atom_ids):
        verdict = rep.per_atom[a]
        assert verdict.sq_mean == expected[k]
        assert verdict.tail_bound == tr.discarded_mass_bound
        assert verdict.terms_used == sizes[k]


def test_weighted_bound_that_never_reaches_the_tolerance_is_not_summable():
    def unread(i):
        raise AssertionError(f"point {i} read")

    spec = CountableSpaceSpec(
        mass_at=unread,
        tail_bound=lambda N: 2.0 ** (-N),
        atom_of=unread,
        symbol_at=unread,
        weighted_tail_bound=lambda N: 1.0,
    )
    with pytest.raises(NotSummableError, match="never dropped below 1e-10"):
        densely_defined(spec, 1e-10)


def _interleaved_spec(witness):
    # atom 0 holds the even points, with weighted terms i^2; every odd point
    # (atom 1) carries a weighted term of 1e18, enough to pass any target if
    # it were counted towards atom 0
    return CountableSpaceSpec(
        mass_at=lambda i: 1.0,
        tail_bound=lambda N: math.inf,
        atom_of=lambda i: i % 2,
        symbol_at=lambda i: complex(i if i % 2 == 0 else 1e9),
        divergent_atoms={0: witness},
    )


def _even_index_reaching(target):
    """Smallest even index through which the atom-0 sum of i^2 reaches target."""
    i, total = 0, 0.0
    while total + i * i < target:
        total += i * i
        i += 2
    return i


def test_interleaved_divergence_witness_is_checked_on_its_own_atom():
    rep = densely_defined(_interleaved_spec(_even_index_reaching), 1e-12)
    verdict = rep.per_atom[0]
    assert not rep.densely_defined and not verdict.converges
    assert verdict.partial_sum >= 1e12
    assert verdict.terms_used == _even_index_reaching(1e12) + 1

    # reaches 1e3 and 1e6, but stops short of 1e12
    def false_witness(target):
        return _even_index_reaching(min(target, 1e6)) + (100 if target > 1e6 else 0)

    with pytest.raises(UndecidableDomainError, match="below target 1000000000000.0"):
        densely_defined(_interleaved_spec(false_witness), 1e-12)


# ----------------------------------------------------- domain-invariance bound


def _exact_min_c(values) -> float:
    """max a^2 / (1 + a) over a = |f|^2, in exact rational arithmetic."""
    a = [Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in values]
    return float(max(x * x / (1 + x) for x in a))


def test_min_c_formula_small_cases():
    f = MFunction(np.array([0.0, 1.0, 2.0], dtype=complex))
    # a = |f|^2 in {0, 1, 4}; max a^2/(1+a) = 16/5
    assert multiplication_domain_min_c(f) == pytest.approx(16.0 / 5.0)
    assert multiplication_domain_min_c(MFunction(np.zeros(3, dtype=complex))) == 0.0


@given(
    st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=-150.0, max_value=150.0).map(lambda e: 10.0**e),
        ),
        min_size=1,
        max_size=20,
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_min_c_is_the_pointwise_maximum(magnitudes, seed):
    rng = np.random.default_rng(seed)
    values = np.array(magnitudes + [0.0]) * np.exp(2j * np.pi * rng.random(len(magnitudes) + 1))
    want = _exact_min_c(values)
    got = multiplication_domain_min_c(MFunction(values))
    # a few roundings of |f| and a, plus the last one in the subnormal range
    assert abs(got - want) <= 8 * np.finfo(float).eps * want + 5e-324


@pytest.mark.parametrize("magnitude", [1e78, 1e100, 1e160])
def test_min_c_of_a_large_symbol_is_exact_without_a_warning(magnitude):
    # a^2 overflows from |f| ~ 1.2e77 on, but c ~ |f|^2 stays finite until |f| ~ 1.3e154
    values = np.array([magnitude * np.exp(0.3j), -0.5 * magnitude, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = multiplication_domain_min_c(MFunction(values))
    if magnitude > 1e154:
        assert got == math.inf
    else:
        assert abs(got - _exact_min_c(values)) <= 8 * np.finfo(float).eps * got


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_min_c_is_minimal_and_sufficient(seed):
    rng = np.random.default_rng(seed)
    T = random_operator(rng, max_n=32)
    c = domain_invariance_min_c(T)
    a = np.abs(T.atom_mean) ** 2
    assert np.all(a**2 <= c * (1.0 + a) + 1e-12)
    # minimality: shrinking c breaks the inequality somewhere
    if c > 1e-12:
        assert np.any(a**2 > 0.999999 * c * (1.0 + a))
