import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcelab import oracle
from wcelab.cli import main
from wcelab.measure import TOLERANCES, FiniteMeasureSpace, MFunction, Partition, realize
from wcelab.operator import (
    SpectrumReport,
    WeightedCondExpOperator,
    apply,
    apply_adjoint,
    apply_isometry,
    apply_modulus,
    classify,
    polar,
    spectrum_formula,
)
from wcelab.oracle import (
    MATRIX_ORDER_CAP,
    NotHermitianError,
    NotPSDError,
    OracleResiduals,
    OrderCapError,
    hermitian_eig,
    matrix_of,
    min_singular_value,
    polar_check,
    psd_sqrt,
    residuals,
    spectrum_probe_check,
)
from wcelab.sampling import SPECIAL_KINDS, random_operator
from wcelab.scenarios import (
    SCENARIO_BUILDERS,
    build_block_partition,
    build_full_algebra,
    build_geometric_blowup,
    build_scenario,
    build_symmetric_interval,
    build_trivial_algebra,
)

seeds = st.integers(min_value=0, max_value=10_000)


def hand_op():
    sp = FiniteMeasureSpace(np.array([0.25, 0.75]))
    p = Partition(np.array([0, 0]))
    u = MFunction(np.array([2.0, 1.0 + 1.0j]))
    return WeightedCondExpOperator(sp, p, u)


def test_matrix_of_by_hand():
    # one atom, masses (1/4, 3/4): T f = constant E(u f); in orthonormal
    # coordinates M[j, i] = sqrt(mu_j) sqrt(mu_i) u_i
    T = hand_op()
    M = matrix_of(T)
    sm = np.sqrt(T.space.masses)
    expected = np.outer(sm, sm * T.symbol.values)
    assert np.allclose(M, expected, atol=1e-14)


@pytest.mark.xfail(
    strict=True,
    raises=RuntimeWarning,
    reason="realize applies the action to delta_i / sqrt(mu_i), which overflows on a subnormal mass",
)
def test_realize_overflows_on_a_subnormal_mass():
    # every |M[j, i]| = |u_i| sqrt(mu_i mu_j) / mu(atom) is at most max|u|,
    # but the basis vector of point 0 is 1e160 delta_0
    u = MFunction(np.array([-2 + 1e150j, 1e60 + 1e60j]))
    sp = FiniteMeasureSpace(np.array([1e-320, 1e150]))
    T = WeightedCondExpOperator(sp, Partition(np.zeros(2, dtype=int)), u)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        M = matrix_of(T)
    assert np.isfinite(M).all() and np.abs(M).max() <= np.abs(u.values).max()


def test_adjoint_matrix_is_conjugate_transpose():
    rng = np.random.default_rng(0)
    for _ in range(10):
        T = random_operator(rng, max_n=32)
        M = matrix_of(T)
        Ms = realize(T.space, lambda f: apply_adjoint(T, f))  # T*'s own action, not Mᴴ
        assert np.allclose(Ms, M.conj().T, atol=1e-12 * max(np.linalg.norm(M), 1.0))


def test_matrix_order_cap_enforced(monkeypatch):
    n = MATRIX_ORDER_CAP + 1
    sp = FiniteMeasureSpace(np.full(n, 1.0 / n))
    T = WeightedCondExpOperator(sp, Partition(np.arange(n)), MFunction(np.ones(n)))
    for _ in range(2):
        for fn in (matrix_of, residuals):
            with pytest.raises(OrderCapError):
                fn(T)
    # a matrix realized under a higher cap is not handed out under the real one
    with monkeypatch.context() as m:
        m.setattr(oracle, "MATRIX_ORDER_CAP", n)
        matrix_of(T)
        residuals(T)
    for fn in (matrix_of, residuals):
        with pytest.raises(OrderCapError):
            fn(T)


# ------------------------------------------------------ one matrix per operator


def _count_applies(monkeypatch):
    calls = []
    monkeypatch.setattr(oracle, "apply", lambda T, f: calls.append(T) or apply(T, f))
    return calls


def test_matrix_is_realized_once_and_read_only():
    T = random_operator(np.random.default_rng(3), max_n=32)
    M = matrix_of(T)
    assert matrix_of(T) is M
    with pytest.raises(ValueError):
        M[0, 0] = 0.0
    fresh = realize(T.space, lambda f: apply(T, f))
    assert M.dtype == fresh.dtype and M.tobytes() == fresh.tobytes()


def test_oracle_checks_share_one_realization(monkeypatch):
    T = random_operator(np.random.default_rng(4), max_n=32)
    calls = _count_applies(monkeypatch)
    res = residuals(T)
    assert residuals(T) is res
    spectrum_probe_check(T, spectrum_formula(T))
    polar_check(T, polar(T, 1e-8), 1e-8)
    assert len(calls) == T.n


def test_equal_operators_realize_their_own_matrices(monkeypatch):
    sc = build_block_partition(12, 3)
    T1, T2 = (WeightedCondExpOperator(sc.space, sc.partition, sc.symbol) for _ in range(2))
    T_copy = WeightedCondExpOperator(
        FiniteMeasureSpace(sc.space.masses.copy()),
        Partition(sc.partition.atom_of.copy()),
        MFunction(sc.symbol.values.copy()),
    )
    calls = _count_applies(monkeypatch)
    M1, M2, M_copy = matrix_of(T1), matrix_of(T2), matrix_of(T_copy)
    assert M1 is not M2 and M_copy is not M1 and M_copy is not M2
    assert np.array_equal(M1, M2) and np.array_equal(M1, M_copy)
    assert len(calls) == 3 * T1.n
    # same order, other symbol: its own matrix, not the first one's
    T3 = WeightedCondExpOperator(sc.space, sc.partition, MFunction(2 * sc.symbol.values))
    assert not np.array_equal(matrix_of(T3), M1)
    assert residuals(T3) != residuals(T1)


# -------------------------------------------------------------- hermitian_eig


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_reconstructs():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    H = A + A.conj().T
    w, v = hermitian_eig(H)
    assert np.all(np.diff(w) >= -1e-12)
    assert np.allclose(v @ v.conj().T, np.eye(12), atol=1e-12)
    assert np.allclose((v * w) @ v.conj().T, H, atol=1e-10)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    H = A.conj().T @ A
    R = psd_sqrt(H)
    assert np.allclose(R, R.conj().T, atol=1e-12)
    assert np.allclose(R @ R, H, atol=1e-9 * max(np.linalg.norm(H), 1.0))
    w, _ = hermitian_eig(R)
    assert w[0] >= -1e-10


@pytest.mark.parametrize("e", [-1060, 0, 1000])
def test_psd_sqrt_is_exact_across_the_exponent_range(e):
    # 2^e diag(4, 1) has root 2^(e/2) diag(2, 1), exactly; at e = 1000 its
    # ||H||_F overflows and at e = -1060 its entries are subnormal
    H = np.ldexp(np.diag([4.0, 1.0]), e)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        R = psd_sqrt(H)
    assert np.array_equal(R, np.ldexp(np.diag([2.0, 1.0]), e // 2))


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_psd_sqrt_clamps_tiny_negatives():
    R = psd_sqrt(np.diag([1.0, -1e-14]))
    assert np.allclose(R, np.diag([1.0, 0.0]), atol=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("solve", [hermitian_eig, psd_sqrt])
def test_non_finite_input_is_rejected(solve, bad):
    # a NaN fails every relative check silently, and an inf turns into NaN
    # in the arithmetic; both are refused before any arithmetic on H
    H = np.diag([1.0, 1.0]).astype(complex)
    H[0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="NaN or infinite"):
            solve(H)


# ------------------------------------------------------ split eigensolvers

# instances above order 64, drawn as oracle-check draws them at max-n 256,
# and instances of order 33-64, the lowest split orders, drawn at max-n 64
_SPLIT_SEEDS = [s for s in range(64) if random_operator(np.random.default_rng(s), max_n=256).n > 64][:40]
_LOW_SPLIT_SEEDS = [s for s in range(64) if random_operator(np.random.default_rng(s), max_n=64).n > 32][:20]


def _dense_eig_checks(M, values, norm):
    """_eig_checks' candidate sigmas and eigenvalue distances from one
    np.linalg.eig of the whole M"""
    lams = np.asarray(values, dtype=complex)
    w, V = np.linalg.eig(M)
    gaps = np.abs(lams[:, None] - w[None, :])
    X = V[:, gaps.argmin(axis=1)]
    r = np.linalg.norm(M @ X - X * lams, axis=0)
    sigmas = [s if s <= 1e-12 * norm else min_singular_value(M, lam) for s, lam in zip(r, values)]
    return np.array(sigmas), gaps.min(axis=0, initial=np.inf)


def _dense_psd_sqrt(H):
    w, v = np.linalg.eigh(H)
    floor = H.shape[0] * np.finfo(float).eps * np.linalg.norm(H)
    return (v * np.sqrt(np.where(w <= floor, 0.0, w))) @ v.conj().T


def _assert_split_matches_dense(M, values):
    """The split eigen check against the dense one on M, and
    hermitian_eig and psd_sqrt, which solve whole, against numpy on M*M."""
    norm = np.linalg.norm(M)
    got_norm, sigmas, dists = oracle._eig_checks(M, values)
    assert got_norm == norm
    ref_sigmas, ref_dists = _dense_eig_checks(M, values, norm)
    assert np.abs(np.array(sigmas) - ref_sigmas).max(initial=0.0) <= 1e-12 * norm
    # a zero-mean atom makes 0 a defective eigenvalue, which rounding moves
    # by about sqrt(eps) * ||M||_F in either solve (see eigenvalues_ok)
    tol = 1e-12 * norm if ref_dists.max() <= 1e-12 * norm else 1e-7 * norm
    assert np.abs(np.sort(dists) - np.sort(ref_dists)).max() <= tol
    H = M.conj().T @ M
    h_norm = np.linalg.norm(H)
    hw, hv = hermitian_eig(H)
    assert np.all(np.diff(hw) >= 0)
    assert np.linalg.norm(H @ hv - hv * hw) <= 1e-12 * h_norm
    assert np.abs(hw - np.linalg.eigvalsh(H)).max() <= 1e-12 * h_norm
    assert np.linalg.norm(psd_sqrt(H) - _dense_psd_sqrt(H)) <= 1e-12 * h_norm
    return ref_sigmas, ref_dists


def _assert_split_check_matches_dense(T):
    M = matrix_of(T)
    rep = spectrum_formula(T)
    values = sorted(rep.values, key=lambda z: (z.real, z.imag))
    ref_sigmas, ref_dists = _assert_split_matches_dense(M, values)
    probe = spectrum_probe_check(T, rep)
    ref = dataclasses.replace(
        probe, candidate_sigmas=tuple(ref_sigmas), eigenvalue_distances=tuple(ref_dists)
    )
    assert probe.ok(1e-8) == ref.ok(1e-8)


@pytest.mark.parametrize("seed", _SPLIT_SEEDS)
def test_split_eigensolvers_match_dense_ones(seed):
    _assert_split_check_matches_dense(random_operator(np.random.default_rng(seed), max_n=256))


@pytest.mark.parametrize("seed", _LOW_SPLIT_SEEDS)
def test_split_eigensolvers_match_dense_ones_at_orders_33_to_64(seed):
    _assert_split_check_matches_dense(random_operator(np.random.default_rng(seed), max_n=64))


@pytest.mark.parametrize("seed", [*range(40), None])
def test_unsplit_eig_checks_are_the_dense_ones(seed):
    # where _blocks gives None (order <= 32, or one component above it) the
    # check runs on a stack of one whole M: the same eigenpairs in eig's
    # order, so the same witnesses and the same numbers, bit for bit; the
    # sums of squares taken at unit scale change no bit of a norm in range
    if seed is None:  # trivial-algebra n=200, one component of order 200
        sc = build_trivial_algebra(200)
        T = WeightedCondExpOperator(sc.space, sc.partition, sc.symbol)
    else:
        T = random_operator(np.random.default_rng(seed), max_n=32)
    M = matrix_of(T)
    assert oracle._blocks(M) is None
    values = sorted(spectrum_formula(T).values, key=lambda z: (z.real, z.imag))
    norm = float(np.linalg.norm(M))
    got_norm, sigmas, dists = oracle._eig_checks(M, values)
    assert got_norm == norm
    ref_sigmas, ref_dists = _dense_eig_checks(M, values, norm)
    assert sigmas == tuple(ref_sigmas.tolist())
    assert dists == tuple(ref_dists.tolist())


@pytest.mark.parametrize("upper", [True, False])
def test_split_merges_blocks_coupled_by_one_entry(upper):
    # three dense blocks of order 20, 30 and 46, and one entry coupling the
    # first and the third: a pattern that is not read both ways, or is read
    # in one pass, leaves them apart
    rng = np.random.default_rng(3)
    A = np.zeros((96, 96), dtype=complex)
    for lo, hi in ((0, 20), (20, 50), (50, 96)):
        A[lo:hi, lo:hi] = rng.standard_normal((hi - lo,) * 2) + 1j * rng.standard_normal((hi - lo,) * 2)
    A[(5, 60) if upper else (60, 5)] = 0.5
    blocks = oracle._blocks(A)
    assert [idx.tolist() for idx in blocks] == [
        [list(range(20, 50))],
        [list(range(20)) + list(range(50, 96))],
    ]
    # a claim of some of A's eigenvalues and one value off the spectrum
    _assert_split_matches_dense(A, [*np.linalg.eigvals(A)[::8], 100.0 + 100.0j])


def test_split_is_gated_on_the_order():
    # two components split at order 33 and stay one block at order 32; one
    # component at order 33 stays whole
    A = np.zeros((33, 33))
    A[:16, :16] = A[16:, 16:] = 1.0
    assert [idx.shape for idx in oracle._blocks(A)] == [(1, 16), (1, 17)]
    assert oracle._blocks(A[:32, :32]) is None
    assert oracle._blocks(np.ones((33, 33))) is None


def test_failed_block_eigensolve_reports_the_svd(monkeypatch):
    # atoms of 51 and 52 points: a failure in the stacked call of either
    # size leaves no eigendecomposition, as a failed dense solve does
    sc = build_block_partition(256, 5)
    T = WeightedCondExpOperator(sc.space, sc.partition, sc.symbol)
    M = matrix_of(T)
    assert [idx.shape for idx in oracle._blocks(M)] == [(4, 51), (1, 52)]
    rep = spectrum_formula(T)
    values = sorted(rep.values, key=lambda z: (z.real, z.imag))
    eig = np.linalg.eig

    def fail_on_52(A):
        if A.shape[-1] == 52:
            raise np.linalg.LinAlgError("no convergence")
        return eig(A)

    monkeypatch.setattr(np.linalg, "eig", fail_on_52)
    probe = spectrum_probe_check(T, rep)
    monkeypatch.undo()
    assert probe.candidate_sigmas == tuple(min_singular_value(M, v) for v in values)
    assert probe.eigenvalue_distances == (np.inf,)
    assert not probe.ok(1e-8)


# -------------------------------------------------------- min_singular_value


def test_min_singular_value_matches_svd():
    # for a normal A = Q D Q^H the singular values of A - lam I are exactly
    # |d_i - lam|, so no SVD is needed for the reference
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        A = (Q * d) @ Q.conj().T
        lam = complex(rng.standard_normal(), rng.standard_normal())
        ref = float(np.min(np.abs(d - lam)))
        assert min_singular_value(A, lam) == pytest.approx(ref, rel=1e-10, abs=1e-14)


def test_min_singular_value_of_non_normal_2x2():
    # the squared singular values of a 2x2 matrix B are the roots of
    # s^2 - F s + |det B|^2 with F = ||B||_F^2, so
    # sigma_min^2 = (F - sqrt(F^2 - 4 |det B|^2)) / 2
    rng = np.random.default_rng(8)
    for _ in range(10):
        A = np.array([[1.0, 5.0], [0.0, 2.0]]) + 0.5 * (
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        )
        lam = complex(rng.standard_normal(), rng.standard_normal())
        B = A - lam * np.eye(2)
        F = float(np.sum(np.abs(B) ** 2))
        det = abs(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0])
        ref = np.sqrt((F - np.sqrt(F**2 - 4.0 * det**2)) / 2.0)
        assert min_singular_value(A, lam) == pytest.approx(ref, rel=1e-8)


def test_min_singular_value_near_exact_eigenvalue_is_tiny():
    # at an exact eigenvalue the value must reach rounding level
    rng = np.random.default_rng(4)
    D = np.diag([1.0, 2.0, 3.0]).astype(complex)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    A = Q @ D @ Q.conj().T
    assert min_singular_value(A, 2.0) < 1e-13


def test_interval_candidates_reach_rounding_level():
    # symmetric-interval N=64: every claimed spectral value annihilates
    # M - lambda I to within rounding of ||M||
    sc = build_symmetric_interval(64)
    T = WeightedCondExpOperator(sc.space, sc.partition, sc.symbol)
    probe = spectrum_probe_check(T, spectrum_formula(T))
    assert max(probe.candidate_sigmas) <= 1e-15 * probe.matrix_norm


# ------------------------------------------------------------------ residuals


def test_residuals_diagnose_hand_instances():
    sp = FiniteMeasureSpace(np.full(4, 0.25))
    p = Partition(np.array([0, 0, 1, 1]))

    sa = WeightedCondExpOperator(sp, p, MFunction(np.array([2.0, 2.0, -1.0, -1.0])))
    v = residuals(sa).verdicts(1e-8)
    assert v == (True, True, True)

    nrm = WeightedCondExpOperator(sp, p, MFunction(np.array([2j, 2j, -1.0, -1.0])))
    v = residuals(nrm).verdicts(1e-8)
    assert v == (False, True, True)

    gen = WeightedCondExpOperator(sp, p, MFunction(np.array([1.0, 3.0, -1.0, -1.0])))
    v = residuals(gen).verdicts(1e-8)
    assert v[1] is False


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_residual_verdicts_match_formula_classification(seed):
    rng = np.random.default_rng(seed)
    T = random_operator(rng, max_n=32)
    rep = classify(T, 1e-8)
    assert (rep.self_adjoint, rep.normal, rep.quasinormal) == residuals(T).verdicts(1e-8)


def test_agrees_compares_every_verdict():
    T = random_operator(np.random.default_rng(3), max_n=16)
    rep, res = classify(T, 1e-8), residuals(T)
    assert res.agrees(rep, 1e-8)
    flipped = dataclasses.replace(
        rep, self_adjoint=False, normal=not rep.normal, quasinormal=not rep.normal
    )
    assert not res.agrees(flipped, 1e-8)


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_oracle_normal_and_quasinormal_verdicts_coincide(seed):
    # on a partition-generated algebra T is quasinormal iff u is constant
    # on every atom, which is also the condition for normality; the dense
    # residuals check that with no closed form
    T = random_operator(np.random.default_rng(seed), max_n=32)
    _, normal, quasinormal = residuals(T).verdicts(1e-8)
    assert normal == quasinormal


@given(seeds, st.integers(min_value=-1000, max_value=500))
@settings(max_examples=80, deadline=None)
def test_relative_residuals_do_not_depend_on_the_scale_of_u(seed, j):
    # u -> 2^j u scales M by 2^j exactly, and the residuals are taken at
    # unit scale, so every ratio keeps its bits; j <= 500 keeps |u|^2 finite
    T = random_operator(np.random.default_rng(seed), max_n=32)
    S = WeightedCondExpOperator(T.space, T.partition, MFunction(T.symbol.values * 2.0**j))
    r, s = residuals(T), residuals(S)
    assert dataclasses.replace(s, matrix_norm=r.matrix_norm) == r
    assert s.matrix_norm == r.matrix_norm * 2.0**j


# ---------------------------------------------------------------- polar check


def test_polar_check_rejects_factors_cut_too_high():
    # block-partition (n=8, m=3, u = 1..8) has atom means of |u|^2 of 2.5,
    # 16.7 and 49.7; factors cut at 10 drop the first atom, which a check
    # at tol 1e-8 must reject even though U|T| = P_S T holds
    sc = build_block_partition(8, 3)
    T = WeightedCondExpOperator(sc.space, sc.partition, sc.symbol)
    recon, sqrt_err, ok = polar_check(T, polar(T, 10.0), 1e-8)
    assert recon <= 1e-12 and sqrt_err <= 1e-12
    assert not ok
    assert polar_check(T, polar(T, 10.0), 10.0)[2]
    assert polar_check(T, polar(T, 1e-8), 1e-8)[2]


@pytest.mark.parametrize("c", [1e80, 1e100])
def test_polar_check_accepts_correct_factors_of_a_large_symbol(c):
    # u = c (1, 2, 3) on atoms {0, 1}, {2}: |u| is far below the 1.34e154
    # that space files accept, and the factors are correct.  ||M*M||_F
    # overflows, so psd_sqrt must scale before it takes the norm
    sp = FiniteMeasureSpace(np.array([0.5, 0.5, 1.0]))
    T = WeightedCondExpOperator(sp, Partition(np.array([0, 0, 1])), MFunction(c * np.array([1.0, 2.0, 3.0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert polar_check(T, polar(T, 1e-8), 1e-8)[2]


def _dense_polar_check(T, parts, tol):
    """polar_check on whole matrices: U|T| - P_S M, the root of M*M at unit
    scale with psd_sqrt's noise floor, |T| - P_S root, and the verdict;
    also the realized U and |T|"""
    M = matrix_of(T)
    on = parts.atom_support[T.partition.atom_of]
    P_S = on[:, None]
    U = realize(T.space, lambda f: apply_isometry(T, parts, f))
    A = realize(T.space, lambda f: apply_modulus(T, parts, f))
    recon = float(np.linalg.norm(U @ A - np.where(P_S, M, 0)))
    k = oracle._exponent(M)
    Ms = M * np.ldexp(1.0, -k)
    root = _dense_psd_sqrt(Ms.conj().T @ Ms) * np.ldexp(1.0, k)
    sqrt_err = float(np.linalg.norm(A - np.where(P_S, root, 0)))
    off_sq = np.linalg.norm(M[~on]) ** 2
    norm = max(np.linalg.norm(M), 1e-300)
    ok = bool(
        recon <= TOLERANCES["identity"] * norm
        and sqrt_err <= TOLERANCES["oracle"] * norm
        and off_sq <= tol * np.unique(T.partition.atom_of[~on]).size
    )
    return (recon, sqrt_err, ok), U, A


def _assert_split_polar_check_matches_dense(T):
    parts = polar(T, 1e-8)
    got = polar_check(T, parts, 1e-8)
    ref, U, A = _dense_polar_check(T, parts, 1e-8)
    M = matrix_of(T)
    if oracle._blocks(M, U, A) is None:
        assert got == ref
    else:
        bound = 1e-12 * np.linalg.norm(M)
        assert abs(got[0] - ref[0]) <= bound and abs(got[1] - ref[1]) <= bound
        assert got[2] == ref[2]
    return got


def _scenario_op(name, params):
    sc = build_scenario(name, params)
    return WeightedCondExpOperator(sc.space, sc.partition, sc.symbol)


@pytest.mark.parametrize(
    "seed, max_n",
    [(s, 256) for s in _SPLIT_SEEDS] + [(s, 64) for s in _LOW_SPLIT_SEEDS] + [(s, 32) for s in range(20)],
)
def test_split_polar_check_matches_dense_one(seed, max_n):
    # at max_n 32 _blocks gives None, and the bits must be the dense ones
    _assert_split_polar_check_matches_dense(random_operator(np.random.default_rng(seed), max_n=max_n))


@pytest.mark.parametrize(
    "name, params", [("product-grid", {"m": "16"}), ("symmetric-interval", {"N": "256"})]
)
def test_split_polar_check_matches_dense_one_on_the_cap_scenarios(name, params):
    T = _scenario_op(name, params)
    assert oracle._blocks(matrix_of(T)) is not None
    assert _assert_split_polar_check_matches_dense(T)[2]


@pytest.mark.parametrize("n, m", [(12, 3), (256, 5)])
def test_polar_check_fails_an_isometry_that_leaks_across_atoms(monkeypatch, n, m):
    # U also sends the first point, in the first atom, to the last point, in
    # the last one: a check that split along M's components alone would
    # drop that entry, and pass
    sc = build_block_partition(n, m)
    T = WeightedCondExpOperator(sc.space, sc.partition, sc.symbol)
    parts = polar(T, 1e-8)
    assert polar_check(T, parts, 1e-8)[2]

    def leaky(T, parts, f):
        v = apply_isometry(T, parts, f).values.copy()
        v[-1] += f.values[0]
        return MFunction(v)

    monkeypatch.setattr(oracle, "apply_isometry", leaky)
    recon, _, ok = polar_check(T, parts, 1e-8)
    assert not ok and recon > TOLERANCES["identity"] * np.linalg.norm(matrix_of(T))
    if n > 32:
        U = realize(T.space, lambda f: leaky(T, parts, f))
        A = realize(T.space, lambda f: apply_modulus(T, parts, f))
        assert [idx.shape for idx in oracle._blocks(matrix_of(T))] == [(4, 51), (1, 52)]
        assert [idx.shape for idx in oracle._blocks(matrix_of(T), U, A)] == [(3, 51), (1, 103)]


def test_polar_check_holds_no_order_n_product():
    # M is realized first: the peak is the realized U and |T| (1 MiB each
    # at order 256), _blocks' pattern and the per-block stacks
    T = _scenario_op("product-grid", {"m": "16"})
    parts = polar(T, 1e-8)
    matrix_of(T)
    tracemalloc.start()
    try:
        assert polar_check(T, parts, 1e-8)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_oracle_check_forms_the_residuals_once_per_operator(monkeypatch, capsys):
    # classify's dense fallback and oracle-check's residuals(T) share one
    # OracleResiduals.of per operator
    of = OracleResiduals.of
    calls = []
    monkeypatch.setattr(OracleResiduals, "of", classmethod(lambda cls, M: calls.append(M.shape) or of(M)))
    assert main(["oracle-check", "--seeds", "100"]) == 0
    assert "100/100 instances consistent" in capsys.readouterr().out
    assert len(calls) == 100


# ---------------------------------------------------------------- probe check


def test_probe_check_accepts_true_spectrum():
    # candidates must nearly annihilate; probe points must stay clearly
    # separated from the candidate acceptance band.  The sharper d/2 floor
    # is a normality-flavored bound and is asserted only on the structured
    # scenario instances, not on generic non-normal random ones.
    rng = np.random.default_rng(5)
    for _ in range(10):
        T = random_operator(rng, max_n=24)
        rep = spectrum_formula(T)
        probe = spectrum_probe_check(T, rep)
        assert probe.candidates_ok(1e-8)
        if probe.matrix_norm > 1e-8:  # separation is meaningless at norm ~ 0
            assert min(probe.probe_sigmas) >= 1e-4 * probe.matrix_norm


def test_probe_check_rejects_bogus_value():
    rng = np.random.default_rng(6)
    T = random_operator(rng, max_n=24)
    rep = spectrum_formula(T)
    bogus = type(rep)(
        values=rep.values + (100.0 + 100.0j,),
        includes_zero=rep.includes_zero,
    )
    probe = spectrum_probe_check(T, bogus)
    assert not probe.candidates_ok(1e-8)
    assert not probe.ok(1e-8)


def test_probe_check_is_deterministic_per_seed():
    rng = np.random.default_rng(7)
    T = random_operator(rng, max_n=16)
    rep = spectrum_formula(T)
    # the outer probes come from a fixed seed, so two calls probe alike
    a = spectrum_probe_check(T, rep)
    b = spectrum_probe_check(T, rep)
    assert a.probe_points == b.probe_points
    assert a.probe_sigmas == b.probe_sigmas


def _reference_probe_points(values):
    """Probe points as the check first built them: midpoints, then a fresh
    default_rng(0) per call with scalar uniform() draws for the outer four."""
    probes = [(a + b) / 2.0 for a, b in zip(values, values[1:]) if abs(b - a) > 0]
    rng = np.random.default_rng(0)
    radius = max((abs(v) for v in values), default=0.0)
    for _ in range(4):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        r = radius + 1.0 + rng.uniform(0.0, 1.0)
        probes.append(complex(r * np.cos(angle), r * np.sin(angle)))
    return tuple(probes)


def _assert_probe_bits(T, claim):
    """The probe fields equal their scalar constructions with ==, and
    matrix_norm equals that of residuals(T)."""
    probe = spectrum_probe_check(T, claim)
    values = sorted(claim.values, key=lambda z: (z.real, z.imag))
    assert probe.probe_points == _reference_probe_points(values)
    assert probe.probe_distances == tuple(
        min(abs(p - v) for v in values) if values else abs(p) for p in probe.probe_points
    )
    assert probe.matrix_norm == residuals(T).matrix_norm


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_probe_result_keeps_its_bits_on_the_scenarios(name):
    sc = build_scenario(name, {})
    T = WeightedCondExpOperator(sc.space, sc.partition, sc.symbol)
    _assert_probe_bits(T, spectrum_formula(T))


def test_probe_result_keeps_its_bits_on_random_operators():
    for seed in range(100):
        T = random_operator(np.random.default_rng(seed), max_n=64)
        _assert_probe_bits(T, spectrum_formula(T))
    # with nothing claimed every distance is to 0
    _assert_probe_bits(T, SpectrumReport(values=(), includes_zero=False))


def test_probe_floor_rejects_missing_value_on_normal_operator():
    # multiplication by u = (1, 2, 3) is normal with spectrum {1, 2, 3};
    # the claim {1, 3} leaves 2 out, and the midpoint probe at 2 has
    # sigma_min 0 < dist / 2 = 0.5
    sp = FiniteMeasureSpace(np.full(3, 1.0 / 3))
    T = WeightedCondExpOperator(sp, Partition(np.arange(3)), MFunction(np.array([1.0, 2.0, 3.0])))
    claim = SpectrumReport(values=(1.0 + 0j, 3.0 + 0j), includes_zero=False)
    probe = spectrum_probe_check(T, claim)
    assert probe.candidates_ok(1e-8)
    assert residuals(T).normal_rel <= 1e-8
    assert not probe.probes_ok(1e-8)
    assert not probe.ok(1e-8)


def test_probe_floor_skipped_on_non_normal_operator():
    # geometric-blowup is one atom with a non-constant symbol, hence not
    # normal, and its pseudospectrum breaks the d/2 floor at some probe
    # although the claimed spectrum is right
    sc = build_geometric_blowup()
    T = WeightedCondExpOperator(sc.space, sc.partition, sc.symbol)
    probe = spectrum_probe_check(T, spectrum_formula(T))
    assert any(s < d / 2.0 - 1e-8 for s, d in zip(probe.probe_sigmas, probe.probe_distances))
    assert residuals(T).normal_rel > 1e-8
    assert probe.probes_ok(1e-8)


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_probe_check_rejects_a_claim_that_leaves_out_a_value(name):
    # every computed eigenvalue must lie near a claimed value; dropping the
    # largest one leaves an eigenvalue far from the claim
    sc = build_scenario(name, {})
    T = WeightedCondExpOperator(sc.space, sc.partition, sc.symbol)
    rep = spectrum_formula(T)
    probe = spectrum_probe_check(T, rep)
    assert probe.ok(1e-8) and probe.eigenvalues_ok(1e-8)
    assert max(probe.eigenvalue_distances) <= 1e-12 * probe.matrix_norm
    largest = max(rep.values, key=abs)
    partial = SpectrumReport(
        values=tuple(v for v in rep.values if v != largest), includes_zero=rep.includes_zero
    )
    probe = spectrum_probe_check(T, partial)
    assert not probe.eigenvalues_ok(1e-8)
    assert not probe.ok(1e-8)


@given(seeds, st.sampled_from(SPECIAL_KINDS))
@settings(max_examples=60, deadline=None)
def test_true_claims_are_complete(seed, kind):
    T = random_operator(np.random.default_rng(seed), max_n=32, kind=kind)
    probe = spectrum_probe_check(T, spectrum_formula(T))
    assert probe.eigenvalues_ok(1e-8)


def _reference_verdicts(T, claim, probe, tol):
    """candidates_ok and probes_ok at tol, recomputed from one SVD per point."""
    M = matrix_of(T)
    norm = np.linalg.norm(M)
    cand = all(min_singular_value(M, v) <= tol * norm for v in claim.values)
    # only the probe floor keeps an absolute cut for the zero operator
    if norm <= tol or residuals(T).normal_rel > tol:
        return cand, True
    floor = all(
        min_singular_value(M, p) >= d / 2.0 - tol
        for p, d in zip(probe.probe_points, probe.probe_distances)
    )
    return cand, floor


@given(seeds, st.sampled_from(SPECIAL_KINDS))
@settings(max_examples=60, deadline=None)
def test_probe_check_verdicts_match_svd_reference(seed, kind):
    # a candidate value is a witness residual, an upper bound on sigma_min
    # reported only when it is below 1e-12 ||M||, else the SVD itself; so
    # every verdict at tol >= 1e-12 is the one the SVD alone gives, on the
    # true claim and on one with a value off the spectrum.  Every kind is
    # drawn: zero_mean makes 0 a defective eigenvalue (2x2 Jordan blocks)
    rng = np.random.default_rng(seed)
    T = random_operator(rng, max_n=32, kind=kind)
    rep = spectrum_formula(T)
    off = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
    M = matrix_of(T)
    norm = np.linalg.norm(M)
    for claim in (rep, SpectrumReport(values=rep.values + (off,), includes_zero=rep.includes_zero)):
        probe = spectrum_probe_check(T, claim)
        for tol in (1e-12, 1e-8, 1e-4):
            assert (probe.candidates_ok(tol), probe.probes_ok(tol)) == _reference_verdicts(
                T, claim, probe, tol
            )
        values = sorted(claim.values, key=lambda z: (z.real, z.imag))
        for v, s in zip(values, probe.candidate_sigmas):
            ref = min_singular_value(M, v)
            assert ref - 1e-13 * norm <= s <= max(ref, 1e-12 * norm)
        assert probe.probe_sigmas == tuple(min_singular_value(M, p) for p in probe.probe_points)


def test_probe_check_on_the_zero_operator():
    # zero-mean symbol on singletons: u = 0 exactly, so M = 0, where every
    # eigenvector is a witness with residual 0, the SVD's value.  The
    # spectrum of 0 is {0}: no absolute cut lets another value through
    n = 5
    sp = FiniteMeasureSpace(np.full(n, 1.0 / n))
    T = WeightedCondExpOperator(sp, Partition(np.arange(n)), MFunction(np.zeros(n, dtype=complex)))
    rep = spectrum_formula(T)
    assert rep.values == (0j,)
    probe = spectrum_probe_check(T, rep)
    assert probe.matrix_norm == 0.0
    assert probe.candidate_sigmas == (0.0,)
    assert probe.ok(1e-8)
    assert probe.probes_ok(1e-8)
    for values in ((5 + 5j,), (0j, 5 + 5j)):
        probe = spectrum_probe_check(T, SpectrumReport(values=values, includes_zero=0j in values))
        assert not probe.candidates_ok(1e-8)
        assert not probe.ok(1e-8)


def test_probe_check_takes_a_large_norm_at_unit_scale():
    # |u| = 1e200: ||M||_F^2 = 1e400 overflows, but ||M||_F is taken at unit
    # scale, so the true claim {0, 2, 1e200} passes.  The claim {0, 5+5i}
    # leaves out 1e200 and fails completeness, and a value 5e199 (1 + i)
    # off the spectrum fails soundness
    sp = FiniteMeasureSpace(np.array([0.5, 0.5, 1.0]))
    u = MFunction(np.array([1e200, 1e200, 2.0], dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        T = WeightedCondExpOperator(sp, Partition(np.array([0, 0, 1])), u)
        rep = spectrum_formula(T)
    probe = spectrum_probe_check(T, rep)
    assert probe.matrix_norm == 1e200
    assert probe.ok(1e-8)
    probe = spectrum_probe_check(T, SpectrumReport(values=(0j, 5 + 5j), includes_zero=True))
    assert not probe.eigenvalues_ok(1e-8)
    assert not probe.ok(1e-8)
    off = SpectrumReport(values=rep.values + (5e199 + 5e199j,), includes_zero=True)
    assert not spectrum_probe_check(T, off).candidates_ok(1e-8)


def test_probe_check_passes_no_claim_when_the_norm_overflows():
    # |u| = 1.5e308 on two unit-mass singletons: M is finite, but
    # ||M||_F = 2.1e308 leaves the float range, so tol * ||M||_F bounds nothing
    sp = FiniteMeasureSpace(np.ones(2))
    u = MFunction(np.array([1.5e308, 1.5e308], dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        T = WeightedCondExpOperator(sp, Partition(np.arange(2)), u)
        claims = [spectrum_formula(T), SpectrumReport(values=(0j, 5 + 5j), includes_zero=True)]
        probes = [spectrum_probe_check(T, claim) for claim in claims]
    for probe in probes:
        assert probe.matrix_norm == np.inf
        assert not probe.candidates_ok(1e-8)
        assert not probe.eigenvalues_ok(1e-8)
        assert not probe.ok(1e-8)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("j", [-997, -565, -30, 0, 498])
def test_spectrum_verdicts_do_not_depend_on_the_scale_of_u(seed, j):
    # u -> 2^j u scales M by 2^j.  One relative rule holds at every scale:
    # the true claim passes, a claim with a value 0.3 * 2^j beyond the
    # spectral radius fails soundness, and one without its largest value
    # fails completeness.  An absolute cut for a small ||M||_F passes both
    # wrong claims from j = -30 down, and a witness residual whose squares
    # are summed at true scale underflows to 0 from j = -565 down
    T = random_operator(np.random.default_rng(seed), max_n=32)
    S = WeightedCondExpOperator(T.space, T.partition, MFunction(T.symbol.values * 2.0**j))
    rep = spectrum_formula(S)
    assert spectrum_probe_check(S, rep).ok(1e-8)
    beyond = max(abs(v) for v in rep.values) + 0.3 * 2.0**j
    extra = spectrum_probe_check(S, SpectrumReport(rep.values + (beyond,), rep.includes_zero))
    assert not extra.candidates_ok(1e-8)
    largest = max(rep.values, key=abs)
    partial = SpectrumReport(tuple(v for v in rep.values if v != largest), rep.includes_zero)
    assert not spectrum_probe_check(S, partial).eigenvalues_ok(1e-8)


def test_bogus_value_reports_the_svd():
    # no witness certifies 100+100j, so its value is the SVD's, exactly.
    # A value 1e-3 off the most isolated true one takes that value's
    # eigenvector as its witness, whose residual of about 1e-3 is too large
    # to report, so it gets the SVD too while the true value keeps its witness
    rng = np.random.default_rng(6)
    T = random_operator(rng, max_n=24)
    M = matrix_of(T)
    rep = spectrum_formula(T)
    true = max(rep.values, key=lambda v: min(abs(v - w) for w in rep.values if w != v))
    near = true + 1e-3
    w = np.linalg.eigvals(M)
    assert np.abs(w - true).argmin() == np.abs(w - near).argmin()
    bogus = 100.0 + 100.0j
    claim = SpectrumReport(values=rep.values + (bogus, near), includes_zero=rep.includes_zero)
    probe = spectrum_probe_check(T, claim)
    values = sorted(claim.values, key=lambda z: (z.real, z.imag))
    for v in (bogus, near):
        assert probe.candidate_sigmas[values.index(v)] == min_singular_value(M, v)
    assert probe.candidate_sigmas[values.index(true)] <= 1e-12 * probe.matrix_norm


def test_failed_eigensolve_reports_the_svd(monkeypatch):
    # without an eigendecomposition there is no witness, and every
    # candidate is the SVD's value
    T = random_operator(np.random.default_rng(6), max_n=24)
    rep = spectrum_formula(T)

    def fail(_):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eig", fail)
    probe = spectrum_probe_check(T, rep)
    monkeypatch.undo()
    M = matrix_of(T)
    values = sorted(rep.values, key=lambda z: (z.real, z.imag))
    assert probe.candidate_sigmas == tuple(min_singular_value(M, v) for v in values)
    assert probe.candidates_ok(1e-8)
    # no eigenvalues, no completeness check: the claim does not pass
    assert not probe.eigenvalues_ok(1e-8)


def _count_probe_svds(monkeypatch, scenario, slack):
    """probes_ok(slack) on a built-in scenario's own spectrum, the number of
    min_singular_value calls made by spectrum_probe_check and that verdict,
    the probe result and the operator."""
    T = WeightedCondExpOperator(scenario.space, scenario.partition, scenario.symbol)
    rep = spectrum_formula(T)
    calls = []
    svd = oracle.min_singular_value
    monkeypatch.setattr(oracle, "min_singular_value", lambda M, lam=0.0: calls.append(lam) or svd(M, lam))
    probe = spectrum_probe_check(T, rep)
    ok = probe.probes_ok(slack)
    monkeypatch.undo()
    return ok, len(calls), probe, T


def test_probe_sigmas_are_computed_only_where_the_floor_applies(monkeypatch):
    # symmetric-interval is not normal: its witnesses certify every
    # candidate and the floor does not apply, so no SVD runs at all
    ok, calls, probe, T = _count_probe_svds(monkeypatch, build_symmetric_interval(64), 1e-8)
    assert ok and residuals(T).normal_rel > 1e-8
    assert calls == 0
    # full-algebra is normal: one SVD per probe, none for the candidates
    ok, calls, probe, T = _count_probe_svds(monkeypatch, build_full_algebra(8), 1e-8)
    assert ok and residuals(T).normal_rel <= 1e-8
    assert calls == len(probe.probe_points)
    # at slack 1 the floor applies to symmetric-interval too, and is evaluated
    ok, calls, probe, T = _count_probe_svds(monkeypatch, build_symmetric_interval(64), 1.0)
    assert residuals(T).normal_rel <= 1.0
    assert calls == len(probe.probe_points)
    assert ok == _reference_verdicts(T, spectrum_formula(T), probe, 1.0)[1]
