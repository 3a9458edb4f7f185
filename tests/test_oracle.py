import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcelab.measure import FiniteMeasureSpace, MFunction, Partition
from wcelab.operator import (
    SpectrumReport,
    WeightedCondExpOperator,
    classify,
    spectrum_formula,
)
from wcelab.oracle import (
    MATRIX_ORDER_CAP,
    NotHermitianError,
    NotPSDError,
    adjoint_matrix_of,
    hermitian_eig,
    matrix_of,
    min_singular_value,
    psd_sqrt,
    residuals,
    spectrum_probe_check,
)
from wcelab.sampling import random_operator
from wcelab.scenarios import build_geometric_blowup, build_symmetric_interval

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


def test_adjoint_matrix_is_conjugate_transpose():
    rng = np.random.default_rng(0)
    for _ in range(10):
        T = random_operator(rng, max_n=32)
        M = matrix_of(T)
        Ms = adjoint_matrix_of(T)
        assert np.allclose(Ms, M.conj().T, atol=1e-12 * max(np.linalg.norm(M), 1.0))


def test_matrix_order_cap_enforced():
    n = MATRIX_ORDER_CAP + 1
    sp = FiniteMeasureSpace(np.full(n, 1.0 / n))
    T = WeightedCondExpOperator(sp, Partition(np.arange(n)), MFunction(np.ones(n)))
    with pytest.raises(ValueError):
        matrix_of(T)


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


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_psd_sqrt_clamps_tiny_negatives():
    R = psd_sqrt(np.diag([1.0, -1e-14]))
    assert np.allclose(R, np.diag([1.0, 0.0]), atol=1e-6)


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
    probe = spectrum_probe_check(T, spectrum_formula(T, 1e-10))
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


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_oracle_normal_and_quasinormal_verdicts_coincide(seed):
    # on a partition-generated algebra T is quasinormal iff u is constant
    # on every atom, which is also the condition for normality; the dense
    # residuals check that with no closed form
    T = random_operator(np.random.default_rng(seed), max_n=32)
    _, normal, quasinormal = residuals(T).verdicts(1e-8)
    assert normal == quasinormal


# ---------------------------------------------------------------- probe check


def test_probe_check_accepts_true_spectrum():
    # candidates must nearly annihilate; probe points must stay clearly
    # separated from the candidate acceptance band.  The sharper d/2 floor
    # is a normality-flavored bound and is asserted only on the structured
    # scenario instances, not on generic non-normal random ones.
    rng = np.random.default_rng(5)
    for _ in range(10):
        T = random_operator(rng, max_n=24)
        rep = spectrum_formula(T, 1e-10)
        probe = spectrum_probe_check(T, rep)
        assert probe.candidates_ok(1e-8)
        if probe.matrix_norm > 1e-8:  # separation is meaningless at norm ~ 0
            assert min(probe.probe_sigmas) >= 1e-4 * probe.matrix_norm


def test_probe_check_rejects_bogus_value():
    rng = np.random.default_rng(6)
    T = random_operator(rng, max_n=24)
    rep = spectrum_formula(T, 1e-10)
    bogus = type(rep)(
        values=rep.values + (100.0 + 100.0j,),
        includes_zero=rep.includes_zero,
    )
    probe = spectrum_probe_check(T, bogus)
    assert not probe.candidates_ok(1e-8)


def test_probe_check_is_deterministic_per_seed():
    rng = np.random.default_rng(7)
    T = random_operator(rng, max_n=16)
    rep = spectrum_formula(T, 1e-10)
    # the outer probes come from a fixed seed, so two calls probe alike
    a = spectrum_probe_check(T, rep)
    b = spectrum_probe_check(T, rep)
    assert a.probe_points == b.probe_points
    assert a.probe_sigmas == b.probe_sigmas


def test_probe_floor_rejects_missing_value_on_normal_operator():
    # multiplication by u = (1, 2, 3) is normal with spectrum {1, 2, 3};
    # the claim {1, 3} leaves 2 out, and the midpoint probe at 2 has
    # sigma_min 0 < dist / 2 = 0.5
    sp = FiniteMeasureSpace(np.full(3, 1.0 / 3))
    T = WeightedCondExpOperator(sp, Partition(np.arange(3)), MFunction(np.array([1.0, 2.0, 3.0])))
    claim = SpectrumReport(values=(1.0 + 0j, 3.0 + 0j), includes_zero=False)
    probe = spectrum_probe_check(T, claim)
    assert probe.candidates_ok(1e-8)
    assert probe.floor_applies(1e-8)
    assert not probe.probes_ok(1e-8)


def test_probe_floor_skipped_on_non_normal_operator():
    # geometric-blowup is one atom with a non-constant symbol, hence not
    # normal, and its pseudospectrum breaks the d/2 floor at some probe
    # although the claimed spectrum is right
    sc = build_geometric_blowup()
    T = WeightedCondExpOperator(sc.space, sc.partition, sc.symbol)
    probe = spectrum_probe_check(T, spectrum_formula(T, 1e-8))
    assert any(s < d / 2.0 - 1e-8 for s, d in zip(probe.probe_sigmas, probe.probe_distances))
    assert probe.normal_rel == pytest.approx(residuals(T).normal_rel, rel=1e-12)
    assert not probe.floor_applies(1e-8)
    assert probe.probes_ok(1e-8)
