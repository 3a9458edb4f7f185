"""Dense-matrix ground truth, independent of the closed-form layer.

Operators are realized as matrices in the orthonormal coordinates
e_i = delta_i / sqrt(mu_i) by ``measure.realize``, which applies an
operator's action to each basis vector; nothing here reuses the
symbol-average formulas.  Only Hermitian eigenproblems are solved; spectra
are falsified through minimum-singular-value probes, each sigma_min taken
from one SVD, rather than a general eigendecomposition.  Matrices are kept
at order <= 256: the oracle is O(n^3), the formula layer O(n).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import realize
from .operator import SpectrumReport, WeightedCondExpOperator, apply, apply_adjoint

__all__ = [
    "MATRIX_ORDER_CAP",
    "OrderCapError",
    "NotHermitianError",
    "NotPSDError",
    "matrix_of",
    "adjoint_matrix_of",
    "hermitian_eig",
    "psd_sqrt",
    "min_singular_value",
    "residuals",
    "OracleResiduals",
    "spectrum_probe_check",
    "SpectrumProbeResult",
]

MATRIX_ORDER_CAP = 256
_TOL = 1e-8  # hermitian_eig's and psd_sqrt's input checks, relative to ||H||


class OrderCapError(ValueError):
    """A dense-matrix path was asked for an order above MATRIX_ORDER_CAP."""


class NotHermitianError(ValueError):
    """Input to a Hermitian-only routine was not Hermitian."""


class NotPSDError(ValueError):
    """A matrix expected to be positive semidefinite was not."""


def _check_order(n: int) -> None:
    if n > MATRIX_ORDER_CAP:
        raise OrderCapError(f"oracle paths are capped at order {MATRIX_ORDER_CAP}, got {n}")


def matrix_of(T: WeightedCondExpOperator) -> np.ndarray:
    """Matrix with entry (j, i) = <T e_i, e_j> in orthonormal coordinates."""
    _check_order(T.n)
    return realize(T.space, lambda f: apply(T, f))


def adjoint_matrix_of(T: WeightedCondExpOperator) -> np.ndarray:
    """Matrix of the adjoint, built from its own action (not by transposing)."""
    _check_order(T.n)
    return realize(T.space, lambda f: apply_adjoint(T, f))


def hermitian_eig(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix; eigenvalues ascending, V unitary.

    Rejects inputs whose anti-Hermitian part exceeds 1e-8 * ||H||_F.
    """
    H = np.asarray(H, dtype=complex)
    _check_order(H.shape[0])
    norm = np.linalg.norm(H)
    skew = np.linalg.norm(H - H.conj().T)
    if skew > _TOL * max(norm, 1e-300):
        raise NotHermitianError(
            f"anti-Hermitian part {skew:.3e} exceeds {_TOL:.1e} * ||H|| = {_TOL * norm:.3e}"
        )
    w, v = np.linalg.eigh((H + H.conj().T) / 2.0)
    return w, v


def psd_sqrt(H: np.ndarray) -> np.ndarray:
    """Positive square root of a Hermitian PSD matrix.

    Eigenvalues in [-1e-8 * ||H||, 0) are clamped to 0; anything more
    negative is an error.  Eigenvalues at the eigensolver's noise floor
    (order n * eps * ||H||) are also treated as exact zeros: taking their
    square root would otherwise inflate pure rounding noise on a true
    null space into sqrt(eps)-sized spurious singular values.
    """
    H = np.asarray(H, dtype=complex)
    w, v = hermitian_eig(H)
    norm = float(np.linalg.norm(H))
    if w.size and w[0] < -_TOL * max(norm, 1e-300):
        raise NotPSDError(f"eigenvalue {w[0]:.3e} below -{_TOL:.1e} * ||H||")
    noise_floor = H.shape[0] * np.finfo(float).eps * norm
    root = np.sqrt(np.where(w <= noise_floor, 0.0, w))
    return (v * root) @ v.conj().T


def min_singular_value(M: np.ndarray, lam: complex = 0.0) -> float:
    """Smallest singular value of M - lam * I."""
    M = np.asarray(M, dtype=complex)
    _check_order(M.shape[0])
    return float(np.linalg.svd(M - lam * np.eye(M.shape[0]), compute_uv=False)[-1])


@dataclass(frozen=True)
class OracleResiduals:
    normal: float
    self_adjoint: float
    quasinormal: float
    matrix_norm: float

    @property
    def normal_rel(self) -> float:
        return self.normal / max(self.matrix_norm**2, 1e-300)

    @property
    def self_adjoint_rel(self) -> float:
        return self.self_adjoint / max(self.matrix_norm, 1e-300)

    @property
    def quasinormal_rel(self) -> float:
        return self.quasinormal / max(self.matrix_norm**3, 1e-300)

    def verdicts(self, tol: float) -> tuple[bool, bool, bool]:
        """(self_adjoint, normal, quasinormal) at relative tolerance tol.

        A matrix whose norm is itself below tol is the zero operator up to
        tolerance; its relative residuals are pure noise ratios, so all
        three verdicts hold trivially.
        """
        if self.matrix_norm <= tol:
            return (True, True, True)
        return (
            self.self_adjoint_rel <= tol,
            self.normal_rel <= tol,
            self.quasinormal_rel <= tol,
        )


def residuals(T: WeightedCondExpOperator) -> OracleResiduals:
    """Commutator-style residuals backing each classification verdict."""
    M = matrix_of(T)
    Mh = M.conj().T
    G = Mh @ M  # |M|^2, no square root needed
    return OracleResiduals(
        normal=float(np.linalg.norm(G - M @ Mh)),
        self_adjoint=float(np.linalg.norm(M - Mh)),
        quasinormal=float(np.linalg.norm(M @ G - G @ M)),
        matrix_norm=float(np.linalg.norm(M)),
    )


@dataclass(frozen=True)
class SpectrumProbeResult:
    candidate_sigmas: tuple[float, ...]  # sigma_min at each claimed spectral value
    probe_points: tuple[complex, ...]
    probe_distances: tuple[float, ...]  # distance of each probe to the claimed set
    probe_sigmas: tuple[float, ...]
    matrix_norm: float
    normal_rel: float  # ||M*M - MM*||_F / ||M||_F^2, as in OracleResiduals

    def candidates_ok(self, tol: float = 1e-8) -> bool:
        # a matrix with norm below tol is the zero operator up to
        # tolerance; its only spectral statement is {0} and every check
        # on it degenerates to noise ratios
        if self.matrix_norm <= tol:
            return True
        bound = tol * self.matrix_norm
        return all(s <= bound for s in self.candidate_sigmas)

    def floor_applies(self, slack: float = 1e-8) -> bool:
        """The floor sigma_min(M - lambda I) >= dist(lambda, spectrum) / 2 is
        a theorem for normal M only: for non-normal M the pseudospectrum
        reaches beyond the spectrum."""
        return self.normal_rel <= slack

    def probes_ok(self, slack: float = 1e-8) -> bool:
        """The floor at every probe, where it applies; vacuously True elsewhere."""
        if self.matrix_norm <= slack or not self.floor_applies(slack):
            return True
        return all(
            s >= d / 2.0 - slack
            for s, d in zip(self.probe_sigmas, self.probe_distances)
        )


def spectrum_probe_check(T: WeightedCondExpOperator, report: SpectrumReport) -> SpectrumProbeResult:
    """Verify a claimed spectrum by minimum-singular-value probing.

    Every claimed value must nearly annihilate M - lambda I; probes taken
    at midpoints between sorted claimed values and at four random points
    outside their convex hull must stay spectrally far, quantified against
    the probe's distance to the claimed set.  The random points come from
    seed 0, so every call on the same input probes alike.  That floor is
    applied only when M is normal (``SpectrumProbeResult.floor_applies``).
    """
    M = matrix_of(T)
    Mh = M.conj().T
    norm = float(np.linalg.norm(M))
    values = sorted(report.values, key=lambda z: (z.real, z.imag))
    cand_sigmas = tuple(min_singular_value(M, v) for v in values)

    probes: list[complex] = []
    for a, b in zip(values, values[1:]):
        if abs(b - a) > 0:
            probes.append((a + b) / 2.0)
    rng = np.random.default_rng(0)
    radius = max((abs(v) for v in values), default=0.0)
    for _ in range(4):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        r = radius + 1.0 + rng.uniform(0.0, 1.0)
        probes.append(complex(r * np.cos(angle), r * np.sin(angle)))

    dists = tuple(min(abs(p - v) for v in values) if values else abs(p) for p in probes)
    probe_sigmas = tuple(min_singular_value(M, p) for p in probes)
    return SpectrumProbeResult(
        candidate_sigmas=cand_sigmas,
        probe_points=tuple(probes),
        probe_distances=dists,
        probe_sigmas=probe_sigmas,
        matrix_norm=norm,
        normal_rel=float(np.linalg.norm(Mh @ M - M @ Mh)) / max(norm**2, 1e-300),
    )
