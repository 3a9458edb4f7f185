"""Dense-matrix ground truth, independent of the closed-form layer.

Operators are realized as matrices in the orthonormal coordinates
e_i = delta_i / sqrt(mu_i) by ``measure.realize``, which applies an
operator's action to each basis vector; nothing here reuses the
symbol-average formulas.  ``matrix_of`` realizes M once per operator
instance and hands every later caller the same read-only array, and
``residuals`` is kept beside it, so the checks on one operator share one
realization.  ``spectrum_probe_check`` takes ||M||_F itself and forms no
commutator products.  No computed eigenvalue is taken on trust.  A
claimed spectral value is certified by a witness vector x, since
sigma_min(M - lambda I) <= ||(M - lambda I) x|| for any unit x: one general
eigendecomposition per check proposes the trial vectors, the residuals are
computed here, and one SVD is the fallback when no witness is small
enough.  The same eigendecomposition checks that the claim is complete:
each computed eigenvalue must lie near a claimed value, within a bound
that covers the eigensolver's error.  A claimed spectrum is correct when
both hold: soundness (every claimed value checks out) and completeness
(every eigenvalue is claimed).  Matrices are kept at order <= 256: the
oracle is O(n^3), the formula layer O(n).  ``_exponent`` alone picks the
power of two that brings the residuals, M*M, ``psd_sqrt``'s H, ||M||_F
and the witness residuals to unit scale; M stays at true scale, and its
exponent is taken once, when M is realized, and kept beside it.

Above order _SPLIT_ORDER the two checks, the general eigensolve of the
spectrum check (``_eig_checks``) and all of ``polar_check``, split their
matrices along the connected components of the graph of their nonzero
entries (``_blocks``), with one stacked call per component size; at lower
orders and on a connected pattern they run the same code on a stack of
one whole matrix.  T acts on each atom alone, so in atom order M is
block diagonal: at N = 256 the symmetric-interval scenario's M is 128
blocks of order 2.  The components are read from the matrices alone, never
from the partition or the symbol, so the split reuses nothing of the
closed-form layer.  Every entry off the blocks is exactly 0, so a block's
eigenpair padded with zeros is one of the whole matrix, and a product or
root of whole matrices is the blocks' products or roots.  ``polar_check``
forms no order-n product or root: per component size it forms the
reconstruction residual, M*M, its root and the root residual, and only
their Frobenius sums are combined.  ``hermitian_eig`` and ``psd_sqrt``,
which no check calls, solve whole.  The witness residuals,
``OracleResiduals.of``'s products and ``min_singular_value`` stay whole:
per block they are slower at orders 33-64, where most split instances lie
(on the 42 oracle-verify benchmark instances above order 32, the residual
products take 5.0 ms whole and 7.1 ms per block; min of 7, 2 cores,
numpy 2.4.6, 1 BLAS thread).

Every formula-vs-oracle verdict is decided here: ``polar_check``,
``OracleResiduals.agrees`` and ``SpectrumProbeResult.ok``.  Each takes the
formula layer's output (polar factors, a classification, a claimed
spectrum) as the claim under test, never as truth.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .measure import TOLERANCES, realize
from .operator import ClassificationReport, PolarParts, SpectrumReport, WeightedCondExpOperator
from .operator import apply, apply_isometry, apply_modulus

__all__ = [
    "MATRIX_ORDER_CAP",
    "OrderCapError",
    "NotHermitianError",
    "NotPSDError",
    "matrix_of",
    "hermitian_eig",
    "psd_sqrt",
    "min_singular_value",
    "residuals",
    "OracleResiduals",
    "polar_check",
    "spectrum_probe_check",
    "SpectrumProbeResult",
]

MATRIX_ORDER_CAP = 256
# the oracle's own thresholds; every other one is read from TOLERANCES
_TOL = 1e-8  # hermitian_eig's and psd_sqrt's input checks, relative to ||H||
_WITNESS_ACCEPT = 1e-12  # largest witness residual reported without an SVD, relative to ||M||_F
_COMPLETE = 1e-6  # largest eigenvalue distance to a claimed value, relative to ||M||_F
# the largest order solved whole.  A split costs one pass of _blocks (about
# 80 us at order 65) and one stacked call per distinct block size.  On the
# benchmark's 100 oracle-verify instances (max_n 64), _eig_checks per batch
# takes, by gate (min of 7, 2-core Xeon, numpy 2.4.6, 1 BLAS thread):
#   gate   64       32       16       8        0
#   time   37.6 ms  21.5 ms  22.8 ms  24.1 ms  25.0 ms
# On its 42 instances above order 32 a dense eig takes 31.4 ms, _blocks and
# the stacked calls 2.5-3.5 + 10-14 ms.  Below order 33 a split saves little
# or loses, and splitting at every order raised the p50 query time by 13-19%
_SPLIT_ORDER = 32
# (angle, radius) draws of the four outer probe points, made once: the same
# doubles a fresh default_rng(0) gives to eight scalar uniform() calls
_PROBE_DRAWS = np.random.default_rng(0).random(8).reshape(4, 2)


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
    """Matrix with entry (j, i) = <T e_i, e_j> in orthonormal coordinates.

    Realized on the first call and kept in T's ``__dict__``, the way
    ``functools.cached_property`` stores values on frozen dataclasses,
    beside its ``_exponent``, which every check reads from there; every
    call on T returns that same read-only array.
    """
    _check_order(T.n)
    memo = T.__dict__.get("_oracle_matrix")
    if memo is None:
        M = realize(T.space, lambda f: apply(T, f))
        M.flags.writeable = False
        memo = T.__dict__["_oracle_matrix"] = (M, _exponent(M))
    return memo[0]


def _matrix_and_exponent(T: WeightedCondExpOperator) -> tuple[np.ndarray, int]:
    """``matrix_of(T)`` and its ``_exponent``, read from the memo beside it."""
    M = matrix_of(T)
    return M, T.__dict__["_oracle_matrix"][1]


def _exponent(A: np.ndarray) -> int:
    """k with max|A_ij| = m * 2^k, m in [0.5, 1), clamped to [-1022, 1023] so
    2^-k and 2^k are finite: A * 2^-k is A at unit scale, exactly."""
    return min(max(int(np.frexp(np.abs(A).max(initial=0.0))[1]), -1022), 1023)


def _blocks(*mats: np.ndarray) -> list[np.ndarray] | None:
    """The connected components of the graph with an edge i - j wherever
    some A of ``mats`` has A[i, j] != 0 or A[j, i] != 0, as one (k, s)
    array of indices per component size s: row c lists the s points of the
    c-th such component, ascending.  Every entry of every A off these
    blocks is exactly 0.  None when the matrices are one block: at order
    <= _SPLIT_ORDER, where a split saves little or loses, and when the
    graph is connected.
    """
    n = mats[0].shape[0]
    if n <= _SPLIT_ORDER:
        return None
    nz = mats[0].astype(bool)  # A != 0, three times faster on complex A
    for A in mats[1:]:
        nz |= A.astype(bool)
    adj = nz | nz.T
    # each point takes the least label among itself and its neighbours, and
    # then the label of that label, until no label moves.  A label is always
    # a point of the same component and at most the point's own index, so
    # the fixed point labels each component by its least index
    lab = np.arange(n)
    while True:
        new = np.minimum(np.where(adj, lab, n).min(axis=1), lab)
        new = new[new]
        if np.array_equal(new, lab):
            break
        lab = new
    if not lab.any():
        return None
    order = np.argsort(lab, kind="stable")
    _, first, sizes = np.unique(lab[order], return_index=True, return_counts=True)
    return [order[first[sizes == s][:, None] + np.arange(s)] for s in np.unique(sizes)]


def _stacks(blocks: list[np.ndarray] | None, *mats: np.ndarray):
    """For each entry idx of ``blocks``: idx, then each of ``mats`` gathered
    to its (k, s, s) stack of blocks.  When blocks is None, one stack of
    each whole matrix, a view, with idx every point: the callers then run
    the same code on a stack of one block."""
    if blocks is None:
        yield (np.arange(mats[0].shape[0])[None], *(A[None] for A in mats))
        return
    for idx in blocks:
        rows, cols = idx[:, :, None], idx[:, None, :]
        yield (idx, *(A[rows, cols] for A in mats))


def _sq(A: np.ndarray) -> float:
    """||A||_F^2, summed as ``np.linalg.norm`` sums it, so that the square
    root of one such sum has the bits of ``np.linalg.norm(A)``."""
    x = A.ravel(order="K")
    return float(x.real.dot(x.real) + x.imag.dot(x.imag))


def _finite(H) -> np.ndarray:
    """H as a complex array, checked before any arithmetic on it: ValueError
    if an entry is NaN or infinite, which ``_hermitian_part``'s relative
    check would let through (a NaN compares False)."""
    H = np.asarray(H, dtype=complex)
    if not np.isfinite(H).all():
        raise ValueError("matrix has a NaN or infinite entry")
    return H


def _hermitian_part(H: np.ndarray) -> tuple[np.ndarray, float]:
    """(H + H*) / 2 and ||H||_F, for a finite complex H whose anti-Hermitian
    part is at most 1e-8 * ||H||_F; NotHermitianError otherwise."""
    _check_order(H.shape[0])
    norm = float(np.linalg.norm(H))
    skew = np.linalg.norm(H - H.conj().T)
    if skew > _TOL * max(norm, 1e-300):
        raise NotHermitianError(
            f"anti-Hermitian part {skew:.3e} exceeds {_TOL:.1e} * ||H|| = {_TOL * norm:.3e}"
        )
    return (H + H.conj().T) / 2.0, norm


def hermitian_eig(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix; eigenvalues ascending, V unitary.

    Rejects a NaN or infinite entry, and inputs whose anti-Hermitian part
    exceeds 1e-8 * ||H||_F.  One ``eigh`` of the whole H: no oracle check
    calls this, so it is not split along components.
    """
    return np.linalg.eigh(_hermitian_part(_finite(H))[0])


def _psd_roots(H: np.ndarray, k: int, norm: float, n: int) -> np.ndarray:
    """Positive square roots of a (b, s, s) stack of Hermitian PSD blocks
    of one matrix H of order n, given at scale 4^-k with ||H||_F = norm at
    that scale; each root is scaled back by 2^k.  One stacked eigh reads
    each block's lower triangle.  Eigenvalues below -1e-8 * norm raise
    NotPSDError; those at or below the noise floor n * eps * norm are
    taken as exact zeros."""
    w, v = np.linalg.eigh(H)
    low = w.min(initial=0.0)
    if low < -_TOL * max(norm, 1e-300):
        raise NotPSDError(f"eigenvalue {np.ldexp(low, 2 * k):.3e} below -{_TOL:.1e} * ||H||")
    floor = n * np.finfo(float).eps * norm
    root = np.sqrt(np.where(w <= floor, 0.0, w)) * np.ldexp(1.0, k)
    return (v * root[:, None, :]) @ v.conj().swapaxes(1, 2)


def psd_sqrt(H: np.ndarray) -> np.ndarray:
    """Positive square root of a Hermitian PSD matrix.

    Eigenvalues in [-1e-8 * ||H||, 0) are clamped to 0; anything more
    negative is an error.  Eigenvalues at the eigensolver's noise floor
    (order n * eps * ||H||) are also treated as exact zeros: taking their
    square root would otherwise inflate pure rounding noise on a true
    null space into sqrt(eps)-sized spurious singular values.  A NaN or
    infinite entry is rejected.  H is first scaled by an exact power of four
    that brings max|H| near 1, so ||H|| does not overflow on a large
    symbol; the root is scaled back by the power of two, which changes no
    bit where nothing over- or underflows.  The root is one ``_psd_roots``
    call on the whole H: no oracle check calls this, so it is not split
    along components; ``polar_check`` calls ``_psd_roots`` per component.
    """
    H = _finite(H)
    k = _exponent(H) // 2
    H, norm = _hermitian_part(H * np.ldexp(1.0, -2 * k))
    return _psd_roots(H[None], k, norm, H.shape[0])[0]


def min_singular_value(M: np.ndarray, lam: complex = 0.0) -> float:
    """Smallest singular value of M - lam * I."""
    M = np.asarray(M, dtype=complex)
    _check_order(M.shape[0])
    return float(np.linalg.svd(M - lam * np.eye(M.shape[0]), compute_uv=False)[-1])


@dataclass(frozen=True)
class OracleResiduals:
    """||M - M*|| / ||M||, ||M*M - MM*|| / ||M||^2, ||M M*M - M*M M|| / ||M||^3
    (Frobenius norms) and ||M||_F itself, inf where it overflows."""

    self_adjoint_rel: float
    normal_rel: float
    quasinormal_rel: float
    matrix_norm: float

    @classmethod
    def of(cls, M: np.ndarray, k: int) -> OracleResiduals:
        """The residuals of M, given k = ``_exponent(M)`` as ``matrix_of``'s
        memo keeps it.  Formed at unit scale, from M * 2^-k, where
        ||M||_F >= 0.5 unless M = 0 and no product or norm over- or
        underflows: M * 2^j gives the same ratios."""
        M = M * np.ldexp(1.0, -k)
        Mh = M.conj().T
        G = Mh @ M  # |M|^2, no square root needed
        norm = float(np.linalg.norm(M))
        d = norm or 1.0
        return cls(
            self_adjoint_rel=float(np.linalg.norm(M - Mh)) / d,
            normal_rel=float(np.linalg.norm(G - M @ Mh)) / d**2,
            quasinormal_rel=float(np.linalg.norm(M @ G - G @ M)) / d**3,
            matrix_norm=norm * 2.0**k,
        )

    def verdicts(self, tol: float) -> tuple[bool, bool, bool]:
        """(self_adjoint, normal, quasinormal) at relative tolerance tol.

        A matrix whose norm is itself below tol is taken as the zero
        operator, an absolute cut, so all three verdicts hold though its
        relative residuals, taken at unit scale, are not noise.
        """
        if self.matrix_norm <= tol:
            return (True, True, True)
        return (
            self.self_adjoint_rel <= tol,
            self.normal_rel <= tol,
            self.quasinormal_rel <= tol,
        )

    def agrees(self, report: ClassificationReport, tol: float) -> bool:
        """Whether a formula-layer classification matches these verdicts at tol."""
        return (report.self_adjoint, report.normal, report.quasinormal) == self.verdicts(tol)


def residuals(T: WeightedCondExpOperator) -> OracleResiduals:
    """``OracleResiduals.of(M, k)`` for M = ``matrix_of(T)``: the residuals
    backing each classification verdict, computed once per operator and
    kept beside M.  M and its exponent k are read from ``matrix_of``'s
    memo when it is there, with no call."""
    # checked before the memos, which matrix_of is not called to read: a
    # memo made under a higher cap is not handed out under the real one
    _check_order(T.n)
    res = T.__dict__.get("_oracle_residuals")
    if res is None:
        memo = T.__dict__.get("_oracle_matrix") or _matrix_and_exponent(T)
        res = T.__dict__["_oracle_residuals"] = OracleResiduals.of(*memo)
    return res


def polar_check(
    T: WeightedCondExpOperator, parts: PolarParts, tol: float
) -> tuple[float, float, bool]:
    """Dense check of polar factors cut at tolerance tol.

    The factors vanish off S = supp E(|u|^2) > tol, so U|T| = P_S M and
    |T| = P_S sqrt(M*M) with P_S the projection onto S.  Each atom a off S
    adds exactly E_a(|u|^2) to ||(I - P_S) M||_F^2, so that is at most tol
    per atom off S; this fails when the factors were cut too high.
    Returns the two residuals and the verdict.

    The check runs per connected component of the joint nonzero pattern of
    M and the realized U and |T| (``_blocks``), one stacked pass per
    component size: a claimed factor that leaks across M's components
    merges them and is checked on the merged block.  Each pass forms
    U_b |T|_b - P_S M_b, M_b*M_b at unit scale, its root (``_psd_roots``,
    with the noise floor of the whole M*M) and |T|_b - P_S root_b; only
    Frobenius sums leave it.  At order <= _SPLIT_ORDER, or when the
    pattern is connected, the same code runs on a stack of one block.
    """
    M, k = _matrix_and_exponent(T)
    on = parts.atom_support[T.partition.atom_of]
    U_mat = realize(T.space, lambda f: apply_isometry(T, parts, f))
    A_mat = realize(T.space, lambda f: apply_modulus(T, parts, f))
    # M*M and ||M||_F at unit scale, where no square over- or underflows
    s = np.ldexp(1.0, -k)
    recon_sq = off_sq = m_sq = 0.0
    moduli = []  # (P_S on the block, |T|_b, M_b*M_b at unit scale) per size
    for idx, Mb, Ub, Ab in _stacks(_blocks(M, U_mat, A_mat), M, U_mat, A_mat):
        on_b = on[idx]
        R = Ub @ Ab
        np.subtract(R, Mb, out=R, where=on_b[:, :, None])
        recon_sq += _sq(R)
        off_sq += _sq(Mb[~on_b])
        Mb = Mb * s
        m_sq += _sq(Mb)
        moduli.append((on_b, Ab, Mb.conj().swapaxes(1, 2) @ Mb))
    del U_mat, Ub, R, Mb  # U and the loop's views of it are read no more
    h_norm = float(np.sqrt(sum(_sq(H) for _, _, H in moduli)))
    sqrt_sq = 0.0
    for on_b, Ab, H in moduli:
        R = _psd_roots(H, k, h_norm, T.n)
        R[~on_b] = 0.0
        R -= Ab
        sqrt_sq += _sq(R)
    recon, sqrt_err = float(np.sqrt(recon_sq)), float(np.sqrt(sqrt_sq))
    atoms_off = np.unique(T.partition.atom_of[~on]).size
    norm = float(np.sqrt(m_sq) / s)
    ok = (
        recon <= TOLERANCES["identity"] * norm
        and sqrt_err <= TOLERANCES["oracle"] * norm
        and off_sq <= tol * atoms_off
    )
    return recon, sqrt_err, ok


def _eig_checks(
    M: np.ndarray, k: int, values: list[complex]
) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """||M||_F and, from one eigendecomposition of M, an upper bound on
    sigma_min(M - lam * I) for each claimed lam in values, at rounding
    level when lam is an eigenvalue, and each computed eigenvalue's
    distance to the nearest claimed value.

    The unit eigenvector of the computed eigenvalue nearest lam is a
    witness x; its residual ||(M - lam I) x|| bounds sigma_min from above.
    A residual above _WITNESS_ACCEPT * norm, or a failed eigensolve, falls
    back to the SVD, so a value is never reported above the SVD's by more
    than that bound, and never below sigma_min by more than rounding.  A
    failed eigensolve, of M or of any block of it, reports one infinite
    distance: completeness is then unchecked, and fails.

    The eigendecomposition runs per connected component of M's nonzero
    pattern (``_blocks``), one stacked ``eig`` per component size, and on a
    stack of one whole M at order <= _SPLIT_ORDER or when M is connected.
    The eigenvalues are taken in stack order, unsorted, and column j of V,
    zero off its block, is the eigenvector of w[j]: a block's eigenpair
    padded with zeros is one of M.  The witness residuals are taken on the
    whole M; their squares, like those of ||M||_F, are summed at unit scale
    2^-k, with k = ``_exponent(M)``.
    """
    s = np.ldexp(1.0, -k)
    norm = float(np.sqrt(_sq(M * s)) / s)
    lams = np.asarray(values, dtype=complex)
    try:
        parts = [(idx, *np.linalg.eig(S)) for idx, S in _stacks(_blocks(M), M)]
    except np.linalg.LinAlgError:
        r = np.full(lams.size, np.inf)
        dists = (np.inf,)
    else:
        w = np.concatenate([bw.ravel() for _, bw, _ in parts])
        V = np.zeros(M.shape, dtype=complex)
        start = 0
        for idx, _, bv in parts:
            cols = np.arange(start, start + idx.size).reshape(idx.shape)
            V[idx[:, :, None], cols[:, None, :]] = bv
            start += idx.size
        gaps = np.abs(lams[:, None] - w[None, :])
        X = V[:, gaps.argmin(axis=1)]
        R = M @ X - X * lams
        R *= s
        r = np.linalg.norm(R, axis=0) / s
        dists = tuple(gaps.min(axis=0, initial=np.inf).tolist())
    sigmas = tuple(
        float(x) if x <= _WITNESS_ACCEPT * norm else min_singular_value(M, lam)  # False for NaN too
        for x, lam in zip(r, values)
    )
    return norm, sigmas, dists


@dataclass(frozen=True)
class SpectrumProbeResult:
    # an upper bound on sigma_min at each claimed spectral value, from an
    # eigenvector witness or the SVD (see _eig_checks)
    candidate_sigmas: tuple[float, ...]
    # each computed eigenvalue's distance to the nearest claimed value (see _eig_checks)
    eigenvalue_distances: tuple[float, ...]
    # probe_points, probe_distances, probe_sigmas and probes_ok belong to
    # the probe floor, which no verdict of the library, the CLI or the suite
    # uses; outside the tests only the benchmark in perfbench/ reads them,
    # and they go with the benchmark change that releases its pins (ROADMAP
    # item 1).  matrix_norm is ||M||_F, taken at unit scale by the check
    # itself, which forms no commutator products
    probe_points: tuple[complex, ...]
    probe_distances: tuple[float, ...]  # distance of each probe to the claimed set
    matrix_norm: float
    matrix: np.ndarray = field(repr=False, compare=False)
    operator: WeightedCondExpOperator = field(repr=False, compare=False)

    @cached_property
    def probe_sigmas(self) -> tuple[float, ...]:
        """sigma_min at each probe point, one SVD each, computed on first
        read.  No verdict uses it; outside the tests only perfbench reads it."""
        return tuple(min_singular_value(self.matrix, p) for p in self.probe_points)

    def candidates_ok(self, tol: float) -> bool:
        # an overflowed ||M||_F makes every bound infinite, so no claim passes
        if not np.isfinite(self.matrix_norm):
            return False
        bound = tol * self.matrix_norm
        return all(s <= bound for s in self.candidate_sigmas)

    def eigenvalues_ok(self) -> bool:
        """Completeness: every computed eigenvalue of M lies within
        _COMPLETE * ||M||_F of a claimed value, so a claim that leaves a
        value out fails.  The bound is loose because a zero-mean atom makes
        0 a defective eigenvalue (2 x 2 Jordan blocks), which rounding moves
        by about sqrt(eps) * ||M||_F: over ``random_operator`` seeds 0-2999
        at max_n 64 and 0-599 at max_n 256, split above order 32, the
        largest distance was 1.3e-8 * ||M||_F.  A left-out value closer
        than the bound to a claimed one is not seen.  As in candidates_ok,
        False when ||M||_F is not finite."""
        if not np.isfinite(self.matrix_norm):
            return False
        return max(self.eigenvalue_distances) <= _COMPLETE * self.matrix_norm

    def probes_ok(self, slack: float) -> bool:
        """The floor sigma_min(M - lambda I) >= dist(lambda, spectrum) / 2 -
        slack at every probe, where it applies: it is a theorem for normal
        M only, since for non-normal M the pseudospectrum reaches beyond
        the spectrum.  Normality is decided at TOLERANCES["oracle"], not at
        ``slack``, so a loose slack does not apply the floor to a
        non-normal M.  Vacuously True elsewhere, and then no probe
        sigma_min is computed.  Not part of ``ok``: completeness already
        fails a claim that leaves a value out.  Outside the tests only
        perfbench reads it."""
        # not ... <=: a NaN residual skips the floor
        if self.matrix_norm <= slack or not (
            residuals(self.operator).normal_rel <= TOLERANCES["oracle"]
        ):
            return True
        return all(
            s >= d / 2.0 - slack
            for s, d in zip(self.probe_sigmas, self.probe_distances)
        )

    def ok(self, tol: float) -> bool:
        """The spectrum verdict: every claimed value checks out (soundness)
        and every eigenvalue is claimed (completeness)."""
        return self.candidates_ok(tol) and self.eigenvalues_ok()


def spectrum_probe_check(T: WeightedCondExpOperator, report: SpectrumReport) -> SpectrumProbeResult:
    """Verify a claimed spectrum against M.

    Every claimed value must nearly annihilate M - lambda I, shown by an
    eigenvector witness from one eigendecomposition of M, and every
    eigenvalue of that decomposition must lie near a claimed value
    (``_eig_checks``).  It takes ||M||_F itself and forms no commutator
    products.  The result also carries probe points, at midpoints between
    sorted claimed values and at four random points outside their convex
    hull (the draws of a seed-0 generator, so every call on the same input
    probes alike), and their distances to the claimed set; no verdict
    reads them.
    """
    M, k = _matrix_and_exponent(T)
    values = sorted(report.values, key=lambda z: (z.real, z.imag))
    norm, cand_sigmas, eig_dists = _eig_checks(M, k, values)

    probes: list[complex] = []
    for a, b in zip(values, values[1:]):
        if abs(b - a) > 0:
            probes.append((a + b) / 2.0)
    radius = max((abs(v) for v in values), default=0.0)
    for d_angle, d_radius in _PROBE_DRAWS:
        # Generator.uniform(low, high) maps a draw d to low + (high - low) * d,
        # which is (high - low) * d exactly when low is 0
        angle = 2.0 * np.pi * d_angle
        r = radius + 1.0 + d_radius
        probes.append(complex(r * np.cos(angle), r * np.sin(angle)))

    # np.hypot is the complex abs of CPython bit for bit; np.abs is not.
    # With no claimed value the distance is to 0, which is |p|.
    D = np.array(probes)[:, None] - np.asarray(values or [0j], dtype=complex)
    dists = np.hypot(D.real, D.imag).min(axis=1)
    return SpectrumProbeResult(
        candidate_sigmas=cand_sigmas,
        eigenvalue_distances=eig_dists,
        probe_points=tuple(probes),
        probe_distances=tuple(dists.tolist()),
        matrix_norm=norm,
        matrix=M,
        operator=T,
    )
