"""The weighted conditional expectation operator f -> E(u f).

Everything the closed-form theory says about this operator is computed
here from the symbol u and its atom averages: the adjoint, the
self-adjoint / normal / quasinormal classification, the polar
decomposition, the spectrum, densely-defined verdicts on countable
spaces, and the domain-invariance constant.  The dense-matrix ground
truth lives in :mod:`wcelab.oracle` and never reuses these formulas.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from .condexp import atom_averages, cond_exp, is_A_measurable
from .measure import (
    TRUNCATION_CAP,
    CountableSpaceSpec,
    FiniteMeasureSpace,
    MFunction,
    Partition,
    ess_range,
    read_points,
    support,
    tail_cutoff,
)

__all__ = [
    "WeightedCondExpOperator",
    "ClassificationReport",
    "PolarParts",
    "SpectrumReport",
    "DomainReport",
    "InternalInconsistencyError",
    "UndecidableDomainError",
    "apply",
    "apply_adjoint",
    "classify",
    "polar",
    "apply_modulus",
    "apply_isometry",
    "spectrum_formula",
    "densely_defined",
    "domain_invariance_min_c",
    "multiplication_domain_min_c",
]


class InternalInconsistencyError(RuntimeError):
    """A verdict ordering that theory forbids was produced."""


class UndecidableDomainError(RuntimeError):
    """A countable spec supplied neither a convergence nor a divergence certificate."""


@dataclass(frozen=True)
class WeightedCondExpOperator:
    """The triple (space, partition, symbol) defining f -> E(u f).

    The atom averages E(u) and E(|u|^2) are cached at construction; they
    always equal the averages recomputed from scratch.
    """

    space: FiniteMeasureSpace
    partition: Partition
    symbol: MFunction
    symbol_mean: MFunction = field(init=False)
    symbol_sq_mean: MFunction = field(init=False)

    def __post_init__(self):
        self.symbol.check_aligned(self.space)
        self.partition.check_aligned(self.space)
        object.__setattr__(
            self, "symbol_mean", cond_exp(self.symbol, self.partition, self.space)
        )
        sq = MFunction(np.abs(self.symbol.values) ** 2)
        object.__setattr__(
            self, "symbol_sq_mean", cond_exp(sq, self.partition, self.space)
        )

    @property
    def n(self) -> int:
        return self.space.n


def apply(T: WeightedCondExpOperator, f: MFunction) -> MFunction:
    """T f = E(u f)."""
    f.check_aligned(T.space)
    return cond_exp(MFunction(T.symbol.values * f.values), T.partition, T.space)


def apply_adjoint(T: WeightedCondExpOperator, f: MFunction) -> MFunction:
    """T* f = conj(u) E(f)."""
    f.check_aligned(T.space)
    ef = cond_exp(f, T.partition, T.space)
    return MFunction(np.conj(T.symbol.values) * ef.values)


@dataclass(frozen=True)
class ClassificationReport:
    self_adjoint: bool
    normal: bool
    quasinormal: bool
    residuals: dict[str, float]
    witnesses: dict[str, int | None]
    quasinormal_source: str  # "formula" or "oracle"

    def __post_init__(self):
        if (self.self_adjoint and not self.normal) or (
            self.normal and not self.quasinormal
        ):
            raise InternalInconsistencyError(
                f"verdict ordering violated: sa={self.self_adjoint} "
                f"normal={self.normal} quasi={self.quasinormal}"
            )


def classify(T: WeightedCondExpOperator, tol: float) -> ClassificationReport:
    """Self-adjoint / normal / quasinormal verdicts with residuals.

    Normality holds iff the symbol is atom-constant; self-adjointness
    additionally needs a real symbol.  Quasinormality is the pointwise test
    conj(u) E(u) = E(|u|^2) on the common support of E(u) and E(|u|^2)
    when those supports coincide; when they differ the verdict is
    delegated to the dense commutator residual ||M |M|^2 - |M|^2 M||_F.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    meas = is_A_measurable(T.symbol, T.partition, T.space, tol)
    normal = meas.measurable
    imag_abs = np.abs(T.symbol.values.imag)
    worst_imag = int(np.argmax(imag_abs))
    self_adjoint = normal and bool(imag_abs[worst_imag] <= tol)

    residuals = {
        "atom_deviation": meas.max_deviation,
        "max_imag": float(imag_abs[worst_imag]),
    }
    witnesses: dict[str, int | None] = {
        "normal": None if normal else meas.worst_atom,
        "self_adjoint": None if self_adjoint else worst_imag,
        "quasinormal": None,
    }

    s_mean = support(T.symbol_mean, tol)
    s_sq = support(T.symbol_sq_mean, tol)
    if np.array_equal(s_mean, s_sq):
        source = "formula"
        idx = np.flatnonzero(s_sq)
        if idx.size:
            gap = np.abs(
                np.conj(T.symbol.values[idx]) * T.symbol_mean.values[idx]
                - T.symbol_sq_mean.values[idx]
            )
            worst = int(np.argmax(gap))
            residuals["quasinormal_gap"] = float(gap[worst])
            quasinormal = bool(gap[worst] <= tol)
            if not quasinormal:
                witnesses["quasinormal"] = int(idx[worst])
        else:
            residuals["quasinormal_gap"] = 0.0
            quasinormal = True
    else:
        # supports of E(u) and E(|u|^2) differ: the closed-form criterion
        # does not apply, fall back on the dense commutator test
        from .oracle import matrix_of

        source = "oracle"
        M = matrix_of(T)
        G = M.conj().T @ M
        res = float(np.linalg.norm(M @ G - G @ M))
        norm = float(np.linalg.norm(M))
        residuals["quasinormal_commutator"] = res
        quasinormal = bool(res <= tol * max(norm, 1e-300) ** 3)

    return ClassificationReport(
        self_adjoint=self_adjoint,
        normal=normal,
        quasinormal=quasinormal,
        residuals=residuals,
        witnesses=witnesses,
        quasinormal_source=source,
    )


@dataclass(frozen=True)
class PolarParts:
    """Symbols of the polar factors of T = (partial isometry) * (modulus).

    ``modulus_symbol`` w satisfies |T| f = w * E(u f);
    ``isometry_symbol`` v satisfies U f = E(v f).  Both vanish off the
    support of E(|u|^2), whose point indices ``support_set`` holds as a
    sorted integer array.
    """

    modulus_symbol: MFunction
    isometry_symbol: MFunction
    support_set: np.ndarray


def polar(T: WeightedCondExpOperator, tol: float) -> PolarParts:
    if tol <= 0:
        raise ValueError("tol must be positive")
    mask = support(T.symbol_sq_mean, tol)
    inv_sqrt = np.zeros(T.n, dtype=float)
    inv_sqrt[mask] = 1.0 / np.sqrt(T.symbol_sq_mean.values[mask].real)
    modulus = np.where(mask, inv_sqrt * np.conj(T.symbol.values), 0.0 + 0.0j)
    isometry = np.where(mask, inv_sqrt * T.symbol.values, 0.0 + 0.0j)
    return PolarParts(
        modulus_symbol=MFunction(modulus),
        isometry_symbol=MFunction(isometry),
        support_set=np.flatnonzero(mask),
    )


def apply_modulus(T: WeightedCondExpOperator, parts: PolarParts, f: MFunction) -> MFunction:
    """|T| f = modulus_symbol * E(u f)."""
    return MFunction(parts.modulus_symbol.values * apply(T, f).values)


def apply_isometry(T: WeightedCondExpOperator, parts: PolarParts, f: MFunction) -> MFunction:
    """U f = E(isometry_symbol * f)."""
    f.check_aligned(T.space)
    return cond_exp(
        MFunction(parts.isometry_symbol.values * f.values), T.partition, T.space
    )


@dataclass(frozen=True)
class SpectrumReport:
    values: tuple[complex, ...]
    includes_zero: bool


def spectrum_formula(T: WeightedCondExpOperator, tol: float) -> SpectrumReport:
    """Closed-form spectrum.

    With singleton atoms the operator is plain multiplication by u and the
    spectrum is the essential range of u.  With any coarser partition the
    spectrum is the essential range of E(u) together with 0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if T.partition.is_singletons:
        values = ess_range(T.symbol, T.space, tol)
        includes_zero = any(abs(v) <= tol for v in values)
    else:
        values = ess_range(T.symbol_mean, T.space, tol)
        if not any(abs(v) <= tol for v in values):
            values = sorted(values + [0.0 + 0.0j], key=lambda z: (z.real, z.imag))
        includes_zero = True
    return SpectrumReport(values=tuple(values), includes_zero=includes_zero)


@dataclass(frozen=True)
class AtomDomainVerdict:
    converges: bool
    sq_mean: float | None  # E(|u|^2) on the atom when it converges
    partial_sum: float
    tail_bound: float | None
    terms_used: int


@dataclass(frozen=True)
class DomainReport:
    densely_defined: bool
    per_atom: dict[Hashable, AtomDomainVerdict]
    sigma_finite_restriction: bool

    @property
    def verdicts_agree(self) -> bool:
        return self.densely_defined == self.sigma_finite_restriction


_DIVERGENCE_TARGETS = (1e3, 1e6, 1e12)


def densely_defined(spec: CountableSpaceSpec, tail_tol: float) -> DomainReport:
    """Decide whether f -> E(u f) is densely defined on a countable space.

    Per atom, convergence of sum mu_i |u_i|^2 is certified by the spec's
    weighted tail bound; divergence must come with an explicit witness
    (partial sums provably exceeding escalating targets).  A spec with
    neither certificate is an error, never a guess.  The sigma-finiteness
    of the measure with density E(|u|^2) restricted to the sub-algebra is
    read off the same per-atom verdicts.
    """
    if not tail_tol > 0:
        raise ValueError("tail_tol must be positive")
    bound = spec.weighted_tail_bound
    if bound is None and not spec.divergent_atoms:
        raise UndecidableDomainError(
            "spec carries neither a weighted tail bound nor divergence witnesses"
        )
    per_atom = {a: _verify_divergence(spec, a, w) for a, w in spec.divergent_atoms.items()}

    tail = None
    if bound is not None:
        scan = tail_cutoff(bound, tail_tol)
        if scan is None:
            raise UndecidableDomainError(
                f"weighted tail bound never reached {tail_tol} within {TRUNCATION_CAP} indices"
            )
        tail = bound(scan)
        masses, symbol, atom_of, atom_ids = read_points(spec, scan)
        # bincount adds each atom's terms in index order
        sums = np.bincount(atom_of, weights=masses * np.abs(symbol) ** 2)
        atom_mass = np.bincount(atom_of, weights=masses)
        counts = np.bincount(atom_of)
        for a, s, m, c in zip(atom_ids, sums.tolist(), atom_mass.tolist(), counts.tolist()):
            if a not in per_atom:
                per_atom[a] = AtomDomainVerdict(
                    converges=True,
                    # an atom whose mass underflows to 0 carries no weighted mass
                    sq_mean=s / m if m > 0 else 0.0,
                    partial_sum=s,
                    tail_bound=tail,
                    terms_used=c,
                )

    return DomainReport(
        densely_defined=all(v.converges for v in per_atom.values()),
        per_atom=per_atom,
        sigma_finite_restriction=_sigma_finite_restriction(per_atom, tail),
    )


def _verify_divergence(spec, atom, witness) -> AtomDomainVerdict:
    """Check a divergence witness by direct summation: the atom's weighted
    partial sum through each witnessed index must reach its target."""
    ends = [witness(target) for target in _DIVERGENCE_TARGETS]
    if not all(0 <= end <= TRUNCATION_CAP for end in ends):
        raise UndecidableDomainError(
            f"divergence witness for atom {atom!r} names an index outside 0..{TRUNCATION_CAP}"
        )
    masses, symbol, atom_of, atom_ids = read_points(spec, max(ends) + 1)
    in_atom = atom_of == (atom_ids.index(atom) if atom in atom_ids else -1)
    partial = np.cumsum(np.where(in_atom, masses * np.abs(symbol) ** 2, 0.0))
    for target, end in zip(_DIVERGENCE_TARGETS, ends):
        if partial[end] < target:
            raise UndecidableDomainError(
                f"divergence witness for atom {atom!r} failed: partial sum "
                f"{partial[end]} below target {target}"
            )
    return AtomDomainVerdict(
        converges=False,
        sq_mean=None,
        partial_sum=float(partial[-1]),
        tail_bound=None,
        terms_used=partial.size,
    )


def _sigma_finite_restriction(per_atom, tail) -> bool:
    """Sigma-finiteness of the E(|u|^2)-density measure on the sub-algebra.

    The minimal sub-algebra sets are the atoms, so an exhaustion by sets of
    finite measure exists iff every atom carries finite weighted mass:
    an atom of infinite mass can never be covered.
    """
    return all(
        v.converges and (tail is None or np.isfinite(v.partial_sum + tail))
        for v in per_atom.values()
    )


def domain_invariance_min_c(T: WeightedCondExpOperator) -> float:
    """Minimal c with |E(u)|^4 <= c (1 + |E(u)|^2) at every point."""
    return multiplication_domain_min_c(T.symbol_mean)


def multiplication_domain_min_c(f: MFunction) -> float:
    """Minimal c with |f|^4 <= c (1 + |f|^2); the singleton-atom variant."""
    a = np.abs(f.values) ** 2
    return float(np.max(a**2 / (1.0 + a)))
