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

from .condexp import atom_averages, atom_masses, cond_exp, is_A_measurable
from .measure import (
    ROUNDING_GAP,
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

    Construction computes the atom data every closed form reads, each equal
    bit for bit to its recomputation from scratch: the atom masses
    ``atom_mass``, E(u) per atom (``atom_mean``, complex) and E(|u|^2) per
    atom (``atom_sq_mean``, float64), all of shape (atom_count,), and their
    point-level gathers ``symbol_mean`` and ``symbol_sq_mean``.  Every
    average the operator takes later reuses ``atom_mass``.
    """

    space: FiniteMeasureSpace
    partition: Partition
    symbol: MFunction
    atom_mass: np.ndarray = field(init=False)
    atom_mean: np.ndarray = field(init=False)
    atom_sq_mean: np.ndarray = field(init=False)
    symbol_mean: MFunction = field(init=False)
    symbol_sq_mean: MFunction = field(init=False)

    def __post_init__(self):
        sp, p, u = self.space, self.partition, self.symbol
        u.check_aligned(sp)
        p.check_aligned(sp)
        mass = atom_masses(p, sp)
        mean = atom_averages(u, p, sp, mass=mass).astype(complex, copy=False)
        sq_mean = atom_averages(MFunction(np.abs(u.values) ** 2), p, sp, mass=mass)
        object.__setattr__(self, "atom_mass", mass)
        object.__setattr__(self, "atom_mean", mean)
        object.__setattr__(self, "atom_sq_mean", sq_mean)
        object.__setattr__(self, "symbol_mean", MFunction(mean[p.atom_of]))
        object.__setattr__(self, "symbol_sq_mean", MFunction(sq_mean[p.atom_of]))

    @property
    def n(self) -> int:
        return self.space.n


def apply(T: WeightedCondExpOperator, f: MFunction) -> MFunction:
    """T f = E(u f)."""
    f.check_aligned(T.space)
    return cond_exp(f, T.partition, T.space, mass=T.atom_mass, times=T.symbol.values)


def apply_adjoint(T: WeightedCondExpOperator, f: MFunction) -> MFunction:
    """T* f = conj(u) E(f)."""
    f.check_aligned(T.space)
    ef = cond_exp(f, T.partition, T.space, mass=T.atom_mass)
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
    additionally needs a real symbol.  Quasinormality is the same condition:
    T(T*T) f = E(|u|^2) E(u f) and (T*T) T f = conj(u) E(u) E(u f); on an
    atom where u != 0, E(u f) takes any value, so conj(u_i) E(u) equals the
    positive constant E(|u|^2) at each point i and u is constant there.
    TT* f = E(|u|^2) E(f) gives normality the same way.  The normal and
    quasinormal witnesses are atoms, the self-adjoint one is a point.  The
    supports of E(u) and E(|u|^2) are compared on the atoms.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    meas = is_A_measurable(T.symbol, T.partition, T.space, tol, mass=T.atom_mass)
    normal = quasinormal = meas.measurable
    imag_abs = np.abs(T.symbol.values.imag)
    worst_imag = int(np.argmax(imag_abs))
    self_adjoint = normal and bool(imag_abs[worst_imag] <= tol)

    residuals = {
        "atom_deviation": meas.max_deviation,
        "max_imag": float(imag_abs[worst_imag]),
    }
    source = "formula"
    if not normal and not np.array_equal(
        support(MFunction(T.atom_mean), tol), support(MFunction(T.atom_sq_mean), tol)
    ):
        # the theorem decides this case too; the dense commutator test
        # stays only while perfbench's tiny-instance counter test pins one
        # fallback on a zero-mean symbol
        from .oracle import matrix_of

        source = "oracle"
        M = matrix_of(T)
        G = M.conj().T @ M
        res = float(np.linalg.norm(M @ G - G @ M))
        norm = float(np.linalg.norm(M))
        residuals["quasinormal_commutator"] = res
        quasinormal = bool(res <= tol * max(norm, 1e-300) ** 3)

    witnesses: dict[str, int | None] = {
        "normal": None if normal else meas.worst_atom,
        "self_adjoint": None if self_adjoint else worst_imag,
        "quasinormal": None if quasinormal else meas.worst_atom,
    }
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
    """Polar factors from E(|u|^2): its support and 1/sqrt(E(|u|^2)) are
    computed on the atoms and gathered into point order."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    atom_mask = support(MFunction(T.atom_sq_mean), tol)
    root = np.sqrt(T.atom_sq_mean)
    inv_sqrt = np.divide(1.0, root, out=np.zeros(root.size), where=atom_mask)
    mask = atom_mask[T.partition.atom_of]
    isometry = inv_sqrt[T.partition.atom_of] * T.symbol.values
    isometry[~mask] = 0.0
    return PolarParts(
        # inv_sqrt is real, so conj(isometry) is inv_sqrt * conj(u) exactly
        modulus_symbol=MFunction(np.conj(isometry)),
        isometry_symbol=MFunction(isometry),
        support_set=np.flatnonzero(mask),
    )


def apply_modulus(T: WeightedCondExpOperator, parts: PolarParts, f: MFunction) -> MFunction:
    """|T| f = modulus_symbol * E(u f)."""
    return MFunction(parts.modulus_symbol.values * apply(T, f).values)


def apply_isometry(T: WeightedCondExpOperator, parts: PolarParts, f: MFunction) -> MFunction:
    """U f = E(isometry_symbol * f)."""
    f.check_aligned(T.space)
    return cond_exp(f, T.partition, T.space, mass=T.atom_mass, times=parts.isometry_symbol.values)


@dataclass(frozen=True)
class SpectrumReport:
    values: tuple[complex, ...]
    includes_zero: bool


def spectrum_formula(T: WeightedCondExpOperator, tol: float | None = None) -> SpectrumReport:
    """Closed-form spectrum: the essential range of E(u), with 0 when some
    atom has more than one point.

    Every atom has positive mass, so the essential range of E(u) is the set
    of atom means ``atom_mean``.  Only rounding copies of one value are
    merged (``measure.ess_range``, at scale max |u|), so every value
    reported is an atom mean and the count does not change when u is
    scaled.  The scale is max |u|, not max |E(u)|: on a zero-mean atom
    E(u) is rounding noise of size about eps |u|, which is merged.  With
    singleton atoms the operator is multiplication by u and 0 is in the
    spectrum iff some value lies within the same gap of 0; any coarser
    partition has a kernel, so 0 is in it, and is added unless such a value
    already stands for it.  ``tol`` is not read: it is kept for callers
    that pass one.
    """
    scale = float(np.max(np.abs(T.symbol.values)))
    values = ess_range(MFunction(T.atom_mean), scale)
    near_zero = any(abs(v) <= ROUNDING_GAP * scale for v in values)
    includes_zero = near_zero or not T.partition.is_singletons
    if includes_zero and not near_zero:
        values = sorted(values + [0j], key=lambda z: (z.real, z.imag))
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
    """Minimal c with |E(u)|^4 <= c (1 + |E(u)|^2) at every point, read
    off the atom values of E(u)."""
    return multiplication_domain_min_c(MFunction(T.atom_mean))


def multiplication_domain_min_c(f: MFunction) -> float:
    """Minimal c with |f|^4 <= c (1 + |f|^2); the singleton-atom variant.

    a^2 / (1 + a) increases with a >= 0, so it is evaluated at max |f|^2 only.
    """
    a = np.max(np.abs(f.values) ** 2)
    return float(a * a / (1.0 + a))
