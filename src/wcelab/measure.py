"""Discretized measure spaces, measurable functions and partitions.

A space is a finite collection of positive point masses, so a function's
essential range is its set of values; countable spaces are accessed only
through truncation against explicit tail bounds.  All values are
immutable after construction and all operations are pure.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "NotSummableError",
    "FiniteMeasureSpace",
    "MFunction",
    "Partition",
    "CountableSpaceSpec",
    "Truncation",
    "weighted_inner_product",
    "support",
    "realize",
    "ess_range",
    "read_points",
    "truncate",
]

#: hard cap on the points read from a countable spec
TRUNCATION_CAP = 200_000
#: every fixed tolerance, by name; ``suite --format json`` reports this table
TOLERANCES = {
    "identity": 1e-10,  # closed-form identities
    "oracle": 1e-8,  # formula-vs-dense-matrix comparisons
    "exact": 1e-12,  # exact-by-construction checks
    "tail": 1e-12,  # certified tail bound of a countable truncation
}
#: the smallest positive double; a mass that rounds to 0.0 is below it
SMALLEST_SUBNORMAL = 2.0**-1074
#: values closer than this times their scale are rounding copies of one value
ROUNDING_GAP = 2.0**-40


class DimensionMismatchError(ValueError):
    """A function or partition is not aligned with its space."""


class NotSummableError(RuntimeError):
    """A tail bound never dropped below the requested tolerance."""


@dataclass(frozen=True)
class FiniteMeasureSpace:
    """Point masses mu_i > 0, optionally carrying coordinate labels."""

    masses: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", masses)
        if masses.ndim != 1 or masses.size < 1:
            raise ValueError("need at least one point mass")
        if not np.all(np.isfinite(masses)) or np.any(masses <= 0.0):
            raise ValueError("all point masses must be strictly positive and finite")
        if self.labels is not None:
            labels = np.atleast_2d(np.asarray(self.labels, dtype=float))
            if labels.shape[0] != masses.size:
                raise DimensionMismatchError(
                    f"{labels.shape[0]} labels for {masses.size} points"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.masses.size


@dataclass(frozen=True)
class MFunction:
    """Function given by its values at the space's points.

    Real input (boolean, integer or floating) is kept as float64, so that a
    real function such as |u|^2 is averaged in one pass; any other input is
    converted to complex128.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        values = values.astype(float if values.dtype.kind in "biuf" else complex, copy=False)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("function values must be a nonempty 1-d array")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size

    def check_aligned(self, sp: FiniteMeasureSpace) -> None:
        if self.n != sp.n:
            raise DimensionMismatchError(
                f"function has {self.n} values, space has {sp.n} points"
            )


@dataclass(frozen=True)
class Partition:
    """Atoms of a partition-generated sub-sigma-algebra.

    ``atom_of[i]`` is the atom index (0..atom_count-1) of point i.  Every
    atom is nonempty; since point masses are strictly positive, every atom
    automatically has positive mass.  ``singleton_points`` are the points
    alone in their atom; a partition of singletons keeps none.
    """

    atom_of: np.ndarray
    atom_count: int = field(init=False)
    singleton_points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        atom_of = np.asarray(self.atom_of)
        if atom_of.dtype.kind == "f":  # astype would truncate a fractional label into an atom
            if not (np.isfinite(atom_of) & (np.floor(atom_of) == atom_of)).all():
                raise ValueError("atom indices must be whole numbers")
        atom_of = atom_of.astype(int, copy=False)
        object.__setattr__(self, "atom_of", atom_of)
        if atom_of.ndim != 1 or atom_of.size < 1:
            raise ValueError("atom_of must be a nonempty 1-d index array")
        if atom_of.min() < 0 or not (counts := np.bincount(atom_of)).all():
            raise ValueError("atom indices must cover 0..m-1 with no gaps")
        object.__setattr__(self, "atom_count", counts.size)
        lone = counts == 1
        points = np.flatnonzero(lone[atom_of]) if 0 < np.count_nonzero(lone) < lone.size else []
        object.__setattr__(self, "singleton_points", np.asarray(points, dtype=int))

    @property
    def n(self) -> int:
        return self.atom_of.size

    @property
    def is_singletons(self) -> bool:
        return self.atom_count == self.n

    @property
    def atom_sizes(self) -> np.ndarray:
        """Number of points in each atom, shape (atom_count,)."""
        return np.bincount(self.atom_of, minlength=self.atom_count)

    def check_aligned(self, sp: FiniteMeasureSpace) -> None:
        if self.n != sp.n:
            raise DimensionMismatchError(
                f"partition covers {self.n} points, space has {sp.n}"
            )

    @classmethod
    def from_blocks(cls, blocks: list[list[int]], n: int) -> "Partition":
        """Block a becomes atom a.  Raises ValueError unless the blocks are
        nonempty lists of integers that partition range(n)."""
        atom_of = np.full(n, -1, dtype=int)
        for a, block in enumerate(blocks):
            if len(block) == 0:
                raise ValueError(f"atom {a} is empty")
            for i in block:
                if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                    raise ValueError(f"point index {i!r} is not an integer")
                if not 0 <= i < n:
                    raise ValueError(f"point index {i} out of range 0..{n - 1}")
                if atom_of[i] != -1:
                    raise ValueError(f"point {i} appears in two atoms")
                atom_of[i] = a
        missing = np.flatnonzero(atom_of == -1)
        if missing.size:
            raise ValueError(f"points {missing.tolist()} not covered by any atom")
        return cls(atom_of)


def weighted_inner_product(f: MFunction, g: MFunction, sp: FiniteMeasureSpace) -> complex:
    """<f, g> = sum_i f_i conj(g_i) mu_i."""
    f.check_aligned(sp)
    g.check_aligned(sp)
    return complex(np.sum(f.values * np.conj(g.values) * sp.masses))


def realize(sp: FiniteMeasureSpace, action: Callable[[MFunction], MFunction]) -> np.ndarray:
    """Matrix of a linear map on L^2(mu) in the orthonormal coordinates
    e_i = delta_i / sqrt(mu_i): entry (j, i) is <action(e_i), e_j>.  The
    action is applied once per basis vector, and only its result is used."""
    n = sp.n
    sqrt_m = np.sqrt(sp.masses)
    mat = np.empty((n, n), dtype=complex)
    for i in range(n):
        basis = np.zeros(n, dtype=complex)
        basis[i] = 1.0 / sqrt_m[i]
        col = action(MFunction(basis))
        col.check_aligned(sp)
        mat[:, i] = col.values * sqrt_m
    return mat


def support(f: MFunction, tol: float) -> np.ndarray:
    """Boolean mask of the points where |f| exceeds tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return np.abs(f.values) > tol


def ess_range(f: MFunction, scale: float) -> list[complex]:
    """Distinct values of f in (real, imag) order, each one of f's own.
    A value within ROUNDING_GAP * scale of the last value kept is a rounding
    copy and is dropped; ``scale`` is the size of the data f was computed
    from, so rounding noise near 0 merges too.  Raises ValueError on a NaN
    or infinite value."""
    bad = int(np.count_nonzero(~np.isfinite(f.values)))
    if bad:
        raise ValueError(f"essential range of a function with {bad} non-finite values")
    gap = ROUNDING_GAP * scale
    kept: list[complex] = []
    for v in np.unique(f.values).astype(complex, copy=False).tolist():
        if not kept or abs(v - kept[-1]) > gap:
            kept.append(v)
    return kept


def tail_cutoff(bound: Callable[[int], float], tol: float) -> int | None:
    """Smallest N in 1..TRUNCATION_CAP with bound(N) <= tol, or None.

    ``bound`` must be nonincreasing, as ``CountableSpaceSpec`` requires of
    its tail bounds.  Doubling tries N = 1, 2, 4, ... and then
    TRUNCATION_CAP; bisection then searches between the last N that failed
    and the first that passed.  That is at most 2*ceil(log2(TRUNCATION_CAP))
    + 1 calls of ``bound``.  On a bound that is not monotone the answer may
    not be the smallest, but it still has bound(N) <= tol.
    """
    failed, passed = 0, 1
    while not bound(passed) <= tol:
        if passed == TRUNCATION_CAP:
            return None
        failed, passed = passed, min(2 * passed, TRUNCATION_CAP)
    while passed - failed > 1:
        mid = (failed + passed) // 2
        if bound(mid) <= tol:
            passed = mid
        else:
            failed = mid
    return passed


@dataclass(frozen=True)
class CountableSpaceSpec:
    """Lazy description of a countable point-mass space.

    ``tail_bound(N)`` bounds sum_{i>=N} mass_at(i), the mass discarded when
    the first N points are kept, and must be nonincreasing with limit 0.
    ``weighted_tail_bound(N)``, when present, bounds
    sum_{i>=N} mass_at(i)|symbol_at(i)|^2, certifies convergence of the
    weighted series and must be nonincreasing too.  Both are cut by
    ``tail_cutoff``, whose bisection finds the smallest N only on a
    nonincreasing bound.  ``divergent_atoms`` maps an atom identifier to a
    witness: given a target B it names an index by which that atom's
    weighted partial sum provably exceeds B (verified numerically).

    ``mass_at``, ``symbol_at`` and ``atom_of`` must be deterministic: each
    point is read once per spec object and kept in its ``__dict__`` (see
    ``read_points``), so a later question on the same spec sees the values
    of the first read.  ``dataclasses.replace`` gives a fresh spec, which
    reads its points anew.  Equality, hashing and repr use the fields only.
    """

    mass_at: Callable[[int], float]
    tail_bound: Callable[[int], float]
    atom_of: Callable[[int], Hashable]
    symbol_at: Callable[[int], complex]
    weighted_tail_bound: Callable[[int], float] | None = None
    divergent_atoms: Mapping[Hashable, Callable[[float], int]] = field(default_factory=dict)


@dataclass(frozen=True)
class Truncation:
    """Finite view of a countable space: the points of positive mass among
    the first ``size`` indices.  ``discarded_mass_bound`` covers the tail
    and the points whose mass rounded to 0.0.  The arrays of ``space``,
    ``partition`` and ``symbol`` are read-only: they are the points the
    spec keeps (see ``read_points``), or copies marked the same way."""

    space: FiniteMeasureSpace
    partition: Partition
    symbol: MFunction
    size: int
    discarded_mass_bound: float
    atom_ids: tuple[Hashable, ...]  # original atom identifier per atom index


def read_points(
    spec: CountableSpaceSpec, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[Hashable, ...]]:
    """The first ``size`` points of a countable space: their masses, their
    symbol values, the atom index of each point, and the atom identifiers
    in order of first appearance (atom index k is ``atom_ids[k]``).

    Each of ``mass_at``, ``symbol_at`` and ``atom_of`` is called once per
    point per spec: the points read are kept in the spec's ``__dict__``, and
    a longer read only reads the indices past them.  The arrays returned
    are read-only views of what is kept.
    """
    kept = spec.__dict__.get("_points")
    if kept is None or kept[0].size < size:
        kept = spec.__dict__["_points"] = _read_more(spec, kept, size)
    masses, symbol, atom_of, seen = kept
    atom_of = atom_of[:size]
    # atoms are numbered by first appearance, so the first size points
    # meet exactly the atoms 0..max
    atom_ids = tuple(seen)[: int(atom_of.max()) + 1] if size else ()
    return masses[:size], symbol[:size], atom_of, atom_ids


def _read_more(spec: CountableSpaceSpec, kept, size: int):
    """``kept`` (masses, symbol, atom labels, first-appearance map of the
    atom identifiers), or nothing, extended to the first ``size`` points.
    The map grows in place: after a spec function raises it may name atoms
    past the kept labels, which ``read_points`` trims away."""
    if kept is None:
        kept = (np.empty(0), np.empty(0, dtype=complex), np.empty(0, dtype=int), {})
    masses, symbol, atom_of, seen = kept
    new = range(masses.size, size)
    parts = (
        np.concatenate([masses, np.array([spec.mass_at(i) for i in new], dtype=float)]),
        np.concatenate([symbol, np.array([spec.symbol_at(i) for i in new], dtype=complex)]),
        np.concatenate(
            [atom_of, np.array([seen.setdefault(spec.atom_of(i), len(seen)) for i in new], dtype=int)]
        ),
    )
    for a in parts:
        a.flags.writeable = False
    return (*parts, seen)


def truncate(spec: CountableSpaceSpec, tail_tol: float, *, weighted: bool = False) -> Truncation:
    """Keep the first N points, N smallest with tail_bound(N) <= tail_tol,
    so the discarded mass is provably below tail_tol.

    With ``weighted=True`` the weighted tail bound (on sum mu_i |u_i|^2) is
    used instead, which is the right cut when the symbol grows.  At least
    one index is always read.

    A point whose mass underflows to 0.0 is dropped, and the atoms left are
    renumbered in order of first appearance.  Its true mass is below
    SMALLEST_SUBNORMAL, so each dropped point adds SMALLEST_SUBNORMAL to
    ``discarded_mass_bound``, times |u_i|^2 on the weighted cut.
    """
    if not tail_tol > 0:
        raise ValueError("tail_tol must be positive")
    bound = spec.weighted_tail_bound if weighted else spec.tail_bound
    if bound is None:
        raise ValueError("spec has no weighted tail bound")
    size = tail_cutoff(bound, tail_tol)
    if size is None:
        raise NotSummableError(
            f"tail bound never dropped below {tail_tol} within {TRUNCATION_CAP} indices"
        )
    masses, symbol, atom_of, atom_ids = read_points(spec, size)
    discarded = float(bound(size))
    zero = masses == 0.0
    if zero.any():
        lost = np.sum(np.abs(symbol[zero]) ** 2) if weighted else np.count_nonzero(zero)
        discarded += SMALLEST_SUBNORMAL * float(lost)
        keep = ~zero
        masses, symbol = masses[keep], symbol[keep]
        seen: dict[int, int] = {}  # old atom index -> new, in order of first appearance
        atom_of = np.array([seen.setdefault(a, len(seen)) for a in atom_of[keep].tolist()])
        atom_ids = tuple(atom_ids[a] for a in seen)
        for a in (masses, symbol, atom_of):
            a.flags.writeable = False
    return Truncation(
        space=FiniteMeasureSpace(masses),
        partition=Partition(atom_of),
        symbol=MFunction(symbol),
        size=size,
        discarded_mass_bound=discarded,
        atom_ids=atom_ids,
    )
