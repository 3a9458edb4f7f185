"""Conditional expectation with respect to a partition-generated algebra.

The conditional expectation of f is the mass-weighted average of f on each
atom; it is the orthogonal projection of L^2 of the space onto the
subspace of atom-constant functions.  When every atom is a single point, E
is the identity and no average is computed: the mean of a point's atom is
the point's own value, exactly, whatever its mass.  On any other partition
the same holds on each atom of one point.

A real function is averaged in real arithmetic with one ``bincount`` pass,
a complex one with two.  A caller that averages several functions over the
same partition may pass the atom masses as ``mass``; it must be exactly
``atom_masses(p, sp)``, which is then not recomputed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import FiniteMeasureSpace, MFunction, Partition, realize

__all__ = [
    "atom_masses",
    "atom_averages",
    "cond_exp",
    "projection_matrix",
    "is_A_measurable",
    "MeasurabilityVerdict",
]


def atom_masses(p: Partition, sp: FiniteMeasureSpace) -> np.ndarray:
    """Total mass of each atom, shape (atom_count,)."""
    p.check_aligned(sp)
    return np.bincount(p.atom_of, weights=sp.masses, minlength=p.atom_count)


def atom_averages(
    f: MFunction, p: Partition, sp: FiniteMeasureSpace, *, mass: np.ndarray | None = None
) -> np.ndarray:
    """Mass-weighted mean of f per atom, shape (atom_count,): float64 for a
    real f, else complex.

    The real and imaginary sums are divided by the atom masses in real
    arithmetic: complex division by a subnormal mass overflows to NaN, and
    real division is correctly rounded.  On a singleton atom the mean is
    f's value itself, unrounded, placed in atom order.
    """
    f.check_aligned(sp)
    p.check_aligned(sp)
    out = np.empty(p.atom_count, dtype=f.values.dtype)
    if p.is_singletons:
        out[p.atom_of] = f.values
        return out
    if mass is None:
        mass = atom_masses(p, sp)

    def sums(values):
        return np.bincount(p.atom_of, weights=sp.masses * values, minlength=p.atom_count)

    np.divide(sums(f.values.real), mass, out=out.real)
    if np.iscomplexobj(out):
        np.divide(sums(f.values.imag), mass, out=out.imag)
    lone = p.singleton_points
    out[p.atom_of[lone]] = f.values[lone]
    return out


def cond_exp(
    f: MFunction, p: Partition, sp: FiniteMeasureSpace, *, mass: np.ndarray | None = None
) -> MFunction:
    """Atom-wise averaging projection; constant on each atom.  On singleton
    atoms it is the identity and returns a copy of f."""
    if p.is_singletons:
        f.check_aligned(sp)
        p.check_aligned(sp)
        return MFunction(f.values.copy())
    return MFunction(atom_averages(f, p, sp, mass=mass)[p.atom_of])


def projection_matrix(p: Partition, sp: FiniteMeasureSpace) -> np.ndarray:
    """Matrix of the averaging projection in orthonormal coordinates.

    Coordinates are e_i = delta_i / sqrt(mu_i) (see ``measure.realize``), so
    the matrix is Hermitian and idempotent with rank equal to the atom count.
    """
    return realize(sp, lambda f: cond_exp(f, p, sp))


@dataclass(frozen=True)
class MeasurabilityVerdict:
    measurable: bool
    max_deviation: float
    worst_atom: int


def is_A_measurable(
    f: MFunction,
    p: Partition,
    sp: FiniteMeasureSpace,
    tol: float,
    *,
    mass: np.ndarray | None = None,
) -> MeasurabilityVerdict:
    """Whether f is (numerically) constant on every atom.

    The deviation on an atom is the mass-weighted standard deviation of f
    there, computed in centered form sqrt(E(|f - E(f)|^2)); the verdict is
    true iff the largest deviation is <= tol.  The uncentered identity
    E(|f|^2) - |E(f)|^2 would cancel catastrophically and put a
    sqrt(eps)-sized floor under the deviation of genuinely atom-constant
    functions.  Every function is constant on singleton atoms, so there the
    deviation is 0 at atom 0 and nothing is averaged.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if p.is_singletons:
        f.check_aligned(sp)
        p.check_aligned(sp)
        return MeasurabilityVerdict(measurable=True, max_deviation=0.0, worst_atom=0)
    mean = atom_averages(f, p, sp, mass=mass)
    centered = f.values - mean[p.atom_of]
    var = atom_averages(MFunction(np.abs(centered) ** 2), p, sp, mass=mass)
    dev = np.sqrt(np.maximum(var, 0.0))
    worst = int(np.argmax(dev))
    return MeasurabilityVerdict(
        measurable=bool(dev[worst] <= tol),
        max_deviation=float(dev[worst]),
        worst_atom=worst,
    )
