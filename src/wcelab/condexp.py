"""Conditional expectation with respect to a partition-generated algebra.

The conditional expectation of f is the mass-weighted average of f on each
atom; it is the orthogonal projection of L^2 of the space onto the
subspace of atom-constant functions.  When every atom is a single point, E
is the identity and no average is computed: the mean of a point's atom is
the point's own value, exactly, whatever its mass.
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


def atom_averages(f: MFunction, p: Partition, sp: FiniteMeasureSpace) -> np.ndarray:
    """Mass-weighted mean of f per atom, shape (atom_count,) complex.

    The real and imaginary sums are divided by the atom masses in real
    arithmetic: complex division by a subnormal mass overflows to NaN, and
    real division is correctly rounded.  On singleton atoms the mean is
    f's value itself, placed in atom order.
    """
    f.check_aligned(sp)
    p.check_aligned(sp)
    w, m = sp.masses, p.atom_count
    out = np.empty(m, dtype=complex)
    if p.is_singletons:
        out[p.atom_of] = f.values
        return out
    mass = atom_masses(p, sp)
    np.divide(np.bincount(p.atom_of, weights=w * f.values.real, minlength=m), mass, out=out.real)
    np.divide(np.bincount(p.atom_of, weights=w * f.values.imag, minlength=m), mass, out=out.imag)
    return out


def cond_exp(f: MFunction, p: Partition, sp: FiniteMeasureSpace) -> MFunction:
    """Atom-wise averaging projection; constant on each atom.  On singleton
    atoms it is the identity and returns a copy of f."""
    if p.is_singletons:
        f.check_aligned(sp)
        p.check_aligned(sp)
        return MFunction(f.values.copy())
    return MFunction(atom_averages(f, p, sp)[p.atom_of])


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
    f: MFunction, p: Partition, sp: FiniteMeasureSpace, tol: float
) -> MeasurabilityVerdict:
    """Whether f is (numerically) constant on every atom.

    The deviation on an atom is the mass-weighted standard deviation of f
    there, computed in centered form sqrt(E(|f - E(f)|^2)); the verdict is
    true iff the largest deviation is <= tol.  The uncentered identity
    E(|f|^2) - |E(f)|^2 would cancel catastrophically and put a
    sqrt(eps)-sized floor under the deviation of genuinely atom-constant
    functions.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    mean = atom_averages(f, p, sp)
    centered = f.values - mean[p.atom_of]
    var = atom_averages(MFunction(np.abs(centered) ** 2), p, sp).real
    dev = np.sqrt(np.maximum(var, 0.0))
    worst = int(np.argmax(dev))
    return MeasurabilityVerdict(
        measurable=bool(dev[worst] <= tol),
        max_deviation=float(dev[worst]),
        worst_atom=worst,
    )
