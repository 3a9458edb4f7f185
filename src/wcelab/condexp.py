"""Conditional expectation with respect to a partition-generated algebra.

The conditional expectation of f is the mass-weighted average of f on each
atom; it is the orthogonal projection of L^2 of the space onto the
subspace of atom-constant functions.  When every atom is a single point, E
is the identity and no average is computed: the mean of a point's atom is
the point's own value, exactly, whatever its mass.  On any other partition
the same holds on each atom of one point.

An average sums mu * Re(f), and mu * Im(f) for a complex f, per atom and
divides by the atom mass; a real function (``MFunction`` keeps real input
as float64) takes one sum.  Up to ``BLOCK`` points are summed with one
``bincount``.  Longer inputs are walked in blocks of ``BLOCK`` points, so
that a block's labels and weights stay in cache, and ``np.add.at`` adds
each block into sums that start at +0.0.  Each atom's terms are then added
in index order, as one ``bincount`` over all points adds them, and every
bit is the same.  ``times=t`` averages the product t * f, formed block by
block instead of as an n-sized array, and ``cond_exp``'s ``scale=s``
multiplies the m atom values by s before they are gathered.  A caller
that averages several functions over the same partition may pass the
atom masses as ``mass``; it must be exactly ``atom_masses(p, sp)``, which
is then not recomputed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import DimensionMismatchError, FiniteMeasureSpace, MFunction, Partition

__all__ = [
    "atom_masses",
    "atom_averages",
    "cond_exp",
    "is_A_measurable",
    "MeasurabilityVerdict",
    "BLOCK",
]

#: points per block of the blocked sums: a block's labels, masses, weights
#: and complex product take 1.25 MiB
BLOCK = 2**15


def atom_masses(p: Partition, sp: FiniteMeasureSpace) -> np.ndarray:
    """Total mass of each atom, shape (atom_count,)."""
    p.check_aligned(sp)
    return np.bincount(p.atom_of, weights=sp.masses, minlength=p.atom_count)


def atom_averages(
    f: MFunction,
    p: Partition,
    sp: FiniteMeasureSpace,
    *,
    mass: np.ndarray | None = None,
    times: np.ndarray | None = None,
) -> np.ndarray:
    """Mass-weighted mean of f, or of ``times * f``, per atom, shape
    (atom_count,): float64 for a real function, else complex.

    The real and imaginary sums are divided by the atom masses in real
    arithmetic: complex division by a subnormal mass overflows to NaN, and
    real division is correctly rounded.  On a singleton atom the mean is
    the function's value itself, unrounded, placed in atom order.  The sums
    are those of one ``bincount`` over all points, bit for bit, however
    many blocks they are taken in.
    """
    f.check_aligned(sp)
    p.check_aligned(sp)
    values = f.values
    if times is not None:
        _check_times(times, values)
        if values.size <= BLOCK or p.is_singletons:
            values, times = times * values, None
    dtype = values.dtype if times is None else np.result_type(times, values)
    out = np.empty(p.atom_count, dtype=dtype)
    if p.is_singletons:
        out[p.atom_of] = values
        return out
    if mass is None:
        mass = atom_masses(p, sp)
    if values.size <= BLOCK:
        re = np.bincount(p.atom_of, weights=sp.masses * values.real, minlength=p.atom_count)
        if dtype.kind == "c":
            im = np.bincount(p.atom_of, weights=sp.masses * values.imag, minlength=p.atom_count)
    else:
        re, im = _blocked_sums(p, sp.masses, values, times, dtype)
    np.divide(re, mass, out=out.real)
    if dtype.kind == "c":
        np.divide(im, mass, out=out.imag)
    lone = p.singleton_points
    out[p.atom_of[lone]] = values[lone] if times is None else times[lone] * values[lone]
    return out


def _blocked_sums(p, masses, values, times, dtype):
    """Per-atom sums of mu * Re(v), and of mu * Im(v) for a complex dtype,
    with v = values or times * values, taken one block of ``BLOCK`` points
    at a time; the product and the weights go to buffers of one block."""
    atom_of, m = p.atom_of, p.atom_count
    re = np.zeros(m)
    im = np.zeros(m) if dtype.kind == "c" else None
    prod = None if times is None else np.empty(BLOCK, dtype)
    weights = np.empty(BLOCK)
    for s in range(0, values.size, BLOCK):
        e = min(s + BLOCK, values.size)
        labels, mu, w = atom_of[s:e], masses[s:e], weights[: e - s]
        v = values[s:e] if prod is None else np.multiply(times[s:e], values[s:e], out=prod[: e - s])
        np.add.at(re, labels, np.multiply(mu, v.real, out=w))
        if im is not None:
            np.add.at(im, labels, np.multiply(mu, v.imag, out=w))
    return re, im


def _check_times(times: np.ndarray, values: np.ndarray) -> None:
    if times.shape != values.shape:
        raise DimensionMismatchError(f"times has shape {times.shape}, the function {values.shape}")


def cond_exp(
    f: MFunction,
    p: Partition,
    sp: FiniteMeasureSpace,
    *,
    mass: np.ndarray | None = None,
    times: np.ndarray | None = None,
    scale: np.ndarray | None = None,
) -> MFunction:
    """Atom-wise averaging projection of f, or of ``times * f``; constant
    on each atom.  ``scale``, a real array of shape (atom_count,),
    multiplies each atom's value: the m atom averages are scaled before
    they are gathered into point order.  On singleton atoms it is the
    identity and returns a copy of f, or the product ``times * f``, times
    ``scale[atom_of]`` when a scale is given.  The result is always a
    fresh array."""
    if scale is not None and scale.shape != (p.atom_count,):
        raise DimensionMismatchError(
            f"scale has shape {scale.shape}, the partition {p.atom_count} atoms"
        )
    if p.is_singletons:
        f.check_aligned(sp)
        p.check_aligned(sp)
        if times is None:
            out = f.values.copy()
        else:
            _check_times(times, f.values)
            out = times * f.values
        if scale is not None:
            out *= scale[p.atom_of]
        return MFunction(out)
    avg = atom_averages(f, p, sp, mass=mass, times=times)
    if scale is not None:
        avg *= scale
    return MFunction(avg[p.atom_of])


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
