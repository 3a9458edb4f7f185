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
``bincount`` per part: at 64 points a call costs about 1.1 us against
2.2 us for ``np.add.at``, and such short calls are most of what the CLI
makes.  Longer inputs are walked in blocks of ``BLOCK`` points, so that a
block's labels and terms stay in cache: the products go to the parts of
a buffer of one block, of f's dtype, and one ``np.add.at`` adds it into
sums of that dtype that start at +0.0.  Each atom's terms are then added in index order, as one
``bincount`` per part over all points adds them, and every bit is the
same.  ``times=t`` averages the product t * f, formed block by block
instead of as an n-sized array, ``is_A_measurable`` forms |f - E(f)|^2
the same way, and ``cond_exp``'s ``scale=s`` multiplies the m atom values
by s before they are gathered.  A caller that averages several functions
over the same partition may pass the atom masses as ``mass``; it must be
exactly ``atom_masses(p, sp)``, which is then not recomputed.
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

#: points per block of the blocked sums: a block's labels, masses and
#: complex terms take 1 MiB; the centered pass of a complex f holds real
#: terms and adds 0.5 MiB each of gathered means and differences
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
    center: np.ndarray | None = None,
) -> np.ndarray:
    """Mass-weighted mean of f, or of ``times * f``, per atom, shape
    (atom_count,): float64 for a real function, else complex.

    The real and imaginary sums are divided by the atom masses in real
    arithmetic: complex division by a subnormal mass overflows to NaN, and
    real division is correctly rounded.  On a singleton atom the mean is
    the function's value itself, unrounded, placed in atom order.  The sums
    are those of one ``bincount`` over all points, bit for bit, however
    many blocks they are taken in.  ``center``, passed
    only by ``is_A_measurable`` and never with ``times``, holds the atom
    means of f: the call then averages |f - center[atom]|^2.
    """
    f.check_aligned(sp)
    p.check_aligned(sp)
    values = f.values
    if times is not None:
        _check_times(times, values)
        if values.size <= BLOCK or p.is_singletons:
            values, times = times * values, None
    if center is not None and (values.size <= BLOCK or p.is_singletons):
        values, center = np.abs(values - center[p.atom_of]) ** 2, None
    if center is not None:
        dtype = np.dtype(float)
    else:
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
        sums = _blocked_sums(p, sp.masses, values, times, center, dtype)
        re = sums.real
        if dtype.kind == "c":
            im = sums.imag
    np.divide(re, mass, out=out.real)
    if dtype.kind == "c":
        np.divide(im, mass, out=out.imag)
    lone = p.singleton_points
    if center is not None:
        out[p.atom_of[lone]] = np.abs(values[lone] - center[p.atom_of[lone]]) ** 2
    else:
        out[p.atom_of[lone]] = values[lone] if times is None else times[lone] * values[lone]
    return out


def _blocked_sums(p, masses, values, times, center, dtype):
    """Per-atom sums of mu * v, of the given dtype, with v = values,
    ``times * values`` or ``|values - center[atom]|^2``, taken one block of
    ``BLOCK`` points at a time: v and mu * v go to a buffer of one block,
    and one ``np.add.at`` adds the block into sums that start at +0.0.  For
    a complex v the buffer's real and imaginary parts take the real
    products mu * Re(v) and mu * Im(v), and a complex sum adds its parts
    separately, so the sums are those of one ``bincount`` per part."""
    atom_of = p.atom_of
    sums = np.zeros(p.atom_count, dtype)
    buf = np.empty(BLOCK, dtype)
    diff = None if center is None else np.empty(BLOCK, values.dtype)
    for s in range(0, values.size, BLOCK):
        e = min(s + BLOCK, values.size)
        labels, mu, v, w = atom_of[s:e], masses[s:e], values[s:e], buf[: e - s]
        if times is not None:
            v = np.multiply(times[s:e], v, out=w)
        elif center is not None:
            d = np.subtract(v, center[labels], out=diff[: e - s])
            v = np.square(np.abs(d, out=w), out=w)
        np.multiply(mu, v.real, out=w.real)
        if dtype.kind == "c":
            np.multiply(mu, v.imag, out=w.imag)
        np.add.at(sums, labels, w)
    return sums


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
    var = atom_averages(f, p, sp, mass=mass, center=mean)
    dev = np.sqrt(np.maximum(var, 0.0))
    worst = int(np.argmax(dev))
    return MeasurabilityVerdict(
        measurable=bool(dev[worst] <= tol),
        max_deviation=float(dev[worst]),
        worst_atom=worst,
    )
