"""Conditional expectation with respect to a partition-generated algebra.

The conditional expectation of f is the mass-weighted average of f on each
atom; it is the orthogonal projection of L^2 of the space onto the
subspace of atom-constant functions.  When every atom is a single point, E
is the identity and no average is computed: the mean of a point's atom is
the point's own value, exactly, whatever its mass.  On any other partition
the same holds on each atom of one point.

E's only data are the atom masses of a (partition, space) pair, and one
record owns them (``_record``): the immutable tuple (space, atom masses,
pairs), built once per pair and kept in the partition's ``__dict__`` for
the space it was last averaged on.  The atom masses are one ``bincount``
over the points, read-only; ``atom_masses`` hands out that array itself,
so the operator's ``atom_mass`` and every average on the pair read the
masses of one pass.  ``pairs`` is what a complex short average reads: up
to ``BLOCK`` points off singleton partitions, the labels 2a and 2a + 1 of
each point's atom a, each point mass twice and each atom mass twice;
otherwise None.

Every average is of one term, formed by ``_term``: f, ``times * f`` for
``times=t``, |f - E(f)|^2 for ``center=E(f)``, which only
``is_A_measurable`` passes, or |f|^2 for ``center=0``, which only the
operator's construction passes.  An average sums mu * Re(term), and
mu * Im(term) for a complex term, per atom and divides by the atom mass;
a real function (``MFunction`` keeps real input as float64) takes one sum.
Up to ``BLOCK`` points the term is formed for the whole input and summed
with one ``bincount``: over the atom labels for a real term, and for a
complex one over the record's interleaved labels, whose sums one divide
by the pair masses turns into the complex means.  ``bincount`` adds each
bin's weights in index order, so the sums are those of one ``bincount``
per part, bit for bit.  At 64 points a ``bincount`` costs about 0.5 us
against 0.95 us for ``np.add.at``, and such short calls are most of what
the CLI and ``realize`` make.  Longer inputs take the one block walk,
``_block_walk``, so that a block's labels and terms stay in cache and no
n-sized array is formed: the block's term and then its products with mu
go to a buffer of one block, and one ``np.add.at`` adds it into sums that
start at +0.0.  Each atom's terms are then added in index order, as one
``bincount`` per part over all points adds them, and every bit is the
same.  The operator's point-level work takes the walk too, at every
length: the scale gathered through permuted singleton labels and conj(u)
of its actions, and max |Im u| for ``classify``.
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

#: points per block of ``_block_walk``: a block's labels, masses and
#: complex terms take 1 MiB; the centered pass of a complex f holds real
#: terms and adds 0.5 MiB each of gathered means and differences
BLOCK = 2**15


def _block_walk(n: int):
    """(start, stop) of each block of the walk that every blocked pass
    takes over range(n): ``BLOCK`` points a block, in order, and the rest
    in a last block, except that a rest of one point joins the block
    before it.  So every block starts at a multiple of ``BLOCK``, holds at
    most ``BLOCK + 1`` points, and holds one point only when n = 1.  Both
    keep bits: numpy's vector loops take a call's points in runs of the
    vector width and then a shorter tail, so a block that starts at a
    multiple of ``BLOCK`` takes each point through the path that one
    whole-array call takes it; and numpy forms a one-element product in
    place in another loop, whose complex products can differ in their
    last bits and in the signs of zeros and NaNs.  An input of one block,
    as most inputs are, gets a one-pair tuple and no generator."""
    if n <= BLOCK + 1:
        return ((0, n),)
    stops = range(BLOCK, n - 1, BLOCK)
    return zip((0, *stops), (*stops, n))


def _record(p: Partition, sp: FiniteMeasureSpace) -> tuple:
    """The record of (p, sp): (sp, atom masses, pairs), built once and
    kept in the partition's ``__dict__`` until a call on another space
    replaces it.  The atom masses are one ``bincount`` over the points,
    read-only.  ``pairs`` is None on singleton partitions and beyond
    ``BLOCK`` points; otherwise it holds what one ``bincount`` of a complex
    term reads, interleaved: the labels 2a and 2a + 1 of each point's atom
    a, each point mass twice and each atom mass twice.  The pair masses
    are the atom masses repeated, bit for bit the sums of one ``bincount``
    over those labels, which adds the same masses in the same order."""
    kept = p.__dict__.get("_record")
    if kept is None or kept[0] is not sp:
        p.check_aligned(sp)
        mass = np.bincount(p.atom_of, weights=sp.masses, minlength=p.atom_count)
        mass.flags.writeable = False
        pairs = None
        if not p.is_singletons and p.n <= BLOCK:
            labels = (p.atom_of + p.atom_of).repeat(2)  # the cheapest calls at short lengths
            odd = labels[1::2]
            odd += 1
            pairs = labels, sp.masses.repeat(2), mass.repeat(2)
        kept = p.__dict__["_record"] = (sp, mass, pairs)
    return kept


def atom_masses(p: Partition, sp: FiniteMeasureSpace) -> np.ndarray:
    """Total mass of each atom, shape (atom_count,): the sums of the
    points' masses in index order, kept in the record of (p, sp)
    (``_record``).  Every call on the same pair returns that same
    read-only array, not a copy."""
    return _record(p, sp)[1]


def _check_aligned(f: MFunction, p: Partition, sp: FiniteMeasureSpace, times=None) -> None:
    n = sp.masses.size
    if f.values.size == n == p.atom_of.size and (times is None or times.shape == (n,)):
        return
    f.check_aligned(sp)
    p.check_aligned(sp)
    raise DimensionMismatchError(f"times has shape {times.shape}, the function {f.values.shape}")


def _term(values, times, center, atom_of, out=None):
    """The averaged term on some points: ``values``, ``times * values``,
    |values - center[atom_of]|^2, or |values|^2 for the scalar center 0,
    written to ``out`` where one is given (``values`` itself is returned as
    it is)."""
    if times is not None:
        return np.multiply(times, values, out=out)
    if center is not None:
        if isinstance(center, np.ndarray):
            values = values - center[atom_of]
        return np.square(np.abs(values, out=out), out=out)
    return values


def atom_averages(
    f: MFunction,
    p: Partition,
    sp: FiniteMeasureSpace,
    *,
    times: np.ndarray | None = None,
    center: np.ndarray | None = None,
) -> np.ndarray:
    """Mass-weighted mean of f, or of ``times * f``, per atom, shape
    (atom_count,): float64 for a real function, else complex.

    The real and imaginary sums are divided by the atom masses in real
    arithmetic: complex division by a subnormal mass overflows to NaN, and
    real division is correctly rounded.  On a singleton atom the mean is
    the term itself, unrounded, placed in atom order.  The sums are those
    of one ``bincount`` per part over all points, bit for bit.  Up to
    ``BLOCK`` points they are taken in one pass, and a complex term's two
    parts in one ``bincount`` over the record's labels 2a and 2a + 1 and
    one divide; beyond, in a walk of blocks.  Every call reads the atom
    masses of the record of (p, sp), except on singleton partitions, which
    read none.  ``center`` is never passed with ``times``.
    ``is_A_measurable`` passes the atom means of f, and the call then
    averages |f - center[atom]|^2; the operator's construction passes the
    scalar 0, and the call averages |f|^2 with the bits of averaging
    ``np.square(np.abs(f))``, formed one block at a time on the walk, so
    that no n-sized |f|^2 exists.
    """
    _check_aligned(f, p, sp, times)
    values, atom_of, lone = f.values, p.atom_of, p.singleton_points
    if p.is_singletons:
        v = _term(values, times, center, atom_of)
        out = np.empty(p.atom_count, v.dtype)
        out[atom_of] = v
        return out
    _, mass, pairs = _record(p, sp)
    short = values.size <= BLOCK
    if short:
        v = _term(values, times, center, atom_of)
        if v.dtype.kind == "c":
            labels, masses, pair_mass = pairs
            sums = np.bincount(labels, weights=masses * np.ascontiguousarray(v).view(np.float64))
            out = np.divide(sums, pair_mass, out=sums).view(complex)
        else:
            sums = np.bincount(atom_of, weights=sp.masses * v, minlength=p.atom_count)
            out = np.divide(sums, mass, out=sums)
    else:
        if center is not None:
            dtype = np.dtype(float)
        else:
            dtype = values.dtype if times is None else np.result_type(times, values)
        out = np.empty(p.atom_count, dtype)
        sums = np.zeros(p.atom_count, dtype)
        buf = np.empty(BLOCK + 1, dtype)
        for s, e in _block_walk(values.size):
            labels, mu, w = atom_of[s:e], sp.masses[s:e], buf[: e - s]
            v = _term(values[s:e], None if times is None else times[s:e], center, labels, w)
            np.multiply(mu, v.real, out=w.real)
            if dtype.kind == "c":
                np.multiply(mu, v.imag, out=w.imag)
            np.add.at(sums, labels, w)
        np.divide(sums.real, mass, out=out.real)
        if dtype.kind == "c":
            np.divide(sums.imag, mass, out=out.imag)
    if lone.size:  # an empty read or write still costs a fancy-indexing call
        if short:
            lone_terms = v[lone]
        else:
            t = None if times is None else times[lone]
            lone_terms = _term(values[lone], t, center, atom_of[lone])
        out[atom_of[lone]] = lone_terms
    return out


def cond_exp(f: MFunction, p: Partition, sp: FiniteMeasureSpace) -> MFunction:
    """Atom-wise averaging projection of f: its atom averages gathered to
    the points, a fresh array constant on each atom.  On singleton atoms
    it is the identity: each atom's average is the point's value itself,
    so the gather gives f's bits back."""
    return MFunction(atom_averages(f, p, sp)[p.atom_of])


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
) -> MeasurabilityVerdict:
    """Whether f is (numerically) constant on every atom.

    The deviation on an atom is the mass-weighted standard deviation of f
    there, computed in centered form sqrt(E(|f - E(f)|^2)); the verdict is
    true iff the largest deviation is <= tol.  The uncentered identity
    E(|f|^2) - |E(f)|^2 would cancel catastrophically and put a
    sqrt(eps)-sized floor under the deviation of genuinely atom-constant
    functions.  Every centered term and every per-atom sum is >= +0.0, so
    no negative variance reaches the square root.  Every function is
    constant on singleton atoms, so there the deviation is 0 at atom 0 and
    nothing is averaged.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if p.is_singletons:
        _check_aligned(f, p, sp)
        return MeasurabilityVerdict(measurable=True, max_deviation=0.0, worst_atom=0)
    mean = atom_averages(f, p, sp)
    dev = np.sqrt(atom_averages(f, p, sp, center=mean))
    worst = int(np.argmax(dev))
    return MeasurabilityVerdict(
        measurable=bool(dev[worst] <= tol),
        max_deviation=float(dev[worst]),
        worst_atom=worst,
    )
