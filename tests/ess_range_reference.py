"""The quadratic greedy clustering that ``measure.ess_range`` replaced.

Kept verbatim as the reference the tests compare the grid version with:
every value is visited in (real, imag) order and compared with every
cluster representative so far.
"""
import numpy as np

from wcelab.measure import FiniteMeasureSpace, MFunction


def ess_range_reference(f: MFunction, sp: FiniteMeasureSpace, tol: float) -> list[complex]:
    f.check_aligned(sp)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    reps: list[complex] = []
    cluster_mass: list[float] = []
    # visit values in sorted order so clusters accrete deterministically
    order = np.lexsort((f.values.imag, f.values.real))
    for i in order:
        v = complex(f.values[i])
        m = float(sp.masses[i])
        for k, rep in enumerate(reps):
            if abs(v - rep) <= tol:
                total = cluster_mass[k] + m
                reps[k] = (rep * cluster_mass[k] + v * m) / total
                cluster_mass[k] = total
                break
        else:
            reps.append(v)
            cluster_mass.append(m)
    return sorted(reps, key=lambda z: (z.real, z.imag))
