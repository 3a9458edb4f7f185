"""Exact verdicts for T f = E(u f) on a finite space, in rational arithmetic.

A third voice beside the closed forms and the dense float oracle: it takes
no tolerance, so it can judge both.  It uses the standard library only and
reads nothing from wcelab.  A Gaussian rational a + bi is the pair of
``Fraction`` (a, b).  In the basis of point indicators T has the matrix
A[x][y] = [x ~ y] mu_y u_y / mu(atom of x), and its adjoint in L^2(mu) is
G^-1 A^H G with G = diag(mu).  Self-adjoint, normal and quasinormal are
then decided by exact equality of matrices.
"""
from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _scale(a, r):
    return (a[0] * r, a[1] * r)


def _matmul(A, B):
    n = len(A)
    out = []
    for x in range(n):
        row = []
        for y in range(n):
            s = ZERO
            for k in range(n):
                s = _add(s, _mul(A[x][k], B[k][y]))
            row.append(s)
        out.append(row)
    return out


def matrix(masses, atom_of, u):
    """A[x][y] = [x ~ y] mu_y u_y / mu(atom of x), from ``Fraction`` masses,
    atom labels and Gaussian rationals u."""
    atom_mass = {}
    for m, a in zip(masses, atom_of):
        atom_mass[a] = atom_mass.get(a, 0) + m
    n = len(masses)
    return [
        [
            _scale(u[y], masses[y] / atom_mass[atom_of[x]]) if atom_of[x] == atom_of[y] else ZERO
            for y in range(n)
        ]
        for x in range(n)
    ]


def adjoint(A, masses):
    """G^-1 A^H G with G = diag(mu): entry (x, y) is conj(A[y][x]) mu_y / mu_x."""
    n = len(A)
    return [
        [_scale((A[y][x][0], -A[y][x][1]), masses[y] / masses[x]) for y in range(n)]
        for x in range(n)
    ]


def verdicts(masses, atom_of, u) -> tuple[bool, bool, bool]:
    """(self_adjoint, normal, quasinormal) of T, each by exact equality:
    T = T*, T*T = TT* and T(T*T) = (T*T)T."""
    A = matrix(masses, atom_of, u)
    As = adjoint(A, masses)
    AsA = _matmul(As, A)
    return (A == As, AsA == _matmul(A, As), _matmul(A, AsA) == _matmul(AsA, A))
