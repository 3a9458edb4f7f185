"""The exact oracle judges the closed forms and the dense float oracle."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_oracle
from wcelab.measure import FiniteMeasureSpace, MFunction, Partition
from wcelab.operator import WeightedCondExpOperator, classify
from wcelab.oracle import residuals


@st.composite
def instances(draw):
    """n <= 8 points of mass k/7, atoms labelled in order of first use, and
    an integer symbol in [-3, 3] + i[-3, 3].  A symbol drawn point by point
    is rarely constant on an atom or real, so each atom may take one value
    for all its points, and the whole symbol may be real."""
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    first: dict[int, int] = {}
    atom_of = [first.setdefault(a, len(first)) for a in labels]
    masses = [Fraction(k, 7) for k in draw(st.lists(st.integers(1, 7), min_size=n, max_size=n))]
    real = draw(st.booleans())
    value = st.tuples(st.integers(-3, 3), st.just(0) if real else st.integers(-3, 3))
    points = draw(st.lists(value, min_size=n, max_size=n))
    atom_value = draw(st.lists(st.none() | value, min_size=len(first), max_size=len(first)))
    u = [points[x] if atom_value[a] is None else atom_value[a] for x, a in enumerate(atom_of)]
    return masses, atom_of, [(Fraction(re), Fraction(im)) for re, im in u]


def _operator(masses, atom_of, u):
    return WeightedCondExpOperator(
        FiniteMeasureSpace(np.array([float(m) for m in masses])),
        Partition(np.array(atom_of)),
        MFunction(np.array([complex(float(re), float(im)) for re, im in u])),
    )


@given(instances())
@settings(max_examples=200, deadline=None)
def test_closed_forms_and_dense_oracle_match_the_exact_verdicts(instance):
    masses, atom_of, u = instance
    exact = exact_oracle.verdicts(masses, atom_of, u)
    sa, normal, quasinormal = exact
    assert (not sa or normal) and (not normal or quasinormal)
    # the paper's theorem, in exact arithmetic: normal iff u is constant on
    # each atom, and quasinormal iff normal
    n = len(u)
    constant = all(u[x] == u[y] for x in range(n) for y in range(n) if atom_of[x] == atom_of[y])
    assert normal == quasinormal == constant
    T = _operator(masses, atom_of, u)
    rep = classify(T, 1e-8)
    assert (rep.self_adjoint, rep.normal, rep.quasinormal) == exact
    assert residuals(T).verdicts(1e-8) == exact


def _small_symbol(c):
    """u = c [1, 2] on one atom of masses 3/7 and 4/7: never normal."""
    return [Fraction(3, 7), Fraction(4, 7)], [0, 0], [(c, Fraction(0)), (2 * c, Fraction(0))]


@pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 10**9), Fraction(10**9)])
def test_the_exact_verdicts_do_not_depend_on_the_scale(c):
    assert exact_oracle.verdicts(*_small_symbol(c)) == (False, False, False)


@pytest.mark.xfail(strict=True, reason="an absolute tol calls a small non-constant symbol normal")
def test_a_small_non_constant_symbol_is_not_normal():
    instance = _small_symbol(Fraction(1, 10**9))
    rep = classify(_operator(*instance), 1e-8)
    assert (rep.self_adjoint, rep.normal, rep.quasinormal) == exact_oracle.verdicts(*instance)
