"""Named scenario builders and the space-description file format.

Builders are deterministic: identical parameters produce bit-identical
spaces.  The symmetric-interval scenario uses symmetric midpoint nodes so
that the pair-averaging projection is exact at the nodes and hyperbolic
identities can be checked at 1e-12 rather than at quadrature order.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measure import (
    CountableSpaceSpec,
    FiniteMeasureSpace,
    MFunction,
    Partition,
    TOLERANCES,
    truncate,
)

__all__ = [
    "Scenario",
    "ScenarioParameterError",
    "SpaceFileError",
    "build_full_algebra",
    "build_trivial_algebra",
    "build_block_partition",
    "build_product_grid",
    "build_symmetric_interval",
    "build_poisson_parity",
    "build_geometric_blowup",
    "poisson_parity_spec",
    "geometric_blowup_spec",
    "load_space_file",
    "build_scenario",
    "SCENARIO_BUILDERS",
]


class ScenarioParameterError(ValueError):
    """Invalid scenario parameters."""


class SpaceFileError(ValueError):
    """A space-description file violated the schema."""


@dataclass(frozen=True)
class Scenario:
    name: str
    space: FiniteMeasureSpace
    partition: Partition
    symbol: MFunction


def _uniform(name: str, atom_of, symbol=None, labels=None) -> Scenario:
    """Mass 1/n on each of the n points of ``atom_of``; the symbol defaults
    to 1, 2, ..., n."""
    n = len(atom_of)
    return Scenario(
        name=name,
        space=FiniteMeasureSpace(np.full(n, 1.0 / n), labels=labels),
        partition=Partition(atom_of),
        symbol=MFunction(np.arange(1, n + 1) if symbol is None else symbol),
    )


def build_full_algebra(n: int) -> Scenario:
    """Singleton atoms: the averaging projection is the identity and the
    operator is plain multiplication by the symbol."""
    if n < 1:
        raise ScenarioParameterError("n must be >= 1")
    return _uniform("full-algebra", np.arange(n))


def build_trivial_algebra(n: int) -> Scenario:
    """One atom: the operator maps f to the constant mean of u*f (rank <= 1)."""
    if n < 1:
        raise ScenarioParameterError("n must be >= 1")
    return _uniform("trivial-algebra", np.zeros(n, dtype=int))


def build_block_partition(n: int, m: int) -> Scenario:
    """m contiguous atoms over n points, uniform masses."""
    if not 1 <= m <= n:
        raise ScenarioParameterError(f"need 1 <= m <= n, got m={m} n={n}")
    bounds = np.linspace(0, n, m + 1).astype(int)
    return _uniform("block-partition", np.repeat(np.arange(m), np.diff(bounds)))


def build_product_grid(m: int) -> Scenario:
    """m x m midpoint grid on the unit square, mass 1/m^2 per point.

    Atoms are the rows of constant first coordinate, so averaging
    integrates out the second coordinate (exactly, for symbols linear in it).
    Symbol: u(x, y) = y.
    """
    if m < 2:
        raise ScenarioParameterError("m must be >= 2")
    xs = (np.arange(m) + 0.5) / m
    labels = np.array([(x, y) for x in xs for y in xs])
    return _uniform("product-grid", np.repeat(np.arange(m), m), labels[:, 1], labels)


def build_symmetric_interval(N: int) -> Scenario:
    """N symmetric midpoint nodes on [-1, 1] with mass 1/N each.

    Atoms pair each node with its mirror image, so averaging is exactly
    (f(x) + f(-x)) / 2 at the nodes.  N must be even (a node at 0 would
    break the mirror pairing).  Symbol: exp(x).
    """
    if N < 2 or N % 2:
        raise ScenarioParameterError("N must be even and >= 2")
    k = np.arange(N)
    x = -1.0 + (k + 0.5) * 2.0 / N
    # math.exp per node: np.exp may differ from it in the last bit
    u = [math.exp(xi) for xi in x]
    return _uniform("symmetric-interval", np.minimum(k, N - 1 - k), u, x.reshape(-1, 1))


def _truncated(name: str, spec: CountableSpaceSpec, tail_tol: float, weighted: bool) -> Scenario:
    """The first points of a countable space, cut where the (weighted) tail
    bound drops below tail_tol."""
    trunc = truncate(spec, tail_tol, weighted=weighted)
    return Scenario(name, trunc.space, trunc.partition, trunc.symbol)


def _poisson_mass(theta: float, x: int) -> float:
    return math.exp(-theta + x * math.log(theta) - math.lgamma(x + 1))


def poisson_parity_spec(theta: float) -> CountableSpaceSpec:
    """Poisson weights on 0, 1, 2, ... with atoms {0}, odds, evens; u(x) = x.

    Tail bounds are geometric-majorant bounds on the discarded part
    sum_{x >= N}: for x >= N the term ratio of mu_x is at most
    theta / (N + 1), and of x^2 mu_x at most theta (N + 1) / N^2.  Both
    bounds are nonincreasing, as ``tail_cutoff`` needs: each is infinite
    until its ratio drops below 1, and from there the ratio keeps falling.
    """
    if not (math.isfinite(theta) and theta > 0):
        raise ScenarioParameterError(f"theta must be positive and finite, got {theta}")

    def tail_bound(N: int) -> float:
        r = theta / (N + 1)
        if r >= 1.0:
            return math.inf
        return _poisson_mass(theta, N) / (1.0 - r)

    def weighted_tail_bound(N: int) -> float:
        if N == 0:
            return weighted_tail_bound(1)  # the x = 0 term vanishes
        r = theta * (N + 1) / N**2
        if r >= 1.0:
            return math.inf
        return N**2 * _poisson_mass(theta, N) / (1.0 - r)

    return CountableSpaceSpec(
        mass_at=lambda i: _poisson_mass(theta, i),
        tail_bound=tail_bound,
        atom_of=lambda i: "zero" if i == 0 else ("odd" if i % 2 else "even"),
        symbol_at=lambda i: complex(i),
        weighted_tail_bound=weighted_tail_bound,
    )


def build_poisson_parity(theta: float) -> Scenario:
    """Truncated Poisson-parity scenario.

    The cut uses the weighted tail bound on sum mu_i |u_i|^2 (the symbol
    grows), so the densely-defined evidence survives truncation.  It is
    made at ``measure.TOLERANCES["tail"]``, which no caller can change.
    """
    return _truncated("poisson-parity", poisson_parity_spec(theta), TOLERANCES["tail"], weighted=True)


def geometric_blowup_spec() -> CountableSpaceSpec:
    """One atom, mu_i = 2^-i, u_i = 2^i: mass is summable but the weighted
    series sum mu_i |u_i|^2 = sum 2^i diverges, with an explicit witness."""

    def witness(target: float) -> int:
        # partial sum through index N is 2^(N+1) - 1
        return max(0, math.ceil(math.log2(target + 1.0)))

    return CountableSpaceSpec(
        mass_at=lambda i: 2.0 ** (-i),
        tail_bound=lambda N: 2.0 ** (1 - N),  # sum_{i >= N} 2^-i
        atom_of=lambda i: "all",
        symbol_at=lambda i: complex(2.0**i),
        weighted_tail_bound=None,
        divergent_atoms={"all": witness},
    )


def build_geometric_blowup() -> Scenario:
    return _truncated("geometric-blowup", geometric_blowup_spec(), 2.0**-10, weighted=False)


_BUILTIN_SYMBOLS = ("exp_label0", "identity_label0", "sign_alternating")


def _is_finite_number(v) -> bool:
    """A JSON number that is not a boolean and converts to a finite float."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def load_space_file(path: str) -> Scenario:
    """Read a space-description file (JSON).

    Schema: top-level keys ``points`` (records with a positive finite
    ``weight`` and an optional ``label``, a list of numbers of one length
    for all points), ``atoms`` (lists of zero-based point indices
    that must partition the index range), ``u`` (either ``values``: list of
    [re, im] pairs, or ``builtin``: one of exp_label0 / identity_label0 /
    sign_alternating), optional ``name``.  Every |u|^2 must be a finite
    float, so |u| stays below about 1.34e154, and so must the sums of the
    weights and of weight * |u|^2 over all points; since
    weight * |u| <= (weight + weight * |u|^2) / 2, every sum the closed forms
    take is then finite too.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpaceFileError(f"cannot read space file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpaceFileError("top level must be an object")
    for key in ("points", "atoms", "u"):
        if key not in doc:
            raise SpaceFileError(f"missing required key {key!r}")

    points = doc["points"]
    if not isinstance(points, list) or not points:
        raise SpaceFileError("'points' must be a nonempty list")
    masses = []
    labels = []
    have_labels = None
    for rec in points:
        if not isinstance(rec, dict) or "weight" not in rec:
            raise SpaceFileError("each point needs a 'weight'")
        w = rec["weight"]
        if not _is_finite_number(w) or w <= 0:
            raise SpaceFileError(f"point weight must be a positive finite number, got {w!r}")
        masses.append(float(w))
        has = "label" in rec
        if have_labels is None:
            have_labels = has
        elif have_labels != has:
            raise SpaceFileError("either all points carry labels or none do")
        if has:
            lab = rec["label"]
            if not isinstance(lab, list) or not all(_is_finite_number(v) for v in lab):
                raise SpaceFileError(f"point label must be a list of numbers, got {lab!r}")
            if labels and len(lab) != len(labels[0]):
                raise SpaceFileError("all point labels must have the same length")
            labels.append([float(v) for v in lab])
    n = len(masses)

    atoms = doc["atoms"]
    if not isinstance(atoms, list) or not all(isinstance(b, list) for b in atoms):
        raise SpaceFileError("'atoms' must be a list of index lists")
    try:
        partition = Partition.from_blocks(atoms, n)
    except ValueError as exc:
        raise SpaceFileError(f"'atoms': {exc}") from exc

    spec_u = doc["u"]
    if not isinstance(spec_u, dict) or ("values" in spec_u) == ("builtin" in spec_u):
        raise SpaceFileError("'u' must carry exactly one of 'values' or 'builtin'")
    if "values" in spec_u:
        vals = spec_u["values"]
        if not isinstance(vals, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_finite_number, p)) for p in vals
        ):
            raise SpaceFileError("'u.values' must be a list of [re, im] number pairs")
        if len(vals) != n:
            raise SpaceFileError(f"'u.values' has {len(vals)} entries for {n} points")
        u = np.array([complex(re, im) for re, im in vals])
    else:
        builtin = spec_u["builtin"]
        if builtin not in _BUILTIN_SYMBOLS:
            raise SpaceFileError(
                f"unknown builtin {builtin!r}; choose from {_BUILTIN_SYMBOLS}"
            )
        if builtin == "sign_alternating":
            u = np.array([(-1.0) ** i for i in range(n)], dtype=complex)
        else:
            if not have_labels or not labels[0]:
                raise SpaceFileError(f"builtin {builtin!r} needs nonempty point labels")
            first = np.array([lab[0] for lab in labels])
            with np.errstate(over="ignore"):
                u = np.exp(first).astype(complex) if builtin == "exp_label0" else first.astype(complex)
    masses = np.array(masses)
    with np.errstate(over="ignore"):
        u_sq = np.abs(u) ** 2
        overflow = np.flatnonzero(~np.isfinite(u_sq))
        sums = (masses.sum(), (masses * u_sq).sum())
    if overflow.size:
        i = int(overflow[0])
        raise SpaceFileError(
            f"|u|^2 is not a finite float at point {i} (u = {complex(u[i])}); "
            "|u| must stay below about 1.34e154"
        )
    for what, total in zip(("the weights", "weight * |u|^2"), sums):
        if not np.isfinite(total):
            raise SpaceFileError(f"the sum of {what} over all points is not a finite float")

    return Scenario(
        name=str(doc.get("name", "space-file")),
        space=FiniteMeasureSpace(masses, labels=np.array(labels) if have_labels else None),
        partition=partition,
        symbol=MFunction(u),
    )


SCENARIO_BUILDERS: dict[str, tuple[Callable[..., Scenario], dict[str, float | int]]] = {
    "full-algebra": (build_full_algebra, {"n": 8}),
    "trivial-algebra": (build_trivial_algebra, {"n": 4}),
    "block-partition": (build_block_partition, {"n": 8, "m": 3}),
    "product-grid": (build_product_grid, {"m": 8}),
    "symmetric-interval": (build_symmetric_interval, {"N": 32}),
    "poisson-parity": (build_poisson_parity, {"theta": 1.0}),
    "geometric-blowup": (build_geometric_blowup, {}),
}


def build_scenario(name: str, overrides: dict[str, float | int] | None = None) -> Scenario:
    if name not in SCENARIO_BUILDERS:
        raise ScenarioParameterError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIO_BUILDERS)}"
        )
    builder, defaults = SCENARIO_BUILDERS[name]
    params = dict(defaults)
    for key, value in (overrides or {}).items():
        if key not in defaults:
            raise ScenarioParameterError(
                f"scenario {name!r} takes parameters {sorted(defaults)}, not {key!r}"
            )
        params[key] = value
    # integer parameters stay integers after CLI parsing; the builders
    # check the range of every parameter
    for key, default in defaults.items():
        if isinstance(default, int):
            if not float(params[key]).is_integer():
                raise ScenarioParameterError(f"{key} must be an integer, got {params[key]}")
            params[key] = int(params[key])
    return builder(**params)
