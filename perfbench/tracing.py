"""Spans and counters recorded around calls into wcelab's layers.

The tracer wraps each public function named in ``LAYERS`` at every module
attribute that binds it, so a call made through any import path is seen.
Nothing inside the package is edited.  Spans are kept in memory and written
out when the run ends.  Counters are computed from array sizes at the same
boundaries, so a ratio is measured where the work happens.
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from collections import Counter

#: public functions traced per module; ``operator.construct`` is
#: ``WeightedCondExpOperator.__post_init__``
LAYERS: dict[str, tuple[str, ...]] = {
    "measure": ("support", "ess_range", "truncate"),
    "condexp": ("atom_averages", "cond_exp", "is_A_measurable"),
    "operator": (
        "construct",
        "apply",
        "apply_adjoint",
        "apply_modulus",
        "apply_isometry",
        "classify",
        "polar",
        "spectrum_formula",
        "densely_defined",
    ),
    "oracle": (
        "matrix_of",
        "residuals",
        "hermitian_eig",
        "min_singular_value",
        "psd_sqrt",
        "spectrum_probe_check",
    ),
    "scenarios": ("build_scenario", "load_space_file"),
    "sampling": ("random_operator",),
    "suite": ("run_claim_suite",),
    "cli": ("main",),
}

#: counters beyond calls / self time / errors, with their units
EXTRA_COUNTERS: dict[str, str] = {
    "measure.ess_range.values_in": "count",
    "measure.truncate.points_kept": "count",
    "measure.countable.spec_evals": "count",
    "measure.countable.evals_per_point": "evals/point",
    "condexp.atom_averages.points": "count",
    "condexp.atom_averages.bytes_computed": "bytes",
    "operator.classify.oracle_fallbacks": "count",
    "oracle.matrix_of.columns": "count",
    "oracle.hermitian_eig.flops_computed": "flop",
    "oracle.spectrum_probe_check.points": "count",
    "oracle.probe_floor_violations": "count",
    "cli.main.nonzero_exits": "count",
}

#: query outcomes, reported per batch in the traced run
FAILURE_REASONS = (
    "order_cap",
    "verdict_ordering",
    "nonpositive_mass",
    "probe_floor",
    "polar_tolerance",
    "check_mismatch",
    "other",
)


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    out: dict[str, str] = {}
    for layer, names in LAYERS.items():
        for name in names:
            out[f"{layer}.{name}.calls"] = "count"
            out[f"{layer}.{name}.self_ms"] = "ms"
            out[f"{layer}.{name}.errors"] = "count"
    out.update(EXTRA_COUNTERS)
    out["queries.fail_frac"] = "ratio"
    for reason in FAILURE_REASONS:
        out[f"queries.failed.{reason}"] = "count"
    out["trace.overhead_frac"] = "ratio"
    return out


def atom_averages_bytes(n: int) -> int:
    """Bytes read by one ``atom_averages`` call on n points.

    Three ``bincount`` passes (real part, imaginary part, atom masses) each
    read the int64 atom labels and one float64 weight vector, and the
    weights are formed from one read of the complex values.
    """
    return 3 * (8 * n + 8 * n) + 16 * n


class Tracer:
    """Spans of one run: name, start, end, parent span and query id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, query, error]
        self.counters: Counter = Counter()
        self.query = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.query, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, error: bool = False) -> None:
        span = self.spans[idx]
        span[2] = self.clock()
        span[5] = error
        self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a span per call; ``before`` may replace the
        arguments, ``after`` sees the arguments and the result."""

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            idx = self.open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self.close(idx, error=not ok)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[2] - s[1] - covered[i] for i, s in enumerate(self.spans)]

    def layer_totals(self) -> dict[str, float]:
        """calls / self_ms / errors per traced function, plus the counters."""
        out: dict[str, float] = {}
        for layer, names in LAYERS.items():
            for name in names:
                for kind in ("calls", "self_ms", "errors"):
                    out[f"{layer}.{name}.{kind}"] = 0
        fallbacks = 0
        for span, self_s in zip(self.spans, self.self_times()):
            name, parent, error = span[0], span[3], span[5]
            if f"{name}.calls" not in out:
                continue  # query spans of the benchmark itself
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ms"] += self_s * 1e3
            out[f"{name}.errors"] += int(error)
            if name == "oracle.matrix_of" and parent >= 0 and self.spans[parent][0] == "operator.classify":
                fallbacks += 1
        for key in EXTRA_COUNTERS:
            out[key] = self.counters[key]
        out["operator.classify.oracle_fallbacks"] = fallbacks
        points = self.counters["measure.countable.points"]
        out["measure.countable.evals_per_point"] = (
            self.counters["measure.countable.spec_evals"] / points if points else 0.0
        )
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, query, error in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "query": query, "error": error}
                    )
                    + "\n"
                )


# --- counters at layer boundaries ------------------------------------------

def _count_spec(tracer: Tracer, spec):
    """The same spec, with every callable counting its evaluations."""

    def counted(fn):
        def call(*a):
            tracer.counters["measure.countable.spec_evals"] += 1
            return fn(*a)

        return call

    fields = {
        f: counted(getattr(spec, f))
        for f in ("mass_at", "tail_bound", "atom_of", "symbol_at", "weighted_tail_bound")
        if getattr(spec, f) is not None
    }
    fields["divergent_atoms"] = {a: counted(w) for a, w in spec.divergent_atoms.items()}
    return dataclasses.replace(spec, **fields)


def _spec_first(tracer, args, kwargs):
    return (_count_spec(tracer, args[0]),) + tuple(args[1:]), kwargs


def _after_truncate(tracer, args, kwargs, result):
    tracer.counters["measure.truncate.points_kept"] += result.size
    tracer.counters["measure.countable.points"] += result.size


def _after_densely_defined(tracer, args, kwargs, result):
    tracer.counters["measure.countable.points"] += sum(v.terms_used for v in result.per_atom.values())


def _after_ess_range(tracer, args, kwargs, result):
    tracer.counters["measure.ess_range.values_in"] += args[0].values.size


def _after_atom_averages(tracer, args, kwargs, result):
    n = args[0].values.size
    tracer.counters["condexp.atom_averages.points"] += n
    tracer.counters["condexp.atom_averages.bytes_computed"] += atom_averages_bytes(n)


def _after_matrix_of(tracer, args, kwargs, result):
    tracer.counters["oracle.matrix_of.columns"] += result.shape[1]


def _after_hermitian_eig(tracer, args, kwargs, result):
    tracer.counters["oracle.hermitian_eig.flops_computed"] += result[0].size ** 3


def _after_probe_check(tracer, args, kwargs, result):
    tracer.counters["oracle.spectrum_probe_check.points"] += len(result.candidate_sigmas) + len(
        result.probe_sigmas
    )


def _after_main(tracer, args, kwargs, result):
    tracer.counters["cli.main.nonzero_exits"] += int(result != 0)


_HOOKS = {
    "measure.truncate": (_spec_first, _after_truncate),
    "operator.densely_defined": (_spec_first, _after_densely_defined),
    "measure.ess_range": (None, _after_ess_range),
    "condexp.atom_averages": (None, _after_atom_averages),
    "oracle.matrix_of": (None, _after_matrix_of),
    "oracle.hermitian_eig": (None, _after_hermitian_eig),
    "oracle.spectrum_probe_check": (None, _after_probe_check),
    "cli.main": (None, _after_main),
}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced function wherever a wcelab module binds it.

    Returns the (owner, attribute, original) triples that ``uninstall``
    puts back.
    """
    layers = {layer: importlib.import_module(f"wcelab.{layer}") for layer in LAYERS}
    operator = layers["operator"]
    modules = [m for name, m in list(sys.modules.items()) if name == "wcelab" or name.startswith("wcelab.")]
    undo = []
    for layer, names in LAYERS.items():
        module = layers[layer]
        for name in names:
            key = f"{layer}.{name}"
            before, after = _HOOKS.get(key, (None, None))
            if name == "construct":
                cls = operator.WeightedCondExpOperator
                undo.append((cls, "__post_init__", cls.__post_init__))
                cls.__post_init__ = tracer.wrap(key, cls.__post_init__)
                continue
            original = getattr(module, name)
            wrapped = tracer.wrap(key, original, before, after)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, attr, original))
                        setattr(m, attr, wrapped)
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
