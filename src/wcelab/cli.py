"""Command-line interface.

Exit codes: 0 all checks pass, 1 any check fails or stdout closed before
the output was written, 2 usage or parse error, a number out of range, or
an oracle request above order MATRIX_ORDER_CAP.
Discrepancy entries never affect the exit code; they are counted in the
summary line instead.

No command takes a tolerance: every verdict, the polar cut and every oracle
check use ``measure.TOLERANCES["oracle"]``, and ``domain``'s certified cut
uses ``measure.TOLERANCES["tail"]``, the table that ``suite --format json``
reports.
``stability`` cuts at each of ``operator.STABILITY_TAIL_TOLS``.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .measure import TOLERANCES, NotSummableError
from .operator import (
    STABILITY_TAIL_TOLS,
    UndecidableDomainError,
    WeightedCondExpOperator,
    classify,
    densely_defined,
    polar,
    spectrum_formula,
    truncation_stability,
)
from .oracle import MATRIX_ORDER_CAP, OrderCapError, polar_check, residuals, spectrum_probe_check
from .sampling import random_operator
from .scenarios import (
    SCENARIO_BUILDERS,
    Scenario,
    ScenarioParameterError,
    SpaceFileError,
    build_scenario,
    geometric_blowup_spec,
    load_space_file,
    poisson_parity_spec,
)
from .suite import run_claim_suite

USAGE_ERROR = 2
TOL = TOLERANCES["oracle"]


def _number(kind, ok, need: str):
    """argparse type: a ``kind`` value for which ``ok`` holds; ``need`` says which."""

    def parse(text: str):
        try:
            if ok(value := kind(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")

    return parse


_seed_count = _number(int, lambda v: v >= 1, "an integer >= 1")
_matrix_order = _number(
    int, lambda v: 2 <= v <= MATRIX_ORDER_CAP, f"an integer in 2..{MATRIX_ORDER_CAP}"
)


def _parse_params(items: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in items:
        if "=" not in item:
            raise ScenarioParameterError(f"--params entries look like k=v, got {item!r}")
        key, _, value = item.partition("=")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise ScenarioParameterError(f"cannot parse {item!r}: {exc}") from exc
    return out


def _resolve_scenario(args) -> Scenario:
    if getattr(args, "space_file", None):
        return load_space_file(args.space_file)
    if not args.scenario:
        raise ScenarioParameterError("need --scenario or --space-file")
    return build_scenario(args.scenario, _parse_params(args.params or []))


def _operator_of(sc: Scenario) -> WeightedCondExpOperator:
    return WeightedCondExpOperator(sc.space, sc.partition, sc.symbol)


def _fmt_complex(z: complex) -> str:
    if abs(z.imag) < 1e-15:
        return f"{z.real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}i"


def cmd_classify(args) -> int:
    sc = _resolve_scenario(args)
    T = _operator_of(sc)
    rep = classify(T, TOL)
    print(f"scenario: {sc.name}  (n={T.n}, atoms={T.partition.atom_count})")
    print(f"self-adjoint: {rep.self_adjoint}")
    print(f"normal:       {rep.normal}")
    print(f"quasinormal:  {rep.quasinormal}  (via {rep.quasinormal_source})")
    for name, value in rep.residuals.items():
        print(f"  residual {name}: {value:.3e}")
    if T.n > MATRIX_ORDER_CAP:  # the verdicts above are the formula layer's alone
        print(f"  oracle residuals: n/a (n > {MATRIX_ORDER_CAP})")
        return 0
    res = residuals(T)
    print(
        f"  oracle residuals: self-adjoint {res.self_adjoint_rel:.3e}, "
        f"normal {res.normal_rel:.3e}, quasinormal {res.quasinormal_rel:.3e}"
    )
    return 0


def cmd_spectrum(args) -> int:
    sc = _resolve_scenario(args)
    T = _operator_of(sc)
    rep = spectrum_formula(T)
    print(f"scenario: {sc.name}  (n={T.n}, atoms={T.partition.atom_count})")
    print(f"spectrum ({len(rep.values)} values, includes_zero={rep.includes_zero}):")
    for v in rep.values:
        print(f"  {_fmt_complex(v)}")
    if args.oracle:
        probe = spectrum_probe_check(T, rep)
        ok = probe.ok(TOL)
        print(f"oracle check: max candidate sigma_min {max(probe.candidate_sigmas):.3e}")
        print(
            f"oracle completeness: max eigenvalue distance to the claim "
            f"{max(probe.eigenvalue_distances):.3e}, ||M||_F {probe.matrix_norm:.3e}"
        )
        print(f"oracle verdict: {'pass' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def cmd_polar(args) -> int:
    sc = _resolve_scenario(args)
    T = _operator_of(sc)
    parts = polar(T, TOL)
    recon, sqrt_err, ok = polar_check(T, parts, TOL)
    print(f"scenario: {sc.name}  (n={T.n})")
    print(f"support size of mean-square symbol: {len(parts.support_set)} of {T.n}")
    print(f"reconstruction residual ||U|T| - P_S T||_F:   {recon:.3e}")
    print(f"modulus residual || |T| - P_S sqrt(T*T) ||_F: {sqrt_err:.3e}")
    print(f"verdict: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_domain(args) -> int:
    if args.scenario == "poisson-parity":
        spec = poisson_parity_spec(args.theta)
    else:
        spec = geometric_blowup_spec()
    rep = densely_defined(spec, TOLERANCES["tail"])
    print(f"scenario: {args.scenario}")
    print(f"densely defined:            {rep.densely_defined}")
    print(f"sigma-finite restriction:   {rep.sigma_finite_restriction}")
    print(f"verdicts agree:             {rep.verdicts_agree}")
    for atom, v in sorted(rep.per_atom.items(), key=lambda kv: str(kv[0])):
        if v.converges:
            print(
                f"  atom {atom!r}: converges, mean-square symbol "
                f"{v.sq_mean:.12g} (partial sum {v.partial_sum:.6g}, "
                f"tail bound {v.tail_bound:.3e}, {v.terms_used} terms)"
            )
        else:
            print(
                f"  atom {atom!r}: diverges (witnessed partial sum "
                f"{v.partial_sum:.6g} over {v.terms_used} terms)"
            )
    return 0 if rep.verdicts_agree else 1


def cmd_stability(args) -> int:
    rep = truncation_stability(poisson_parity_spec(args.theta))
    print(f"scenario: {args.scenario}  (theta={args.theta:g})")
    for tail_tol, size, (sa, normal, quasi) in zip(STABILITY_TAIL_TOLS, rep.sizes, rep.verdicts):
        print(
            f"cut at tail tol {tail_tol:.0e}: {size} points, self-adjoint {sa}, "
            f"normal {normal}, quasinormal {quasi}"
        )
    for m in rep.moves:
        print(
            f"  atom {m.atom!r}, {m.coarse_tol:.0e} -> {m.fine_tol:.0e}: "
            f"E(u) moved {m.mean_move:.3e} of {m.mean_allowed:.3e}, "
            f"E(|u|^2) moved {m.sq_mean_move:.3e} of {m.sq_mean_allowed:.3e}"
        )
    print(f"verdicts stable:            {rep.verdicts_stable}")
    print(f"means within tail bounds:   {rep.means_within_bounds}")
    return 0 if rep.stable else 1


def cmd_suite(args) -> int:
    report = run_claim_suite()
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text())
    return 0 if report.all_ok else 1


def cmd_oracle_check(args) -> int:
    failures = 0
    for seed in range(args.seeds):
        T = random_operator(np.random.default_rng(seed), max_n=args.max_n)
        rep = classify(T, TOL)
        res = residuals(T)
        polar_ok = polar_check(T, polar(T, TOL), TOL)[2]
        spectrum_ok = spectrum_probe_check(T, spectrum_formula(T)).ok(TOL)
        if not (res.agrees(rep, TOL) and polar_ok and spectrum_ok):
            failures += 1
            print(
                f"seed {seed}: MISMATCH classify={rep.self_adjoint, rep.normal, rep.quasinormal} "
                f"oracle={res.verdicts(TOL)} polar_ok={polar_ok} spectrum_ok={spectrum_ok}"
            )
    print(f"oracle-check: {args.seeds - failures}/{args.seeds} instances consistent")
    return 0 if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built once per process, since building it
    costs more than most commands; each parse still makes a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="wcelab",
        description=(
            "numerical laboratory for weighted conditional expectation "
            "operators on discretized measure spaces"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_opts(p):
        p.add_argument("--scenario", choices=sorted(SCENARIO_BUILDERS))
        p.add_argument("--params", nargs="*", metavar="k=v")
        p.add_argument("--space-file", dest="space_file", metavar="PATH")

    p = sub.add_parser("classify", help="self-adjoint / normal / quasinormal verdicts")
    add_scenario_opts(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("spectrum", help="closed-form spectrum, optionally oracle-checked")
    add_scenario_opts(p)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("polar", help="polar decomposition and its residuals")
    add_scenario_opts(p)
    p.set_defaults(func=cmd_polar)

    p = sub.add_parser("domain", help="densely-defined verdict on a countable space")
    p.add_argument(
        "--scenario",
        choices=["poisson-parity", "geometric-blowup"],
        default="poisson-parity",
    )
    p.add_argument("--theta", type=float, default=1.0)
    p.set_defaults(func=cmd_domain)

    p = sub.add_parser(
        "stability", help="verdicts and atom means on cuts at several tail tolerances"
    )
    p.add_argument("--scenario", choices=["poisson-parity"], default="poisson-parity")
    p.add_argument("--theta", type=float, default=1.0)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("suite", help="run the full claims verification suite")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("oracle-check", help="randomized formula-vs-oracle cross-validation")
    p.add_argument("--seeds", type=_seed_count, default=100)
    p.add_argument("--max-n", dest="max_n", type=_matrix_order, default=64)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    # argparse exits with code 2 on usage errors already
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early, so the verdict may not have been
        # written: that is no success.  What is still buffered goes to
        # devnull, so the interpreter's flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ScenarioParameterError, SpaceFileError, OrderCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (NotSummableError, UndecidableDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
