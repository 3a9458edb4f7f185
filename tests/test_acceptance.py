"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each test also asserts, so a plain ``pytest`` run enforces the same
gate.
"""
import json
import math
import time

import numpy as np

from wcelab.cli import main as cli_main
from wcelab.measure import FiniteMeasureSpace, MFunction, Partition, realize, weighted_inner_product
from wcelab.operator import (
    WeightedCondExpOperator,
    apply,
    apply_adjoint,
    apply_isometry,
    apply_modulus,
    classify,
    densely_defined,
    polar,
    spectrum_formula,
)
from wcelab.condexp import cond_exp
from wcelab.oracle import (
    matrix_of,
    psd_sqrt,
    residuals,
    spectrum_probe_check,
)
from wcelab.sampling import SPECIAL_KINDS, random_operator
from wcelab.scenarios import (
    build_poisson_parity,
    build_symmetric_interval,
    geometric_blowup_spec,
    poisson_parity_spec,
)


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def test_criterion_1_interval_averaging_identities():
    t0 = time.perf_counter()
    sc = build_symmetric_interval(200)
    T = WeightedCondExpOperator(sc.space, sc.partition, sc.symbol)
    x, atom_of = sc.space.labels[:, 0], sc.partition.atom_of
    err_sq = float(np.max(np.abs(T.atom_sq_mean[atom_of] - np.cosh(2 * x))))
    err_mean = float(np.max(np.abs(T.atom_mean[atom_of] - np.cosh(x))))
    elapsed = time.perf_counter() - t0
    ok = err_sq <= 1e-12 and err_mean <= 1e-12 and elapsed < 0.1
    report(
        1,
        ok,
        f"N=200 node errors: mean-square {err_sq:.2e}, mean {err_mean:.2e} "
        f"(tol 1e-12), {elapsed:.3f}s",
    )


def test_criterion_2_interval_spectrum_with_probes():
    t0 = time.perf_counter()
    sc = build_symmetric_interval(64)
    T = WeightedCondExpOperator(sc.space, sc.partition, sc.symbol)
    x = sc.space.labels[:, 0]
    rep = spectrum_formula(T)
    expected = sorted({float(np.cosh(xi)) for xi in x[:32]})
    vals = sorted(v.real for v in rep.values)
    match = (
        len(vals) == len(expected) + 1
        and abs(vals[0]) <= 1e-10
        and all(abs(a - b) <= 1e-10 for a, b in zip(vals[1:], expected))
    )
    probe = spectrum_probe_check(T, rep)
    elapsed = time.perf_counter() - t0
    ok = match and probe.ok() and elapsed < 5.0
    report(
        2,
        ok,
        f"N=64 spectrum matched={match}, max candidate sigma_min "
        f"{max(probe.candidate_sigmas):.2e} (bound {1e-8 * probe.matrix_norm:.2e}), "
        f"max eigenvalue distance {max(probe.eigenvalue_distances):.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_parity_atom_means():
    t0 = time.perf_counter()
    from wcelab.suite import _poisson_entries

    entries = {e.claim_id: e for e in _poisson_entries()}
    odd = entries["poisson-parity.mean-symbol-odd-atom"]
    even = entries["poisson-parity.mean-symbol-even-atom"]
    odd_ok = odd.status == "pass" and abs(odd.computed["value"] - 1.3130352855) <= 1e-10
    even_ok = (
        even.status == "discrepancy"
        and abs(even.computed["value"] - 2.1639534137) <= 1e-9
        and abs(even.expected["published"] - 0.3522) <= 1e-3
    )
    elapsed = time.perf_counter() - t0
    ok = odd_ok and even_ok and elapsed < 0.1
    report(
        3,
        ok,
        f"odd-atom mean {odd.computed['value']:.10f} (pass), even-atom entry "
        f"status={even.status!r} showing derived {even.computed['value']:.10f} "
        f"and published {even.expected['published']:.7f}, {elapsed:.3f}s",
    )


def test_criterion_4_polar_decomposition_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    worst_recon = 0.0
    worst_sqrt = 0.0
    for _ in range(100):
        T = random_operator(rng, max_n=64)
        parts = polar(T, 1e-12)
        M = matrix_of(T)
        norm = max(float(np.linalg.norm(M)), 1e-300)
        U = realize(T.space, lambda f: apply_isometry(T, parts, f))
        A = realize(T.space, lambda f: apply_modulus(T, parts, f))
        worst_recon = max(worst_recon, float(np.linalg.norm(U @ A - M)) / norm)
        worst_sqrt = max(
            worst_sqrt, float(np.linalg.norm(A - psd_sqrt(M.conj().T @ M))) / norm
        )
    elapsed = time.perf_counter() - t0
    ok = worst_recon <= 1e-10 and worst_sqrt <= 1e-8 and elapsed < 30.0
    report(
        4,
        ok,
        f"100 instances: worst reconstruction {worst_recon:.2e} (tol 1e-10), "
        f"worst modulus-vs-psd-sqrt {worst_sqrt:.2e} (tol 1e-8), {elapsed:.1f}s",
    )


def test_criterion_5_classification_cross_validation():
    rng = np.random.default_rng(5)
    mismatches = 0
    kinds_seen = set()
    # force coverage of every special kind, then fill with the default mix
    draws = list(SPECIAL_KINDS) * 2 + [None] * 90
    for kind in draws[:100]:
        T = random_operator(rng, max_n=64, kind=kind)
        rep = classify(T, 1e-8)  # raises on ordering violation
        if (rep.self_adjoint, rep.normal, rep.quasinormal) != residuals(T).verdicts(1e-8):
            mismatches += 1
        if rep.self_adjoint:
            assert rep.normal
        if rep.normal:
            assert rep.quasinormal
        kinds_seen.add(kind or "mixed")
    ok = mismatches == 0 and kinds_seen.issuperset(SPECIAL_KINDS)
    report(
        5,
        ok,
        f"100 instances (all special kinds injected): {mismatches} "
        f"formula-vs-oracle mismatches, verdict ordering never violated",
    )


def test_criterion_6_adjoint():
    rng = np.random.default_rng(6)
    worst_pairing = 0.0
    worst_matrix = 0.0
    for _ in range(100):
        T = random_operator(rng, max_n=48)
        f = MFunction(rng.standard_normal(T.n) + 1j * rng.standard_normal(T.n))
        g = MFunction(rng.standard_normal(T.n) + 1j * rng.standard_normal(T.n))
        lhs = weighted_inner_product(apply(T, f), g, T.space)
        rhs = weighted_inner_product(f, apply_adjoint(T, g), T.space)
        scale = math.sqrt(
            weighted_inner_product(f, f, T.space).real
            * weighted_inner_product(g, g, T.space).real
        )
        worst_pairing = max(worst_pairing, abs(lhs - rhs) / max(scale, 1e-300))
        M = matrix_of(T)
        Ms = realize(T.space, lambda f: apply_adjoint(T, f))
        worst_matrix = max(worst_matrix, float(np.max(np.abs(Ms - M.conj().T))))
    ok = worst_pairing <= 1e-10 and worst_matrix <= 1e-12
    report(
        6,
        ok,
        f"100 triples: worst pairing gap {worst_pairing:.2e} (tol 1e-10), "
        f"worst adjoint-matrix entry gap {worst_matrix:.2e} (tol 1e-12)",
    )


def test_criterion_7_densely_defined_equivalence():
    conv = densely_defined(poisson_parity_spec(1.0), 1e-12)
    div = densely_defined(geometric_blowup_spec(), 1e-12)
    ok = (
        conv.densely_defined
        and conv.verdicts_agree
        and not div.densely_defined
        and div.verdicts_agree
    )
    report(
        7,
        ok,
        f"converging spec: (densely_defined, sigma_finite) = "
        f"({conv.densely_defined}, {conv.sigma_finite_restriction}); diverging "
        f"spec: ({div.densely_defined}, {div.sigma_finite_restriction})",
    )


def test_criterion_8_conditional_expectation_core():
    rng = np.random.default_rng(8)
    worst_idem = worst_def = worst_holder = worst_sigma2 = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 32))
        m = int(rng.integers(1, n + 1))
        atom_of = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
        rng.shuffle(atom_of)
        sp = FiniteMeasureSpace(np.exp(rng.uniform(np.log(1e-3), 0.0, size=n)))
        p = Partition(atom_of)
        f = MFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        g = MFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))

        ef = cond_exp(f, p, sp)
        worst_idem = max(
            worst_idem, float(np.max(np.abs(cond_exp(ef, p, sp).values - ef.values)))
        )
        for a in range(p.atom_count):
            idx = p.atom_of == a
            gap = abs(
                np.sum(ef.values[idx] * sp.masses[idx])
                - np.sum(f.values[idx] * sp.masses[idx])
            )
            worst_def = max(worst_def, gap)
        cross = cond_exp(MFunction(f.values * np.conj(g.values)), p, sp)
        ff = cond_exp(MFunction(np.abs(f.values) ** 2), p, sp).values.real
        gg = cond_exp(MFunction(np.abs(g.values) ** 2), p, sp).values.real
        worst_holder = max(
            worst_holder, float(np.max(np.abs(cross.values) ** 2 - ff * gg))
        )

        one_atom = WeightedCondExpOperator(
            sp, Partition(np.zeros(n, dtype=int)), MFunction(f.values)
        )
        sv = np.linalg.svd(matrix_of(one_atom), compute_uv=False)
        if n > 1:
            worst_sigma2 = max(worst_sigma2, float(sv[1]))
    ok = (
        worst_idem <= 1e-12
        and worst_def <= 1e-12
        and worst_holder <= 1e-10
        and worst_sigma2 <= 1e-10
    )
    report(
        8,
        ok,
        f"100 instances: idempotence {worst_idem:.2e}, per-atom averaging "
        f"{worst_def:.2e}, pointwise Cauchy-Schwarz excess {worst_holder:.2e}, "
        f"one-atom second singular value {worst_sigma2:.2e}",
    )


def test_criterion_9_suite_json_interface(capsys):
    from claim_ids import EXPECTED_CLAIM_IDS

    code = cli_main(["suite", "--format", "json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    ids = {e["claim_id"] for e in doc["entries"]}
    n_disc = sum(1 for e in doc["entries"] if e["status"] == "discrepancy")
    disc_ids = [e["claim_id"] for e in doc["entries"] if e["status"] == "discrepancy"]
    ok = (
        code == 0
        and ids == EXPECTED_CLAIM_IDS
        and n_disc == 1
        and disc_ids == ["poisson-parity.mean-symbol-even-atom"]
    )
    report(
        9,
        ok,
        f"suite --format json: exit {code}, {len(ids)}/{len(EXPECTED_CLAIM_IDS)} "
        f"claims present, {n_disc} discrepancy ({disc_ids})",
    )
