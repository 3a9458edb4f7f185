import dataclasses
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import warnings

import pytest

from wcelab import cli, oracle
from wcelab.cli import main
from wcelab.measure import CountableSpaceSpec
from wcelab.operator import SpectrumReport, classify, polar, spectrum_formula
from wcelab.scenarios import SCENARIO_BUILDERS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_scenario(capsys):
    code, out, _ = run(capsys, "classify", "--scenario", "symmetric-interval")
    assert code == 0
    assert "self-adjoint: False" in out
    assert "normal:       False" in out


def test_classify_with_params(capsys):
    code, out, _ = run(
        capsys, "classify", "--scenario", "full-algebra", "--params", "n=5"
    )
    assert code == 0
    assert "n=5" in out


def test_classify_bad_param_is_usage_error(capsys):
    code, _, err = run(capsys, "classify", "--scenario", "full-algebra", "--params", "bogus=1")
    assert code == 2
    assert "error" in err


def test_classify_needs_scenario_or_file(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 2
    assert "scenario" in err


def test_spectrum_plain_and_oracle(capsys):
    code, out, _ = run(capsys, "spectrum", "--scenario", "trivial-algebra")
    assert code == 0
    assert "includes_zero=True" in out
    code, out, _ = run(capsys, "spectrum", "--scenario", "trivial-algebra", "--oracle")
    assert code == 0
    assert "oracle verdict: pass" in out


def test_polar_command(capsys):
    code, out, _ = run(capsys, "polar", "--scenario", "block-partition")
    assert code == 0
    assert "verdict: pass" in out


@pytest.mark.parametrize("cmd", [["classify"], ["polar"], ["spectrum", "--oracle"]], ids=" ".join)
@pytest.mark.parametrize("scenario", sorted(SCENARIO_BUILDERS))
def test_builtin_scenarios_pass(capsys, cmd, scenario):
    code, out, _ = run(capsys, *cmd, "--scenario", scenario)
    assert code == 0, out


def test_spectrum_floor_not_claimed_on_non_normal(capsys):
    # the verdict is soundness and completeness alone, on a non-normal
    # operator (geometric-blowup) as on a normal one (full-algebra); the
    # probe floor is no part of it and is not printed
    for scenario in ("geometric-blowup", "full-algebra"):
        code, out, _ = run(capsys, "spectrum", "--oracle", "--scenario", scenario)
        assert code == 0
        assert "probe floor" not in out
        [check] = [line for line in out.splitlines() if line.startswith("oracle check:")]
        assert re.fullmatch(r"oracle check: max candidate sigma_min \S+", check)
        assert out.splitlines()[-1] == "oracle verdict: pass"


@pytest.mark.parametrize("cmd", ["classify", "spectrum"])
def test_poisson_parity_with_a_subnormal_atom_mass(capsys, cmd):
    # at theta = 720 the atom {0} has mass exp(-720) = 2.0e-313, a subnormal
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run(capsys, cmd, "--scenario", "poisson-parity", "--params", "theta=720")
    assert code == 0
    # classify's residual lines and spectrum's value lines
    numbers = re.findall(r"^ +(?:residual \w+: )?(\S+)$", out, flags=re.MULTILINE)
    assert numbers and all(math.isfinite(float(v)) for v in numbers)


def test_poisson_parity_at_theta_1000(capsys):
    # 71 of the masses read underflow to 0.0, the atom {0} among them; the
    # truncation drops them and keeps the odd and even atoms
    code, out, _ = run(capsys, "classify", "--scenario", "poisson-parity", "--params", "theta=1000")
    assert code == 0
    assert out.splitlines()[:4] == [
        "scenario: poisson-parity  (n=1221, atoms=2)",
        "self-adjoint: False",
        "normal:       False",
        "quasinormal:  False  (via formula)",
    ]
    code, out, _ = run(capsys, "spectrum", "--scenario", "poisson-parity", "--params", "theta=1000")
    assert code == 0
    assert out.splitlines()[1:] == ["spectrum (2 values, includes_zero=True):", "  0", "  1000"]


def test_polar_tiny_atom_below_tol(tmp_path, capsys):
    # E(|u|^2) = 1.6e-9 <= tol on the atom {0}: the factors vanish there, so
    # U|T| equals T only off that atom
    doc = {
        "points": [{"weight": 1 / 3}] * 3,
        "atoms": [[0], [1, 2]],
        "u": {"values": [[4e-5, 0.0], [1.0, 0.0], [2.0, 0.0]]},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "polar", "--space-file", str(path))
    assert "support size of mean-square symbol: 2 of 3" in out
    assert "verdict: pass" in out
    assert code == 0


def test_polar_on_a_tiny_symbol_forms_M_star_M_at_unit_scale(tmp_path, capsys):
    # M's largest entry is about 1e-160, so M*M formed from M itself has
    # subnormal entries, and their rounding gave it a negative eigenvalue
    doc = {
        "points": [{"weight": w} for w in (7, 1e300, 7, 1e-310, 1e-310)],
        "atoms": [[0, 1, 4], [2, 3]],
        "u": {"values": [[x, 0.0] for x in (1e-12, 1e-160, 1e-160, 1e-160, -1.0)]},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run(capsys, "polar", "--space-file", str(path))
    assert code == 0
    assert "verdict: pass" in out.splitlines()


@pytest.mark.parametrize(
    "command, verdict", [(["spectrum", "--oracle"], "oracle verdict: pass"), (["polar"], "verdict: pass")]
)
def test_dense_checks_on_a_symbol_whose_norm_squared_overflows(tmp_path, capsys, command, verdict):
    # u = (1.3e154, 1.2e154) on two singletons of weight 0.5: every |u|^2 is
    # finite, but ||M||_F^2 = 3.13e308 is not, so both checks take ||M||_F
    # at unit scale
    doc = {
        "points": [{"weight": 0.5}, {"weight": 0.5}],
        "atoms": [[0], [1]],
        "u": {"values": [[1.3e154, 0.0], [1.2e154, 0.0]]},
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run(capsys, *command, "--space-file", str(path))
    assert code == 0
    assert verdict in out.splitlines()


_RESIDUALS_AT_EVERY_SCALE = {
    (1, 2, 3): "self-adjoint 2.085e-01, normal 9.722e-02, quasinormal 3.205e-02",
    (1, -1, 3): "self-adjoint 4.472e-01, normal 1.414e-01, quasinormal 3.162e-02",
}


@pytest.mark.parametrize(
    "signs, c",
    [((1, 2, 3), c) for c in (1.0, 1e60, 1e80, 1e103)] + [((1, -1, 3), c) for c in (1.0, 1e60, 1e103)],
)
def test_classify_on_a_large_symbol_takes_the_residuals_at_unit_scale(tmp_path, capsys, signs, c):
    # u = c (1, 2, 3) on atoms {0, 1}, {2} with masses (0.5, 0.5, 1), and the
    # zero-mean u = c (1, -1, 3), which takes classify's dense fallback: the
    # relative residuals do not depend on c, and |M|^2 and M |M|^2 formed
    # from M itself overflowed from c = 1e60
    doc = {
        "points": [{"weight": w} for w in (0.5, 0.5, 1.0)],
        "atoms": [[0, 1], [2]],
        "u": {"values": [[k * c, 0.0] for k in signs]},
    }
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run(capsys, "classify", "--space-file", str(path))
    assert code == 0
    assert f"  oracle residuals: {_RESIDUALS_AT_EVERY_SCALE[signs]}" in out.splitlines()
    if signs[1] < 0:
        assert "quasinormal:  False  (via oracle)" in out.splitlines()
        assert "  residual quasinormal_rel: 3.162e-02" in out.splitlines()


@pytest.mark.parametrize(
    "c, lines",
    [(1.0, ["  0+1e-16i", "  2e-20+3e-17i"]), (1e32, ["  0+1e+16i", "  2e+12+3e+15i"])],
)
def test_spectrum_prints_the_same_parts_in_any_units(tmp_path, capsys, c, lines):
    # u = c (1e-16i, 2e-20 + 3e-17i) on two singletons: an imaginary part
    # is dropped only when it is at most 1e-15 |z|, so both values keep
    # theirs at c = 1 as at c = 1e32; an absolute cut printed 0 and 2e-20
    doc = {
        "points": [{"weight": 1}, {"weight": 1}],
        "atoms": [[0], [1]],
        "u": {"values": [[0.0, 1e-16 * c], [2e-20 * c, 3e-17 * c]]},
    }
    path = tmp_path / "units.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "spectrum", "--oracle", "--space-file", str(path))
    assert code == 0
    printed = out.splitlines()
    assert printed[2:4] == lines
    assert "oracle verdict: pass" in printed
    for z in (1 + 1e-16j, 0j):
        assert cli._fmt_complex(z * c) == f"{(z * c).real:.12g}"


def test_domain_poisson(capsys):
    code, out, _ = run(capsys, "domain", "--scenario", "poisson-parity")
    assert code == 0
    assert "densely defined:            True" in out
    assert "sigma-finite restriction:   True" in out


def test_domain_poisson_theta(capsys):
    code, out, _ = run(capsys, "domain", "--scenario", "poisson-parity", "--theta", "10")
    assert code == 0
    assert "verdicts agree:             True" in out
    assert "atom 'odd': converges, mean-square symbol 110.0" in out  # 2.313 if --theta were ignored


def test_domain_geometric_blowup(capsys):
    code, out, _ = run(capsys, "domain", "--scenario", "geometric-blowup")
    assert code == 0  # verdicts agree (both negative)
    assert "densely defined:            False" in out
    assert "diverges" in out


#: the full stdout of ``domain`` per argument list; no mass read by these
#: cuts underflows, so every atom, the one of 0 included, is printed
DOMAIN_OUTPUT = {
    ("--scenario", "poisson-parity", "--theta", "1"): """\
scenario: poisson-parity
densely defined:            True
sigma-finite restriction:   True
verdicts agree:             True
  atom 'even': converges, mean-square symbol 5.00530060215 (partial sum 1, tail bound 3.188e-13, 8 terms)
  atom 'odd': converges, mean-square symbol 2.3130352855 (partial sum 1, tail bound 3.188e-13, 8 terms)
  atom 'zero': converges, mean-square symbol 0 (partial sum 0, tail bound 3.188e-13, 1 terms)
""",
    ("--scenario", "poisson-parity", "--theta", "10"): """\
scenario: poisson-parity
densely defined:            True
sigma-finite restriction:   True
verdicts agree:             True
  atom 'even': converges, mean-square symbol 110.00998885 (partial sum 55, tail bound 9.944e-13, 22 terms)
  atom 'odd': converges, mean-square symbol 110.000000041 (partial sum 55, tail bound 9.944e-13, 22 terms)
  atom 'zero': converges, mean-square symbol 0 (partial sum 0, tail bound 9.944e-13, 1 terms)
""",
    ("--scenario", "poisson-parity", "--theta", "100"): """\
scenario: poisson-parity
densely defined:            True
sigma-finite restriction:   True
verdicts agree:             True
  atom 'even': converges, mean-square symbol 10100 (partial sum 5050, tail bound 5.774e-13, 97 terms)
  atom 'odd': converges, mean-square symbol 10100 (partial sum 5050, tail bound 5.774e-13, 98 terms)
  atom 'zero': converges, mean-square symbol 0 (partial sum 0, tail bound 5.774e-13, 1 terms)
""",
    ("--scenario", "poisson-parity", "--theta", "700"): """\
scenario: poisson-parity
densely defined:            True
sigma-finite restriction:   True
verdicts agree:             True
  atom 'even': converges, mean-square symbol 490700 (partial sum 245350, tail bound 7.733e-13, 472 terms)
  atom 'odd': converges, mean-square symbol 490700 (partial sum 245350, tail bound 7.733e-13, 472 terms)
  atom 'zero': converges, mean-square symbol 0 (partial sum 0, tail bound 7.733e-13, 1 terms)
""",
    ("--scenario", "geometric-blowup"): """\
scenario: geometric-blowup
densely defined:            False
sigma-finite restriction:   False
verdicts agree:             True
  atom 'all': diverges (witnessed partial sum 2.19902e+12 over 41 terms)
""",
}


@pytest.mark.parametrize("argv", list(DOMAIN_OUTPUT), ids=" ".join)
def test_domain_output_is_pinned(capsys, argv):
    code, out, err = run(capsys, "domain", *argv)
    assert (code, out, err) == (0, DOMAIN_OUTPUT[argv], "")


def test_domain_at_theta_1000_reports_the_atoms_the_cut_keeps(capsys):
    # the mass e^-1000 of the atom {0} underflows: the cut drops it with the
    # other 70 underflowed points, and the tail bound covers it
    code, out, _ = run(capsys, "domain", "--scenario", "poisson-parity", "--theta", "1000")
    assert code == 0
    assert out.splitlines()[1:] == [
        "densely defined:            True",
        "sigma-finite restriction:   True",
        "verdicts agree:             True",
        "  atom 'even': converges, mean-square symbol 1001000 (partial sum 500500, "
        "tail bound 9.498e-13, 610 terms)",
        "  atom 'odd': converges, mean-square symbol 1001000 (partial sum 500500, "
        "tail bound 9.498e-13, 611 terms)",
    ]


def test_domain_exits_1_on_a_weighted_bound_that_never_reaches_the_tolerance(capsys, monkeypatch):
    spec = CountableSpaceSpec(
        mass_at=lambda i: 2.0 ** (-(i + 1)),
        tail_bound=lambda N: 2.0 ** (-N),
        atom_of=lambda i: 0,
        symbol_at=lambda i: 1.0,
        weighted_tail_bound=lambda N: 1.0,
    )
    monkeypatch.setattr(cli, "geometric_blowup_spec", lambda: spec)
    code, out, err = run(capsys, "domain", "--scenario", "geometric-blowup")
    assert code == 1 and out == ""
    assert err.startswith("error: tail bound never dropped below 1e-12")


# at theta = 100000 the leading points underflow and the atoms first
# appear in the order ('even', 'odd').  At theta = 0.001 the 1e-6 cut keeps
# x = 0, 1, 2, one point per atom, so every atom reads normal; the 1e-9 cut
# adds x = 3 to the odd atom, which then does not: the cut decides the verdict
@pytest.mark.parametrize("theta", ["0.001", "1", "1000", "100000"])
def test_stability_command(capsys, theta):
    code, out, err = run(capsys, "stability", "--theta", theta)
    stable = theta != "0.001"
    assert code == (0 if stable else 1) and err == ""
    lines = out.splitlines()
    assert lines[0] == f"scenario: poisson-parity  (theta={theta})"
    assert [l.split(":")[0] for l in lines[1:4]] == [
        f"cut at tail tol {t}" for t in ("1e-06", "1e-09", "1e-12")
    ]
    no = "self-adjoint False, normal False, quasinormal False"
    first = no if stable else "self-adjoint True, normal True, quasinormal True"
    assert [l.split(" points, ")[1] for l in lines[1:4]] == [first, no, no]
    assert lines[-2:] == [f"verdicts stable:            {stable}", "means within tail bounds:   True"]


def test_stability_exits_1_when_the_cut_moves_a_mean_too_far(capsys, monkeypatch):
    spec = cli.poisson_parity_spec(10.0)
    lying = dataclasses.replace(spec, weighted_tail_bound=lambda N: 1e-6 * spec.weighted_tail_bound(N))
    monkeypatch.setattr(cli, "poisson_parity_spec", lambda theta: lying)
    code, out, _ = run(capsys, "stability")
    assert code == 1
    assert out.splitlines()[-2:] == [
        "verdicts stable:            True",
        "means within tail bounds:   False",
    ]


def test_suite_text(capsys):
    code, out, _ = run(capsys, "suite")
    assert code == 0
    assert "discrepancy: 1" in out


def test_suite_json(capsys):
    code, out, _ = run(capsys, "suite", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["discrepancy"] == 1


def test_oracle_check_small(capsys):
    code, out, _ = run(capsys, "oracle-check", "--seeds", "10", "--max-n", "16")
    assert code == 0
    assert "10/10 instances consistent" in out


def test_space_file_flow(tmp_path, capsys):
    doc = {
        "points": [{"weight": 0.5}, {"weight": 0.5}],
        "atoms": [[0, 1]],
        "u": {"values": [[1.0, 0.0], [1.0, 0.0]]},
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "classify", "--space-file", str(path))
    assert code == 0
    assert "self-adjoint: True" in out


def test_space_file_schema_error_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"points": []}')
    code, _, err = run(capsys, "classify", "--space-file", str(path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", [["classify"], ["spectrum", "--oracle"], ["polar"]])
def test_space_file_whose_u_squared_overflows_is_usage_error(tmp_path, capsys, command):
    for weights, u, error in (
        ((0.5, 0.5, 1.0), (1e200, 1e200, 2.0), "|u|^2 is not a finite float at point 0"),
        # the total weight overflows
        ((1e308, 1e308, 1.0), (1.0, 2.0, 3.0), "the sum of the weights over all points"),
        # the total weight is finite, but weight * |u|^2 overflows
        ((1e300, 1e300, 1.0), (1e5, 2e5, 3.0), "the sum of weight * |u|^2 over all points"),
    ):
        doc = {
            "points": [{"weight": w} for w in weights],
            "atoms": [[0, 1], [2]],
            "u": {"values": [[x, 0.0] for x in u]},
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, *command, "--space-file", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {error}")


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


FULL = ["--scenario", "full-algebra"]


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-check", "--max-n", "1"],
        ["oracle-check", "--max-n", "300"],
        ["oracle-check", "--seeds", "-1"],
        ["oracle-check", "--seeds", "0"],  # would check nothing and pass
        ["classify", *FULL, "--params", "n=2.5"],
        ["classify", *FULL, "--params", "n=nan"],
        ["classify", *FULL, "--params", "n=inf"],
        ["domain", "--theta", "nan"],
        ["stability", "--theta", "0"],
        # tail_tol is no scenario parameter: the cut is measure.TOLERANCES["tail"]
        *(
            ["classify", "--scenario", "poisson-parity", "--params", f"tail_tol={v}"]
            for v in ("0", "-1", "nan", "inf")
        ),
        # above the oracle's order cap of 256
        ["spectrum", "--oracle", *FULL, "--params", "n=300"],
    ],
    ids=" ".join,
)
def test_bad_numbers_exit_2(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value before any command runs
        code = exc.code
    assert code == 2
    assert "error: " in capsys.readouterr().err


def test_poisson_parity_takes_no_tail_tol(capsys):
    # a loose cut would change the space every check runs on
    code, _, err = run(capsys, "polar", "--scenario", "poisson-parity", "--params", "tail_tol=0.5")
    assert code == 2
    assert err == "error: scenario 'poisson-parity' takes parameters ['theta'], not 'tail_tol'\n"


def test_no_command_takes_a_tolerance(capsys):
    # every tolerance is a fixed entry of suite.TOLERANCES
    for argv in (
        ["classify", *FULL, "--tol", "1e-3"],
        ["spectrum", *FULL, "--tol", "1e-3"],
        ["polar", *FULL, "--tol", "1e-3"],
        ["oracle-check", "--tol", "1e-3"],
        ["domain", "--tail-tol", "1e-12"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: unrecognized arguments: " in capsys.readouterr().err
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for name, parser in subparsers.choices.items():
        assert "--tol" not in parser.format_help(), name
        assert "--tail-tol" not in parser.format_help(), name


@pytest.mark.parametrize(
    "scenario, verdict",
    [("full-algebra", "True"), ("trivial-algebra", "False"), ("zero-mean-space-file", "False")],
)
def test_classify_above_the_order_cap(tmp_path, capsys, scenario, verdict):
    # the verdicts come from the formula layer alone; only the informational
    # oracle residuals need the dense matrix.  The space file is one atom of
    # 300 points with a zero-mean symbol, whose dense fallback runs only
    # below the cap
    if scenario == "zero-mean-space-file":
        doc = {
            "points": [{"weight": 1}] * 300,
            "atoms": [list(range(300))],
            "u": {"builtin": "sign_alternating"},
        }
        path = tmp_path / "alt300.json"
        path.write_text(json.dumps(doc))
        source = ["--space-file", str(path)]
    else:
        source = ["--scenario", scenario, "--params", "n=300"]
    code, out, _ = run(capsys, "classify", *source)
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()[1:4]] == [verdict] * 3
    assert f"quasinormal:  {verdict}  (via formula)" in out.splitlines()
    assert "  oracle residuals: n/a (n > 256)" in out


def test_polar_above_the_order_cap(capsys):
    # the factors come from the formula layer alone; only the dense check
    # needs the matrix, and above the cap it is reported as not run
    code, out, err = run(capsys, "polar", *FULL, "--params", "n=300")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "scenario: full-algebra  (n=300)",
        "support size of mean-square symbol: 300 of 300",
        "oracle check: n/a (n > 256)",
    ]


# Each patch makes the formula layer's claim wrong in the way one dense check
# names: a spectral value 100+100j that no operator here has, polar factors
# cut at 10 (which drops atoms the check at TOLERANCES["oracle"] = 1e-8 must
# keep), or a classification with normality flipped.
def _spectrum_gains_bogus_value(T, tol=None):
    rep = spectrum_formula(T)
    return SpectrumReport(values=rep.values + (100.0 + 100.0j,), includes_zero=rep.includes_zero)


def _polar_cut_at_10(T, tol):
    return polar(T, 10.0)


def _classify_normality_flipped(T, tol):
    rep = classify(T, tol)
    return dataclasses.replace(
        rep, self_adjoint=False, normal=not rep.normal, quasinormal=not rep.normal
    )


def test_spectrum_oracle_fails_on_an_off_spectrum_claim(capsys, monkeypatch):
    monkeypatch.setattr(cli, "spectrum_formula", _spectrum_gains_bogus_value)
    code, out, _ = run(capsys, "spectrum", "--oracle", "--scenario", "block-partition")
    assert "oracle verdict: FAIL" in out
    assert code == 1


def _spectrum_loses_its_largest_value(T, tol=None):
    rep = spectrum_formula(T)
    largest = max(rep.values, key=abs)
    return SpectrumReport(
        values=tuple(v for v in rep.values if v != largest), includes_zero=rep.includes_zero
    )


@pytest.mark.parametrize("scenario", sorted(SCENARIO_BUILDERS))
def test_spectrum_oracle_fails_on_a_claim_that_leaves_out_a_value(capsys, monkeypatch, scenario):
    monkeypatch.setattr(cli, "spectrum_formula", _spectrum_loses_its_largest_value)
    code, out, _ = run(capsys, "spectrum", "--oracle", "--scenario", scenario)
    assert "oracle completeness: max eigenvalue distance to the claim" in out
    assert "oracle verdict: FAIL" in out
    assert code == 1


def _spectrum_merges_two_values(T, tol=None):
    # the two smallest values in (real, imag) order become their midpoint
    rep = spectrum_formula(T)
    a, b, *rest = sorted(rep.values, key=lambda z: (z.real, z.imag))
    return SpectrumReport(values=((a + b) / 2.0, *rest), includes_zero=rep.includes_zero)


@pytest.mark.parametrize("scenario", sorted(SCENARIO_BUILDERS))
def test_spectrum_oracle_fails_on_a_claim_that_merges_two_values(capsys, monkeypatch, scenario):
    monkeypatch.setattr(cli, "spectrum_formula", _spectrum_merges_two_values)
    code, out, _ = run(capsys, "spectrum", "--oracle", "--scenario", scenario)
    assert "oracle verdict: FAIL" in out
    assert code == 1


def test_polar_fails_on_factors_cut_too_high(capsys, monkeypatch):
    monkeypatch.setattr(cli, "polar", _polar_cut_at_10)
    code, out, _ = run(capsys, "polar", "--scenario", "block-partition")
    assert "verdict: FAIL" in out
    assert code == 1


@pytest.mark.parametrize("scenario", sorted(SCENARIO_BUILDERS))
def test_classify_checks_its_verdicts_against_the_oracle(capsys, monkeypatch, scenario):
    code, out, _ = run(capsys, "classify", "--scenario", scenario)
    assert (code, out.splitlines()[-1]) == (0, "oracle verdict: pass")
    monkeypatch.setattr(cli, "classify", _classify_normality_flipped)
    code, out, _ = run(capsys, "classify", "--scenario", scenario)
    assert (code, out.splitlines()[-1]) == (1, "oracle verdict: FAIL")


@pytest.mark.parametrize(
    "name, patch, reason",
    [
        ("spectrum_formula", _spectrum_gains_bogus_value, "spectrum_ok=False"),
        ("spectrum_formula", _spectrum_loses_its_largest_value, "spectrum_ok=False"),
        ("spectrum_formula", _spectrum_merges_two_values, "spectrum_ok=False"),
        ("polar", _polar_cut_at_10, "polar_ok=False"),
        ("classify", _classify_normality_flipped, "polar_ok=True spectrum_ok=True"),
    ],
    ids=["spectrum_formula", "spectrum_formula-leaves-out", "spectrum_formula-merges", "polar", "classify"],
)
def test_oracle_check_reports_each_mismatch(capsys, monkeypatch, name, patch, reason):
    monkeypatch.setattr(cli, name, patch)
    code, out, _ = run(capsys, "oracle-check", "--seeds", "5")
    mismatches = [line for line in out.splitlines() if "MISMATCH" in line]
    assert mismatches and all(reason in line for line in mismatches)
    assert code == 1


def test_no_verdict_reads_the_probe_floor(capsys, monkeypatch):
    # the spectrum verdict is soundness and completeness alone, so no
    # command computes a probe sigma_min, not even on a normal operator
    def unread(self, *args):
        raise AssertionError("the probe floor was read")

    for name in ("probe_sigmas", "probes_ok"):
        monkeypatch.setattr(oracle.SpectrumProbeResult, name, property(unread))
    for argv, last in (
        (["spectrum", "--oracle", "--scenario", "full-algebra"], "oracle verdict: pass"),
        (["suite"], "claims: 32  pass: 31  fail: 0  discrepancy: 1"),
        (["oracle-check", "--seeds", "5"], "oracle-check: 5/5 instances consistent"),
    ):
        code, out, _ = run(capsys, *argv)
        assert (code, out.splitlines()[-1]) == (0, last)


def test_spectrum_oracle_forms_no_commutators(tmp_path, capsys, monkeypatch):
    # the spectrum check takes ||M||_F itself, so no residuals are formed
    calls = []
    residuals = oracle.residuals
    monkeypatch.setattr(oracle, "residuals", lambda T: calls.append(T) or residuals(T))
    doc = {
        "points": [{"weight": 0.25}, {"weight": 0.25}, {"weight": 0.5}],
        "atoms": [[0, 1], [2]],
        "u": {"values": [[1.0, 2.0], [1.0, 2.0], [-3.0, 0.5]]},
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    sources = [["--scenario", name] for name in sorted(SCENARIO_BUILDERS)] + [["--space-file", str(path)]]
    for source in sources:
        code, out, _ = run(capsys, "spectrum", "--oracle", *source)
        assert (code, out.splitlines()[-1]) == (0, "oracle verdict: pass"), source
    assert calls == []


def test_closed_stdout_exits_1_without_a_traceback():
    # the reader takes one line and closes the pipe while the command is
    # still writing: more than a pipe buffer of spectrum values is left
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    argv = ["spectrum", "--scenario", "symmetric-interval", "--params", "N=65536"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "wcelab.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"scenario: symmetric-interval")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


# One session: commands that share options, usage errors (exit 2) from
# argparse and from a command, then valid commands again.  Each call must
# parse as if the parser were new, so no option or default carries over
# between calls, and a usage error leaves the parser working.
SESSION = [
    ["spectrum", "--oracle", "--scenario", "block-partition"],
    ["spectrum", "--scenario", "block-partition"],
    ["classify", "--scenario", "full-algebra", "--params", "n=5"],
    ["classify", "--scenario", "full-algebra"],
    ["oracle-check", "--seeds", "0"],
    ["classify", "--scenario", "no-such-scenario"],
    ["classify", "--scenario", "full-algebra", "--params", "bogus=1"],
    ["polar", "--scenario", "product-grid"],
    ["domain", "--scenario", "poisson-parity", "--theta", "10"],
    ["domain"],
    ["domain", "--scenario", "geometric-blowup"],
    ["oracle-check", "--seeds", "3", "--max-n", "8"],
    ["classify", "--scenario", "symmetric-interval"],
]


def run_session(capsys):
    results = []
    for argv in SESSION:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_a_session_matches_fresh_parsers(capsys, monkeypatch):
    cached = run_session(capsys)
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = run_session(capsys)
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 0, 0, 0, 2, 2, 2, 0, 0, 0, 0, 0, 0]
    # options given to one call are not read by the next
    assert "oracle" in cached[0][1] and "oracle" not in cached[1][1]
    assert "(n=5," in cached[2][1] and "(n=5," not in cached[3][1]
    assert "invalid choice: 'no-such-scenario'" in cached[5][2]
    assert cached[7][2] == "" and "verdict: pass" in cached[7][1]


def _readme_cli_examples():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("wcelab ")]


def test_readme_lists_its_cli_examples():
    # an empty list would leave the test below with no case to run
    assert _readme_cli_examples()


@pytest.mark.parametrize("line", _readme_cli_examples())
def test_readme_cli_example_exits_0(capsys, line):
    code, _, err = run(capsys, *shlex.split(line)[1:])
    assert code == 0 and err == ""
