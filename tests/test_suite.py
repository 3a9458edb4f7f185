import json
import math

import pytest

from claim_ids import EXPECTED_CLAIM_IDS
from wcelab import operator, suite
from wcelab.measure import ess_range
from wcelab.suite import run_claim_suite

# one suite run shared by the whole module; it is the expensive part
REPORT = run_claim_suite()


def entry(claim_id):
    hits = [e for e in REPORT.entries if e.claim_id == claim_id]
    assert len(hits) == 1, claim_id
    return hits[0]


def test_every_expected_claim_present_exactly_once():
    ids = [e.claim_id for e in REPORT.entries]
    assert sorted(ids) == sorted(EXPECTED_CLAIM_IDS)


def test_no_failures_and_one_discrepancy():
    counts = REPORT.counts()
    assert counts["fail"] == 0
    assert counts["discrepancy"] == 1
    assert REPORT.all_ok


def test_the_discrepancy_is_the_even_atom_mean():
    bad = [e for e in REPORT.entries if e.status == "discrepancy"]
    assert [e.claim_id for e in bad] == ["poisson-parity.mean-symbol-even-atom"]
    e = bad[0]
    # both the published and the independently derived value must be shown
    assert "published" in e.expected and "derived" in e.expected
    assert e.expected["published"] == pytest.approx(
        (math.cosh(1.0) - 1.0) / math.cosh(1.0), abs=1e-12
    )
    assert abs(e.expected["derived"] - 2.1639534137386534) < 1e-9
    assert abs(e.computed["value"] - e.expected["derived"]) < 1e-10
    assert e.note


def test_odd_atom_mean_matches_closed_form():
    e = entry("poisson-parity.mean-symbol-odd-atom")
    assert e.status == "pass"
    assert e.expected["value"] == pytest.approx(1.0 / math.tanh(1.0), abs=1e-12)
    assert abs(e.computed["value"] - e.computed["series_oracle"]) < 1e-10


def spectrum_entries():
    return [
        e
        for e in REPORT.entries
        if e.claim_id.endswith("spectrum") or e.claim_id.endswith("spectrum-is-range")
    ]


def test_spectrum_entries_record_probe_evidence():
    # the evidence of soundness and of completeness: every claimed value
    # nearly annihilates M - lambda I, and every eigenvalue is claimed, both
    # at rounding level on these scenarios
    entries = spectrum_entries()
    assert len(entries) == 6
    for e in entries:
        assert e.status == "pass"
        assert 0.0 <= e.computed["max_candidate_sigma_min"] <= 1e-12
        assert 0.0 <= e.computed["max_eigenvalue_distance"] <= 1e-12


def test_spectrum_entries_carry_no_probe_floor():
    # the spectrum verdict is soundness and completeness alone
    doc = json.loads(REPORT.to_json())
    for e in doc["entries"]:
        if "max_candidate_sigma_min" in e["computed"]:
            assert set(e["computed"]) == {
                "spectrum",
                "includes_zero",
                "max_candidate_sigma_min",
                "max_eigenvalue_distance",
            }


def test_zero_inclusion_noted_not_failed():
    for cid in ("trivial-algebra.spectrum", "product-grid.spectrum", "symmetric-interval.spectrum"):
        e = entry(cid)
        assert e.status == "pass"
        assert "includes 0" in e.note


def test_json_round_trip():
    doc = json.loads(REPORT.to_json())
    assert doc["tolerances"] == suite.TOLERANCES
    assert doc["summary"] == REPORT.counts()
    assert len(doc["entries"]) == len(REPORT.entries)
    ids = {e["claim_id"] for e in doc["entries"]}
    assert ids == EXPECTED_CLAIM_IDS
    for e in doc["entries"]:
        assert e["status"] in ("pass", "fail", "discrepancy")
        assert e["reference"]


def test_text_format_has_summary_line():
    text = REPORT.format_text()
    assert "pass: 31" in text
    assert "discrepancy: 1" in text


def test_spectrum_is_range_fails_when_a_value_is_left_out(monkeypatch):
    # the expected values are the published symbol's: an essential range
    # that drops a value fails the claim wherever the suite reads it
    def drops_largest(f, *args):
        values = ess_range(f, *args)
        return [v for v in values if v != max(values, key=abs)]

    for module in (operator, suite):
        if hasattr(module, "ess_range"):
            monkeypatch.setattr(module, "ess_range", drops_largest)
    [e] = [e for e in suite._case1_entries() if e.claim_id == "full-algebra.spectrum-is-range"]
    assert e.status == "fail"


# ------------------------------------------------------- claim-kind helpers

def verdicts(self_adjoint, normal, agree=True):
    """A stand-in for suite._classification_agrees output."""
    return {
        "self_adjoint": self_adjoint,
        "normal": normal,
        "quasinormal": normal,
        "oracle_agrees": agree,
    }


@pytest.mark.parametrize("value, status", [(1.0, "pass"), (math.inf, "fail"), (math.nan, "fail")])
def test_finite_entry_fails_on_non_finite_value(value, status):
    e = suite._finite_entry("x.densely-defined", "ref", {"value": value}, value)
    assert e.status == status


@pytest.mark.parametrize(
    "verdict, yes, no, status",
    [
        ("normal", verdicts(False, True), verdicts(False, False), "pass"),
        ("normal", verdicts(False, False), verdicts(False, False), "fail"),  # yes case fails
        ("normal", verdicts(False, True), verdicts(False, True), "fail"),  # no case holds
        ("normal", verdicts(False, True, agree=False), verdicts(False, False), "fail"),
        ("normal", verdicts(False, True), verdicts(False, False, agree=False), "fail"),
        ("self_adjoint", verdicts(True, True), verdicts(False, True), "pass"),
        ("self_adjoint", verdicts(False, True), verdicts(False, True), "fail"),
        ("self_adjoint", verdicts(True, True), verdicts(True, True), "fail"),
        ("self_adjoint", verdicts(True, True, agree=False), verdicts(False, True), "fail"),
        ("self_adjoint", verdicts(True, True), verdicts(False, True, agree=False), "fail"),
        # not self-adjoint only because not normal: not the reason the claim names
        ("self_adjoint", verdicts(True, True), verdicts(False, False), "fail"),
    ],
)
def test_iff_entry_fails_for_the_reason_it_names(verdict, yes, no, status):
    e = suite._iff_entry("x.iff", "ref", verdict, ("yes", yes), ("no", no))
    assert e.status == status
    assert e.expected == {"yes": True, "no": False}


@pytest.mark.parametrize(
    "verdict, result, status",
    [
        ("normal", verdicts(False, False), "pass"),
        ("normal", verdicts(False, True), "fail"),  # the verdict holds
        ("normal", verdicts(False, False, agree=False), "fail"),  # the oracle disagrees
        ("self_adjoint", verdicts(False, True), "pass"),
        ("self_adjoint", verdicts(True, True), "fail"),
        ("self_adjoint", verdicts(False, True, agree=False), "fail"),
    ],
)
def test_fails_entry_fails_when_the_verdict_holds_or_the_oracle_disagrees(
    verdict, result, status
):
    e = suite._fails_entry("x.not", "ref", verdict, result)
    assert e.status == status
    assert e.expected == {verdict: False}
