import pytest

from fpforms.audit import CLAIMS, report_to_text, run_audit

CONTESTED = {
    "operator-o-def-sign",
    "lemma-propriedades-b",
    "operator-or-sign",
    "prop-decomp-c",
}


def test_claim_inventory():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))
    statuses = {claim.id: claim.status for claim in CLAIMS}
    assert set(statuses.values()) == {"verified", "contested"}
    assert {cid for cid, status in statuses.items() if status == "contested"} == CONTESTED
    for claim in CLAIMS:
        if claim.status == "contested":
            assert claim.note


def test_report_structure_and_verdicts():
    report = run_audit(seed=42, trials=12)
    assert report["format"] == 1
    assert report["seed"] == 42 and report["trials"] == 12
    assert report["regressions"] == 0
    assert report["unconfirmed_contested"] == 0
    assert len(report["claims"]) == len(CLAIMS)
    for claim in report["claims"]:
        assert claim["ok"], claim["id"]
        if claim["status"] == "verified":
            assert claim["failures"] == 0, claim["id"]
            assert claim["counterexample"] is None, claim["id"]
        else:
            assert claim["failures"] > 0, claim["id"]
            ce = claim["counterexample"]
            assert ce and ce["p"] >= 2 and ce["n"] >= 1, claim["id"]


def test_audit_is_deterministic():
    assert run_audit(seed=42, trials=10) == run_audit(seed=42, trials=10)
    assert run_audit(seed=7, trials=10) != run_audit(seed=42, trials=10)


def test_text_report_layout():
    report = run_audit(seed=42, trials=8)
    text = report_to_text(report)
    lines = text.splitlines()
    assert lines[-1] == "summary: %d claims, 0 regressions, 0 unconfirmed contested" % len(CLAIMS)
    for claim in CLAIMS:
        verdict = "PASS" if claim.status == "verified" else "CONTESTED-CONFIRMED"
        assert any(line.startswith(claim.id) and verdict in line for line in lines), claim.id
    assert sum(1 for line in lines if "counterexample:" in line) == len(CONTESTED)
    assert report_to_text(run_audit(seed=42, trials=8)) == text


def test_decomp_counterexample_is_pinned():
    # the quoted two-variable relation fails already on eta = z1*z2 dz1 at p=2
    report = run_audit(seed=42, trials=6, primes=(2,), max_n=2)
    by_id = {claim["id"]: claim for claim in report["claims"]}
    ce = by_id["prop-decomp-c"]["counterexample"]
    assert ce["p"] == 2 and ce["n"] == 2
    assert ce["eta_text"] == "z1*z2 dz1"


def test_commutation_counterexample_is_pinned():
    report = run_audit(seed=0, trials=1, primes=(2,), max_n=2)
    by_id = {claim["id"]: claim for claim in report["claims"]}
    ce = by_id["lemma-propriedades-b"]["counterexample"]
    assert (ce["p"], ce["n"]) == (2, 2)
    assert "then O gives" in ce["detail"]
    assert by_id["operator-o-commute-outside"]["failures"] == 0


def test_restricted_prime_grid():
    report = run_audit(seed=3, trials=6, primes=(2, 3), max_n=2)
    assert report["primes"] == [2, 3]
    assert report["regressions"] == 0
    assert report["unconfirmed_contested"] == 0


def test_fewer_than_one_trial_is_rejected():
    # no trial would run, and every verified claim would read ok
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be a positive integer"):
            run_audit(seed=42, trials=trials)
