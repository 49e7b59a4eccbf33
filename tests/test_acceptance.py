"""Acceptance gate: ten exact algebraic criteria at desk scale.

Every criterion prints one pass/fail line (visible under pytest -s; the
per-test PASSED/FAILED line under -v carries the same verdict).  All
checks are exact identities over F_p; there are no tolerances to tune.
"""

import io
import json
import random

import pytest

from fpforms import (
    DiffForm,
    MultiPoly,
    NotPClosed,
    RatFun,
    cartier,
    clear_denominators,
    exactness_oracle,
    gamma0,
    integrate,
    irrational_part,
    is_p_closed,
    o_operator,
    o_operator_expanded,
    p_operator,
    parse_form,
    split_complete_restricted,
    split_rational_irrational,
)
from fpforms.cli import run_command
from fpforms.sampling import (
    random_closed_form,
    random_form,
    random_multi_index,
    random_p_closed_form,
    random_poly,
)


def _verdict(num, label, ok, detail=""):
    print("criterion %2d %s  %s" % (num, "PASS" if ok else "FAIL", label))
    assert ok, "criterion %d failed: %s %s" % (num, label, detail)


def _pick(rng, primes=(2, 3, 5), max_n=3):
    p = primes[rng.randrange(len(primes))]
    n = rng.randint(1, max_n)
    return p, n, rng.randint(1, n)


def test_criterion_01_d_squared_is_zero():
    rng = random.Random(4101)
    checked = 0
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            for r in range(0, n + 1):
                for _ in range(500):
                    omega = random_form(rng, p, n, r, max_degree=6)
                    # a checked copy, so d is computed, not the zero that
                    # omega.d() carries by construction
                    fresh = DiffForm(p, n, r + 1, omega.d().terms)
                    assert fresh.d().is_zero(), (p, n, r, str(omega))
                    checked += 1
    _verdict(1, "d(d(omega)) = 0 on %d random forms" % checked, True)


def test_criterion_02_exact_forms_are_p_closed():
    rng = random.Random(4102)
    for _ in range(300):
        p, n, r = _pick(rng)
        eta = random_form(rng, p, n, r - 1, max_degree=4)
        assert is_p_closed(eta.d()), (p, n, r, str(eta))
    _verdict(2, "is_p_closed(d(eta)) on 300 random potentials", True)


def test_criterion_03_p_closed_forms_integrate_exactly():
    rng = random.Random(4103)
    for _ in range(300):
        p, n, r = _pick(rng)
        omega = random_p_closed_form(rng, p, n, r)
        theta = integrate(omega)
        assert theta.d() == omega, (p, n, r, str(omega))
    _verdict(3, "d(integrate(omega)) = omega on 300 p-closed forms", True)


def test_criterion_04_witness_fidelity():
    for p in (2, 3, 5, 7):
        with pytest.raises(NotPClosed):
            integrate(parse_form("z^%d dz" % (p - 1), p, 1))
        omega = parse_form("(x^%d + y^%d) dx^dy" % (p - 1, p - 1), p, 2)
        theta = integrate(omega)
        assert theta.d() == omega
        theta_ref = parse_form(
            "x*y^%d dy - x^%d*y dx" % (p - 1, p - 1), p, 2
        )
        assert theta_ref.d() == omega
        assert (theta - theta_ref).is_closed()
    _verdict(
        4,
        "z^(p-1)dz rejected and (x^(p-1)+y^(p-1))dx^dy integrated, "
        "p in {2,3,5,7}",
        True,
    )


def test_criterion_05_oracle_agrees_with_criterion():
    rng = random.Random(4105)
    for _ in range(200):
        p, n, r = _pick(rng, primes=(2, 3))
        omega = random_form(rng, p, n, r, max_degree=4)
        eta = exactness_oracle(omega)
        solvable = eta is not None
        criterion = is_p_closed(omega)
        split_view = omega.is_closed() and irrational_part(omega).is_zero()
        assert solvable == criterion == split_view, (p, n, r, str(omega))
        if solvable:
            assert eta.d() == omega
    _verdict(5, "oracle <=> is_p_closed <=> (closed and Q_r = 0), 200 forms", True)


def test_criterion_06_split_laws():
    rng = random.Random(4106)
    for _ in range(300):
        p, n, r = _pick(rng)
        omega = random_closed_form(rng, p, n, r)
        split = split_rational_irrational(omega)
        assert split.rational + split.irrational == omega
        assert is_p_closed(split.rational), (p, n, r, str(omega))
        assert split.irrational.is_closed()
        assert irrational_part(split.rational).is_zero()
        assert split.irrational.is_zero() == is_p_closed(omega)
    _verdict(6, "rational/irrational split laws on 300 closed forms", True)


def test_criterion_07_projector_identities():
    rng = random.Random(4107)
    for _ in range(200):
        p, n, _ = _pick(rng)
        f = random_poly(rng, p, n, max_degree=6)
        i = rng.randint(1, n)
        assert p_operator(p_operator(f, (i,)), (i,)) == -p_operator(f, (i,))
    for _ in range(200):
        p, n, r = _pick(rng)
        f = random_poly(rng, p, n, max_degree=6)
        index = random_multi_index(rng, n, r)
        once = p_operator(f, index)
        twice = p_operator(once, index)
        assert twice == (once if len(index) % 2 == 0 else -once)
    for _ in range(200):
        p, n, r = _pick(rng)
        omega = random_form(rng, p, n, r, max_degree=6)
        q = irrational_part(omega)
        assert irrational_part(q) == q
    for _ in range(200):
        p, n, r = _pick(rng)
        f = random_poly(rng, p, n, max_degree=6)
        index = random_multi_index(rng, n, r)
        once = o_operator(f, index)
        assert o_operator(once, index) == -once
        assert o_operator_expanded(f, index) == once
    for _ in range(200):
        p, n, r = _pick(rng)
        omega = random_form(rng, p, n, r, max_degree=6)
        restricted = split_complete_restricted(omega).restricted
        assert split_complete_restricted(restricted).restricted == restricted
    _verdict(7, "P, Q and O projector identities, 200 trials each", True)


def test_criterion_08_cartier_round_trips():
    rng = random.Random(4108)
    for _ in range(200):
        p, n, r = _pick(rng)
        alpha = random_form(rng, p, n, r, max_degree=3)
        assert cartier(gamma0(alpha)) == alpha, (p, n, r, str(alpha))
    for _ in range(200):
        p, n, r = _pick(rng)
        omega = random_closed_form(rng, p, n, r)
        assert is_p_closed(omega - gamma0(cartier(omega))), (p, n, r)
    for _ in range(200):
        p, n, r = _pick(rng)
        eta = random_form(rng, p, n, r - 1, max_degree=3)
        assert cartier(eta.d()).is_zero(), (p, n, r, str(eta))
    _verdict(8, "cartier/gamma0 round trips and cartier(d eta) = 0, 200 each", True)


def test_criterion_09_rational_pipeline():
    rng = random.Random(4109)
    for _ in range(100):
        p, n, r = _pick(rng)
        omega = random_form(rng, p, n, r, max_degree=2, rational=True)
        lam, cleared = clear_denominators(omega)
        assert cleared.is_polynomial
        one = MultiPoly.constant(p, n, 1)
        assert cleared * RatFun(one, lam) == omega, (p, n, r, str(omega))

    frozen = parse_form("(z/z^3) dz", 3, 1)
    theta = integrate(frozen)
    assert theta.d() == frozen

    for _ in range(60):
        p, n, r = _pick(rng, primes=(2, 3))
        base = random_p_closed_form(rng, p, n, r, max_degree=2)
        lam = random_poly(rng, p, n, max_degree=1, nonzero=True).substitute_pth()
        omega = base * RatFun(MultiPoly.constant(p, n, 1), lam)
        theta = integrate(omega)
        assert theta.d() == omega, (p, n, r, str(omega))
    _verdict(9, "denominator clearing round trip and rational integration", True)


def test_criterion_10_claim_audit_determinism():
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        code = run_command(argv, out=out, err=err)
        assert code == 0, err.getvalue()
        return out.getvalue().encode("utf-8")

    first = check(["check", "--seed", "42"])
    second = check(["check", "--seed", "42"])
    assert first == second

    report = json.loads(check(["--json", "check", "--seed", "42"]))
    assert report["regressions"] == 0
    by_id = {claim["id"]: claim for claim in report["claims"]}
    for claim in report["claims"]:
        if claim["status"] == "verified":
            assert claim["ok"], claim["id"]
    decomp = by_id["prop-decomp-c"]
    assert decomp["status"] == "contested" and decomp["ok"]
    ce = decomp["counterexample"]
    assert (ce["p"], ce["n"]) == (2, 2)
    assert ce["eta_text"] == "z1*z2 dz1"
    _verdict(10, "check --seed 42 byte-identical, pinned counterexample", True)
