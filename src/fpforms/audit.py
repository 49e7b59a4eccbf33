"""Empirical audit of every algebraic identity the kernel relies on.

Each claim gets a deterministic random stream (derived from the seed and
the claim id), a fixed number of trials, and possibly a few targeted
probes that run before the random ones.  Claims carry an expected status:

* "verified": no counterexample is expected; any failure is a regression
  and the audit reports it (the CLI then exits nonzero);
* "contested": the stated identity is expected to fail; the audit must
  produce a concrete counterexample, which is recorded in the report.

The contested entries document statements whose plausible literal reading
does not hold (a sign convention or a too-broad quantifier); each records
the version that does hold in its note.  Reports are plain dicts with a stable field order, so a
fixed seed reproduces the report byte for byte.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .cartier import cartier, gamma0
from .forms import DiffForm
from .operators import (
    irrational_part,
    is_p_closed,
    o_operator,
    o_operator_expanded,
    p_operator,
    phi,
    split_complete_restricted,
    split_rational_irrational,
)
from .errors import NotPClosed
from .poincare import exactness_oracle, integrate
from .poly import MultiPoly
from .printer import form_to_doc, form_to_text
from .ratfun import RatFun
from .sampling import (
    _randint,
    random_closed_form,
    random_exact_form,
    random_form,
    random_multi_index,
    random_p_closed_form,
    random_poly,
)
from .scalar import Prime

DEFAULT_SEED = 42
DEFAULT_TRIALS = 100
DEFAULT_PRIMES = (2, 3, 5)
DEFAULT_MAX_N = 3

# verified once: the fallbacks of trials that need a prime <= 3 or an odd
# one when the requested primes have none
_SMALL_PRIMES = (Prime(2), Prime(3))
_ODD_PRIMES = (Prime(3),)


def _pick_config(rng, primes, max_n, r_min=1):
    p = primes[_randint(rng, 0, len(primes) - 1)]
    n = _randint(rng, max(1, r_min), max_n)
    r = _randint(rng, min(r_min, n), n)
    return p, n, r


def _form_payload(label, form):
    return {
        "p": form.p.p,
        "n": form.n,
        label: form_to_doc(form),
        label + "_text": form_to_text(form),
    }


def _poly_payload(p, n, index, f, detail):
    return {
        "p": int(p),
        "n": n,
        "index": list(index),
        "f": str(f),
        "detail": detail,
    }


# ----------------------------------------------------------------------
# claim trials; each runs trial t and returns None when the claim held,
# or a zero-argument callable that builds the counterexample


def _trial_phi_d_constant(rng, t, primes, max_n):
    p, n, r = _pick_config(rng, primes, max_n)
    omega = random_closed_form(rng, p, n, r)
    image = phi(omega)
    if not all(c.is_differential_constant() for c in image.terms.values()):
        return lambda: _form_payload("omega", omega)


def _trial_irrational_closed(rng, t, primes, max_n):
    p, n, r = _pick_config(rng, primes, max_n)
    omega = random_closed_form(rng, p, n, r)
    split = split_rational_irrational(omega)
    ok = (
        split.irrational.is_closed()
        and is_p_closed(split.rational)
        and split.rational + split.irrational == omega
        and irrational_part(split.rational).is_zero()
    )
    if not ok:
        return lambda: _form_payload("omega", omega)


def _reciprocal(lam: MultiPoly) -> RatFun:
    # 1/lam as a rational multiplier; lam is a p-th power by construction
    one = MultiPoly.constant(lam.p, lam.n, 1)
    return RatFun(one, lam)


def _trial_sweedler_r1(rng, t, primes, max_n):
    p = primes[_randint(rng, 0, len(primes) - 1)]
    n = _randint(rng, 1, max_n)
    omega = random_closed_form(rng, p, n, 1)
    if t % 3 == 0 and int(p) <= 5:
        lam = MultiPoly.variable(p, n, _randint(rng, 1, n)) ** int(p)
        omega = omega * _reciprocal(lam)
    split = split_rational_irrational(omega)
    try:
        ok = integrate(split.rational).d() == split.rational
    except NotPClosed:
        ok = False
    if not (ok and split.irrational.is_closed()):
        return lambda: _form_payload("omega", omega)


def _trial_p_operator_basic(rng, t, primes, max_n):
    p = primes[_randint(rng, 0, len(primes) - 1)]
    n = _randint(rng, 1, max_n)
    f = random_poly(rng, p, n, max_degree=2 * int(p))
    i = _randint(rng, 1, n)
    ok = p_operator(p_operator(f, (i,)), (i,)) == -p_operator(f, (i,))
    if ok and n >= 2:
        j = _randint(rng, 1, n)
        if j != i:
            pair = tuple(sorted((i, j)))
            ok = p_operator(f, pair) == p_operator(p_operator(f, (j,)), (i,))
    if not ok:
        return lambda: _poly_payload(p, n, (i,), f, "P_i composition")


def _trial_p_operator_kernel(rng, t, primes, max_n):
    p = primes[_randint(rng, 0, len(primes) - 1)]
    n = _randint(rng, 1, max_n)
    f = random_poly(rng, p, n, max_degree=2 * int(p))
    r = _randint(rng, 1, n)
    index = random_multi_index(rng, n, r)
    i = index[_randint(rng, 0, len(index) - 1)]
    ok = (
        p_operator(f.partial(i), index).is_zero()
        and p_operator(p_operator(f, index), (i,)) == -p_operator(f, index)
    )
    if not ok:
        return lambda: _poly_payload(p, n, index, f, "P_J derivative kernel")


def _trial_p_operator_idempotent(rng, t, primes, max_n):
    p, n, r = _pick_config(rng, primes, max_n)
    f = random_poly(rng, p, n, max_degree=2 * int(p))
    index = random_multi_index(rng, n, r)
    sign = -1 if r % 2 else 1
    ok = p_operator(p_operator(f, index), index) == p_operator(f, index) * sign
    if ok:
        omega = random_form(rng, p, n, r, max_degree=2 * int(p))
        q1 = irrational_part(omega)
        ok = irrational_part(q1) == q1
    if not ok:
        return lambda: _poly_payload(p, n, index, f, "projector idempotency")


def _trial_p_operator_annihilates(rng, t, primes, max_n):
    p, n, r = _pick_config(rng, primes, max_n)
    omega = random_form(rng, p, n, r, max_degree=2 * int(p))
    rational = omega - irrational_part(omega)
    if not irrational_part(rational).is_zero():
        return lambda: _form_payload("omega", omega)


def _trial_equivalence(rng, t, primes, max_n):
    small = tuple(q for q in primes if int(q) <= 3) or _SMALL_PRIMES
    p = small[_randint(rng, 0, len(small) - 1)]
    n = _randint(rng, 1, min(max_n, 3))
    r = _randint(rng, 1, n)
    kind = t % 3
    if kind == 0:
        omega = random_form(rng, p, n, r, max_degree=3)
    elif kind == 1:
        omega = random_closed_form(rng, p, n, r, max_degree=2)
    else:
        omega = random_exact_form(rng, p, n, r, max_degree=2)
    a = is_p_closed(omega)
    b = exactness_oracle(omega) is not None
    c = omega.is_closed() and irrational_part(omega).is_zero()
    if not (a == b == c):
        return lambda: _form_payload("omega", omega)


def _trial_poincare_roundtrip(rng, t, primes, max_n):
    p, n, r = _pick_config(rng, primes, max_n)
    omega = random_p_closed_form(rng, p, n, r, max_degree=2)
    eta = integrate(omega)
    ok = eta.d() == omega and is_p_closed(random_exact_form(rng, p, n, r))
    if ok:
        bad = random_closed_form(rng, p, n, r, max_degree=2)
        if not is_p_closed(bad):
            try:
                integrate(bad)
                ok = False
            except NotPClosed:
                pass
    if not ok:
        return lambda: _form_payload("omega", omega)


def _trial_cartier_inverse(rng, t, primes, max_n):
    p, n, r = _pick_config(rng, primes, max_n)
    alpha = random_form(rng, p, n, r, max_degree=2)
    omega = random_closed_form(rng, p, n, r, max_degree=2)
    ok = (
        cartier(gamma0(alpha)) == alpha
        and gamma0(cartier(omega)) == irrational_part(omega)
        and cartier(random_exact_form(rng, p, n, r, max_degree=2)).is_zero()
    )
    if not ok:
        return lambda: _form_payload("alpha", alpha)


def _minus_product_o(coeff, index):
    # the alternative convention: product of (1 - P_j), minus the identity
    acc = coeff
    for j in index:
        acc = acc - p_operator(acc, (j,))
    return acc - coeff


def _trial_o_minus_sign(rng, t, primes, max_n):
    odd = tuple(q for q in primes if int(q) > 2) or _ODD_PRIMES
    p = odd[_randint(rng, 0, len(odd) - 1)]
    n = _randint(rng, 1, max_n)
    i = _randint(rng, 1, n)
    if t == 0:
        exps = [0] * n
        exps[i - 1] = int(p) - 1
        f = MultiPoly.monomial(p, n, tuple(exps))
    else:
        f = random_poly(rng, p, n, max_degree=2 * int(p))
    if _minus_product_o(f, (i,)) != p_operator(f, (i,)):
        return lambda: _poly_payload(
            p,
            n,
            (i,),
            f,
            "minus-product gives %s, single-variable operator is %s"
            % (_minus_product_o(f, (i,)), p_operator(f, (i,))),
        )


def _trial_o_eigen(rng, t, primes, max_n):
    p, n, r = _pick_config(rng, primes, max_n)
    f = random_poly(rng, p, n, max_degree=2 * int(p))
    index = random_multi_index(rng, n, r)
    i = index[_randint(rng, 0, len(index) - 1)]
    k = int(p) - 1
    # naive iterated derivative on the outside: an independent route
    lhs = o_operator(f, index).partial_pow(i, k)
    rhs = -(f.partial_pow(i, k))
    if lhs != rhs:
        return lambda: _poly_payload(p, n, index, f, "outer derivative eigenvalue")


def _trial_o_commute(rng, t, primes, max_n):
    # literal statement: commutation for every k, including k in J;
    # the first trial is a deterministic probe with k in J, where the
    # exponent-residue slice moves under differentiation
    if t == 0:
        p, n = 2, 2
        f = MultiPoly.variable(p, n, 1)
        index, k = (1,), 1
    else:
        p, n, r = _pick_config(rng, primes, max_n)
        f = random_poly(rng, p, n, max_degree=2 * int(p))
        index = random_multi_index(rng, n, r)
        k = _randint(rng, 1, n)
    before = o_operator(f.partial(k), index)
    after = o_operator(f, index).partial(k)
    if before != after:
        return lambda: _poly_payload(
            p, n, index, f,
            "f=%s, d/dz%d then O gives %s, O then d/dz%d gives %s"
            % (f, k, before, k, after),
        )


def _trial_o_commute_outside(rng, t, primes, max_n):
    if max_n < 2:
        return None
    p = primes[_randint(rng, 0, len(primes) - 1)]
    n = _randint(rng, 2, max_n)
    r = _randint(rng, 1, n - 1)
    f = random_poly(rng, p, n, max_degree=2 * int(p))
    index = random_multi_index(rng, n, r)
    outside = [k for k in range(1, n + 1) if k not in index]
    k = outside[_randint(rng, 0, len(outside) - 1)]
    if o_operator(f.partial(k), index) != o_operator(f, index).partial(k):
        return lambda: _poly_payload(p, n, index, f, "commutation with d/dz%d" % k)


def _trial_o_idempotent(rng, t, primes, max_n):
    p, n, r = _pick_config(rng, primes, max_n)
    f = random_poly(rng, p, n, max_degree=2 * int(p))
    index = random_multi_index(rng, n, r)
    if o_operator(o_operator(f, index), index) != -o_operator(f, index):
        return lambda: _poly_payload(p, n, index, f, "O_J squared")


def _trial_o_expanded(rng, t, primes, max_n):
    p, n, r = _pick_config(rng, primes, max_n)
    f = random_poly(rng, p, n, max_degree=2 * int(p))
    index = random_multi_index(rng, n, r)
    if o_operator(f, index) != o_operator_expanded(f, index):
        return lambda: _poly_payload(p, n, index, f, "subset expansion")


def _restricted(form):
    return split_complete_restricted(form).restricted


def _trial_or_sign(rng, t, primes, max_n):
    odd = tuple(q for q in primes if int(q) > 2) or _ODD_PRIMES
    p = odd[_randint(rng, 0, len(odd) - 1)]
    n = _randint(rng, 1, max_n)
    r = _randint(rng, 1, n)
    if t == 0:
        exps = [0] * n
        exps[0] = int(p) - 1
        omega = DiffForm(p, n, 1, {(1,): MultiPoly.monomial(p, n, tuple(exps))})
    else:
        omega = random_form(rng, p, n, r, max_degree=2 * int(p))
    restricted = _restricted(omega)
    if _restricted(restricted) != -restricted:
        return lambda: _form_payload("omega", omega)


def _trial_or_idempotent(rng, t, primes, max_n):
    p, n, r = _pick_config(rng, primes, max_n)
    omega = random_form(rng, p, n, r, max_degree=2 * int(p))
    restricted = _restricted(omega)
    if _restricted(restricted) != restricted:
        return lambda: _form_payload("omega", omega)


def _trial_ct_split_closed(rng, t, primes, max_n):
    p, n, r = _pick_config(rng, primes, max_n)
    omega = random_closed_form(rng, p, n, r, max_degree=2)
    split = split_complete_restricted(omega)
    if not (split.complete.is_closed() and split.restricted.is_closed()):
        return lambda: _form_payload("omega", omega)


def _pattern_hit(exps, index, p):
    return any(exps[i - 1] % p == p - 1 for i in index)


def _trial_ct_split_laws(rng, t, primes, max_n):
    p, n, r = _pick_config(rng, primes, max_n)
    pint = int(p)
    omega = random_form(rng, p, n, r, max_degree=2 * pint)
    split = split_complete_restricted(omega)
    ok = split.complete + split.restricted == omega
    ok = ok and _restricted(split.complete).is_zero()
    # independent route: the split must agree with the plain monomial
    # slicing by exponent pattern inside each multi-index
    for index, coeff in split.complete.terms.items():
        ok = ok and not any(
            _pattern_hit(e, index, pint) for e in coeff.terms
        )
    for index, coeff in split.restricted.terms.items():
        ok = ok and all(_pattern_hit(e, index, pint) for e in coeff.terms)
    if not ok:
        return lambda: _form_payload("omega", omega)


def _trial_ct_d_vanishing(rng, t, primes, max_n):
    if t == 0:
        p, n = 2, 2
        x, y = MultiPoly.variable(p, n, 1), MultiPoly.variable(p, n, 2)
        eta = DiffForm(p, n, 1, {(1,): x * y})
    else:
        p, n, _ = _pick_config(rng, primes, max_n)
        if n < 2:
            n = 2
        r = _randint(rng, 1, n - 1)
        eta = random_form(rng, p, n, r, max_degree=2 * int(p))
    domega = eta.d()
    if domega.is_zero():
        return None
    restricted = _restricted(domega)
    if restricted.is_zero():
        return None
    # reconfirm through the literal subset expansion before accepting the
    # counterexample
    confirmed = domega._with_terms(
        {
            index: -o_operator_expanded(coeff, index)
            for index, coeff in domega.terms.items()
        }
    )
    if confirmed == restricted:
        return lambda: {
            **_form_payload("eta", eta),
            "d_eta_text": form_to_text(domega),
            "restricted_text": form_to_text(restricted),
        }


class Claim(NamedTuple):
    id: str
    statement: str
    status: str  # "verified" | "contested"
    note: str
    trial: object


CLAIMS = (
    Claim(
        "lemma-phi-d-constant",
        "phi of a closed form has differential-constant coefficients",
        "verified",
        "",
        _trial_phi_d_constant,
    ),
    Claim(
        "prop-irrational-closed",
        "closed omega: irrational part closed, rational part p-closed, "
        "and the irrational projector kills the rational part",
        "verified",
        "",
        _trial_irrational_closed,
    ),
    Claim(
        "prop-sweedler-r1",
        "closed 1-forms split as an exact form plus a closed irrational part",
        "verified",
        "rational coefficients enter every third trial",
        _trial_sweedler_r1,
    ),
    Claim(
        "prop-properties-i",
        "P_i P_i = -P_i and P_(i,j) = P_i P_j",
        "verified",
        "",
        _trial_p_operator_basic,
    ),
    Claim(
        "prop-properties-ii",
        "P_J annihilates partial_i images and P_i P_J = -P_J for i in J",
        "verified",
        "",
        _trial_p_operator_kernel,
    ),
    Claim(
        "prop-properties-iii",
        "P_J P_J = (-1)^|J| P_J and the irrational projector is idempotent",
        "verified",
        "",
        _trial_p_operator_idempotent,
    ),
    Claim(
        "prop-properties-iv",
        "the irrational projector annihilates every rational part",
        "verified",
        "",
        _trial_p_operator_annihilates,
    ),
    Claim(
        "thm-equivalence",
        "p-closed, bounded-degree exact, and closed with zero irrational "
        "part coincide",
        "verified",
        "oracle claims run over p <= 3",
        _trial_equivalence,
    ),
    Claim(
        "thm-poincare-roundtrip",
        "integrate inverts d on p-closed forms and rejects the rest",
        "verified",
        "",
        _trial_poincare_roundtrip,
    ),
    Claim(
        "thm-cartier-inverse",
        "cartier . gamma0 = id, gamma0 . cartier = irrational part, "
        "cartier . d = 0",
        "verified",
        "",
        _trial_cartier_inverse,
    ),
    Claim(
        "operator-o-def-sign",
        "the product of (1 - P_j) minus identity equals P_i on single "
        "indices",
        "contested",
        "fails for p > 2; the kernel uses the product of (1 + P_j), "
        "which does satisfy O_(i,) = P_i",
        _trial_o_minus_sign,
    ),
    Claim(
        "lemma-propriedades-a",
        "partial_i^(p-1) O_I = -partial_i^(p-1) for i in I",
        "verified",
        "",
        _trial_o_eigen,
    ),
    Claim(
        "lemma-propriedades-b",
        "O_J commutes with every partial derivative",
        "contested",
        "holds only for variables outside J: differentiating in a variable "
        "of J shifts its exponent residue, so the obstruction slice moves "
        "(operator-o-commute-outside checks the version that holds, which "
        "is the one the decomposition argument uses)",
        _trial_o_commute,
    ),
    Claim(
        "operator-o-commute-outside",
        "O_J commutes with partials in variables outside J",
        "verified",
        "",
        _trial_o_commute_outside,
    ),
    Claim(
        "lemma-propriedades-c",
        "O_J O_J = -O_J",
        "verified",
        "",
        _trial_o_idempotent,
    ),
    Claim(
        "lemma-propriedades-d",
        "O_J equals its expansion as a sum of P_S over nonempty subsets",
        "verified",
        "",
        _trial_o_expanded,
    ),
    Claim(
        "operator-or-sign",
        "the restricted projector squares to minus itself",
        "contested",
        "fails for p > 2; the projector is idempotent "
        "(see operator-or-idempotent)",
        _trial_or_sign,
    ),
    Claim(
        "operator-or-idempotent",
        "the restricted projector is idempotent",
        "verified",
        "",
        _trial_or_idempotent,
    ),
    Claim(
        "prop-decomp-a",
        "both parts of the complete/restricted split of a closed form "
        "are closed",
        "verified",
        "",
        _trial_ct_split_closed,
    ),
    Claim(
        "prop-decomp-b",
        "the split reproduces the monomial slicing by exponent pattern, "
        "and the restricted projector kills the complete part",
        "verified",
        "",
        _trial_ct_split_laws,
    ),
    Claim(
        "prop-decomp-c",
        "exterior derivatives have zero restricted part",
        "contested",
        "false: d can create restricted monomials; first probe is the "
        "deterministic counterexample eta = z1*z2 dz1 at p=2, reconfirmed "
        "through the subset expansion",
        _trial_ct_d_vanishing,
    ),
)


def run_audit(
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
    primes=DEFAULT_PRIMES,
    max_n: int = DEFAULT_MAX_N,
) -> dict:
    """Run every claim and return the report as a plain dict.

    Fewer than one trial would run nothing and pass every verified claim,
    so it raises ValueError.
    """
    if trials < 1:
        raise ValueError("trials must be a positive integer, not %d" % trials)
    # one verified Prime each: the samplers and constructors of every
    # trial copy it instead of testing primality again
    primes = tuple(Prime(q) for q in primes)
    claims = []
    regressions = 0
    unconfirmed = 0
    for claim in CLAIMS:
        rng = random.Random("%d:%s" % (seed, claim.id))
        failures, counterexample = 0, None
        for t in range(trials):
            build = claim.trial(rng, t, primes, max_n)
            if build is not None:
                failures += 1
                counterexample = counterexample or build()
        ok = failures == 0 if claim.status == "verified" else failures > 0
        if claim.status == "verified" and failures:
            regressions += 1
        if claim.status == "contested" and not failures:
            unconfirmed += 1
        claims.append(
            {
                "id": claim.id,
                "statement": claim.statement,
                "status": claim.status,
                "trials": trials,
                "failures": failures,
                "ok": ok,
                "counterexample": counterexample,
                "note": claim.note,
            }
        )
    return {
        "format": 1,
        "seed": seed,
        "trials": trials,
        "primes": [int(q) for q in primes],
        "max_n": max_n,
        "claims": claims,
        "regressions": regressions,
        "unconfirmed_contested": unconfirmed,
    }


def report_to_text(report: dict) -> str:
    lines = []
    for claim in report["claims"]:
        if claim["status"] == "verified":
            verdict = "PASS" if claim["ok"] else "REGRESSION"
        else:
            verdict = "CONTESTED-CONFIRMED" if claim["ok"] else "CONTESTED-UNCONFIRMED"
        lines.append(
            "%-26s %-21s trials=%d failures=%d"
            % (claim["id"], verdict, claim["trials"], claim["failures"])
        )
        if claim["status"] == "contested" and claim["counterexample"]:
            ce = claim["counterexample"]
            detail = (
                ce.get("detail")
                or ce.get("eta_text")
                or ce.get("omega_text")
                or ce.get("f")
                or ""
            )
            lines.append("    note: %s" % claim["note"])
            lines.append(
                "    counterexample: p=%d n=%d %s"
                % (ce["p"], ce["n"], detail)
            )
    lines.append(
        "summary: %d claims, %d regressions, %d unconfirmed contested"
        % (len(report["claims"]), report["regressions"], report["unconfirmed_contested"])
    )
    return "\n".join(lines)
