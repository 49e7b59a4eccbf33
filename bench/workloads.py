"""Seeded inputs, item runners and exactness checks for the four workloads.

Inputs come as rounds.  A round holds one item per cell of the workload's
grid, in a seeded order, and round k of a seed is always the same plain
data (exponent lists, expression text or CLI arguments) whatever ran
before it.  A run draws on a pool of the first ``POOL_ROUNDS[workload]``
rounds of its seed and cycles through it, so the items a run attempts,
and the ones that fail, depend on the seed alone, not on how fast the
machine is.  The generators are stdlib only; fpforms sees nothing but the
data of one item at a time, and each item builds its own fpforms objects
inside the timed call, so construction cost is never hidden in set-up.

Every item ends in exact identity checks.  A failed check raises
``Mismatch``, which aborts the run; a typed ``FpFormsError`` makes the
item a failure.

Workloads (why each was chosen):

* ``exact``: p-closed forms d(eta) of dense random eta, integrated and
  verified.  The integrator loop dominates: polynomial construction,
  ``d``, ``p_closed_failure`` and ``p_decompose_step``.  No rational
  functions, parser or printer.
* ``cohomology``: closed, non-exact forms a ^ b with a, b each
  d(eta) + gamma0(alpha), through ``wedge``, both splits and Cartier.
  Polynomial construction, partials and products dominate; ``integrate``
  is never called.
* ``rational``: rational-coefficient forms given as text.  Parsing,
  RatFun normalization and cross-multiplied equality, the
  ``clear_denominators`` path of ``integrate`` and the JSON round trip
  dominate.  The exponent cap makes about 2% of the items, mostly at
  p = 13, raise ``DegreeOverflow``; they count as failed items.
* ``audit``: in-process ``fpforms check`` on consecutive seeds with few
  trials.  Many tiny forms, so validation, ``Prime`` construction, RNG
  draws, the linear-algebra oracle and argparse/JSON dominate.
"""

from __future__ import annotations

import io
import json
import random
from itertools import combinations

WORKLOADS = ("exact", "cohomology", "rational", "audit")

PRIMES = (3, 5, 7, 13)

EXACT_DRAWS = 12  # monomial draws per coefficient of eta (duplicates merge)
COHOMOLOGY_ETA_DRAWS = 2
COHOMOLOGY_ALPHA_DRAWS = 1
RATIONAL_TERMS = 3  # multi-indices per rational form, at most
RATIONAL_DRAWS = 2  # monomial draws per numerator
AUDIT_ROUND = 10  # consecutive check seeds per round
AUDIT_TRIALS = 20

# Rounds in a run's pool: about 16 s of items, untraced, on the machine
# the benchmark was set up on (2 cores, Python 3.11.7), so that a 20 s
# run attempts every item of its pool and the quantiles rest on as many
# distinct items as the time allows.
POOL_ROUNDS = {"exact": 16, "cohomology": 24, "rational": 64, "audit": 26}


class Mismatch(Exception):
    """An exact identity failed: the library returned a wrong result."""


def cells(workload: str):
    """The grid a round covers once: (p, n, r) triples, or audit slots."""
    if workload == "exact":
        return [(p, n, r) for p in PRIMES for n in range(3, 7) for r in range(1, n + 1)]
    if workload == "cohomology":
        return [(p, n, r) for p in PRIMES for n in range(3, 7) for r in range(2, n + 1)]
    if workload == "rational":
        return [(p, n, r) for p in PRIMES for n in range(2, 5) for r in range(1, n + 1)]
    if workload == "audit":
        return list(range(AUDIT_ROUND))
    raise ValueError("unknown workload %r" % (workload,))


def generate_round(workload: str, seed: int, k: int):
    """The items of round k for a seed, as JSON-serializable data."""
    if workload == "audit":
        return [_audit_item(seed + AUDIT_ROUND * k + j) for j in cells(workload)]
    rng = random.Random("fpforms-bench:%s:%d:%d" % (workload, seed, k))
    grid = cells(workload)
    # A seeded order interleaves the cells, so a round has no fixed
    # small-to-large drift.
    rng.shuffle(grid)
    if workload == "rational":
        # Items with two denominators are the slowest tenth, so a chance
        # excess of them would move item_ms_p90 from seed to seed.  Each
        # cell rounds its count of denominators up in every other round,
        # from a seeded phase, so every pair of consecutive rounds holds
        # the same number of them.
        phase = random.Random("fpforms-bench:rational-phase:%d" % seed)
        up = {cell: (k + phase.randint(0, 1)) % 2 for cell in cells(workload)}
        return [_rational_item(rng, p, n, r, up[p, n, r]) for p, n, r in grid]
    make = {"exact": _exact_item, "cohomology": _cohomology_item}[workload]
    return [make(rng, p, n, r) for p, n, r in grid]


# ----------------------------------------------------------------------
# generators (stdlib only)


def _random_poly(rng, p, n, draws, max_exp):
    """Exponent tuple -> residue, from a fixed number of monomial draws."""
    terms = {}
    for _ in range(draws):
        exps = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[exps] = rng.randint(1, p - 1)
    return terms


def _dense_form(rng, p, n, degree, draws, max_exp):
    """Every multi-index of the degree gets a random coefficient."""
    form = []
    for index in combinations(range(1, n + 1), degree):
        terms = _random_poly(rng, p, n, draws, max_exp)
        form.append([list(index), [[list(e), c] for e, c in sorted(terms.items())]])
    return form


def _exact_item(rng, p, n, r):
    eta = _dense_form(rng, p, n, r - 1, EXACT_DRAWS, 2 * p)
    return {"p": p, "n": n, "r": r, "eta": eta}


def _cohomology_item(rng, p, n, r):
    # a has degree 1 and b degree r - 1, each d(eta) + gamma0(alpha).
    # alpha has exponents 0 or 1, so gamma0(alpha) stays below 2p and
    # a ^ b keeps within the default exponent cap of 64 even at p = 13.
    item = {"p": p, "n": n, "r": r}
    for name, degree in (("a", 1), ("b", r - 1)):
        item[name + "_eta"] = _dense_form(
            rng, p, n, degree - 1, COHOMOLOGY_ETA_DRAWS, 2 * p
        )
        item[name + "_alpha"] = _dense_form(
            rng, p, n, degree, COHOMOLOGY_ALPHA_DRAWS, 1
        )
    return item


def _poly_text(terms):
    parts = []
    for exps, c in sorted(terms.items(), reverse=True):
        factors = [] if c == 1 and any(exps) else [str(c)]
        for i, e in enumerate(exps, start=1):
            if e:
                factors.append("z%d" % i if e == 1 else "z%d^%d" % (i, e))
        parts.append("*".join(factors))
    return " + ".join(parts)


def _low_degree_denominator(rng, p, n):
    """z_i + c or z_i*z_j + c: never a p-th power."""
    exps = [0] * n
    for i in rng.sample(range(n), rng.randint(1, 2)):
        exps[i] = 1
    return {tuple(exps): rng.randint(1, p - 1), (0,) * n: rng.randint(1, p - 1)}


def _rational_item(rng, p, n, r, round_up):
    """A rational (r-1)-form as expression text."""
    indices = list(combinations(range(1, n + 1), r - 1))
    picked = sorted(rng.sample(indices, min(len(indices), RATIONAL_TERMS)))
    # Half the coefficients, rounded up if round_up is 1, get a
    # denominator.
    with_den = rng.sample(range(len(picked)), (len(picked) + round_up) // 2)
    terms = []
    monomials = 0
    for position, index in enumerate(picked):
        num = _random_poly(rng, p, n, RATIONAL_DRAWS, 3)
        monomials += len(num)
        coeff = _poly_text(num)
        if position in with_den:
            den = _low_degree_denominator(rng, p, n)
            monomials += len(den)
            coeff += "/" + _poly_text(den)
        basis = "^".join("dz%d" % i for i in index)
        terms.append(("(%s) %s" % (coeff, basis)).strip())
    return {"p": p, "n": n, "r": r, "text": " + ".join(terms), "monomials": monomials}


def _audit_item(check_seed):
    argv = ["check", "--seed", str(check_seed), "--trials", str(AUDIT_TRIALS), "--json"]
    return {"argv": argv}


def _form_monomials(form_data):
    return sum(len(monos) for _index, monos in form_data)


def input_monomials(workload: str, item) -> int:
    """Monomials of an item's input; audit inputs are seeds, so 0."""
    if workload == "exact":
        return _form_monomials(item["eta"])
    if workload == "cohomology":
        keys = ("a_eta", "a_alpha", "b_eta", "b_alpha")
        return sum(_form_monomials(item[k]) for k in keys)
    if workload == "rational":
        return item["monomials"]
    return 0


# ----------------------------------------------------------------------
# items: build the inputs, make the calls a user makes, then check the
# identities the results must meet


def _diff_form(fp, p, n, degree, form_data):
    terms = {
        tuple(index): fp.MultiPoly(p, n, {tuple(exps): c for exps, c in monos})
        for index, monos in form_data
    }
    return fp.DiffForm(p, n, degree, terms)


def _closed_form(fp, item, name, degree):
    p, n = item["p"], item["n"]
    eta = _diff_form(fp, p, n, degree - 1, item[name + "_eta"])
    alpha = _diff_form(fp, p, n, degree, item[name + "_alpha"])
    return eta.d() + fp.gamma0(alpha)


def run_exact(fp, item):
    eta = _diff_form(fp, item["p"], item["n"], item["r"] - 1, item["eta"])
    omega = eta.d()
    if not fp.is_p_closed(omega):
        raise Mismatch("d(eta) is not p-closed")
    theta = fp.integrate(omega)
    if theta.d() != omega:
        raise Mismatch("d(integrate(omega)) != omega")


def run_cohomology(fp, item):
    a = _closed_form(fp, item, "a", 1)
    b = _closed_form(fp, item, "b", item["r"] - 1)
    omega = fp.wedge(a, b)
    ri = fp.split_rational_irrational(omega)
    ct = fp.split_complete_restricted(omega)
    image = fp.cartier(omega)
    if fp.gamma0(image) != ri.irrational:
        raise Mismatch("gamma0(cartier(omega)) != irrational part")
    if ri.rational + ri.irrational != omega:
        raise Mismatch("rational + irrational != omega")
    if not fp.is_p_closed(ri.rational):
        raise Mismatch("rational part is not p-closed")
    if ct.complete + ct.restricted != omega:
        raise Mismatch("complete + restricted != omega")


def run_rational(fp, item):
    eta = fp.parse_form(item["text"], item["p"], item["n"])
    omega = eta.d()
    if not fp.is_p_closed(omega):
        raise Mismatch("d(eta) is not p-closed")
    theta = fp.integrate(omega)
    if theta.d() != omega:
        raise Mismatch("d(integrate(omega)) != omega")
    back = fp.doc_to_form(json.loads(json.dumps(fp.form_to_doc(theta))))
    if back != theta:
        raise Mismatch("document round trip changed the potential")


def run_audit(fp, item):
    """Returns the report text, which must repeat byte for byte."""
    out, err = io.StringIO(), io.StringIO()
    code = fp.cli.run_command(list(item["argv"]), out=out, err=err)
    if code != 0:
        raise Mismatch("check exited %d: %s" % (code, err.getvalue().strip()))
    text = out.getvalue()
    if json.loads(text)["regressions"] != 0:
        raise Mismatch("check reported regressions")
    return text


RUNNERS = {
    "exact": run_exact,
    "cohomology": run_cohomology,
    "rational": run_rational,
    "audit": run_audit,
}
