"""Canonical rendering of forms: expression text and JSON documents.

Text output always re-parses to the same form under the same (p, n):
term order is ascending by multi-index, monomial order inside a
coefficient is descending by exponent vector, residues print in 0..p-1,
and variables always print as z1..zn (input aliases are not preserved).

The JSON layout ("FormDocument") is versioned by a "format" field:

    {"format": 1, "p": 3, "n": 2, "degree": 2,
     "terms": [{"index": [1, 2],
                "coeff": {"num": [{"exps": [0, 0], "c": 2}],
                          "den": [{"exps": [0, 0], "c": 1}]}}]}

Polynomial coefficients carry the constant denominator 1.  A document is
valid when its integer fields are JSON integers (true and false decode to
Python bools, which are ints, hence the type(...) is int checks), residues
lie in 1..p-1, indices are strictly increasing, the term list is sorted by
index, monomial lists are sorted by exponent vector, and denominators are
monic differential constants, as RatFun keeps them (so a constant one is
1); valid documents round-trip byte for byte.
Decoding makes every check the validating constructors would make, the
degree cap included and with their messages, in one pass, and then builds
the form from trusted parts.
"""

from __future__ import annotations

from .errors import ParseError, PrimeOutOfRange, _shown
from .forms import DiffForm, _one_kind
from .poly import MAX_VARIABLES, MultiPoly, _check_degree
from .ratfun import RatFun, _leading_coefficient
from .scalar import Prime

FORMAT_VERSION = 1

_MONOMIAL_KEYS = frozenset(("exps", "c"))


# ----------------------------------------------------------------------
# text


def _coeff_text(coeff, degree: int) -> str:
    if isinstance(coeff, RatFun):
        return "(%s/%s)" % (coeff.num, coeff.den)
    if degree == 0 or len(coeff.terms) == 1:
        return str(coeff)
    return "(%s)" % coeff


def form_to_text(form: DiffForm) -> str:
    if form.is_zero():
        return "0"
    parts = []
    for index, coeff in sorted(form.terms.items()):
        basis = "^".join("dz%d" % i for i in index)
        if index and isinstance(coeff, MultiPoly) and coeff.is_constant():
            c = coeff.constant_value()
            text = str(c) if c != 1 else ""
        else:
            text = _coeff_text(coeff, len(index))
        parts.append(("%s %s" % (text, basis)).strip())
    return " + ".join(parts)


# ----------------------------------------------------------------------
# JSON documents


def _poly_to_monos(f: MultiPoly):
    return [
        {"exps": list(exps), "c": c} for exps, c in sorted(f.terms.items())
    ]


def _monos_to_poly(monos, p: Prime, n: int, where: str) -> MultiPoly:
    if not isinstance(monos, list):
        raise ParseError("%s must be a list of monomials" % where)
    terms = {}
    previous = None
    for mono in monos:
        if not isinstance(mono, dict) or mono.keys() != _MONOMIAL_KEYS:
            raise ParseError("%s entries need exactly 'exps' and 'c'" % where)
        exps, c = mono["exps"], mono["c"]
        if (
            not isinstance(exps, list)
            or len(exps) != n
            or not all(type(e) is int and e >= 0 for e in exps)
        ):
            raise ParseError(
                "%s has a bad exponent vector %s" % (where, _shown(exps))
            )
        if type(c) is not int or not 1 <= c <= p.p - 1:
            raise ParseError("%s has residue %s outside 1..p-1" % (where, _shown(c)))
        key = tuple(exps)
        if previous is not None and key <= previous:
            raise ParseError("%s monomials not sorted strictly" % where)
        previous = key
        terms[key] = c
    _check_degree(terms)
    return MultiPoly._trusted(p, n, terms)


def form_to_doc(form: DiffForm) -> dict:
    """Serialize to the canonical (sorted) document layout.

    >>> from fpforms.parser import parse_form
    >>> doc = form_to_doc(parse_form("x dy", 5, 2))
    >>> doc["p"], doc["n"], doc["degree"]
    (5, 2, 1)
    >>> print(doc_to_form(doc))
    z1 dz2
    """
    one = [{"exps": [0] * form.n, "c": 1}]
    terms = []
    for index, coeff in sorted(form.terms.items()):
        if isinstance(coeff, RatFun):
            num, den = _poly_to_monos(coeff.num), _poly_to_monos(coeff.den)
        else:
            num, den = _poly_to_monos(coeff), one
        terms.append({"index": list(index), "coeff": {"num": num, "den": den}})
    return {
        "format": FORMAT_VERSION,
        "p": form.p.p,
        "n": form.n,
        "degree": form.r,
        "terms": terms,
    }


def doc_to_form(doc: dict) -> DiffForm:
    """Validate and decode a document; raises ParseError on bad layout."""
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    missing = {"format", "p", "n", "degree", "terms"} - set(doc)
    if missing:
        raise ParseError("document lacks fields %s" % sorted(missing))
    if doc["format"] != FORMAT_VERSION:
        raise ParseError("unsupported document format %s" % _shown(doc["format"]))
    try:
        p = Prime(doc["p"])
    except PrimeOutOfRange as exc:
        raise ParseError("document p: %s" % exc) from exc
    n = doc["n"]
    if type(n) is not int or not 1 <= n <= MAX_VARIABLES:
        raise ParseError("bad variable count %s" % _shown(n))
    r = doc["degree"]
    if type(r) is not int or r < 0:
        raise ParseError("bad degree %s" % _shown(r))
    if not isinstance(doc["terms"], list):
        raise ParseError("terms must be a list")
    terms = {}
    rational = False
    previous = None
    for entry in doc["terms"]:
        if not isinstance(entry, dict) or set(entry) != {"index", "coeff"}:
            raise ParseError("term entries need exactly 'index' and 'coeff'")
        index = entry["index"]
        if (
            not isinstance(index, list)
            or len(index) != r
            or not all(type(i) is int for i in index)
        ):
            raise ParseError(
                "bad index %s for a degree-%s form" % (_shown(index), _shown(r))
            )
        key = tuple(index)
        if any(not 1 <= i <= n for i in key):
            raise ParseError("index %s outside 1..%d" % (_shown(index), n))
        if any(a >= b for a, b in zip(key, key[1:])):
            raise ParseError("index %s is not strictly increasing" % _shown(index))
        if previous is not None and key <= previous:
            raise ParseError("terms not sorted by index")
        previous = key
        coeff = entry["coeff"]
        if not isinstance(coeff, dict) or set(coeff) != {"num", "den"}:
            raise ParseError("coefficients need exactly 'num' and 'den'")
        num = _monos_to_poly(coeff["num"], p, n, "numerator")
        den = _monos_to_poly(coeff["den"], p, n, "denominator")
        if den.is_zero():
            raise ParseError("zero denominator")
        if _leading_coefficient(den) != 1 or not den.is_differential_constant():
            raise ParseError("denominator %s is not in normal form" % den)
        if num.is_zero():
            raise ParseError("documents may not carry zero coefficients")
        if den.is_constant():
            terms[key] = num
        else:
            terms[key] = RatFun._trusted(num, den)
            rational = True
    return DiffForm._trusted(p, n, r, _one_kind(terms, rational))
