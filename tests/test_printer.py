import copy
import json
import random

import pytest

from fpforms import (
    MAX_VARIABLES,
    ArityMismatch,
    DegreeMismatch,
    DegreeOverflow,
    DiffForm,
    IndexOutOfRange,
    MultiPoly,
    ParseError,
    RatFun,
    degree_limit,
    doc_to_form,
    form_to_doc,
    form_to_text,
    parse_form,
)
from fpforms.printer import FORMAT_VERSION
from fpforms.sampling import random_form

HUGE = 10**5000  # str() refuses it: more than 4300 digits

TRIALS = 120


def sample_doc():
    return form_to_doc(parse_form("(x^2 + y/y^3) dx + 2 dy", 3, 2))


def test_document_layout():
    doc = sample_doc()
    assert doc["format"] == FORMAT_VERSION == 1
    assert (doc["p"], doc["n"], doc["degree"]) == (3, 2, 1)
    assert [t["index"] for t in doc["terms"]] == [[1], [2]]
    constant = doc["terms"][1]["coeff"]
    assert constant["num"] == [{"exps": [0, 0], "c": 2}]
    assert constant["den"] == [{"exps": [0, 0], "c": 1}]


def test_document_round_trip_is_bit_exact():
    rng = random.Random(9001)
    for t in range(TRIALS):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        r = rng.randint(0, n)
        f = random_form(rng, p, n, r, rational=(t % 2 == 0))
        doc = form_to_doc(f)
        assert doc_to_form(doc) == f
        # and the document survives JSON text unharmed
        again = form_to_doc(doc_to_form(json.loads(json.dumps(doc))))
        assert again == doc


def broken(mutate):
    """The sample document, changed in place by mutate, or the value that
    mutate returns in its place."""
    doc = sample_doc()
    replaced = mutate(doc)
    return doc if replaced is None else replaced


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.__delitem__("degree"),
        lambda d: d.update(format=2),
        lambda d: d.update(p=4),
        lambda d: d.update(p="3"),
        lambda d: d.update(degree=3),
        lambda d: d.update(n=0),
        lambda d: d.update(n=MAX_VARIABLES + 1),
        lambda d: d["terms"].reverse(),
        lambda d: d["terms"][0].update(index=[2, 1]),
        lambda d: d["terms"][0].update(index=[1, 1]),
        lambda d: d["terms"][0].update(index=[0]),
        lambda d: d["terms"][0]["coeff"]["num"].reverse(),
        lambda d: d["terms"][0]["coeff"]["num"][0].update(c=0),
        lambda d: d["terms"][0]["coeff"]["num"][0].update(c=3),
        lambda d: d["terms"][0]["coeff"]["num"][0].update(exps=[1]),
        lambda d: d["terms"][0]["coeff"]["num"][0].update(exps=[-1, 0]),
        lambda d: d["terms"][0]["coeff"].update(den=[]),
        lambda d: d["terms"][0]["coeff"].update(
            den=[{"exps": [1, 0], "c": 1}]  # not a differential constant
        ),
        lambda d: d["terms"][0]["coeff"].update(
            den=[{"exps": [0, 0], "c": 2}]  # a constant other than 1
        ),
        lambda d: [d],
        lambda d: d.update(terms={}),
        lambda d: d["terms"][0]["coeff"].update(num={"exps": [0, 0], "c": 1}),
        lambda d: d.update(
            degree=2, terms=[{"index": [2, 1], "coeff": d["terms"][0]["coeff"]}]
        ),
        lambda d: d["terms"][0]["coeff"].__delitem__("den"),
        lambda d: d["terms"][0]["coeff"]["num"][0].update(extra=1),
        lambda d: d["terms"][0].update(extra=1),
        # JSON booleans are ints to Python; each would decode as 0 or 1
        lambda d: d["terms"][0]["coeff"]["num"][0].update(exps=[False, True]),
        lambda d: d["terms"][1]["coeff"]["num"][0].update(c=True),
        lambda d: d["terms"][0].update(index=[True]),
        lambda d: d.update(n=True, terms=[]),
        lambda d: d.update(degree=True),
        # each would be printed by its message
        lambda d: d.update(format=HUGE),
        lambda d: d.update(p=HUGE),
        lambda d: d.update(p=[HUGE]),
        lambda d: d.update(n=HUGE),
        lambda d: d.update(n=-HUGE),
        lambda d: d.update(degree=-HUGE),
        lambda d: d.update(degree=HUGE),
        lambda d: d["terms"][0].update(index=[HUGE]),
        lambda d: d["terms"][0]["coeff"]["num"][0].update(c=HUGE),
        lambda d: d["terms"][0]["coeff"]["num"][0].update(exps=[-HUGE, 0]),
        lambda d: d["terms"][0]["coeff"]["num"][0].update(exps=[HUGE]),
    ],
    ids=[
        "missing-degree",
        "wrong-format",
        "composite-p",
        "stringly-p",
        "degree-out-of-range",
        "bad-arity",
        "arity-above-bound",
        "unsorted-terms",
        "unsorted-index",
        "repeated-index",
        "index-below-range",
        "unsorted-monomials",
        "zero-residue",
        "residue-above-range",
        "short-exps",
        "negative-exponent",
        "empty-den",
        "non-constant-den",
        "constant-den-of-2",
        "array-document",
        "object-terms",
        "object-numerator",
        "decreasing-index",
        "missing-den",
        "extra-monomial-key",
        "extra-term-key",
        "bool-exponent",
        "bool-residue",
        "bool-index",
        "bool-n",
        "bool-degree",
        "huge-format",
        "huge-p",
        "huge-p-in-a-list",
        "huge-n",
        "huge-negative-n",
        "huge-negative-degree",
        "huge-degree",
        "huge-index",
        "huge-residue",
        "huge-negative-exponent",
        "huge-short-exps",
    ],
)
def test_strict_validation_rejects(mutate):
    with pytest.raises(ParseError):
        doc_to_form(broken(mutate))


def test_a_constant_denominator_other_than_one_is_not_in_normal_form():
    # RatFun keeps num/c as (c^-1 num)/1, so a document over 2 has no
    # form to round-trip to
    doc = sample_doc()
    doc["terms"][0]["coeff"]["den"] = [{"exps": [0, 0], "c": 2}]
    with pytest.raises(ParseError, match="^denominator 2 is not in normal form"):
        doc_to_form(doc)
    doc["terms"][0]["coeff"]["den"] = [{"exps": [0, 0], "c": 1}]
    assert form_to_doc(doc_to_form(doc)) == doc


def test_a_denominator_that_is_not_monic_is_not_in_normal_form():
    # RatFun scales num/den so that den's first printed coefficient is 1,
    # so a document over 2*z2^3 + 2 has no form to round-trip to
    doc = form_to_doc(parse_form("(x/(y^3 + 1)) dy", 3, 2))
    assert doc["terms"][0]["coeff"]["den"] == [
        {"exps": [0, 0], "c": 1},
        {"exps": [0, 3], "c": 1},
    ]
    assert form_to_doc(doc_to_form(doc)) == doc
    doc["terms"][0]["coeff"]["den"] = [
        {"exps": [0, 0], "c": 2},
        {"exps": [0, 3], "c": 2},
    ]
    with pytest.raises(
        ParseError, match=r"^denominator 2\*z2\^3 \+ 2 is not in normal form"
    ):
        doc_to_form(doc)


def _parts(c):
    return (c.num, c.den) if isinstance(c, RatFun) else (c,)


def term_list(form):
    """(index, kind, monomial lists) per term, in the form's own order."""
    return [
        (index, type(c), [list(f.terms.items()) for f in _parts(c)])
        for index, c in form.terms.items()
    ]


def validating_rebuild(form):
    """The form rebuilt from its parts through MultiPoly, RatFun and DiffForm."""

    def rebuild(c):
        polys = [MultiPoly(f.p.p, f.n, dict(f.terms)) for f in _parts(c)]
        return RatFun(*polys) if isinstance(c, RatFun) else polys[0]

    terms = {i: rebuild(c) for i, c in form.terms.items()}
    return DiffForm(form.p.p, form.n, form.r, terms)


def test_decoded_forms_equal_their_validating_rebuild():
    rng = random.Random(9002)
    texts = [
        # one rational coefficient makes the decoded form rational throughout
        ("(x^2 + y/y^3) dx + 2 dy", 3, 2),
        ("x dx + (1/(x^3*y^3 + 1)) dy + ((x^2 + y)/y^6) dz", 3, 3),
        ("z1^4 dz1^dz2 + (z2/z3^2) dz1^dz3 + 3 dz2^dz3", 2, 3),
        ("(x*y + 1) dx + y^4 dy", 5, 2),
    ]
    forms = [parse_form(*t) for t in texts]
    for t in range(TRIALS):
        p = rng.choice((2, 3, 5, 13))
        n = rng.randint(1, 3)
        forms.append(random_form(rng, p, n, rng.randint(0, n), rational=t % 2 == 0))
    for form in forms:
        doc = form_to_doc(form)
        decoded = doc_to_form(copy.deepcopy(doc))
        assert decoded == form
        assert term_list(decoded) == term_list(validating_rebuild(decoded))
        assert form_to_doc(decoded) == doc
    mixed = doc_to_form(form_to_doc(forms[0]))
    assert all(isinstance(c, RatFun) for c in mixed.terms.values())


def test_decoded_exponent_above_the_cap_gives_the_constructor_line():
    doc = form_to_doc(parse_form("(x^7*y + y^2) dx", 3, 2))
    with degree_limit(4):
        with pytest.raises(DegreeOverflow) as expected:
            MultiPoly(3, 2, {(7, 1): 1})
        with pytest.raises(DegreeOverflow) as decoded:
            doc_to_form(doc)
    assert str(decoded.value) == str(expected.value)
    assert str(decoded.value) == "exponent 7 of z1 exceeds the degree limit 4"
    doc["terms"][0]["coeff"]["num"][-1]["exps"] = [HUGE, 0]
    with pytest.raises(DegreeOverflow) as decoded:
        doc_to_form(doc)
    assert str(decoded.value) == (
        "exponent <5001-digit int> of z1 exceeds the degree limit 64"
    )


def test_validating_constructors_refuse_bools():
    # a bool would be written as true or false, which doc_to_form refuses
    poly = MultiPoly(3, 2, {(1, 0): 1})
    refused = [
        (ValueError, lambda: MultiPoly(3, 2, {(True, 0): 1})),
        (ValueError, lambda: MultiPoly(3, 2, {(0, False): 1})),
        (ArityMismatch, lambda: MultiPoly(3, True)),
        (DegreeMismatch, lambda: DiffForm(3, 2, True, {(True,): poly})),
        (DegreeMismatch, lambda: DiffForm(3, 2, False)),
        (IndexOutOfRange, lambda: DiffForm(3, 2, 1, {(True,): poly})),
        (ArityMismatch, lambda: DiffForm(3, True, 0)),
        (ArityMismatch, lambda: parse_form("z dz", 3, True)),
        (ArityMismatch, lambda: random_form(random.Random(1), 3, True, True)),
        (DegreeMismatch, lambda: random_form(random.Random(1), 3, 2, True)),
    ]
    for error, build in refused:
        with pytest.raises(error):
            build()


def test_validation_leaves_good_documents_alone():
    doc = sample_doc()
    assert form_to_doc(doc_to_form(copy.deepcopy(doc))) == doc


def test_print_form_modes():
    # the two renderings the CLI prints: canonical text, and under --json
    # the indented document, which decodes back to the same form
    f = parse_form("x dx", 3, 2)
    assert form_to_text(f) == "z1 dz1"
    text = json.dumps(form_to_doc(f), indent=2)
    assert doc_to_form(json.loads(text)) == f
