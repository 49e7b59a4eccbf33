import copy
import json
import random

import pytest

from fpforms import ParseError, doc_to_form, form_to_doc, form_to_text, parse_form
from fpforms.printer import FORMAT_VERSION
from fpforms.sampling import random_form

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
    doc = sample_doc()
    mutate(doc)
    return doc


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("degree"),
        lambda d: d.update(format=2),
        lambda d: d.update(p=4),
        lambda d: d.update(p="3"),
        lambda d: d.update(degree=3),
        lambda d: d.update(n=0),
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
        lambda d: d["terms"][0]["coeff"].pop("den"),
        lambda d: d["terms"][0]["coeff"]["num"][0].update(extra=1),
        lambda d: d["terms"][0].update(extra=1),
        # JSON booleans are ints to Python; each would decode as 0 or 1
        lambda d: d["terms"][0]["coeff"]["num"][0].update(exps=[False, True]),
        lambda d: d["terms"][1]["coeff"]["num"][0].update(c=True),
        lambda d: d["terms"][0].update(index=[True]),
        lambda d: d.update(n=True, terms=[]),
        lambda d: d.update(degree=True),
    ],
    ids=[
        "missing-degree",
        "wrong-format",
        "composite-p",
        "stringly-p",
        "degree-out-of-range",
        "bad-arity",
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
        "missing-den",
        "extra-monomial-key",
        "extra-term-key",
        "bool-exponent",
        "bool-residue",
        "bool-index",
        "bool-n",
        "bool-degree",
    ],
)
def test_strict_validation_rejects(mutate):
    with pytest.raises(ParseError):
        doc_to_form(broken(mutate))


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
