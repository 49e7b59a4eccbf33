import json
import random
import re
import sys

import pytest

from fpforms import (
    DegreeOverflow,
    DiffForm,
    FpFormsError,
    MultiPoly,
    ParseError,
    PrimeOutOfRange,
    RatFun,
    VariableOutOfRange,
    ZeroDenominator,
    degree_limit,
    parse_form,
    variables,
)
from fpforms.parser import _error, _residue, _tokenize
from frozen_parser import _Parser as _FrozenParser, _tokenize as _frozen_tokenize
from fpforms.printer import form_to_doc, form_to_text
from fpforms.scalar import Prime
from fpforms.sampling import random_form

TRIALS = 150


def test_alias_letters():
    got = parse_form("x^2*y dx + x dy", 3, 2)
    x, y = variables(3, 2)
    assert got == DiffForm(3, 2, 1, {(1,): x * x * y, (2,): x})
    assert parse_form("w dw", 2, 4) == parse_form("z4 dz4", 2, 4)


def test_z_means_z1_in_one_variable():
    assert parse_form("z^2 dz", 3, 1) == parse_form("z1^2 dz1", 3, 1)
    # with two or more variables z stays the third letter
    assert parse_form("z dz", 5, 3) == parse_form("z3 dz3", 5, 3)


def test_wedge_reordering_sign():
    assert form_to_text(parse_form("dz2^dz1", 5, 2)) == "4 dz1^dz2"
    assert form_to_text(parse_form("dx^dx", 3, 2)) == "0"


def test_star_is_optional_and_coefficients_reduce():
    assert parse_form("x y dx", 3, 2) == parse_form("x*y dx", 3, 2)
    assert form_to_text(parse_form("7 dx", 5, 1)) == "2 dz1"
    assert form_to_text(parse_form("0 dx", 3, 2)) == "0"


def test_constants_and_functions():
    assert form_to_text(parse_form("2", 3, 2)) == "2"
    assert form_to_text(parse_form("x*y", 3, 2)) == "z1*z2"


def test_leading_and_binary_minus():
    assert form_to_text(parse_form("- x dx", 3, 2)) == "2*z1 dz1"
    assert parse_form("x dx - y dy", 3, 2) == parse_form("x dx + 2 y dy", 3, 2)


def test_parenthesized_ratio_binds_the_whole_sum():
    got = parse_form("(x + y/y^3) dx", 3, 2)
    same = parse_form("(x/y^3) dx + (y/y^3) dx", 3, 2)
    assert got == same


def test_ratio_requires_parentheses():
    with pytest.raises(ParseError):
        parse_form("x/y^3 dx", 3, 2)


def test_error_positions():
    with pytest.raises(ParseError) as info:
        parse_form("x\n+ q", 3, 2)
    assert info.value.line == 2 and info.value.column == 3
    with pytest.raises(ParseError) as info:
        parse_form("x +", 3, 2)
    assert "end of input" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_form("", 3, 2)
    assert "empty" in str(info.value)


def test_variable_out_of_range():
    with pytest.raises(VariableOutOfRange) as info:
        parse_form("w dw", 3, 3)
    assert "z4" in str(info.value) and "1..3" in str(info.value)
    with pytest.raises(VariableOutOfRange):
        parse_form("z9 dz1", 3, 2)
    with pytest.raises(VariableOutOfRange):
        parse_form("dz0", 3, 2)


def test_malformed_expressions():
    for text in ("x dx^", "(x dx", "x^ dx", "q dx", "x ^^ dx"):
        with pytest.raises(ParseError):
            parse_form(text, 3, 2)


def test_hostile_numerals_and_nesting_are_typed_errors():
    # int() refuses numerals over 4300 digits; coefficients reduce mod p anyway
    assert form_to_text(parse_form("9" * 5000 + " dz", 3, 1)) == "0"
    for p in (3, 7, 2**31 - 1):
        # the repunit (10^5000 - 1) / 9, reduced mod p without int()
        residue = (pow(10, 5000, 9 * p) - 1) // 9 % p
        assert parse_form("1" * 5000 + " dz", p, 1) == parse_form("%d dz" % residue, p, 1)
    for text, column in (("z^", 3), ("(z)^", 5)):
        with pytest.raises(ParseError) as info:
            parse_form(text + "9" * 5000 + " dz", 3, 1)
        assert str(info.value) == (
            "exponent of 5000 digits is too large at line 1, column %d" % column
        )
    # so do variable indices, which are outside 1..n at any such length
    for text in ("z" + "9" * 5000 + " dz", "dz" + "9" * 5000):
        with pytest.raises(VariableOutOfRange) as info:
            parse_form(text, 3, 1)
        assert str(info.value) == (
            "variable index of 5000 digits is outside 1..1 at line 1, column 1"
        )
    nested = "(" * 100 + "z" + ")" * 100 + " dz"
    assert parse_form(nested, 3, 1) == parse_form("z dz", 3, 1)
    for depth in (101, 400):
        text = "(" * depth + "z" + ")" * depth + " dz"
        with pytest.raises(ParseError) as info:
            parse_form(text, 3, 1)
        assert str(info.value) == (
            "parentheses nest deeper than 100 levels at line 1, column 101"
        )
    # digits that are not decimal (superscripts) are not numerals
    for text in ("z\u00b2 dz", "\u00b2 dz"):
        with pytest.raises(ParseError):
            parse_form(text, 3, 1)


def test_composite_characteristic_rejected():
    with pytest.raises(PrimeOutOfRange):
        parse_form("x dx", 4, 2)


def test_text_round_trip_random():
    rng = random.Random(8001)
    for t in range(TRIALS):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        r = rng.randint(0, n)
        f = random_form(rng, p, n, r, rational=(t % 2 == 0))
        assert parse_form(form_to_text(f), p, n) == f


def test_round_trip_is_canonical_text():
    # printing a reparsed canonical string is a fixed point
    rng = random.Random(8002)
    for t in range(60):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        f = random_form(rng, p, n, rng.randint(0, n), rational=(t % 3 == 0))
        text = form_to_text(f)
        assert form_to_text(parse_form(text, p, n)) == text


class _AtomByAtomParser(_FrozenParser):
    """The parser before numbers and powers were folded: every atom is a
    MultiPoly or RatFun, multiplied and summed one at a time.  It reads
    the frozen parser's tokens."""

    def parse_product(self, allow_ratio):
        value = self.parse_atom(allow_ratio)
        while True:
            tok = self.peek()
            if tok.kind == "STAR":
                self.advance()
                value = value * self.parse_atom(allow_ratio)
            elif self._starts_atom(tok):
                value = value * self.parse_atom(allow_ratio)
            else:
                return value

    def parse_polysum(self):
        tok = self.peek()
        sign = 1
        if tok.kind == "MINUS":
            self.advance()
            sign = -1
        elif tok.kind == "PLUS":
            self.advance()
        total = self.parse_product(allow_ratio=False) * sign
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            part = self.parse_product(allow_ratio=False)
            total = total - part if op.kind == "MINUS" else total + part
        return total

    def parse_atom(self, allow_ratio):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return MultiPoly.constant(self.p, self.n, _residue(tok.text, self.p.p))
        if tok.kind == "NAME":
            idx = self._variable_index(tok.text, tok)
            if idx is None:
                self.fail("unknown name %r" % tok.text, tok, ("a variable",))
            self._check_range(idx, tok.text, tok)
            self.advance()
            exp = 1
            if self.peek().kind == "CARET":
                exp = self.exponent()
            exps = [0] * self.n
            exps[idx - 1] = exp
            return MultiPoly.monomial(self.p, self.n, tuple(exps))
        if tok.kind == "LPAREN":
            self.advance()
            num = self.parse_polysum()
            if self.peek().kind == "SLASH":
                if not allow_ratio:
                    self.fail("ratios may not nest", self.peek())
                slash = self.advance()
                den = self.parse_polysum()
                self.expect("RPAREN", "')'")
                try:
                    return RatFun(num, den)
                except ZeroDenominator:
                    self.fail("division by the zero polynomial", slash)
            self.expect("RPAREN", "')'")
            if self.peek().kind == "CARET":
                return num**self.exponent()
            return num
        self.fail(
            "unexpected %s" % (tok.text or "end of input"),
            tok,
            ("a number", "a variable", "'('"),
        )


def _random_expression(rng, n):
    """Expression text in the grammar, with zeros, long numerals, large
    exponents and nested ratios; about one in five is then corrupted."""
    names = ["z%d" % i for i in range(1, n + 1)] + ["x", "y", "w"][: min(n, 2)]
    names.append("z")  # z1 when n = 1, else z3, out of range at n = 2

    def atom(depth):
        roll = rng.random()
        if roll < 0.3:
            return rng.choice(["0", "1", "2", "3", "6", "13", "65", "9" * 30])
        if roll < 0.75 or depth > 2:
            name = rng.choice(names) if rng.random() < 0.98 else "z%d" % (n + 1)
            if rng.random() < 0.6:
                name += "^%d" % rng.choice([0, 1, 1, 2, 2, 3, 5, 13, 20, 33, 40, 65])
            return name
        text = polysum(depth + 1)
        if rng.random() < 0.3:
            text += "/" + polysum(depth + 1)
        text = "(%s)" % text
        if rng.random() < 0.2:
            text += "^%d" % rng.randint(0, 3)
        return text

    def product(depth):
        parts = [atom(depth) for _ in range(rng.randint(1, 3))]
        return "".join(a + rng.choice(["*", " ", "*"]) for a in parts[:-1]) + parts[-1]

    def polysum(depth):
        text = rng.choice(["", "", "-", "+"]) + product(depth)
        for _ in range(rng.randint(0, 2)):
            text += rng.choice([" + ", " - "]) + product(depth)
        return text

    r = rng.randint(0, min(n, 2))
    terms = []
    for _ in range(rng.randint(1, 3)):
        basis = "^".join("dz%d" % i for i in rng.sample(range(1, n + 1), r))
        terms.append(("%s %s" % (product(0), basis)).strip())
    text = rng.choice([" + ", " - "]).join(terms)
    if rng.random() < 0.2:
        k = rng.randrange(len(text) + 1)
        text = text[:k] + rng.choice(["", "*", "^", "(", ")", "/", "+", "q", "dz1"]) + text[k + 1:]
    return text


def _frozen_parse(parser_class):
    return lambda text, p, n: parser_class(_frozen_tokenize(text), Prime(p), n).parse()


def _outcome(parse, text, p, n):
    try:
        form = parse(text, p, n)
    except FpFormsError as err:
        return type(err), str(err)
    return form.r, form_to_text(form), json.dumps(form_to_doc(form))


def test_folded_products_parse_as_atom_by_atom():
    # parse_form against the frozen parser, and both against the one
    # that multiplies atom by atom: the same forms, error types and
    # error texts, positions included
    rng = random.Random(8003)
    kinds = set()
    for _ in range(1500):
        p = rng.choice((2, 3, 5, 13))
        n = rng.randint(1, 3)
        text = _random_expression(rng, n)
        with degree_limit(rng.choice((64, 64, 40, 12))):
            got = _outcome(parse_form, text, p, n)
            assert got == _outcome(_frozen_parse(_FrozenParser), text, p, n), text
            assert got == _outcome(_frozen_parse(_AtomByAtomParser), text, p, n), text
        kinds.add(got[0])
    assert {0, 1, 2, ParseError, VariableOutOfRange, DegreeOverflow} <= kinds


_TERMS = [
    "x dx", "2*x dx", "y^3 dx", "x^5 dx", "x dy", "(1/y) dx", "(x/2) dx",
    "(y/(x + 1)) dy", "(1/(x + y)) dx", "(x^3/(y^2 + x)) dx", "(y^4/x^2) dx",
    "0 dy", "0", "1", "x", "dx^dy", "dy^dx", "dx^dx", "(1/x) dx^dy",
]


def _joined(signed):
    """The text of (sign, term) pairs: the first sign '', '-' or '+' as a
    prefix, each later one '+' or '-' between spaces."""
    (lead, first), *rest = signed
    return lead + first + "".join(" %s %s" % pair for pair in rest)


def _termwise(signed, p, n):
    """(outcome, denominators) of the term-wise reference for the text of
    signed.  Each signed term is parsed alone by the frozen parser; per
    index, terms over the same denominator sum, and the nonzero groups
    add in order of first appearance.  A total that is zero when a term
    of another degree comes takes that term; a nonzero one raises a
    ParseError.  A failure's outcome is its error type alone, and
    denominators lists every term's distinct one."""
    parse = _frozen_parse(_FrozenParser)
    sums, degree, dens = {}, None, []

    def combined():
        terms = {}
        for index, groups in sorted(sums.items()):
            coeff = None
            for den, num in groups:
                if not num.is_zero():
                    part = num if den is None else RatFun(num, den)
                    coeff = part if coeff is None else coeff + part
            if coeff is not None and not coeff.is_zero():
                terms[index] = coeff
        if any(isinstance(c, RatFun) for c in terms.values()):
            terms = {
                index: RatFun(c) if isinstance(c, MultiPoly) else c
                for index, c in terms.items()
            }
        return terms

    try:
        for sign, term in signed:
            form = parse(sign.strip() + term, p, n)
            r = form.r
            if form.is_zero():
                continue
            if r != degree:
                if combined():
                    return ParseError, dens
                sums, degree = {}, r
            ((index, coeff),) = form.terms.items()
            num, den = coeff, None
            if isinstance(coeff, RatFun):
                num, den = coeff.num, coeff.den
                if den not in dens:
                    dens.append(den)
            groups = sums.setdefault(index, [])
            for group in groups:
                if group[0] == den:
                    group[1] = group[1] + num
                    break
            else:
                groups.append([den, num])
        terms = combined()
    except FpFormsError as err:
        return type(err), dens
    form = DiffForm(p, n, degree if terms else r, terms)
    return (form.r, form_to_text(form), json.dumps(form_to_doc(form))), dens


_TALLIES = ("identical", "equal", "newly parsed", "other failure")


def _check_against_both(signed, p, n, limit, tally):
    """parse_form against the frozen parser, which sums term by term with
    form +, and against the term-wise reference, all three under the cap
    limit; tallies how parse_form's outcome compares with the frozen
    parser's, and returns the degree or the error type.  Values are
    compared under the default cap."""
    text = _joined(signed)
    outcomes = []
    with degree_limit(limit):
        for parse in (parse_form, _frozen_parse(_FrozenParser)):
            try:
                form = parse(text, p, n)
                doc = json.dumps(form_to_doc(form))
                outcomes.append((form, (form.r, form_to_text(form), doc)))
            except FpFormsError as err:
                outcomes.append((None, (type(err), str(err))))
        expected, dens = _termwise(signed, p, n)
    (form, got), (frozen, frozen_got) = outcomes
    if frozen is not None:
        assert form == frozen, text
    if got == frozen_got:
        tally["identical"] += 1
    elif frozen is not None:
        # the same value, printed over a smaller denominator
        tally["equal"] += 1
    elif form is not None:
        # a denominator grown past the cap, now met once
        assert frozen_got[0] is DegreeOverflow, text
        tally["newly parsed"] += 1
    else:
        assert frozen_got[0] in (got[0], DegreeOverflow), text
        tally["other failure"] += 1
    assert (got[0] if form is None else got) == expected, text
    # each distinct denominator entered each coefficient's at most once
    bound = sum(den.max_var_degree() for den in dens)
    for coeff in form.terms.values() if form is not None else ():
        if isinstance(coeff, RatFun):
            assert coeff.den.max_var_degree() <= bound, text
    return got[0]


def test_sums_of_many_terms_parse_as_the_frozen_parser():
    # terms summed per index and per denominator: the frozen parser's
    # value wherever it has one, the term-wise reference's text and JSON
    # everywhere, a nonzero total that refuses another degree, and
    # denominators that meet once
    rng = random.Random(8005)
    kinds = set()
    tally = dict.fromkeys(_TALLIES, 0)
    for _ in range(3000):
        p = rng.choice((2, 3, 5))
        signed = [(rng.choice(("", "-", "+")), rng.choice(_TERMS))]
        for _ in range(rng.randint(0, 6)):
            signed.append((rng.choice(("+", "-")), rng.choice(_TERMS)))
        limit = rng.choice((64, 10, 6))
        kinds.add(_check_against_both(signed, p, 2, limit, tally))
    assert {0, 1, 2, ParseError, DegreeOverflow} <= kinds
    # at seed 8005, 27 values print over other denominators, 4 texts parse
    # whose frozen denominators grew past the cap, and 12 fail on both
    # sides with another exponent named, or a ParseError in place of a
    # DegreeOverflow; a constant denominator is 1 on both sides, so no
    # value prints over the constant of whichever term came first
    assert tally == {
        "identical": 2957, "equal": 27, "newly parsed": 4, "other failure": 12
    }


def test_a_denominator_whose_terms_cancel_drops_out():
    # the terms over y^3 sum to 0, so the sum is x alone, a polynomial
    form = parse_form("(1/y) dx + x dx - (1/y) dx", 3, 2)
    assert form_to_text(form) == "z1 dz1" and form.is_polynomial


def test_another_degree_reads_the_combined_total():
    # 1/x and x/x^2 are kept over x^3 and x^6; together they are 0, so
    # the term of degree 2 starts the sum again, while a nonzero total
    # refuses it
    assert form_to_text(parse_form("(1/x) dx - (x/x^2) dx + dx^dy", 3, 2)) == "dz1^dz2"
    with pytest.raises(ParseError, match="term of degree 2 in a degree-1"):
        parse_form("(1/x) dx - (1/x^2) dx + dx^dy", 3, 2)


def test_same_index_terms_sum_without_copying_the_total(monkeypatch):
    # no merge copies the running coefficient or form, so the copies do
    # not grow with the number of terms
    copies = []
    for cls in (MultiPoly, RatFun, DiffForm):
        merge = cls._merge
        monkeypatch.setattr(
            cls, "_merge", lambda *args, merge=merge: copies.append(1) or merge(*args)
        )
    counts = []
    for size in (10, 100, 1000):
        text = " - ".join("%d*x^%d*y dx + x dy" % (k % 4, k % 50) for k in range(size))
        before = len(copies)
        form = parse_form(text, 5, 2)
        counts.append(len(copies) - before)
        assert form == _frozen_parse(_FrozenParser)(text, 5, 2)
    assert counts == [counts[0]] * 3


def test_same_denominator_terms_sum_without_copying_the_total(monkeypatch):
    # rational terms over one denominator, and polynomial terms, add into
    # one numerator dict per denominator; an index's k groups then make
    # k - 1 merges by RatFun +, however many terms they hold
    copies = []
    for cls in (MultiPoly, RatFun, DiffForm):
        merge = cls._merge
        monkeypatch.setattr(
            cls, "_merge", lambda *args, merge=merge: copies.append(1) or merge(*args)
        )
    counts = []
    tally = dict.fromkeys(_TALLIES, 0)
    for size in (10, 100, 1000):
        signed = []
        for k in range(size):
            signed += [
                ("+", "(x^%d*w^%d/y) dx" % (k % 40, k // 40)),
                ("-", "x^%d dy" % (k % 4)),
                ("+", "%d*w^%d dx" % (k % 3, k % 6)),
            ]
        signed[0] = ("", signed[0][1])
        signed += [("+", "(1/x) dx"), ("-", "(x/y) dx"), ("+", "((x + w)/y) dx")]
        text = _joined(signed)
        before = len(copies)
        parse_form(text, 3, 4)
        counts.append(len(copies) - before)
        _check_against_both(signed, 3, 4, 64, tally)
    assert counts == [counts[0]] * 3
    # after (1/x), y^3 divides the frozen parser's running denominator, so
    # form + does not multiply it in again, and both print the same
    assert tally["identical"] == 3


def _token_texts(tokenize, text):
    """The token strings of text, or the text of the error it raises."""
    try:
        return [getattr(t, "text", t) for t in tokenize(text)]
    except ParseError as err:
        return str(err)


def test_the_token_pattern_agrees_with_the_tokenizer_on_every_code_point():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    for pattern, predicate in (
        (r"\s", str.isspace),
        (r"\d", str.isdecimal),
        (r"[^\W_]", str.isalnum),
    ):
        assert "".join(re.findall(pattern, every)) == "".join(filter(predicate, every))
    # a name may not start with what [^\W\d_] takes beyond isalpha, as '²'
    alpha = set(filter(str.isalpha, every))
    odd = set(re.findall(r"[^\W\d_]", every)) - alpha
    assert len(odd) > 1000 and "\u00b2" in odd and odd <= set(filter(str.isalnum, every))
    for c in sorted(odd):
        assert _token_texts(_tokenize, c).startswith("unexpected character")
        for text in (c, "x%s dx" % c, "(x%s) dx" % c):
            assert _token_texts(_tokenize, text) == _token_texts(_frozen_tokenize, text)
    # the frozen tokenizer takes every other such code point alone and
    # after a letter, so one text of each kind holds them all
    chars = sorted(set(filter(str.isspace, every)) | set(filter(str.isalnum, every)))
    for text in (
        " ".join(c for c in chars if c not in odd),
        " ".join("x" + c for c in chars),
    ):
        tokens = _token_texts(_tokenize, text)
        assert isinstance(tokens, list) and tokens == _token_texts(_frozen_tokenize, text)


def test_error_positions_match_the_frozen_tokens():
    # the offset of token k, found only on error, gives the line and
    # column the frozen tokenizer kept for every token
    rng = random.Random(8004)
    spaces = [" ", "  ", "\n", "\t", "\r\n", "\u2028", "\u3000", ""]
    lines = 0
    for _ in range(300):
        text = _random_expression(rng, rng.randint(1, 3))
        text = "".join(
            part + rng.choice(spaces) for part in re.split(r"(?<=[ ^*])", text)
        )
        try:
            frozen = _frozen_tokenize(text)
        except ParseError:
            continue
        assert [t.text for t in frozen] == _tokenize(text)
        lines += frozen[-1].line > 2
        for k, tok in enumerate(frozen):
            err = _error(text, k, "m")
            assert (err.line, err.column) == (tok.line, tok.column), (text, k)
    assert lines > 100
