"""Recursive-descent parser for differential-form expressions.

Grammar (whitespace-insensitive, '*' optional between factors):

    form   := ['-'] term (('+' | '-') term)*
    term   := coeff basis | coeff | basis
    basis  := dvar ('^' dvar)*
    dvar   := 'd' var
    coeff  := atom (['*'] atom)*
    atom   := number | var ['^' number] | '(' poly ['/' poly] ')' ['^' number]
    poly   := ['-'] prod (('+' | '-') prod)*      -- no ratios inside
    prod   := atom (['*'] atom)*
    var    := 'z'<digits> | 'x' | 'y' | 'z' | 'w'

The aliases x, y, z, w denote z1..z4, except that in a single-variable
ambient space the customary name z denotes z1.  A slash may appear once,
at the top level of a parenthesized coefficient, and splits it into
numerator and denominator: "(a + b/c)" means (a + b)/c.

All numerals are reduced mod p, at any length; exponents stay plain
integers.  Parentheses nest at most 100 levels deep.  Errors carry
1-based line and column positions plus the expected token kinds.

The tokens are the plain strings that one compiled pattern finds, with
'' for the end of input, and the parser reads them by index.  No token
keeps a position: a ParseError finds the offset of its token by
scanning the text again, and turns it into a line and a column.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import ParseError, VariableOutOfRange, ZeroDenominator
from .forms import DiffForm, _one_kind, merge_indices
from .poly import MultiPoly, _check_arity, _degree_overflow, _nonzero, max_degree_limit
from .ratfun import RatFun
from .scalar import Prime

_ALIASES = {"x": 1, "y": 2, "z": 3, "w": 4}

# three frames of recursion per level stay far below Python's limit
_MAX_NESTING = 100

# a numeral, a name, a symbol, or any other visible character, which no
# text may hold; whitespace between tokens is skipped
_TOKEN = re.compile(r"\d+|[^\W\d_][^\W_]*|[-+*/^()]|\S")


def _residue(digits, p):
    """The numeral digits mod p; int() refuses more than 4300 digits."""
    value = 0
    for start in range(0, len(digits), 600):
        chunk = digits[start:start + 600]
        value = (value * 10 ** len(chunk) + int(chunk)) % p
    return value


def _error(text, k, message, expected=(), error=ParseError):
    """error(message) at token k of text, found by tokenizing again."""
    offset = len(text)  # the end of input, past the last token
    for match in islice(_TOKEN.finditer(text), k, None):
        offset = match.start()
        break
    line = text.count("\n", 0, offset) + 1
    return error(message, line, offset - text.rfind("\n", 0, offset), expected)


def _tokenize(text):
    """The token strings of text, then two '' for the end of input.

    The parser never moves past the first '', so it can look one token
    ahead without a clamp.  A character that starts no token, and the
    '(' that nests deeper than _MAX_NESTING levels, raise here, the
    first of them in the text.  The pattern's last branch takes the
    first kind, and its name branch a word character that is neither a
    letter nor a digit, such as '²', which may continue a name but not
    start one.
    """
    tokens = _TOKEN.findall(text)
    bad = [
        t for t in set(tokens)
        if not (t[0].isalpha() or t[0].isdecimal() or t in "+-*/^()")
    ]
    end = min(map(tokens.index, bad)) if bad else len(tokens)
    if tokens.count("(") > _MAX_NESTING:
        depth = 0
        for k in range(end):
            depth += (tokens[k] == "(") - (tokens[k] == ")")
            if depth > _MAX_NESTING:
                message = "parentheses nest deeper than %d levels" % _MAX_NESTING
                raise _error(text, k, message)
    if bad:
        raise _error(text, end, "unexpected character %r" % tokens[end][0])
    tokens += ("", "")
    return tokens


class _Parser:
    def __init__(self, text, p: Prime, n: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.p = p
        self.n = n

    # ------------------------------------------------------------------

    def fail(self, message, k, expected=(), error=ParseError):
        """Raise error(message) at token k."""
        raise _error(self.text, k, message, expected, error)

    def unexpected(self, k, *expected):
        self.fail("unexpected %s" % (self.tokens[k] or "end of input"), k, expected)

    def exponent(self):
        """Consume a caret and the exponent numeral after it."""
        k = self.pos + 1
        digits = self.tokens[k]
        if not digits.isdecimal():
            self.unexpected(k, "an exponent")
        self.pos = k + 1
        try:
            return int(digits)
        except ValueError:
            self.fail("exponent of %d digits is too large" % len(digits), k)

    def close(self):
        """Consume the ')' of a parenthesized atom."""
        if self.tokens[self.pos] != ")":
            self.unexpected(self.pos, "')'")
        self.pos += 1

    # ------------------------------------------------------------------
    # name classification

    def _variable_index(self, name, k):
        """1-based index for a variable name, or None if not a variable."""
        if name in _ALIASES:
            if name == "z" and self.n == 1:
                return 1
            return _ALIASES[name]
        if name[0] == "z" and name[1:].isdecimal():
            try:
                return int(name[1:])
            except ValueError:
                raise _error(
                    self.text,
                    k,
                    "variable index of %d digits is outside 1..%d"
                    % (len(name) - 1, self.n),
                    error=VariableOutOfRange,
                ) from None
        return None

    def _check_range(self, idx, name, k):
        if not 1 <= idx <= self.n:
            self.fail(
                "variable %s denotes z%d, outside 1..%d" % (name, idx, self.n),
                k,
                error=VariableOutOfRange,
            )
        return idx

    def _differential_index(self, k):
        """Index of a differential token like dz2 or dx; None otherwise."""
        name = self.tokens[k]
        if len(name) < 2 or name[0] != "d":
            return None
        return self._variable_index(name[1:], k)

    def _starts_atom(self, k):
        tok = self.tokens[k]
        if tok[:1].isalpha():
            return self._differential_index(k) is None
        return tok == "(" or tok.isdecimal()

    # ------------------------------------------------------------------
    # grammar

    def parse(self) -> DiffForm:
        """form := ['-'] term (('+' | '-') term)*, summed per index.

        Each index keeps a list of (denominator, numerator dict) groups,
        None the denominator of polynomial terms.  A term adds in place
        into the group whose denominator equals its own, and one over a
        new denominator starts a group with a copy of its numerator.  At
        the end, each index adds its nonzero groups once, with +, in order
        of first appearance, so each distinct denominator enters the
        index's denominator once.  A total that is zero when a term of
        another degree comes takes that term, of any kind; a zero result
        has the last term's degree."""
        tokens = self.tokens
        if not tokens[0]:
            self.fail("empty expression", 0, ("a term",))
        p = self.p.p
        sums, degree = {}, None
        op = 0
        while True:
            if tokens[op] in ("+", "-"):
                self.pos = op + 1
            elif op:
                break
            r, index, coeff = self.parse_term(-1 if tokens[op] == "-" else 1)
            if not coeff.is_zero():
                if r != degree:
                    if sums and self._combine(sums):
                        message = "term of degree %d in a degree-%d expression"
                        self.fail(message % (r, degree), op)
                    sums, degree = {}, r
                num, den = coeff, None
                if type(coeff) is RatFun:
                    num, den = coeff.num, coeff.den
                groups = sums.setdefault(index, [])
                for over, acc in groups:
                    if over == den:
                        get = acc.get
                        for e, c in num.terms.items():
                            acc[e] = (get(e, 0) + c) % p
                        break
                else:
                    groups.append((den, dict(num.terms)))
            op = self.pos
        if tokens[op]:
            self.fail("trailing input %r" % tokens[op], op, ("+", "-", "end of input"))
        terms = self._combine(sums)
        return DiffForm._trusted(self.p, self.n, degree if terms else r, terms)

    def _combine(self, sums):
        """The nonzero coefficients of sums, index -> groups, by index: a
        form's terms, all RatFun if any is."""
        terms = {}
        for index, groups in sorted(sums.items()):
            coeff = None
            for den, acc in groups:
                num = MultiPoly._trusted(self.p, self.n, _nonzero(acc))
                if num.terms:
                    part = num if den is None else RatFun._trusted(num, den)
                    coeff = part if coeff is None else coeff + part
            if coeff is not None and not coeff.is_zero():
                terms[index] = coeff
        return _one_kind(terms, any(type(c) is RatFun for c in terms.values()))

    def parse_term(self, sign):
        """(degree, index, coefficient) of one term, its index sorted and
        the coefficient signed; the coefficient may be zero."""
        coeff = None
        if self._starts_atom(self.pos):
            coeff = self.parse_product(allow_ratio=True)
        indices = ()
        if self._differential_index(self.pos) is not None:
            indices = self.parse_basis()
        elif coeff is None:
            self.unexpected(self.pos, "a coefficient", "a differential")
        if coeff is None:
            coeff = MultiPoly.constant(self.p, self.n, 1)
        # sort the checked differentials one at a time: dz_index ^ dz_j
        index = ()
        for j in indices:
            step, index = merge_indices(index, (j,))
            sign *= step
            if not step:
                break
        return len(indices), index, coeff * sign

    def parse_basis(self):
        tokens = self.tokens
        indices = []
        k = self.pos
        idx = self._differential_index(k)
        while True:
            self._check_range(idx, tokens[k][1:], k)
            indices.append(idx)
            k += 1
            if tokens[k] != "^":
                break
            idx = self._differential_index(k + 1)
            if idx is None:
                self.fail("expected a differential after '^'", k + 1, ("dz<k>",))
            k += 1
        self.pos = k
        return tuple(indices)

    def parse_product(self, allow_ratio):
        """atom (['*'] atom)*, with the leading numbers and powers folded.

        Number and z_i^k atoms before the first parenthesized one make
        one coefficient and one exponent vector; from that atom on, the
        product is built left to right by MultiPoly and RatFun
        arithmetic.  The errors are those of multiplying atom by atom: an
        atom above the cap raises where it stands, and a grown exponent
        only while the coefficient is nonzero, as a zero product has no
        monomial to carry it.
        """
        tokens = self.tokens
        p = self.p.p
        limit = max_degree_limit()
        coeff, exps = 1, [0] * self.n
        folded = False
        value = None
        while True:
            tok = tokens[self.pos]
            if value is not None:
                value = value * self.parse_atom(allow_ratio)
            elif tok.isdecimal():
                self.pos += 1
                coeff = coeff * _residue(tok, p) % p
                folded = True
            elif tok[:1].isalpha():
                i, k = self.parse_power()
                if k > limit:
                    raise _degree_overflow(k, i, limit)
                e = exps[i - 1] + k
                if coeff and e > limit:
                    raise _degree_overflow(e, i, limit)
                exps[i - 1] = e
                folded = True
            else:
                value = self.parse_atom(allow_ratio)
                if folded:
                    value = self._monomial(coeff, exps) * value
            if tokens[self.pos] == "*":
                self.pos += 1
            elif not self._starts_atom(self.pos):
                return self._monomial(coeff, exps) if value is None else value

    def _monomial(self, coeff, exps) -> MultiPoly:
        terms = {tuple(exps): coeff} if coeff else {}
        return MultiPoly._trusted(self.p, self.n, terms)

    def parse_polysum(self):
        """['-'] prod (('+' | '-') prod)*, summed in one exponent -> int dict.

        Each sum is kept reduced mod p as it is updated, as in d and
        wedge, and poly._nonzero drops the ones that cancelled.
        """
        tokens = self.tokens
        sign = 1
        if tokens[self.pos] == "-":
            self.pos += 1
            sign = -1
        elif tokens[self.pos] == "+":
            self.pos += 1
        p = self.p.p
        sums = {}
        get = sums.get
        while True:
            for e, c in self.parse_product(allow_ratio=False).terms.items():
                sums[e] = (get(e, 0) + sign * c) % p
            if tokens[self.pos] == "+":
                sign = 1
            elif tokens[self.pos] == "-":
                sign = -1
            else:
                break
            self.pos += 1
        return MultiPoly._trusted(self.p, self.n, _nonzero(sums))

    def parse_power(self):
        """Consume a variable and its optional exponent: (index, exponent)."""
        k = self.pos
        name = self.tokens[k]
        idx = self._variable_index(name, k)
        if idx is None:
            self.fail("unknown name %r" % name, k, ("a variable",))
        self._check_range(idx, name, k)
        self.pos = k + 1
        if self.tokens[k + 1] == "^":
            return idx, self.exponent()
        return idx, 1

    def parse_atom(self, allow_ratio):
        k = self.pos
        tok = self.tokens[k]
        if tok.isdecimal():
            self.pos = k + 1
            return MultiPoly.constant(self.p, self.n, _residue(tok, self.p.p))
        if tok[:1].isalpha():
            idx, exp = self.parse_power()
            exps = [0] * self.n
            exps[idx - 1] = exp
            return MultiPoly.monomial(self.p, self.n, tuple(exps))
        if tok == "(":
            self.pos = k + 1
            num = self.parse_polysum()
            slash = self.pos
            if self.tokens[slash] == "/":
                if not allow_ratio:
                    self.fail("ratios may not nest", slash)
                self.pos = slash + 1
                den = self.parse_polysum()
                self.close()
                try:
                    return RatFun(num, den)
                except ZeroDenominator:
                    self.fail("division by the zero polynomial", slash)
            self.close()
            if self.tokens[self.pos] == "^":
                return num**self.exponent()
            return num
        self.unexpected(k, "a number", "a variable", "'('")


def parse_form(text: str, p, n: int) -> DiffForm:
    """Parse expression text into a form over F_p in variables z1..zn.

    >>> print(parse_form("x^2*y dx + x dy", 3, 2))
    z1^2*z2 dz1 + z1 dz2
    >>> print(parse_form("dz2^dz1", 5, 2))
    4 dz1^dz2
    """
    p = Prime(p)
    _check_arity(n)
    return _Parser(text, p, n).parse()
