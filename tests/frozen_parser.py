"""The parser as it stood before tokens became plain strings: a frozen
test oracle.

_tokenize builds a _Token, with its line and column, for every token, in
a loop over the characters, and _Parser reads those tokens.  The tests
compare fpforms.parser with this copy, outcome for outcome: the same
forms, the same error types and the same error texts, positions
included.  Do not edit it to follow the library.

The helpers it once imported from fpforms.parser and fpforms.forms, the
index sort and the numeral reduction, are copied in as they stood, so
the oracle stays put when the library moves.
"""

from fpforms.errors import ParseError, VariableOutOfRange, ZeroDenominator
from fpforms.forms import DiffForm
from fpforms.poly import MultiPoly, _degree_overflow, _nonzero, max_degree_limit
from fpforms.ratfun import RatFun
from fpforms.scalar import Prime

_ALIASES = {"x": 1, "y": 2, "z": 3, "w": 4}

# three frames of recursion per level stay far below Python's limit
_MAX_NESTING = 100



def _residue(digits, p):
    """The numeral digits mod p; int() refuses more than 4300 digits."""
    value = 0
    for start in range(0, len(digits), 600):
        chunk = digits[start:start + 600]
        value = (value * 10 ** len(chunk) + int(chunk)) % p
    return value


def sorted_index_sign(indices):
    """Sort an index sequence, tracking the permutation sign.

    Returns (sign, tuple); sign is 0 when an index repeats (the wedge of a
    basis vector with itself).

    >>> sorted_index_sign((2, 1))
    (-1, (1, 2))
    """
    seq = list(indices)
    sign = 1
    # insertion sort; quadratic but the tuples have at most n entries
    for a in range(1, len(seq)):
        b = a
        while b > 0 and seq[b - 1] > seq[b]:
            seq[b - 1], seq[b] = seq[b], seq[b - 1]
            sign = -sign
            b -= 1
        if b > 0 and seq[b - 1] == seq[b]:
            return 0, None
    return sign, tuple(seq)


_SYMBOLS = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
}


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self):
        return "_Token(%s, %r)" % (self.kind, self.text)


def _tokenize(text):
    tokens = []
    line, column = 1, 1
    i = depth = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        if ch in _SYMBOLS:
            depth += (ch == "(") - (ch == ")")
            if depth > _MAX_NESTING:
                message = "parentheses nest deeper than %d levels" % _MAX_NESTING
                raise ParseError(message, line, column)
            tokens.append(_Token(_SYMBOLS[ch], ch, line, column))
            column += 1
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(_Token("NUMBER", text[i:j], line, column))
            column += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            tokens.append(_Token("NAME", text[i:j], line, column))
            column += j - i
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, line, column)
    # two EOF tokens: the parser never moves past the first, so peek(1)
    # can index without a clamp
    eof = _Token("EOF", "", line, column)
    tokens += (eof, eof)
    return tokens


class _Parser:
    def __init__(self, tokens, p: Prime, n: int):
        self.tokens = tokens
        self.pos = 0
        self.p = p
        self.n = n

    # ------------------------------------------------------------------

    def peek(self, ahead=0) -> _Token:
        return self.tokens[self.pos + ahead]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind, what) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail("unexpected %s" % (tok.text or "end of input"), tok, (what,))
        return self.advance()

    def fail(self, message, tok, expected=()):
        raise ParseError(message, tok.line, tok.column, expected)

    def exponent(self):
        """Consume a caret and the exponent numeral after it."""
        self.advance()
        tok = self.expect("NUMBER", "an exponent")
        try:
            return int(tok.text)
        except ValueError:
            self.fail("exponent of %d digits is too large" % len(tok.text), tok)

    # ------------------------------------------------------------------
    # name classification

    def _variable_index(self, name, tok):
        """1-based index for a variable name, or None if not a variable."""
        if name in _ALIASES:
            if name == "z" and self.n == 1:
                return 1
            return _ALIASES[name]
        if name[0] == "z" and name[1:].isdecimal():
            try:
                return int(name[1:])
            except ValueError:
                raise VariableOutOfRange(
                    "variable index of %d digits is outside 1..%d"
                    % (len(name) - 1, self.n),
                    tok.line,
                    tok.column,
                ) from None
        return None

    def _check_range(self, idx, name, tok):
        if not 1 <= idx <= self.n:
            raise VariableOutOfRange(
                "variable %s denotes z%d, outside 1..%d" % (name, idx, self.n),
                tok.line,
                tok.column,
            )
        return idx

    def _differential_index(self, tok):
        """Index of a differential token like dz2 or dx; None otherwise."""
        name = tok.text
        if tok.kind != "NAME" or len(name) < 2 or name[0] != "d":
            return None
        return self._variable_index(name[1:], tok)

    def _starts_atom(self, tok):
        if tok.kind in ("NUMBER", "LPAREN"):
            return True
        if tok.kind == "NAME":
            if self._differential_index(tok) is not None:
                return False
            return True
        return False

    # ------------------------------------------------------------------
    # grammar

    def parse(self) -> DiffForm:
        tok = self.peek()
        if tok.kind == "EOF":
            self.fail("empty expression", tok, ("a term",))
        sign = 1
        if tok.kind == "MINUS":
            self.advance()
            sign = -1
        elif tok.kind == "PLUS":
            self.advance()
        total = self.parse_term(sign)
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            term = self.parse_term(-1 if op.kind == "MINUS" else 1)
            if total.is_zero():
                total = term
            elif term.is_zero():
                pass
            elif term.r != total.r:
                self.fail(
                    "term of degree %d in a degree-%d expression"
                    % (term.r, total.r),
                    op,
                )
            else:
                total = total + term
        tok = self.peek()
        if tok.kind != "EOF":
            self.fail("trailing input %r" % tok.text, tok, ("+", "-", "end of input"))
        return total

    def parse_term(self, sign) -> DiffForm:
        tok = self.peek()
        coeff = None
        if self._starts_atom(tok):
            coeff = self.parse_product(allow_ratio=True)
        indices = None
        tok = self.peek()
        if self._differential_index(tok) is not None:
            indices = self.parse_basis()
        if coeff is None and indices is None:
            self.fail(
                "unexpected %s" % (tok.text or "end of input"),
                tok,
                ("a coefficient", "a differential"),
            )
        if coeff is None:
            coeff = MultiPoly.constant(self.p, self.n, 1)
        if indices is None:
            return DiffForm(self.p, self.n, 0, {(): coeff * sign})
        perm_sign, index = sorted_index_sign(indices)
        if perm_sign == 0:
            return DiffForm.zero(self.p, self.n, len(indices))
        return DiffForm(
            self.p,
            self.n,
            len(indices),
            {index: coeff * (sign * perm_sign)},
        )

    def parse_basis(self):
        indices = []
        tok = self.peek()
        idx = self._differential_index(tok)
        while idx is not None:
            self._check_range(idx, tok.text[1:], tok)
            indices.append(idx)
            self.advance()
            if self.peek().kind != "CARET":
                break
            nxt = self.peek(1)
            if self._differential_index(nxt) is None:
                self.fail(
                    "expected a differential after '^'",
                    nxt,
                    ("dz<k>",),
                )
            self.advance()  # the caret
            tok = self.peek()
            idx = self._differential_index(tok)
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
        p = self.p.p
        limit = max_degree_limit()
        coeff, exps = 1, [0] * self.n
        folded = False
        value = None
        while True:
            tok = self.peek()
            if value is not None:
                value = value * self.parse_atom(allow_ratio)
            elif tok.kind == "NUMBER":
                self.advance()
                coeff = coeff * _residue(tok.text, p) % p
                folded = True
            elif tok.kind == "NAME":
                i, k = self.parse_power(tok)
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
            tok = self.peek()
            if tok.kind == "STAR":
                self.advance()
            elif not self._starts_atom(tok):
                return self._monomial(coeff, exps) if value is None else value

    def _monomial(self, coeff, exps) -> MultiPoly:
        terms = {tuple(exps): coeff} if coeff else {}
        return MultiPoly._trusted(self.p, self.n, terms)

    def parse_polysum(self):
        """['-'] prod (('+' | '-') prod)*, summed in one exponent -> int dict.

        Each sum is kept reduced mod p as it is updated, as in d and
        wedge, and poly._nonzero drops the ones that cancelled.
        """
        tok = self.peek()
        sign = 1
        if tok.kind == "MINUS":
            self.advance()
            sign = -1
        elif tok.kind == "PLUS":
            self.advance()
        p = self.p.p
        sums = {}
        get = sums.get
        while True:
            for e, c in self.parse_product(allow_ratio=False).terms.items():
                sums[e] = (get(e, 0) + sign * c) % p
            if self.peek().kind not in ("PLUS", "MINUS"):
                break
            sign = -1 if self.advance().kind == "MINUS" else 1
        return MultiPoly._trusted(self.p, self.n, _nonzero(sums))

    def parse_power(self, tok):
        """Consume a variable and its optional exponent: (index, exponent)."""
        idx = self._variable_index(tok.text, tok)
        if idx is None:
            self.fail("unknown name %r" % tok.text, tok, ("a variable",))
        self._check_range(idx, tok.text, tok)
        self.advance()
        if self.peek().kind == "CARET":
            return idx, self.exponent()
        return idx, 1

    def parse_atom(self, allow_ratio):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return MultiPoly.constant(self.p, self.n, _residue(tok.text, self.p.p))
        if tok.kind == "NAME":
            idx, exp = self.parse_power(tok)
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
