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
"""

from __future__ import annotations

from .errors import ParseError, VariableOutOfRange, ZeroDenominator
from .forms import DiffForm, sorted_index_sign
from .poly import MultiPoly, _check_arity
from .ratfun import RatFun
from .scalar import Prime

_ALIASES = {"x": 1, "y": 2, "z": 3, "w": 4}

# three frames of recursion per level stay far below Python's limit
_MAX_NESTING = 100

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


def _residue(digits, p):
    """The numeral digits mod p; int() refuses more than 4300 digits."""
    value = 0
    for start in range(0, len(digits), 600):
        chunk = digits[start:start + 600]
        value = (value * 10 ** len(chunk) + int(chunk)) % p
    return value


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
    tokens.append(_Token("EOF", "", line, column))
    return tokens


class _Parser:
    def __init__(self, tokens, p: Prime, n: int):
        self.tokens = tokens
        self.pos = 0
        self.p = p
        self.n = n

    # ------------------------------------------------------------------

    def peek(self, ahead=0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

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


def parse_form(text: str, p, n: int) -> DiffForm:
    """Parse expression text into a form over F_p in variables z1..zn.

    >>> print(parse_form("x^2*y dx + x dy", 3, 2))
    z1^2*z2 dz1 + z1 dz2
    >>> print(parse_form("dz2^dz1", 5, 2))
    4 dz1^dz2
    """
    p = Prime(p)
    _check_arity(n)
    return _Parser(_tokenize(text), p, n).parse()
