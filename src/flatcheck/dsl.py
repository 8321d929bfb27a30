"""Problem-file language: tokenizer, recursive-descent parser, and the
bridge from parsed declarations to FlatnessProblem values.

Grammar (statements end with `;`):

    ring <name> = Q[v1, ..., vk] / (g1, ..., gm);     # `/ (...)` optional
    module <name> over <ring> = Q[...] / (g1, ...);   # or / radical(g1, ...)
    cover <name> over <ring> = Q[...] / (g1, ...);
    option power = <int>;
    assert analytically_irreducible;

Polynomial syntax: `+`/`-` separated terms, `^` powers, `*` optional
between a coefficient and a variable, rational coefficients as `p/q`.
A factor nests at most MAX_NESTING parentheses and unary minus signs.

Lexical rules: blanks are space, tab, CR and LF; `#` starts a comment
that runs to the end of the line; a name starts with a letter or `_`,
followed by letters, digits or `_`; a number is a run of decimal digits
from any script.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import InvalidInput, ParseError, VariableClash
from .flatness import BaseRing, FlatnessProblem, ModuleSpec, RegularCover
from .ideals import Ideal
from .primdec import radical
from .rings import PolyRing

# Blanks, comments, numbers, words and punctuation, in that order of
# preference; a word must start with a letter or `_` (see tokenize).
_TOKEN = re.compile(
    r"(?P<blank>[ \t\r\n]+)|(?P<comment>#[^\n]*)|(?P<number>\d+)|(?P<ident>\w+)"
    r"|(?P<punct>==|[\[\](),;=+\-*/^])"
)

# Open parentheses and unary minus signs one expression may nest.  Each
# level is a recursion of the expression rules (three frames for a `(`),
# so the bound keeps the parse well inside Python's recursion limit.
MAX_NESTING = 256


class Token(NamedTuple):
    kind: str  # ident | number | punct | eof
    text: str
    line: int
    column: int


def tokenize(text):
    tokens = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        column = pos - line_start + 1
        first = text[pos]
        if m is None or m.lastgroup == "ident" and not (first.isalpha() or first == "_"):
            raise ParseError(f"unexpected character {first!r}", line, column)
        kind, pos = m.lastgroup, m.end()
        if kind == "blank" and "\n" in m.group():
            line += m.group().count("\n")
            line_start = text.rindex("\n", 0, pos) + 1
        elif kind not in ("blank", "comment"):
            tokens.append(Token(kind, m.group(), line, column))
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


def _number(tok):
    """The value of a number token.  Raises ParseError at the token when it
    has more digits than Python converts from a string."""
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(
            f"number longer than {sys.get_int_max_str_digits()} digits",
            tok.line,
            tok.column,
        ) from None


@dataclass
class RingDecl:
    name: str
    variables: Tuple[str, ...]
    generators: List  # Polynomial list, in the declared ring
    over: Optional[str]  # None for `ring`, base name for module/cover
    kind: str  # ring | module | cover
    radical_requested: bool


@dataclass
class ProblemFile:
    rings: Dict[str, RingDecl] = field(default_factory=dict)
    base_name: Optional[str] = None
    module_name: Optional[str] = None
    cover_name: Optional[str] = None
    power: Optional[int] = None
    analytically_irreducible: bool = False


class _Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0  # `(` and unary `-` open around the current factor

    # -- token plumbing ----------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text=None, kind=None):
        tok = self.peek()
        if text is not None and tok.text != text:
            raise ParseError(
                f"unexpected {tok.text!r}", tok.line, tok.column, expected=(text,)
            )
        if kind is not None and tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.text or tok.kind!r}",
                tok.line,
                tok.column,
                expected=(kind,),
            )
        return self.advance()

    def accept(self, text):
        if self.peek().text == text:
            return self.advance()
        return None

    # -- statements ----------------------------------------------------------

    def parse_file(self):
        pf = ProblemFile()
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text in ("ring", "module", "cover"):
                self._declaration(pf, tok.text)
            elif tok.text == "option":
                self._option(pf)
            elif tok.text == "assert":
                self._assert(pf)
            else:
                raise ParseError(
                    f"unexpected {tok.text!r}",
                    tok.line,
                    tok.column,
                    expected=("ring", "module", "cover", "option", "assert"),
                )
        return pf

    def _declaration(self, pf, kind):
        """`ring`, `module` or `cover`: a name, for a module or cover the
        ring it lies over, and a quotient `Q[vars] / (...)`."""
        kw = self.expect(kind)
        at = (kw.line, kw.column)
        name = self.expect(kind="ident").text
        over, base_vars = None, ()
        if kind != "ring":
            self.expect("over")
            over = self.expect(kind="ident").text
            if over not in pf.rings or pf.rings[over].kind != "ring":
                raise ParseError(f"{kind} declared over unknown ring {over!r}", *at)
            base_vars = pf.rings[over].variables
        self.expect("=")
        variables = self._ambient()
        for v in base_vars:
            if v not in variables:
                raise ParseError(f"{kind} ring must contain base variable {v!r}", *at)
        gens, radical = self._relations(variables)
        if radical and kind != "module":
            raise ParseError("radical(...) is only allowed in module declarations", *at)
        self.expect(";")
        if name in pf.rings:
            raise VariableClash(f"duplicate declaration of {name!r}")
        pf.rings[name] = RingDecl(name, variables, gens, over, kind, radical)
        if kind == "ring":
            pf.base_name = pf.base_name or name
        elif getattr(pf, f"{kind}_name") is not None:
            raise VariableClash(f"a file may declare at most one {kind}")
        else:
            setattr(pf, f"{kind}_name", name)

    def _option(self, pf):
        kw = self.expect("option")
        key = self.expect(kind="ident").text
        self.expect("=")
        val = self.expect(kind="number")
        self.expect(";")
        if key != "power":
            raise ParseError(f"unknown option {key!r}", kw.line, kw.column, ("power",))
        pf.power = _number(val)

    def _assert(self, pf):
        kw = self.expect("assert")
        flag = self.expect(kind="ident").text
        self.expect(";")
        if flag != "analytically_irreducible":
            raise ParseError(
                f"unknown assertion {flag!r}",
                kw.line,
                kw.column,
                ("analytically_irreducible",),
            )
        pf.analytically_irreducible = True

    # -- ambient ring and relation lists -------------------------------------

    def _ambient(self):
        self.expect("Q")
        self.expect("[")
        variables = [self.expect(kind="ident").text]
        while self.accept(","):
            variables.append(self.expect(kind="ident").text)
        close = self.expect("]")
        if len(set(variables)) != len(variables):
            raise ParseError("duplicate ring variable", close.line, close.column)
        return tuple(variables)

    def _relations(self, variables):
        """Optional `/ (g1, ..., gm)` or `/ radical(g1, ..., gm)`."""
        if not self.accept("/"):
            return [], False
        radical = self.accept("radical") is not None
        self.expect("(")
        ring = PolyRing(variables)
        gens = [self._expr(ring)]
        while self.accept(","):
            gens.append(self._expr(ring))
        self.expect(")")
        return gens, radical

    # -- polynomial expressions ------------------------------------------------

    def _expr(self, ring):
        tok = self.peek()
        negate = False
        if tok.text == "-":
            self.advance()
            negate = True
        elif tok.text == "+":
            self.advance()
        result = self._term(ring)
        if negate:
            result = -result
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            term = self._term(ring)
            result = result + term if op == "+" else result - term
        return result

    def _term(self, ring):
        result = self._factor(ring)
        while True:
            tok = self.peek()
            if tok.text == "*":
                self.advance()
                result = result * self._factor(ring)
            elif tok.text == "/":
                self.advance()
                divisor = self._factor(ring)
                if not divisor.is_constant() or divisor.is_zero():
                    raise ParseError(
                        "division only by a nonzero rational constant",
                        tok.line,
                        tok.column,
                    )
                result = result.scale(Fraction(1) / divisor.constant_value())
            elif tok.kind in ("ident", "number") or tok.text == "(":
                # implicit multiplication, e.g. `4y1^3` or `2(x+1)`
                result = result * self._factor(ring)
            else:
                return result

    def _factor(self, ring):
        tok = self.peek()
        if tok.text in ("-", "("):
            # A failed parse is not resumed, so only a completed level
            # gives its depth back.
            if self.depth == MAX_NESTING:
                raise ParseError("expression nested too deeply", tok.line, tok.column)
            self.depth += 1
        if tok.text == "-":
            self.advance()
            base = -self._factor(ring)
            self.depth -= 1
            return base
        if tok.kind == "number":
            self.advance()
            base = ring.const(_number(tok))
        elif tok.kind == "ident":
            self.advance()
            try:
                base = ring.var(tok.text)
            except VariableClash:
                raise ParseError(
                    f"undeclared variable {tok.text!r}", tok.line, tok.column
                ) from None
        elif tok.text == "(":
            self.advance()
            base = self._expr(ring)
            self.expect(")")
            self.depth -= 1
        else:
            raise ParseError(
                f"unexpected {tok.text or tok.kind!r}",
                tok.line,
                tok.column,
                expected=("number", "variable", "("),
            )
        if self.peek().text == "^":
            self.advance()
            exp = self.expect(kind="number")
            base = base ** _number(exp)
        return base


def parse_problem(text):
    """Parse a problem file into its declaration structure."""
    return _Parser(text).parse_file()


def parse_polynomial(text, ring):
    """Parse a single polynomial expression in an existing ring."""
    parser = _Parser(text)
    poly = parser._expr(ring)
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return poly


def build_problem(pf):
    """Resolve a ProblemFile into a FlatnessProblem.

    radical(...) module relations are resolved here by an exact radical
    computation (`primdec.radical`), which needs no primary decomposition
    and no random choice.
    """
    if pf.base_name is None:
        raise InvalidInput("problem file declares no base ring")
    base_decl = pf.rings[pf.base_name]
    base_ring = PolyRing(base_decl.variables)
    q = Ideal(base_ring, base_decl.generators)
    base = BaseRing.create(base_ring, q)

    if pf.module_name is None:
        raise InvalidInput("problem file declares no module")
    mod_decl = pf.rings[pf.module_name]
    if mod_decl.over != pf.base_name:
        raise InvalidInput("module is declared over a different ring than the base")
    mod_ring = PolyRing(mod_decl.variables)
    I = Ideal(mod_ring, mod_decl.generators)
    if mod_decl.radical_requested:
        I = radical(I)
    # The base relations are implied module relations.
    I = Ideal(
        mod_ring,
        list(I.generators) + [mod_ring.transport(g) for g in q.generators],
    )
    module = ModuleSpec(mod_ring, I, base)

    cover = None
    if pf.cover_name is not None:
        cov_decl = pf.rings[pf.cover_name]
        if cov_decl.over != pf.base_name:
            raise InvalidInput("cover is declared over a different ring than the base")
        mod_extra = set(module.module_vars)
        cov_ring = PolyRing(cov_decl.variables)
        for v in cov_decl.variables:
            if v in mod_extra:
                raise VariableClash(
                    f"cover variable {v!r} already used by the module"
                )
        cover = RegularCover(cov_ring, Ideal(cov_ring, cov_decl.generators), base)

    return FlatnessProblem(
        base=base,
        module=module,
        cover=cover,
        power=pf.power,
        analytically_irreducible=pf.analytically_irreducible,
    )
