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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import InvalidInput, ParseError, VariableClash
from .flatness import BaseRing, FlatnessProblem, ModuleSpec, RegularCover
from .ideals import Ideal
from .rings import PolyRing

_KEYWORDS = {"ring", "module", "cover", "option", "assert", "over", "radical", "Q"}
_PUNCT = ("==", "[", "]", "(", ")", ",", ";", "=", "+", "-", "*", "/", "^")


@dataclass(frozen=True)
class Token:
    kind: str  # ident | number | punct | eof
    text: str
    line: int
    column: int


def tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass
class RingDecl:
    name: str
    variables: Tuple[str, ...]
    generators: List  # Polynomial list, in the declared ring
    over: Optional[str]  # None for `ring`, base name for module/cover
    kind: str  # ring | module | cover
    radical_requested: bool
    span: Tuple[int, int]  # (line, column) of the declaring keyword


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
            if tok.text == "ring":
                self._ring(pf)
            elif tok.text == "module":
                self._module_or_cover(pf, "module")
            elif tok.text == "cover":
                self._module_or_cover(pf, "cover")
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

    def _declare(self, pf, decl):
        if decl.name in pf.rings:
            raise VariableClash(f"duplicate declaration of {decl.name!r}")
        pf.rings[decl.name] = decl

    def _ring(self, pf):
        kw = self.expect("ring")
        name = self.expect(kind="ident").text
        self.expect("=")
        variables = self._ambient()
        gens, radical = self._relations(variables)
        self.expect(";")
        if radical:
            tok = self.peek()
            raise ParseError(
                "radical(...) is only allowed in module declarations",
                kw.line,
                kw.column,
            )
        decl = RingDecl(name, variables, gens, None, "ring", False, (kw.line, kw.column))
        self._declare(pf, decl)
        if pf.base_name is None:
            pf.base_name = name

    def _module_or_cover(self, pf, kind):
        kw = self.expect(kind)
        name = self.expect(kind="ident").text
        self.expect("over")
        over = self.expect(kind="ident").text
        if over not in pf.rings or pf.rings[over].kind != "ring":
            raise ParseError(
                f"{kind} declared over unknown ring {over!r}", kw.line, kw.column
            )
        self.expect("=")
        variables = self._ambient()
        base = pf.rings[over]
        for v in base.variables:
            if v not in variables:
                raise ParseError(
                    f"{kind} ring must contain base variable {v!r}",
                    kw.line,
                    kw.column,
                )
        gens, radical = self._relations(variables)
        if radical and kind != "module":
            raise ParseError(
                "radical(...) is only allowed in module declarations",
                kw.line,
                kw.column,
            )
        self.expect(";")
        decl = RingDecl(
            name, variables, gens, over, kind, radical, (kw.line, kw.column)
        )
        self._declare(pf, decl)
        if kind == "module":
            if pf.module_name is not None:
                raise VariableClash("a file may declare at most one module")
            pf.module_name = name
        else:
            if pf.cover_name is not None:
                raise VariableClash("a file may declare at most one cover")
            pf.cover_name = name

    def _option(self, pf):
        kw = self.expect("option")
        key = self.expect(kind="ident").text
        self.expect("=")
        val = self.expect(kind="number").text
        self.expect(";")
        if key != "power":
            raise ParseError(f"unknown option {key!r}", kw.line, kw.column, ("power",))
        pf.power = int(val)

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
        if tok.text == "-":
            self.advance()
            return -self._factor(ring)
        if tok.kind == "number":
            self.advance()
            base = ring.const(int(tok.text))
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
        else:
            raise ParseError(
                f"unexpected {tok.text or tok.kind!r}",
                tok.line,
                tok.column,
                expected=("number", "variable", "("),
            )
        if self.peek().text == "^":
            caret = self.advance()
            exp = self.expect(kind="number")
            base = base ** int(exp.text)
            _ = caret
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


def build_problem(pf, seed=0):
    """Resolve a ProblemFile into a FlatnessProblem.

    radical(...) module relations are resolved here by an actual radical
    computation.
    """
    from .primdec import radical_and_minimal

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
    if mod_decl.radical_requested and not I.is_zero():
        I, _ = radical_and_minimal(I, seed=seed)
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
