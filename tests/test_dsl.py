"""Problem-file parsing and problem building."""

from pathlib import Path

import pytest

from flatcheck import problems
from flatcheck.dsl import (
    MAX_NESTING,
    build_problem,
    parse_polynomial,
    parse_problem,
    tokenize,
)
from flatcheck.errors import InvalidInput, ParseError, VariableClash
from flatcheck.ideals import Ideal, intersect
from flatcheck.rings import PolyRing

DOUADY = """
# incidence variety over the cusp
ring R = Q[y1, y2] / (4y1^3 + 27y2^2);
module F over R = Q[y1, y2, x] / radical(4y1^3 + 27y2^2, x^3 + y1*x + y2);
cover S over R = Q[y1, y2, u] / (y1 + 3u^2, y2 - 2u^3);
assert analytically_irreducible;
"""


def test_parse_minimal_ring():
    pf = parse_problem("ring R = Q[y1, y2];")
    assert pf.base_name == "R"
    decl = pf.rings["R"]
    assert decl.variables == ("y1", "y2")
    assert decl.generators == []


def test_parse_douady():
    pf = parse_problem(DOUADY)
    assert pf.base_name == "R"
    assert pf.module_name == "F"
    assert pf.cover_name == "S"
    assert pf.analytically_irreducible
    assert pf.rings["F"].radical_requested
    ring = PolyRing(("y1", "y2"))
    y1, y2 = ring.gens()
    assert pf.rings["R"].generators == [4 * y1**3 + 27 * y2**2]


def test_parse_option_power():
    pf = parse_problem("ring R = Q[y];\nmodule F over R = Q[y, x];\noption power = 3;")
    assert pf.power == 3


def test_missing_comma_position():
    with pytest.raises(ParseError) as info:
        parse_problem("ring R = Q[y1 y2];")
    err = info.value
    assert err.line == 1 and err.column == 15
    assert "]" in err.expected


def test_undeclared_variable():
    with pytest.raises(ParseError) as info:
        parse_problem("ring R = Q[y] / (y + z);")
    assert "z" in str(info.value)
    assert info.value.line == 1


def test_duplicate_declaration():
    with pytest.raises(VariableClash):
        parse_problem("ring R = Q[y];\nring R = Q[z];")


def test_module_over_unknown_ring():
    with pytest.raises(ParseError):
        parse_problem("module F over R = Q[y, x];")


def test_radical_only_in_modules():
    with pytest.raises(ParseError):
        parse_problem("ring R = Q[y] / radical(y^2);")
    with pytest.raises(ParseError):
        parse_problem("ring R = Q[y];\ncover S over R = Q[y, u] / radical(u);")


def test_unknown_statement():
    with pytest.raises(ParseError) as info:
        parse_problem("frobnicate;")
    assert "ring" in info.value.expected


def test_parse_polynomial_expressions():
    ring = PolyRing(("y1", "y2", "x"))
    y1, y2, x = ring.gens()
    cases = {
        "4y1^3 + 27y2^2": 4 * y1**3 + 27 * y2**2,  # implicit multiplication
        "x^3 + y1*x + y2": x**3 + y1 * x + y2,
        "-x + 2": -x + ring.const(2),
        "3/4x - 1/2": x.scale("3/4") - ring.const("1/2"),
        "(x + y1)(x - y1)": x**2 - y1**2,
        "2(x+1)": 2 * x + 2,
        "x - -y1": x + y1,
        "x^\u0663 + \u0662y1": x**3 + 2 * y1,  # decimal digits int() reads
    }
    for text, expected in cases.items():
        assert parse_polynomial(text, ring) == expected, text


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("-", "")])
def test_nesting_is_bounded(opener, closer):
    ring = PolyRing(("x",))
    # A term's leading sign is read by the term rule, not as a nested factor.
    sign = opener == "-"
    deepest = MAX_NESTING + sign
    parsed = parse_polynomial(opener * deepest + "x" + closer * deepest, ring)
    assert parsed == (-1) ** (deepest * sign) * ring.var("x")
    for depth in (deepest + 1, 5000):
        with pytest.raises(ParseError) as info:
            parse_polynomial(opener * depth + "x" + closer * depth, ring)
        assert str(info.value).startswith("expression nested too deeply")
        assert (info.value.line, info.value.column) == (1, deepest + 1)


def test_division_only_by_constants():
    ring = PolyRing(("x",))
    with pytest.raises(ParseError):
        parse_polynomial("1/x", ring)
    with pytest.raises(ParseError):
        parse_polynomial("x/0", ring)


def test_trailing_input_rejected():
    ring = PolyRing(("x",))
    with pytest.raises(ParseError):
        parse_polynomial("x + 1;", ring)


def test_round_trip_through_renderer():
    ring = PolyRing(("y1", "y2", "x"))
    rng_polys = [
        parse_polynomial("4y1^3 + 27y2^2", ring),
        parse_polynomial("x^3 + y1*x + y2", ring),
        parse_polynomial("3/4x^2 - 1/2y2 + 5", ring),
    ]
    for f in rng_polys:
        assert parse_polynomial(str(f), ring) == f
    I = Ideal(ring, rng_polys)
    J = Ideal(ring, [parse_polynomial(str(g), ring) for g in I.groebner()])
    assert J.equals(I)


def test_build_problem_douady():
    problem = build_problem(parse_problem(DOUADY))
    assert problem.base.n == 1
    assert problem.analytically_irreducible
    assert problem.cover is not None
    assert problem.module.module_vars == ("x",)
    # radical() was resolved: the module ideal is the intersection of the
    # two minimal primes of the incidence ideal
    ring = problem.module.ring
    y1, y2, x = (ring.var(v) for v in ("y1", "y2", "x"))
    p1 = Ideal(ring, [y1 + 3 * x**2, y2 - 2 * x**3])
    p2 = Ideal(ring, [4 * y1 + 3 * x**2, 4 * y2 + x**3])
    assert problem.module.I.equals(intersect(p1, p2))


def test_build_problem_requires_module():
    with pytest.raises(InvalidInput):
        build_problem(parse_problem("ring R = Q[y];"))


def test_build_problem_cover_module_variable_clash():
    text = (
        "ring R = Q[y];\n"
        "module F over R = Q[y, x];\n"
        "cover S over R = Q[y, x] / (x);\n"
    )
    with pytest.raises(VariableClash):
        build_problem(parse_problem(text))


def test_comments_and_whitespace_ignored():
    pf = parse_problem("# leading comment\n\n  ring   R = Q[ y ] ;  # trailing\n")
    assert pf.base_name == "R"


# (source, expected): the tokens (kind, text, line, column), or
# the ParseError (message, line, column) that parse_problem raises.
LEXICAL_CASES = [
    # CR is a blank that takes a column; only LF starts a line.
    ("ring\tR\r\n= Q\r", [("ident", "ring", 1, 1), ("ident", "R", 1, 6),
                           ("punct", "=", 2, 1), ("ident", "Q", 2, 3), ("eof", "", 2, 5)]),
    ("x^٣ é1", [("ident", "x", 1, 1), ("punct", "^", 1, 2), ("number", "٣", 1, 3),
               ("ident", "é1", 1, 5), ("eof", "", 1, 7)]),
    ("4y1", [("number", "4", 1, 1), ("ident", "y1", 1, 2), ("eof", "", 1, 4)]),
    ("a===b", [("ident", "a", 1, 1), ("punct", "==", 1, 2), ("punct", "=", 1, 4),
               ("ident", "b", 1, 5), ("eof", "", 1, 6)]),
    ("ring R;\n x²", [("ident", "ring", 1, 1), ("ident", "R", 1, 6),
                      ("punct", ";", 1, 7), ("ident", "x²", 2, 2), ("eof", "", 2, 4)]),
    ("ring R = Q[y] / (y^2²);", ("unexpected character '²'", 1, 21)),
    ("ring R = Q[y];\n ²", ("unexpected character '²'", 2, 2)),
    ("ring R =\u00a0Q[y];", ("unexpected character '\\xa0'", 1, 9)),
    ("ring R = Q[y];\n\n  \x0b", ("unexpected character '\\x0b'", 3, 3)),
    ("ring R = Q[y];\u2003", ("unexpected character '\\u2003'", 1, 15)),
    # A file that ends in a comment reports eof past the comment.
    ("option power #5v", ("unexpected ''", 1, 17)),
    # radical(...) in a ring is refused before its missing or wrong `;`.
    ("ring R = Q[y] / radical(y)", ("radical(...) is only allowed", 1, 1)),
    ("ring R = Q[y] / radical(y) ]", ("radical(...) is only allowed", 1, 1)),
]


@pytest.mark.parametrize("source, expected", LEXICAL_CASES)
def test_lexical_rules(source, expected):
    if isinstance(expected, list):
        assert [(t.kind, t.text, t.line, t.column) for t in tokenize(source)] == expected
        return
    message, line, column = expected
    with pytest.raises(ParseError) as info:
        parse_problem(source)
    assert str(info.value).startswith(message)
    assert (info.value.line, info.value.column) == (line, column)


def test_every_corpus_token_starts_at_its_line_and_column():
    for path in sorted(Path(problems.__file__).parent.glob("*.flat")):
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        tokens = tokenize(text)
        assert len(tokens) > 1 and tokens[-1].kind == "eof"
        for tok in tokens:
            assert lines[tok.line - 1][tok.column - 1:].startswith(tok.text), (path.name, tok)
