import pathlib
import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastlab import syntax
from pastlab.exploration import collapse_to_state_graph
from pastlab.semantics import initial_state, is_terminal, step
from pastlab.syntax import (ABin, Assign, BBin, BoolLit, Cmp, EMPTY, Empty,
                            EXIT, Exit, If, Neg, NondetChoice, Not,
                            KEYWORDS, ParseError, ProbChoice, RatLit, SKIP,
                            Seq, Skip, Token, TooManyDigits, Var, While,
                            parse, parse_aexpr, parse_bexpr, print_aexpr,
                            print_bexpr, print_program, print_rational,
                            seq_of, subterms, tokenize)
from conftest import random_active_program, random_program

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"

idents = st.sampled_from(("x", "y", "longer_name2"))
rationals = st.builds(Fraction, st.integers(0, 9), st.integers(1, 9))
aexprs = st.recursive(
    st.builds(RatLit, rationals) | st.builds(Var, idents),
    lambda sub: st.builds(Neg, sub)
    | st.builds(ABin, st.sampled_from(("+", "-", "*")), sub, sub),
    max_leaves=6)
bexprs = st.recursive(
    st.builds(BoolLit, st.booleans())
    | st.builds(Cmp, st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
                aexprs, aexprs),
    lambda sub: st.builds(Not, sub)
    | st.builds(BBin, st.sampled_from(("and", "or")), sub, sub),
    max_leaves=4)
statements = st.deferred(
    lambda: st.just(SKIP) | st.just(EXIT) | st.just(EMPTY)
    | st.builds(Assign, idents, aexprs)
    | st.builds(While, bexprs, programs)
    | st.builds(If, bexprs, programs, programs)
    | st.builds(NondetChoice, programs, programs)
    | st.builds(ProbChoice, programs, aexprs, programs))
programs = st.deferred(
    lambda: st.lists(statements, min_size=1, max_size=3).map(seq_of))


def test_random_walk_figure():
    got = parse("x := 1; while (x != 0) { { x := x + 1 } <1/2> { x := x - 1 } }")
    body = ProbChoice(Assign("x", ABin("+", Var("x"), RatLit(Fraction(1)))),
                      RatLit(Fraction(1, 2)),
                      Assign("x", ABin("-", Var("x"), RatLit(Fraction(1)))))
    expected = Seq(Assign("x", RatLit(Fraction(1))),
                   While(Cmp("!=", Var("x"), RatLit(Fraction(0))), body))
    assert got == expected


def test_single_token_programs():
    assert parse("skip") == SKIP
    assert parse("exit") == EXIT
    assert parse("bot") == EMPTY
    assert print_program(SKIP) == "skip"
    assert print_program(parse("exit")) == "exit"


def test_nondet_choice():
    assert parse("{ y := 0 } [] { y := 1 }") == NondetChoice(
        Assign("y", RatLit(Fraction(0))), Assign("y", RatLit(Fraction(1))))


def test_seq_right_nested():
    got = parse("skip; skip; exit")
    assert got == Seq(SKIP, Seq(SKIP, EXIT))


def test_rationals():
    assert parse_aexpr("3/4") == RatLit(Fraction(3, 4))
    assert parse_aexpr("6/8") == RatLit(Fraction(3, 4))
    with pytest.raises(ParseError):
        parse_aexpr("1/0")


def test_comments_and_whitespace():
    source = """
    # set things up
    x := 1;   # trailing note
    skip
    """
    assert parse(source) == Seq(Assign("x", RatLit(Fraction(1))), SKIP)


def test_if_without_else_uses_empty_branch():
    got = parse("if (x = 0) { skip }")
    assert got.orelse == EMPTY
    assert print_program(got) == "if (x = 0) { skip }"


def test_precedence():
    assert parse_aexpr("1 + 2 * 3") == ABin(
        "+", RatLit(Fraction(1)),
        ABin("*", RatLit(Fraction(2)), RatLit(Fraction(3))))
    assert parse_aexpr("1 - 2 - 3") == ABin(
        "-", ABin("-", RatLit(Fraction(1)), RatLit(Fraction(2))),
        RatLit(Fraction(3)))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse("x := ")
    assert info.value.line == 1
    assert info.value.column >= 5
    with pytest.raises(ParseError) as info:
        parse("while (x = 0) {\n  y := \n}")
    assert info.value.line in (2, 3)


@pytest.mark.parametrize("junk", [
    "", "{", "}", ":=", "x + 1", "while true { skip }",
    "{ skip } <> { skip }", "if x { skip }", "1234", "x := 1;;",
    "\x00\xff\x80 garbage", "while (x) { skip }",
])
def test_no_panic_on_junk(junk):
    with pytest.raises(ParseError):
        parse(junk)


# ---------------------------------------------------------------------------
# The token scanner and parse errors
# ---------------------------------------------------------------------------

_REFERENCE_PUNCT = ("[]", ":=", "!=", "<=", ">=", ";", "{", "}", "(", ")",
                    "<", ">", "=", "+", "-", "*", "/")


def reference_tokenize(source):
    """The character-by-character scanner tokenize must agree with."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isascii() and ch.isdigit():
            j = i
            while j < n and source[j].isascii() and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isascii() and ch.isalpha():
            j = i
            while j < n and source[j].isascii() \
                    and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "kw" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            col += j - i
            i = j
            continue
        for p in _REFERENCE_PUNCT:
            if source.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# Text spliced into the sources below: every token kind, the characters
# the scanner treats specially, and characters that Unicode calls digits,
# letters or spaces but the ASCII-only scanner refuses.
_SPLICES = (list("(){};:=<>!+-*/[]#_x9 \t\r\n\f\x00")
            + ["\r\n", "é", "\u0663", "\xa0", "\u2028", "skip", "<1/2>",
               ":=", "[]", "!=", "# note", "12345", "else", "x_1"])


def _outcome(fn, source):
    try:
        return fn(source)
    except ParseError as exc:
        return (str(exc), exc.line, exc.column, exc.expected)


def _mutated_sources(rng, count):
    seeds = [path.read_text() for path in sorted(PROGRAMS.glob("*.pgcl"))]
    seeds += [print_program(random_program(rng, 4)) for _ in range(40)]
    seeds += ["x := 1 # trailing comment, no newline",
              "skip;\r\n\tx := 1\r\n", "x := # c", "\t# only a comment"]
    for _ in range(count):
        source = rng.choice(seeds)
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(len(source) + 1)
            j = min(len(source), i + rng.randrange(6))
            if rng.random() < 0.4:
                source = source[:i] + source[j:]
            else:
                source = source[:i] + rng.choice(_SPLICES) + source[i:]
        yield source


def test_tokenize_matches_the_reference_scanner():
    rng = random.Random(11)
    for source in _mutated_sources(rng, 3000):
        assert _outcome(tokenize, source) == \
            _outcome(reference_tokenize, source), source


def test_comment_does_not_advance_the_column():
    assert tokenize("x := # c")[-1] == Token("eof", "", 1, 6)
    assert tokenize("x := 1 # c\n")[-1] == Token("eof", "", 2, 1)


@pytest.mark.parametrize("fn, source, message", [
    (parse, "",
     "unexpected end of input at line 1, column 1 "
     "(expected one of: statement)"),
    (parse, "x := # c",
     "unexpected end of input at line 1, column 6 "
     "(expected one of: rational, identifier, '-', '(')"),
    (parse, "x := 1 # note\n  y",
     "unexpected 'y' at line 2, column 3 "
     "(expected one of: ';', end of input)"),
    (parse, "skip skip",
     "unexpected 'skip' at line 1, column 6 "
     "(expected one of: ';', end of input)"),
    (parse, "x := 1;",
     "unexpected end of input at line 1, column 8 "
     "(expected one of: statement)"),
    (parse, "x = 1",
     "unexpected '=' at line 1, column 3 (expected one of: ':=')"),
    (parse, "y := @", "unexpected character '@' at line 1, column 6"),
    (parse, "x := é", "unexpected character 'é' at line 1, column 6"),
    (parse, "x := \u0663",
     "unexpected character '\u0663' at line 1, column 6"),
    (parse, "x :=\xa01",
     "unexpected character '\\xa0' at line 1, column 5"),
    (parse, "skip;\r\n\tx := 1\f",
     "unexpected character '\\x0c' at line 2, column 8"),
    (parse, "_x := 1", "unexpected character '_' at line 1, column 1"),
    (parse, "x : = 1", "unexpected character ':' at line 1, column 3"),
    (parse, "while x < 1 { skip }",
     "unexpected 'x' at line 1, column 7 (expected one of: '(')"),
    (parse, "while (x < 1) skip",
     "unexpected 'skip' at line 1, column 15 (expected one of: '{')"),
    (parse, "while (x < 1) { skip",
     "unexpected end of input at line 1, column 21 (expected one of: '}')"),
    (parse, "if (x) { skip }",
     "unexpected ')' at line 1, column 6 "
     "(expected one of: comparison operator)"),
    (parse, "if (x = 1) { skip } else skip",
     "unexpected 'skip' at line 1, column 26 (expected one of: '{')"),
    (parse, "{ skip }",
     "unexpected end of input at line 1, column 9 "
     "(expected one of: '[]', '<')"),
    (parse, "{ skip } [] skip",
     "unexpected 'skip' at line 1, column 13 (expected one of: '{')"),
    (parse, "{ skip } <1/2 { skip }",
     "unexpected '{' at line 1, column 15 (expected one of: '>')"),
    (parse, "{ skip } <1/2> skip",
     "unexpected 'skip' at line 1, column 16 (expected one of: '{')"),
    (parse, "x := 1/",
     "unexpected end of input at line 1, column 8 "
     "(expected one of: integer denominator)"),
    (parse, "x := 1/y",
     "unexpected 'y' at line 1, column 8 "
     "(expected one of: integer denominator)"),
    (parse, "x := 3/0",
     "malformed rational literal: zero denominator at line 1, column 8"),
    (parse, "x := (1 + 2",
     "unexpected end of input at line 1, column 12 (expected one of: ')')"),
    (parse, "x := " + "9" * 4301,
     "integer literal of 4301 digits exceeds 4300 at line 1, column 6"),
    (parse, "while (x <) { skip }",
     "unexpected ')' at line 1, column 11 "
     "(expected one of: rational, identifier, '-', '(')"),
    (parse, "else",
     "unexpected 'else' at line 1, column 1 (expected one of: statement)"),
    (parse, "skip; }",
     "unexpected '}' at line 1, column 7 (expected one of: statement)"),
    (parse, "x := --",
     "unexpected end of input at line 1, column 8 "
     "(expected one of: rational, identifier, '-', '(')"),
    (parse_aexpr, "1 2",
     "unexpected '2' at line 1, column 3 (expected one of: end of input)"),
    (parse_aexpr, "x <= 1",
     "unexpected '<=' at line 1, column 3 (expected one of: end of input)"),
    (parse_bexpr, "x < 1 y",
     "unexpected 'y' at line 1, column 7 (expected one of: end of input)"),
    (parse_bexpr, "(x < 1",
     "unexpected '<' at line 1, column 4 (expected one of: ')')"),
    (parse_bexpr, "true and",
     "unexpected end of input at line 1, column 9 "
     "(expected one of: rational, identifier, '-', '(')"),
], ids=lambda value: value[:24] if isinstance(value, str) else value.__name__)
def test_parse_error_text(fn, source, message):
    with pytest.raises(ParseError) as info:
        fn(source)
    assert str(info.value) == message


def test_parse_accepts_deep_nesting():
    # Through cli.main, which adds its own frames, the limits are about
    # 490 blocks, 492 choices and 245 parentheses; these stay below them
    # by a margin for pytest's frames.
    ifs = parse("if (x = 0) { " * 400 + "skip" + " }" * 400)
    assert sum(isinstance(t, If) for t in subterms(ifs)) == 400
    choices = parse("{ " * 400 + "skip" + " } <1/2> { skip }" * 400)
    assert sum(isinstance(t, ProbChoice) for t in subterms(choices)) == 400
    assert parse("x := " + "(" * 150 + "y" + ")" * 150) == Assign("x",
                                                                  Var("y"))


def test_fig1a_print_reparses_equal():
    program = parse("x := 1; while (x != 0) "
                    "{ { x := x + 1 } <1/2> { x := x - 1 } }")
    assert parse(print_program(program)) == program


def test_round_trip_random_asts():
    rng = random.Random(7)
    for _ in range(300):
        program = random_program(rng, 6)
        printed = print_program(program)
        assert parse(printed) == program, printed


@settings(max_examples=150, deadline=None, derandomize=True)
@given(programs)
def test_round_trip_property(program):
    assert parse(print_program(program)) == program


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.text(max_size=40))
def test_arbitrary_input_never_crashes(text):
    try:
        parse(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.column >= 1


def test_print_parse_print_fixpoint():
    rng = random.Random(8)
    for _ in range(100):
        program = random_program(rng, 5)
        once = print_program(program)
        assert print_program(parse(once)) == once


def test_subterms_parents_first_left_to_right():
    program = parse("x := y + 1; { skip } <1/2> { exit }")
    assert [type(t).__name__ for t in subterms(program)] == [
        "Seq", "Assign", "ABin", "Var", "RatLit",
        "ProbChoice", "Skip", "RatLit", "Exit"]
    long = seq_of([SKIP] * 5000)
    assert sum(1 for _ in subterms(long)) == 2 * 5000 - 1


@pytest.mark.parametrize("value", [
    Fraction(10 ** 4300), Fraction(-10 ** 4300), Fraction(1, 10 ** 4300)])
def test_print_rational_refuses_more_than_4300_digits(value):
    with pytest.raises(TooManyDigits):
        print_rational(value)


def test_print_rational_prints_4300_digits():
    top = 10 ** 4300 - 1
    assert print_rational(Fraction(-top, top - 1)) == f"-{top}/{top - 1}"


# ---------------------------------------------------------------------------
# Memoised hashes and statement texts
# ---------------------------------------------------------------------------

def reference_print(p):
    """The recursive printer print_program must agree with."""
    if isinstance(p, Empty):
        return "bot"
    if isinstance(p, Skip):
        return "skip"
    if isinstance(p, Exit):
        return "exit"
    if isinstance(p, Assign):
        return f"{p.var} := {print_aexpr(p.expr)}"
    if isinstance(p, Seq):
        return f"{reference_print(p.first)}; {reference_print(p.rest)}"
    if isinstance(p, ProbChoice):
        return (f"{{ {reference_print(p.left)} }} <{print_aexpr(p.prob)}> "
                f"{{ {reference_print(p.right)} }}")
    if isinstance(p, NondetChoice):
        return (f"{{ {reference_print(p.left)} }} [] "
                f"{{ {reference_print(p.right)} }}")
    if isinstance(p, While):
        return f"while ({print_bexpr(p.guard)}) {{ {reference_print(p.body)} }}"
    text = f"if ({print_bexpr(p.guard)}) {{ {reference_print(p.then)} }}"
    if not isinstance(p.orelse, Empty):
        text += f" else {{ {reference_print(p.orelse)} }}"
    return text


def residual_programs(program, layers=8):
    """The programs step reaches from `program` within `layers` steps."""
    out = [program]
    frontier = [initial_state(program)]
    for _ in range(layers):
        frontier = [succ.state for state in frontier
                    if not is_terminal(state) for succ in step(state)]
        out += [state.program for state in frontier]
    return out


def sample_programs(seed):
    """Fresh terms, none hashed or printed yet: random programs, active
    loops, and the residual programs step builds from the loops."""
    rng = random.Random(seed)
    programs = [random_program(rng, 5) for _ in range(20)]
    for _ in range(5):
        programs += residual_programs(random_active_program(rng))
    return programs


def field_tuple(term):
    return tuple(getattr(term, f.name) for f in fields(term))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hash_is_the_hash_of_the_field_tuple(seed):
    for program in sample_programs(seed):
        # Children before parents, so that each hash(term) below is that
        # term's first, computed from children already checked.
        for term in reversed(list(subterms(program))):
            expected = hash(field_tuple(term))
            assert hash(term) == expected, term
            assert hash(term) == expected, term


@pytest.mark.parametrize("seed", [4, 5])
def test_equal_terms_built_apart_hash_equal(seed):
    rng = random.Random(seed)
    for _ in range(20):
        program = random_program(rng, 5)
        rebuilt = parse(print_program(program))
        assert rebuilt == program
        assert hash(rebuilt) == hash(program)
    for _ in range(5):
        loop = random_active_program(rng)
        # Residual programs nest their sequences as step builds them, which
        # the parser does not, so they are rebuilt by stepping again.
        once, again = residual_programs(loop), residual_programs(loop)
        assert once == again
        assert [hash(p) for p in once] == [hash(p) for p in again]


@pytest.mark.parametrize("seed", [6, 7])
def test_print_program_matches_the_recursive_printer(seed):
    for program in sample_programs(seed):
        expected = reference_print(program)
        assert print_program(program) == expected
        assert print_program(program) == expected  # from the kept texts


def test_print_program_refuses_a_non_program():
    for term in (RatLit(Fraction(1)), BoolLit(True), 7):
        with pytest.raises(TypeError):
            print_program(term)


def test_graph_keys_print_each_statement_once(monkeypatch):
    calls = 0
    statement_text = syntax._print_statement

    def counting(p):
        nonlocal calls
        calls += 1
        return statement_text(p)

    monkeypatch.setattr(syntax, "_print_statement", counting)
    # Straight-line, so its only statement nodes are assignments and bot.
    graph = collapse_to_state_graph(
        seq_of(Assign("x", RatLit(Fraction(i))) for i in range(300)), 1000)
    keys = [state.key() for state in graph.states]
    statements = {id(term) for state in graph.states
                  for term in subterms(state.program)
                  if isinstance(term, (Assign, Empty))}
    assert len(keys) == 600
    assert 0 < calls <= len(statements) == 301
