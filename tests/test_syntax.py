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
                            ParseError, ProbChoice, RatLit, SKIP, Seq, Skip,
                            TooManyDigits, Var, While, parse, parse_aexpr,
                            print_aexpr, print_bexpr, print_program,
                            print_rational, seq_of, subterms)
from conftest import random_active_program, random_program

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
