"""Shared random generators and independent oracles for the test suite."""

import random
from fractions import Fraction

import pytest

from pastlab import syntax
from pastlab.semantics import step
from pastlab.syntax import (ABin, Assign, BBin, BoolLit, Cmp, EMPTY, EXIT,
                            If, Neg, NondetChoice, Not, ProbChoice, RatLit,
                            SKIP, Seq, Var, While)

VARS = ("x", "y", "z")


def random_aexpr(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return RatLit(Fraction(rng.randrange(0, 6),
                                   rng.choice((1, 1, 2, 3, 4))))
        return Var(rng.choice(VARS))
    op = rng.choice(("+", "-", "*", "neg"))
    if op == "neg":
        return Neg(random_aexpr(rng, depth - 1))
    return ABin(op, random_aexpr(rng, depth - 1), random_aexpr(rng, depth - 1))


def random_bexpr(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.3:
            return BoolLit(rng.random() < 0.5)
        return Cmp(rng.choice(("=", "!=", "<", "<=", ">", ">=")),
                   random_aexpr(rng, depth - 1), random_aexpr(rng, depth - 1))
    op = rng.choice(("and", "or", "not"))
    if op == "not":
        return Not(random_bexpr(rng, depth - 1))
    return BBin(op, random_bexpr(rng, depth - 1), random_bexpr(rng, depth - 1))


def random_statement(rng, depth):
    # Statements are never Seq nodes themselves; sequences only arise from
    # random_program's right-nesting, matching the parser's canonical form.
    choices = ["assign", "skip", "exit"]
    if depth > 0:
        choices += ["while", "if", "nondet", "prob"]
    kind = rng.choice(choices)
    if kind == "assign":
        return Assign(rng.choice(VARS), random_aexpr(rng, depth - 1))
    if kind == "skip":
        return SKIP
    if kind == "exit":
        return EXIT
    if kind == "while":
        return While(random_bexpr(rng, depth - 1),
                     random_program(rng, depth - 1))
    if kind == "if":
        orelse = random_program(rng, depth - 1) if rng.random() < 0.5 else EMPTY
        return If(random_bexpr(rng, depth - 1),
                  random_program(rng, depth - 1), orelse)
    if kind == "nondet":
        return NondetChoice(random_program(rng, depth - 1),
                            random_program(rng, depth - 1))
    return ProbChoice(random_program(rng, depth - 1),
                      random_aexpr(rng, depth - 1),
                      random_program(rng, depth - 1))


def random_program(rng, depth):
    """Right-nested statement list, the parser's canonical shape."""
    count = rng.randrange(1, 3)
    stmts = [random_statement(rng, depth - 1) for _ in range(count)]
    return syntax.seq_of(stmts)


def scheduled_step(state, scheduler, memory):
    """[(successor, scheduler memory after it)] for `state` when `scheduler`
    resolves its choice at `memory`: of a nondeterministic step the arm
    whose direction the scheduler answers, of any other step every
    successor.  With no scheduler every successor is kept, with memory
    None."""
    out = []
    for succ in step(state):
        if scheduler is None:
            out.append((succ, None))
        elif succ.site is None \
                or succ.direction is scheduler.decide(memory, succ.site):
            out.append((succ, memory if succ.direction is None
                        else scheduler.advance(memory, succ.direction,
                                               succ.site)))
    return out


def random_active_program(rng):
    """Loop-shaped random program guaranteed to exercise the step rules at
    many depths: a counter loop whose body mixes probabilistic and
    nondeterministic updates of the counter."""
    one = RatLit(Fraction(1))
    decrement = Assign("x", ABin("-", Var("x"), one))
    body = []
    for _ in range(rng.randrange(1, 3)):
        roll = rng.random()
        if roll < 0.45:
            body.append(ProbChoice(
                decrement,
                RatLit(Fraction(rng.randrange(1, 4), 4)),
                Assign("x", random_aexpr(rng, 1))))
        elif roll < 0.75:
            body.append(NondetChoice(decrement, random_statement(rng, 2)))
        else:
            body.append(random_statement(rng, 2))
    body.append(decrement)
    loop = While(Cmp(">", Var("x"), RatLit(Fraction(0))),
                 syntax.seq_of(body))
    return Seq(Assign("x", RatLit(Fraction(rng.randrange(2, 6)))), loop)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def ballot_walk_oracle(max_flips):
    """First-passage probabilities of the symmetric walk started at 1, by
    brute-force enumeration of coin strings: returns the cumulative chance
    of hitting 0 within n flips, for each n up to max_flips."""
    cumulative = []
    total = Fraction(0)
    for n in range(1, max_flips + 1):
        first_hit = Fraction(0)
        for bits in range(2 ** n):
            position = 1
            for i in range(n):
                position += 1 if (bits >> i) & 1 else -1
                if position == 0:
                    if i == n - 1:
                        first_hit += Fraction(1, 2 ** n)
                    break
        total += first_hit
        cumulative.append(total)
    return cumulative


def geometric_series_limit(offset, stride):
    """Exact value of sum over i >= 1 of (offset + stride * i) / 2**i, via
    the closed forms sum x^i = 1 and sum i x^i = 2 at x = 1/2."""
    return Fraction(offset) + 2 * Fraction(stride)


@pytest.fixture
def rng():
    return random.Random(20240817)
