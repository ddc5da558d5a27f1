import random
from fractions import Fraction

import pytest

from pastlab.semantics import (Direction, EMPTY_VALUATION, ExecState,
                               Successor, TerminalStepError, Valuation,
                               eval_aexpr, eval_bexpr, initial_state,
                               is_terminal, step)
from pastlab.syntax import (EMPTY, Assign, Empty, Exit, If, NondetChoice,
                            ProbChoice, Seq, Skip, While, parse, parse_aexpr,
                            parse_bexpr)
from conftest import random_active_program, random_program


def val(**kwargs):
    return Valuation({k: Fraction(v) for k, v in kwargs.items()})


def test_eval_aexpr():
    assert eval_aexpr(parse_aexpr("x + 1"), val(x=3)) == 4
    assert eval_aexpr(parse_aexpr("y"), Valuation()) == 0
    assert eval_aexpr(parse_aexpr("2 * x - 1/2"), val(x=Fraction(1, 4))) == 0


def test_eval_bexpr():
    assert eval_bexpr(parse_bexpr("x != 0"), val(x=1)) is True
    assert eval_bexpr(parse_bexpr("x != 0"), Valuation()) is False
    assert eval_bexpr(parse_bexpr("x + y = 0"), val(x=1, y=-1)) is True


def test_valuation_is_persistent_and_zero_normalised():
    base = Valuation()
    updated = base.set("x", 3)
    assert base.get("x") == 0 and updated.get("x") == 3
    assert updated.set("x", 0) == base
    assert hash(updated.set("x", 0)) == hash(base)


def test_assign_under_sequence():
    program = parse("x := 1; while (x != 0) { skip }")
    (succ,) = step(initial_state(program))
    assert succ.direction is None
    assert succ.state.valuation.get("x") == 1
    assert succ.state.prob == 1
    assert succ.state.history == ()


def test_prob_split():
    program = parse("{ x := 1 } <1/2> { x := 2 }")
    left, right = step(initial_state(program))
    assert left.direction is Direction.Lp and right.direction is Direction.Rp
    assert left.state.prob == Fraction(1, 2)
    assert right.state.prob == Fraction(1, 2)
    assert left.state.history == (Direction.Lp,)
    assert right.state.history == (Direction.Rp,)


def test_forced_prob_branches_extend_history():
    low = parse("{ x := 1 } <0> { x := 2 }")
    (succ,) = step(initial_state(low))
    assert succ.state.prob == 1 and succ.state.history == (Direction.Rp,)
    high = parse("{ x := 1 } <3/2> { x := 2 }")
    (succ,) = step(initial_state(high))
    assert succ.state.prob == 1 and succ.state.history == (Direction.Lp,)


def test_state_dependent_probability():
    program = parse("{ skip } <p> { exit }")
    state = ExecState(program, val(p=Fraction(1, 3)), Fraction(1), ())
    left, right = step(state)
    assert left.state.prob == Fraction(1, 3)
    assert right.state.prob == Fraction(2, 3)


def test_nondet_steps_to_both_arms():
    program = parse("{ y := 0 } [] { y := 1 }")
    state = ExecState(program, Valuation(), Fraction(1), (Direction.Lp,))
    left, right = step(state)
    assert left.site is not None and right.site is not None
    assert left.site is right.site is program
    assert (left.direction, right.direction) == (Direction.Ln, Direction.Rn)
    assert left.state.history == (Direction.Lp, Direction.Ln)
    assert right.state.history == (Direction.Lp, Direction.Rn)
    assert left.state.program == parse("y := 0")
    assert right.state.program == parse("y := 1")
    assert left.state.prob == right.state.prob == 1


def test_exit_collapses_continuation():
    program = parse("exit; x := 1; x := 2")
    (succ,) = step(initial_state(program))
    assert is_terminal(succ.state)
    assert succ.state.prob == 1


def test_skip_one_step():
    (succ,) = step(initial_state(parse("skip")))
    assert is_terminal(succ.state)


def test_if_reduces_in_one_step():
    program = parse("if (x = 0) { x := 1 } else { x := 2 }")
    (succ,) = step(initial_state(program))
    assert succ.state.program == parse("x := 1")


def test_while_unfold_and_exit():
    program = parse("while (x != 0) { skip }")
    (succ,) = step(initial_state(program))
    assert is_terminal(succ.state)
    state = ExecState(program, val(x=1), Fraction(1), ())
    (succ,) = step(state)
    assert succ.state.program == parse("skip; while (x != 0) { skip }")


def test_is_terminal():
    assert is_terminal(initial_state(parse("bot")))
    assert not is_terminal(initial_state(parse("skip")))
    assert not is_terminal(initial_state(parse("bot; skip")))


def test_step_terminal_is_contract_violation():
    with pytest.raises(TerminalStepError):
        step(initial_state(parse("bot")))


def test_probability_conservation_and_history_discipline(rng):
    for _ in range(150):
        program = random_program(rng, 4)
        state = initial_state(program)
        frontier = [state]
        for _ in range(6):
            layer = []
            for st in frontier:
                if is_terminal(st):
                    continue
                succs = step(st)
                if any(s.site is not None for s in succs):
                    # Demonic branching: each direction keeps the full mass.
                    assert all(s.state.prob == st.prob for s in succs)
                else:
                    assert sum(s.state.prob for s in succs) == st.prob
                for succ in succs:
                    extension = len(succ.state.history) - len(st.history)
                    if succ.direction is None:
                        assert extension == 0
                    else:
                        assert extension == 1
                    assert succ.state.history[:len(st.history)] == st.history
                    assert succ.state.prob > 0
                    layer.append(succ.state)
            frontier = layer


def test_replayability(rng):
    for _ in range(30):
        program = random_program(rng, 4)
        state = initial_state(program)
        if is_terminal(state):
            continue
        assert step(state) == step(state)


def test_exec_state_to_json():
    program = parse("{ skip } <1/2> { exit }")
    state = initial_state(program)
    (left, _) = step(state)
    data = left.state.to_json()
    assert data["history"] == "Lp"
    assert data["prob"] == "1/2"


# ---------------------------------------------------------------------------
# Step plans against the reference stepper
# ---------------------------------------------------------------------------

def reference_split(program):
    """The head redex and the sequence rests pending around it, outermost
    first: the redex is the program with its Seq spine peeled, or a Seq
    whose finished first component is discharged next."""
    rests = []
    while isinstance(program, Seq) and not isinstance(program.first, Empty):
        rests.append(program.rest)
        program = program.first
    return program, rests


def reference_redex_successors(redex, valuation):
    """(program, valuation, factor, direction) for each successor of the
    head redex alone; a factor of None leaves the probability as is."""
    if isinstance(redex, Assign):
        value = eval_aexpr(redex.expr, valuation)
        return [(EMPTY, valuation.set(redex.var, value), None, None)]
    if isinstance(redex, (Skip, Exit)):
        return [(EMPTY, valuation, None, None)]
    if isinstance(redex, If):
        chosen = redex.then if eval_bexpr(redex.guard, valuation) \
            else redex.orelse
        return [(chosen, valuation, None, None)]
    if isinstance(redex, While):
        if eval_bexpr(redex.guard, valuation):
            return [(Seq(redex.body, redex), valuation, None, None)]
        return [(EMPTY, valuation, None, None)]
    if isinstance(redex, ProbChoice):
        p = eval_aexpr(redex.prob, valuation)
        if p <= 0:
            return [(redex.right, valuation, None, Direction.Rp)]
        if p >= 1:
            return [(redex.left, valuation, None, Direction.Lp)]
        return [(redex.left, valuation, p, Direction.Lp),
                (redex.right, valuation, 1 - p, Direction.Rp)]
    if isinstance(redex, NondetChoice):
        return [(redex.left, valuation, None, Direction.Ln),
                (redex.right, valuation, None, Direction.Rn)]
    assert isinstance(redex, Seq)  # its first component has finished
    return [(redex.rest, valuation, None, None)]


def reference_step(state):
    """The stepper step must agree with: split off the head redex, apply
    the rule to it alone, and wrap each successor in the pending rests."""
    redex, rests = reference_split(state.program)
    if isinstance(redex, Exit):  # exit collapses every pending rest
        rests = ()
    out = []
    site = redex if isinstance(redex, NondetChoice) else None
    for program, valuation, factor, direction in \
            reference_redex_successors(redex, state.valuation):
        for rest in reversed(rests):
            program = Seq(program, rest)
        prob = state.prob if factor is None else state.prob * factor
        history = state.history if direction is None \
            else state.history + (direction,)
        out.append(Successor(ExecState(program, valuation, prob, history),
                             direction, site))
    return out


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_step_matches_the_reference_stepper(seed):
    rng = random.Random(seed)
    programs = [random_program(rng, 5) for _ in range(25)]
    programs += [random_active_program(rng) for _ in range(10)]
    for program in programs:
        # A root with a probability and a history of its own, so that the
        # scaling and the extension of both show.
        frontier = [ExecState(program, EMPTY_VALUATION, Fraction(2, 3),
                              (Direction.Rp,))]
        for _ in range(8):  # the program and 8 layers of its residuals
            layer = []
            for state in frontier:
                if is_terminal(state):
                    continue
                want = reference_step(state)
                got = step(state)
                assert got == want, state
                assert [s.site for s in got] == [s.site for s in want]
                assert all(a.site is b.site for a, b in zip(got, want))
                layer += [succ.state for succ in got]
            frontier = layer


@pytest.mark.parametrize("seed", [14, 15])
def test_stepping_a_program_twice_returns_the_same_programs(seed):
    rng = random.Random(seed)
    for _ in range(5):
        loop = random_active_program(rng)
        frontier = [initial_state(loop)]
        for _ in range(8):
            layer = []
            for state in frontier:
                if is_terminal(state):
                    continue
                once, again = step(state), step(state)
                assert [s.state.program for s in once] == \
                    [s.state.program for s in again]
                assert all(a.state.program is b.state.program
                           for a, b in zip(once, again))
                layer += [succ.state for succ in once]
            frontier = layer
