"""Execution states and the small-step transition relation for pGCL.

An execution state is (program, valuation, probability, history).  The
probability is the exact chance of reaching this state from the initial one;
the history records the direction taken at every probabilistic and
nondeterministic choice.  step() is the transition relation itself: it
returns both arms of a nondeterministic choice, and exploration keeps the
one a scheduler picks (see scheduling).  It alone classifies transitions:
a step is nondeterministic when its first successor names a site,
probabilistic when it has two successors otherwise, and deterministic when
it has one (a forced coin included).

Step conventions:
  * every inference rule application is exactly one step, including the
    bookkeeping step that discharges a finished first component of a
    sequence;
  * skip becomes the empty program in one step;
  * exit collapses the entire remaining program, including any pending
    sequence context, in one step;
  * an if reduces to the chosen branch in one step;
  * forced probabilistic branches (probability evaluating <= 0 or >= 1)
    keep the probability unchanged but still extend the history.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .syntax import (ABin, AExpr, Assign, BBin, BExpr, BoolLit, Cmp, EMPTY,
                     Empty, Exit, If, Neg, NondetChoice, Not, ProbChoice,
                     Program, RatLit, Seq, Skip, Var, While, print_program,
                     print_rational)

ZERO = Fraction(0)
ONE = Fraction(1)


class Direction(enum.Enum):
    Ln = "Ln"
    Rn = "Rn"
    Lp = "Lp"
    Rp = "Rp"

    def __repr__(self):
        return self.value


class Valuation:
    """Immutable map from variable names to exact rationals; missing reads 0.

    Entries equal to zero are dropped, so two valuations that agree on every
    variable compare (and hash) equal regardless of which zeros were written.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, mapping=None):
        items = {}
        if mapping:
            for name, value in dict(mapping).items():
                value = Fraction(value)
                if value != 0:
                    items[name] = value
        self._items = items
        self._hash = hash(frozenset(items.items()))

    def get(self, name: str) -> Fraction:
        return self._items.get(name, ZERO)

    def set(self, name: str, value) -> "Valuation":
        new = dict(self._items)
        value = Fraction(value)
        if value == 0:
            new.pop(name, None)
        else:
            new[name] = value
        return Valuation(new)

    def items(self):
        return sorted(self._items.items())

    def __eq__(self, other):
        return isinstance(other, Valuation) and self._items == other._items

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{k}={print_rational(v)}" for k, v in self.items())
        return f"{{{inner}}}"


EMPTY_VALUATION = Valuation()


@dataclass(frozen=True)
class ProgramState:
    program: Program
    valuation: Valuation

    def key(self) -> str:
        """Canonical serialized form, used as a node key in graphs."""
        vals = ",".join(f"{k}={print_rational(v)}"
                        for k, v in self.valuation.items())
        return f"{print_program(self.program)} | {vals}"


@dataclass(frozen=True)
class ExecState:
    program: Program
    valuation: Valuation
    prob: Fraction
    history: tuple  # of Direction

    def program_state(self) -> ProgramState:
        return ProgramState(self.program, self.valuation)

    def to_json(self) -> dict:
        return {
            "program": print_program(self.program),
            "valuation": {k: print_rational(v)
                          for k, v in self.valuation.items()},
            "prob": print_rational(self.prob),
            "history": "".join(d.value for d in self.history),
        }


def initial_state(program: Program) -> ExecState:
    return ExecState(program, EMPTY_VALUATION, ONE, ())


def is_terminal(state) -> bool:
    """True exactly for the empty program (a pending sequence is not done)."""
    return isinstance(state.program, Empty)


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

def eval_aexpr(e: AExpr, valuation: Valuation) -> Fraction:
    if isinstance(e, RatLit):
        return e.value
    if isinstance(e, Var):
        return valuation.get(e.name)
    if isinstance(e, Neg):
        return -eval_aexpr(e.operand, valuation)
    if isinstance(e, ABin):
        left = eval_aexpr(e.left, valuation)
        right = eval_aexpr(e.right, valuation)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
    raise TypeError(f"not an arithmetic expression: {e!r}")


_COMPARISONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def eval_bexpr(b: BExpr, valuation: Valuation) -> bool:
    if isinstance(b, BoolLit):
        return b.value
    if isinstance(b, Cmp):
        left = eval_aexpr(b.left, valuation)
        right = eval_aexpr(b.right, valuation)
        return _COMPARISONS[b.op](left, right)
    if isinstance(b, Not):
        return not eval_bexpr(b.operand, valuation)
    if isinstance(b, BBin):
        if b.op == "and":
            return eval_bexpr(b.left, valuation) and eval_bexpr(b.right, valuation)
        return eval_bexpr(b.left, valuation) or eval_bexpr(b.right, valuation)
    raise TypeError(f"not a boolean expression: {b!r}")


# ---------------------------------------------------------------------------
# The transition relation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Successor:
    state: ExecState
    direction: Optional[Direction] = None  # None for a step recording none
    site: Optional[NondetChoice] = None    # the nondet choice it resolved


class TerminalStepError(Exception):
    """Raised when asked to step a state whose program is already empty."""


def _redex_plan(redex):
    """The step plan of a head redex with no sequence pending around it."""
    if isinstance(redex, (Assign, Skip, Exit)):
        return (redex, EMPTY)
    if isinstance(redex, If):
        return (redex, redex.then, redex.orelse)
    if isinstance(redex, While):
        return (redex, Seq(redex.body, redex), EMPTY)
    if isinstance(redex, (ProbChoice, NondetChoice)):
        return (redex, redex.left, redex.right)
    if isinstance(redex, Seq):  # its first component has finished
        return (redex, redex.rest)
    raise TerminalStepError(f"cannot step program {redex!r}")


def _plan(program):
    """The step plan of a non-terminal program, computed once and kept on
    the node: (redex, successor program, ...), where the redex is the
    program with its Seq spine peeled (or a Seq whose finished first
    component is discharged next) and each successor program is already
    wrapped in the sequence rests pending around the redex.  The
    successors are the chosen branch when the guard holds and when it does
    not (if, while), or the left and right arm (<p>, []); any other redex
    has one.  Every Seq of the spine keeps its own plan too."""
    plan = program._plan
    if plan is not None:
        return plan
    spine = []
    while isinstance(program, Seq) and not isinstance(program.first, Empty) \
            and program._plan is None:
        spine.append(program)
        program = program.first
    plan = program._plan
    if plan is None:
        plan = _redex_plan(program)
        object.__setattr__(program, "_plan", plan)
    for seq in reversed(spine):
        if not isinstance(plan[0], Exit):  # exit collapses every pending rest
            plan = (plan[0], *[Seq(after, seq.rest) for after in plan[1:]])
        object.__setattr__(seq, "_plan", plan)
    return plan


def step(state: ExecState) -> list:
    """Apply one inference rule to a non-terminal state.

    Returns one successor, or two: for a genuine probabilistic split, whose
    successor probabilities sum to the parent's, and for a nondeterministic
    choice, whose two arms each keep the parent's probability and name the
    choice as their site.  A coin's probability is clamped to [0, 1] and an
    arm of factor 0 is dropped, so a forced coin has one successor.  The
    successor programs come from the program's plan, so stepping one
    program object twice returns the same ones.
    """
    if is_terminal(state):
        raise TerminalStepError("cannot step a terminal state")
    plan = _plan(state.program)
    redex = plan[0]
    valuation, prob, history = state.valuation, state.prob, state.history
    if isinstance(redex, ProbChoice):
        p = min(max(eval_aexpr(redex.prob, valuation), ZERO), ONE)
        arms = ((plan[1], p, Direction.Lp, None),
                (plan[2], 1 - p, Direction.Rp, None))
    elif isinstance(redex, NondetChoice):
        arms = ((plan[1], ONE, Direction.Ln, redex),
                (plan[2], ONE, Direction.Rn, redex))
    else:
        after = plan[1]
        if isinstance(redex, Assign):
            valuation = valuation.set(redex.var,
                                      eval_aexpr(redex.expr, valuation))
        elif isinstance(redex, (If, While)) \
                and not eval_bexpr(redex.guard, valuation):
            after = plan[2]
        return [Successor(ExecState(after, valuation, prob, history))]
    return [Successor(ExecState(program, valuation,
                                prob if factor == 1 else prob * factor,
                                history + (direction,)),
                      direction, site)
            for program, factor, direction, site in arms if factor]


# No code calls step_all: perfbench/tracing.py reads semantics.step_all and
# patches exploration.step_all by name, beside step.
step_all = step


def head_redex(program: Program) -> Program:
    """The subprogram the next step will act on (Seq spines peeled)."""
    return program if isinstance(program, Empty) else _plan(program)[0]
