"""Execution states and the small-step transition relation for pGCL.

An execution state is (program, valuation, probability, history).  The
probability is the exact chance of reaching this state from the initial one;
the history records the direction taken at every probabilistic and
nondeterministic choice, and is what schedulers are consulted with.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .syntax import (ABin, AExpr, Assign, BBin, BExpr, BoolLit, Cmp, Empty,
                     Exit, If, Neg, NondetChoice, Not, ProbChoice, Program,
                     RatLit, Seq, Skip, Var, While, parse, print_program,
                     print_rational)

ONE = Fraction(1)


class Direction(enum.Enum):
    Ln = "Ln"
    Rn = "Rn"
    Lp = "Lp"
    Rp = "Rp"

    def __repr__(self):
        return self.value


History = tuple  # tuple of Direction


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
        return self._items.get(name, Fraction(0))

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
    history: History

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


def exec_state_from_json(data: dict) -> ExecState:
    history = []
    text = data.get("history", "")
    for i in range(0, len(text), 2):
        history.append(Direction(text[i:i + 2]))
    return ExecState(
        parse(data["program"]),
        Valuation({k: Fraction(v) for k, v in data.get("valuation", {}).items()}),
        Fraction(data["prob"]),
        tuple(history),
    )


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


def eval_bexpr(b: BExpr, valuation: Valuation) -> bool:
    if isinstance(b, BoolLit):
        return b.value
    if isinstance(b, Cmp):
        left = eval_aexpr(b.left, valuation)
        right = eval_aexpr(b.right, valuation)
        return {
            "=": left == right, "!=": left != right,
            "<": left < right, "<=": left <= right,
            ">": left > right, ">=": left >= right,
        }[b.op]
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

class Kind(enum.Enum):
    DETERMINISTIC = "deterministic"
    PROB_LEFT = "prob-left"
    PROB_RIGHT = "prob-right"
    NONDET = "nondet"


@dataclass(frozen=True)
class Successor:
    state: ExecState
    kind: Kind


StepOutcome = list  # list of Successor


class TerminalStepError(Exception):
    """Raised when asked to step a state whose program is already empty."""


@dataclass(frozen=True)
class _Branch:
    # One successor of the head redex, before the sequence context is rebuilt.
    program: Program
    valuation: Valuation
    prob_factor: Optional[Fraction]  # None: unchanged; else multiply
    direction: Optional[Direction]
    kind: Kind
    aborts: bool  # an exit collapses every enclosing sequence context


def _head_branches(program, valuation, history, scheduler):
    """Successor branches of the leftmost redex, ignoring Seq context."""
    if isinstance(program, Assign):
        value = eval_aexpr(program.expr, valuation)
        return [_Branch(Empty(), valuation.set(program.var, value),
                        None, None, Kind.DETERMINISTIC, False)]
    if isinstance(program, Skip):
        return [_Branch(Empty(), valuation, None, None,
                        Kind.DETERMINISTIC, False)]
    if isinstance(program, Exit):
        return [_Branch(Empty(), valuation, None, None,
                        Kind.DETERMINISTIC, True)]
    if isinstance(program, If):
        chosen = program.then if eval_bexpr(program.guard, valuation) \
            else program.orelse
        return [_Branch(chosen, valuation, None, None,
                        Kind.DETERMINISTIC, False)]
    if isinstance(program, While):
        if eval_bexpr(program.guard, valuation):
            unfolded = Seq(program.body, program)
            return [_Branch(unfolded, valuation, None, None,
                            Kind.DETERMINISTIC, False)]
        return [_Branch(Empty(), valuation, None, None,
                        Kind.DETERMINISTIC, False)]
    if isinstance(program, ProbChoice):
        p = eval_aexpr(program.prob, valuation)
        if p <= 0:
            return [_Branch(program.right, valuation, None, Direction.Rp,
                            Kind.PROB_RIGHT, False)]
        if p >= 1:
            return [_Branch(program.left, valuation, None, Direction.Lp,
                            Kind.PROB_LEFT, False)]
        return [
            _Branch(program.left, valuation, p, Direction.Lp,
                    Kind.PROB_LEFT, False),
            _Branch(program.right, valuation, 1 - p, Direction.Rp,
                    Kind.PROB_RIGHT, False),
        ]
    if isinstance(program, NondetChoice):
        if scheduler is None:
            # Caller wants both directions (full branching exploration).
            return [
                _Branch(program.left, valuation, None, Direction.Ln,
                        Kind.NONDET, False),
                _Branch(program.right, valuation, None, Direction.Rn,
                        Kind.NONDET, False),
            ]
        direction = scheduler.decide(history, site=program)
        if direction == Direction.Ln:
            return [_Branch(program.left, valuation, None, Direction.Ln,
                            Kind.NONDET, False)]
        return [_Branch(program.right, valuation, None, Direction.Rn,
                        Kind.NONDET, False)]
    if isinstance(program, Seq):
        if isinstance(program.first, Empty):
            return [_Branch(program.rest, valuation, None, None,
                            Kind.DETERMINISTIC, False)]
        branches = _head_branches(program.first, valuation, history,
                                  scheduler)
        out = []
        for br in branches:
            # An aborting branch already collapsed everything; otherwise the
            # rest of the sequence is still pending.
            new_prog = br.program if br.aborts else Seq(br.program, program.rest)
            out.append(_Branch(new_prog, br.valuation, br.prob_factor,
                               br.direction, br.kind, br.aborts))
        return out
    raise TerminalStepError(f"cannot step program {program!r}")


def step(state: ExecState, scheduler) -> StepOutcome:
    """Apply one inference rule to a non-terminal state.

    Returns one successor, or two for a genuine probabilistic split (in which
    case the successor probabilities sum to the parent's).  The scheduler is
    consulted only when the redex is a nondeterministic choice; with no
    scheduler both directions of the choice are successors.
    """
    if is_terminal(state):
        raise TerminalStepError("cannot step a terminal state")
    branches = _head_branches(state.program, state.valuation, state.history,
                              scheduler)
    out = []
    for br in branches:
        prob = state.prob if br.prob_factor is None \
            else state.prob * br.prob_factor
        history = state.history if br.direction is None \
            else state.history + (br.direction,)
        out.append(Successor(ExecState(br.program, br.valuation, prob,
                                       history), br.kind))
    return out


def step_all(state: ExecState) -> StepOutcome:
    """Like step, but expands both directions of a nondeterministic choice."""
    return step(state, None)


def head_redex(program: Program) -> Program:
    """The subprogram the next step will act on (Seq spines peeled)."""
    while isinstance(program, Seq) and not isinstance(program.first, Empty):
        program = program.first
    return program


def classify(ps: ProgramState) -> str:
    """terminal / deterministic / nondet / prob, per the next step.

    Forced probabilistic branches and guard-directed steps count as
    deterministic: they have a single successor under every scheduler.
    """
    if isinstance(ps.program, Empty):
        return "terminal"
    redex = head_redex(ps.program)
    if isinstance(redex, NondetChoice):
        return "nondet"
    if isinstance(redex, ProbChoice):
        p = eval_aexpr(redex.prob, ps.valuation)
        if 0 < p < 1:
            return "prob"
    return "deterministic"
