"""Normal-form recognition and the program constructions.

A program is in normal form when every probabilistic choice is the coin
"{ skip } <p> { exit }": continue or die.  Execution trees of such programs
have a single live branch shedding one dying leaf per coin.

Three emitters produce normal-form programs:

  * to_knievel rebuilds an arbitrary program (with constant branch
    probabilities) as a deterministic simulator of its own execution tree:
    branch weights and the terminated mass are tracked in exact rational
    variables, nondeterministic choices are re-exposed to the scheduler, a
    coin halves the continuation probability once per simulated step, and
    whenever the accumulated expected-runtime series crosses the current
    bound the bound doubles and a cheering loop of length one over the
    current continuation probability adds a constant to the expected
    runtime.  The rebuilt program has a finite expected runtime under a
    scheduler exactly when the source does.  One pass over the source
    compiles each statement straight into its step, a function from a slot
    to what that slot does at the statement's pc; each round dispatches
    every live slot on its pc.

  * emit_tree_reduction turns a tree description into the guessing program
    whose schedulers walk branches of the tree: a nondeterministically
    stopped counting loop picks each child (halving survival per extra
    iteration and cheering to keep per-pick expected cost constant), the
    membership check is compiled inline, and falling off the tree checks
    one deeper probe for disconnectedness (looping forever if it hits)
    before exiting.

  * emit_ordinal_program is the rank-forcing variant: child selection pays
    one coin per iteration, the inline membership check is guarded by a
    fixed number of per-step coins, rejection exits, and acceptance runs an
    increment gadget (scheduler-chosen power of two, then a busy-wait of
    that length) before the next round.

Tree node sequences are packed into one integer variable with the pairing
(a, b) -> (a+b)(a+b+1)/2 + a  plus a separate length counter; the triangular
number is computed by a counting loop since the language has no division.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .syntax import (ABin, Assign, Cmp, EMPTY, Empty, Exit, If,
                     NondetChoice, ProbChoice, Program, RatLit, Seq, Skip, Var,
                     While, parse, print_rational, seq_of, subterms,
                     term_fields)
from .semantics import eval_aexpr, EMPTY_VALUATION


class TransformError(ValueError):
    pass


class NonConstantProbability(TransformError):
    """to_knievel refuses state-dependent branch probabilities."""


class FrontierWidthError(TransformError):
    """The execution-tree frontier cannot be bounded by the fixed slots."""


# ---------------------------------------------------------------------------
# Tree specifications
# ---------------------------------------------------------------------------

RULES = ("full", "all-zeros")


@dataclass(frozen=True)
class TreeSpec:
    """A prefix-closed set of finite child-index sequences.

    Either explicit (a finite set including the empty sequence) or one of
    the rule-defined trees: "full" (every sequence), "all-zeros" (the single
    infinite zero branch), "bounded-depth(d)" (every sequence of length at
    most d).
    """

    explicit: Optional[frozenset] = None
    rule: Optional[str] = None
    depth: Optional[int] = None

    def __post_init__(self):
        if (self.explicit is None) == (self.rule is None):
            raise TransformError("tree spec is explicit or rule-defined")
        if self.explicit is not None:
            if () not in self.explicit:
                raise TransformError("explicit tree must contain the root")
            for seq in self.explicit:
                if seq and seq[:-1] not in self.explicit:
                    raise TransformError(f"tree not prefix-closed at {seq}")
                if any(x < 0 for x in seq):
                    raise TransformError("children are natural numbers")
        elif self.rule not in RULES and self.rule != "bounded-depth":
            raise TransformError(f"unknown rule {self.rule!r}")
        if self.rule == "bounded-depth" and (self.depth is None
                                             or self.depth < 0):
            raise TransformError("bounded-depth needs a depth")

    def contains(self, seq: tuple) -> bool:
        seq = tuple(seq)
        if self.explicit is not None:
            return seq in self.explicit
        if self.rule == "full":
            return True
        if self.rule == "all-zeros":
            return all(x == 0 for x in seq)
        return len(seq) <= self.depth

    @staticmethod
    def from_json(data) -> "TreeSpec":
        if isinstance(data, dict) and "explicit" in data:
            seqs = data["explicit"]
            if isinstance(seqs, list) and all(
                    isinstance(s, list) and all(type(x) is int for x in s)
                    for s in seqs):
                return explicit_tree(seqs)
        elif isinstance(data, dict) and isinstance(data.get("rule"), str):
            return rule_tree(data["rule"])
        raise TransformError('a JSON tree spec is an object with an '
                             '"explicit" list of integer lists or a "rule" '
                             'string')


def explicit_tree(sequences) -> TreeSpec:
    return TreeSpec(explicit=frozenset(tuple(s) for s in sequences))


def rule_tree(name: str) -> TreeSpec:
    name = name.strip()
    if name.startswith("bounded-depth(") and name.endswith(")"):
        return TreeSpec(rule="bounded-depth",
                        depth=int(name[len("bounded-depth("):-1]))
    return TreeSpec(rule=name)


def cantor_pair(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + a


def encode_sequence(seq) -> int:
    code = 0
    for x in seq:
        code = cantor_pair(code, x)
    return code


# ---------------------------------------------------------------------------
# Normal-form recognition
# ---------------------------------------------------------------------------

def is_knievel(p: Program) -> bool:
    """True when every probabilistic choice is { skip } <p> { exit }."""
    return all(isinstance(t.left, Skip) and isinstance(t.right, Exit)
               for t in subterms(p) if isinstance(t, ProbChoice))


# ---------------------------------------------------------------------------
# Shared construction pieces
# ---------------------------------------------------------------------------

# The tree emitters and the increment gadget are written in pGCL and built
# by the parser, so each program is the term that parsing its printed text
# gives.  to_knievel splices renamed source expressions, so it builds terms.

# The survival coin of the normal form: continue or die.
COIN = "{ skip } <1/2> { exit }"

# node := pair(node, x - 1); len := len + 1, with the triangular number of
# node + x - 1 computed by a counting loop.
_APPEND_CHILD = """\
d := node + (x - 1); t := 0; i := 0;
while (i < d) { i := i + 1; t := t + i };
node := t + node; len := len + 1"""


def _membership_check(spec: TreeSpec) -> str:
    """Set z to 1 exactly when the packed (node, len) pair encodes a
    sequence of the tree."""
    if spec.rule == "full":
        return "z := 1"
    if spec.rule == "all-zeros":
        return "if (node = 0) { z := 1 } else { z := 0 }"
    if spec.rule == "bounded-depth":
        return "if (len <= %d) { z := 1 } else { z := 0 }" % spec.depth
    # print_rational refuses a code of more digits than a literal may have.
    tests = ["if (len = %d and node = %s) { z := 1 }"
             % (len(seq), print_rational(encode_sequence(seq)))
             for seq in sorted(spec.explicit)]
    return " else { ".join(tests + ["z := 0"]) + " }" * len(tests)


# ---------------------------------------------------------------------------
# The tree reduction (guessing program with cheering)
# ---------------------------------------------------------------------------

# A nondeterministically stopped counting loop leaving the count in x.  Each
# continued iteration costs one survival coin and doubles the global s, so
# 1/s tracks the probability of the live branch; the closing wait loop of
# length s then adds exactly one to the expected runtime.
_NUMGEN_BLOCK = """\
x := 0; y := 0; w := 0;
while (y = 0) {
  x := x + 1; { y := 0 } [] { y := 1 };
  if (y = 0) { %s; s := 2 * s } };
while (w < s) { w := w + 1 }""" % COIN


def emit_tree_reduction(spec: TreeSpec) -> Program:
    """The guessing program for a tree: schedulers choose a branch child by
    child; walking off the tree triggers one probe for a validated deeper
    node (disconnected input: loop forever) and otherwise stops."""
    return parse("""\
s := 1;
while (true) {
  %(numgen)s;
  %(append)s;
  %(check)s;
  if (z = 0) {
    %(numgen)s;
    n2 := x - 1;
    while (n2 > 0) { %(numgen)s; %(append)s; n2 := n2 - 1 };
    %(check)s;
    if (z = 1) { while (true) { skip } };
    exit } }""" % {"numgen": _NUMGEN_BLOCK, "append": _APPEND_CHILD,
                   "check": _membership_check(spec)})


# ---------------------------------------------------------------------------
# The rank-forcing program (increment gadget variant)
# ---------------------------------------------------------------------------

MACHINE_STEPS = 2  # membership machine steps simulated per check


def _inc(guard: str) -> str:
    """The increment gadget, doubling while guard holds."""
    return """\
ix := 1; iy := 0;
while (%s) { ix := 2 * ix; { iy := 0 } [] { iy := 1 }; %s };
while (ix > 0) { ix := ix - 1 }""" % (guard, COIN)


def emit_inc(cap: Optional[int] = None) -> Program:
    """The increment gadget: a scheduler-chosen doubling run, one survival
    coin per iteration, then a busy-wait of the selected length.  With cap,
    the doubling stops at the cap so the state space stays finite."""
    return parse(_inc("iy = 0" if cap is None
                      else "iy = 0 and ix < %d" % cap))


def emit_ordinal_program(spec: TreeSpec) -> Program:
    """Tree walker whose minimal rank mirrors the tree's ordinal: each
    validated child costs a run of the increment gadget."""
    return parse("""\
while (true) {
  x := 0; y := 0;
  while (y = 0) { x := x + 1; { y := 0 } [] { y := 1 }; %(coin)s };
  %(append)s;
  msteps := %(steps)d;
  while (msteps > 0) { %(coin)s; msteps := msteps - 1 };
  %(check)s;
  if (z = 0) { exit };
  %(inc)s }""" % {"coin": COIN, "append": _APPEND_CHILD,
                  "steps": MACHINE_STEPS, "check": _membership_check(spec),
                  "inc": _inc("iy = 0")})


# ---------------------------------------------------------------------------
# to_knievel: the execution-tree simulator
# ---------------------------------------------------------------------------

MAX_WIDTH = 8  # simultaneous source branches the simulator has slots for


def num(value) -> RatLit:
    return RatLit(Fraction(value))


def chain(conditions, otherwise: Program) -> Program:
    """Nested if dispatch: first matching condition wins."""
    prog = otherwise
    for guard, body in reversed(conditions):
        prog = If(guard, body, prog)
    return prog


def _source_vars(program: Program) -> list:
    return sorted({t.var if isinstance(t, Assign) else t.name
                   for t in subterms(program) if isinstance(t, (Assign, Var))})


def _rename(node, slot):
    """The expression with every variable x renamed to s<slot>_x."""
    if isinstance(node, Var):
        return Var(f"s{slot}_{node.name}")
    return replace(node, **{name: _rename(value, slot)
                            for name, value in term_fields(node)})


def _terminate(slot: int) -> Program:
    return seq_of([
        Assign("term", ABin("+", Var("term"), Var(f"w{slot}"))),
        Assign(f"a{slot}", num(0)),
    ])


def _goto(slot: int, pc: Optional[int]) -> Program:
    """The slot's jump to pc; pc None is the halt address."""
    if pc is None:
        return _terminate(slot)
    return Assign(f"pc{slot}", num(pc))


def to_knievel(program: Program, horizon_policy="double") -> Program:
    """Rebuild a program in normal form, preserving whether its expected
    runtime is finite under each scheduler.

    The output advances every live branch of the source execution tree one
    step per round (branch weights in rational slot variables, at most
    MAX_WIDTH simultaneous branches), re-exposes the source's
    nondeterministic choices, accumulates the expected-runtime series in
    cer, flips one continuation coin per round, and on each crossing of the
    doubling bound cheers for one over the current continuation
    probability.  horizon_policy sets the initial bound: "double" starts at
    1, an integer starts there.

    Probabilities must be constant, and probabilistic choice inside a loop
    is refused: its frontier could outgrow any fixed slot count.
    """
    steps = []  # steps[pc](slot): what slot does at pc, one source step
    splits = []  # per coin of two live arms: whether it is inside a loop

    def emit(step) -> int:
        steps.append(step)
        return len(steps) - 1

    def test(guard, then, orelse):
        return lambda slot: If(_rename(guard, slot), _goto(slot, then),
                               _goto(slot, orelse))

    def split(value, left, right):
        """The step of a coin: the right arm's branch moves into the first
        free slot, with the weight 1 - value and a copy of the variables."""
        def step(slot):
            spawn = chain([(Cmp("=", Var(f"a{target}"), num(0)), seq_of(
                [Assign(f"a{target}", num(1)),
                 Assign(f"pc{target}", num(halt if right is None else right)),
                 Assign(f"w{target}",
                        ABin("*", num(1 - value), Var(f"w{slot}")))]
                + [Assign(f"s{target}_{v}", Var(f"s{slot}_{v}"))
                   for v in source_vars]))
                for target in range(1, width + 1) if target != slot], EMPTY)
            return seq_of([
                spawn,
                Assign(f"w{slot}", ABin("*", num(value), Var(f"w{slot}"))),
                _goto(slot, left),
            ])
        return step

    def compile_node(p, next_pc, in_loop):
        """The pc of p's first step, after emitting p's steps with next_pc
        after them.  Rests, arms and loop bodies are emitted before the
        step that leads into them."""
        if isinstance(p, Empty):
            return next_pc
        if isinstance(p, Skip):
            return emit(lambda slot: _goto(slot, next_pc))
        if isinstance(p, Exit):
            return emit(_terminate)
        if isinstance(p, Assign):
            return emit(lambda slot: seq_of([
                Assign(f"s{slot}_{p.var}", _rename(p.expr, slot)),
                _goto(slot, next_pc)]))
        if isinstance(p, Seq):
            rest = compile_node(p.rest, next_pc, in_loop)
            return compile_node(p.first, rest, in_loop)
        if isinstance(p, If):
            return emit(test(p.guard, compile_node(p.then, next_pc, in_loop),
                             compile_node(p.orelse, next_pc, in_loop)))
        if isinstance(p, While):
            pc = emit(None)  # the body jumps back here
            steps[pc] = test(p.guard, compile_node(p.body, pc, True), next_pc)
            return pc
        if isinstance(p, NondetChoice):
            left = compile_node(p.left, next_pc, in_loop)
            right = compile_node(p.right, next_pc, in_loop)
            return emit(lambda slot: NondetChoice(_goto(slot, left),
                                                  _goto(slot, right)))
        if not isinstance(p, ProbChoice):
            raise TransformError(f"cannot compile {p!r}")
        if any(isinstance(t, Var) for t in subterms(p.prob)):
            raise NonConstantProbability(
                "probabilistic choice with state-dependent probability")
        value = eval_aexpr(p.prob, EMPTY_VALUATION)
        left = compile_node(p.left, next_pc, in_loop)
        right = compile_node(p.right, next_pc, in_loop)
        if not 0 < value < 1:  # a forced coin takes its one arm
            target = right if value <= 0 else left
            return emit(lambda slot: _goto(slot, target))
        splits.append(in_loop)
        return emit(split(value, left, right))

    entry = compile_node(program, None, False)
    halt = len(steps)  # where a pc is printed as a number
    if any(splits):
        raise FrontierWidthError(
            "frontier-encoding width exceeded: probabilistic choice inside "
            "a loop can split an unbounded number of branches")
    width = len(splits) + 1
    if width > MAX_WIDTH:
        raise FrontierWidthError(
            f"frontier-encoding width exceeded: {width} slots needed, "
            f"{MAX_WIDTH} allowed")
    source_vars = _source_vars(program)
    try:
        initial_bound = (1 if horizon_policy == "double"
                         else int(horizon_policy))
    except (TypeError, ValueError) as exc:
        raise TransformError(f"horizon must be 'double' or an integer, "
                             f"not {horizon_policy!r}") from exc

    alive_sum = Var("a1")
    for slot in range(2, width + 1):
        alive_sum = ABin("+", Var(f"a{slot}"), alive_sum)

    round_body = [If(Cmp("=", Var(f"a{slot}"), num(1)), chain(
        [(Cmp("=", Var(f"pc{slot}"), num(pc)), step(slot))
         for pc, step in enumerate(steps)], _terminate(slot)), EMPTY)
        for slot in range(1, width + 1)]
    round_body += [
        Assign("cer", ABin("+", Var("cer"),
                           ABin("-", num(1), Var("term")))),
        parse(COIN),
        Assign("chl", ABin("*", num(2), Var("chl"))),
        If(Cmp(">", Var("cer"), Var("bnd")), seq_of([
            Assign("bnd", ABin("*", num(2), Var("bnd"))),
            Assign("cw", num(0)),
            While(Cmp("<", Var("cw"), Var("chl")),
                  Assign("cw", ABin("+", Var("cw"), num(1)))),
        ]), EMPTY),
    ]
    inits = [
        Assign("a1", num(1)),
        Assign("w1", num(1)),
        Assign("pc1", num(halt if entry is None else entry)),
        Assign("bnd", num(initial_bound)),
        Assign("chl", num(1)),
    ]
    return seq_of(inits + [While(Cmp(">", alive_sum, num(0)),
                                 seq_of(round_body))])
