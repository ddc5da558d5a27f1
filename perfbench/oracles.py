"""Correctness references for the benchmark, independent of the layer under test.

Loop families are checked against a per-iteration Markov chain: under the
one-step-per-rule convention every iteration of these loops takes a fixed
number of steps, splits its paths at fixed offsets, and moves the loop
variable by a known distribution, so terminal mass, frontier mass, frontier
path count and the expected-runtime series prefix follow from the chain
without running the interpreter.  The AST semi-check has a closed form,
certificates are checked by an exact Bellman residual, and long straight-line
programs by a small evaluator for the statement subset the generator emits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

ONE = Fraction(1)
ZERO = Fraction(0)

EXIT = object()  # outcome of a branch that executes `exit` mid-iteration


@dataclass(frozen=True)
class LoopModel:
    """A while loop seen one iteration at a time.

    prefix: steps from the initial state to the first loop head.
    period: steps of one iteration, from loop head back to loop head.
    paths_at(o): live paths, per path entering an iteration, `o` steps in.
    guard(s): whether the loop body runs from chain state `s`.
    branches(s, k): (probability, next state or (EXIT, offset)) for the k-th
        iteration (0-based) started from `s`.
    A loop head whose guard fails terminates one step later.
    """

    init: object
    prefix: int
    period: int
    paths_at: Callable[[int], int]
    guard: Callable[[object], bool]
    branches: Callable[[object, int], List[Tuple[Fraction, object]]]


@dataclass(frozen=True)
class Profile:
    hits: List[Fraction]   # hits[d]: mass that terminates at depth d
    live_paths: int        # non-terminal paths at the final depth
    live_mass: Fraction

    def terminal_mass(self) -> Fraction:
        return sum(self.hits, ZERO)

    def runtime_lower_bound(self, k: int) -> Fraction:
        """sum over j < k of (1 - mass terminated within j steps)."""
        total, cum = ZERO, ZERO
        for j in range(k):
            cum += self.hits[j]
            total += ONE - cum
        return total


def profile(model: LoopModel, depth: int) -> Profile:
    """Exact per-depth termination profile of a bounded per-path run."""
    if depth < model.prefix:
        raise ValueError("depth must reach the loop head")
    hits = [ZERO] * (depth + 1)
    dist: Dict[object, Tuple[Fraction, int]] = {model.init: (ONE, 1)}
    head, k = model.prefix, 0
    while True:
        if head == depth:
            return Profile(hits, sum(c for _, c in dist.values()),
                           sum((m for m, _ in dist.values()), ZERO))
        inside = depth < head + model.period
        offset = depth - head
        live_paths, live_mass = 0, ZERO
        nxt: Dict[object, Tuple[Fraction, int]] = {}
        for state, (mass, count) in dist.items():
            if not model.guard(state):
                hits[head + 1] += mass
                continue
            if inside:
                live_paths += count * model.paths_at(offset)
                live_mass += mass
            for prob, out in model.branches(state, k):
                if isinstance(out, tuple) and out[0] is EXIT:
                    if head + out[1] <= depth:
                        hits[head + out[1]] += mass * prob
                        if inside:
                            live_mass -= mass * prob
                    continue
                m, c = nxt.get(out, (ZERO, 0))
                nxt[out] = (m + mass * prob, c + count)
        if inside:
            return Profile(hits, live_paths, live_mass)
        dist, head, k = nxt, head + model.period, k + 1


# ---------------------------------------------------------------------------
# Loop families used by the explore and schedule workloads
# ---------------------------------------------------------------------------

def walk(x0: int, p: Fraction) -> LoopModel:
    """x := x0; while (x != 0) { { x := x + 1 } <p> { x := x - 1 } }"""
    return LoopModel(
        init=x0, prefix=2, period=4,
        paths_at=lambda o: 1 if o < 2 else 2,
        guard=lambda x: x != 0,
        branches=lambda x, k: [(p, x + 1), (ONE - p, x - 1)])


def geometric(p: Fraction) -> LoopModel:
    """while (x = 0) { { skip } <p> { exit } }"""
    return LoopModel(
        init=0, prefix=0, period=4,
        paths_at=lambda o: {0: 1, 1: 1, 2: 2, 3: 1}[o],
        guard=lambda x: x == 0,
        branches=lambda x, k: [(p, x), (ONE - p, (EXIT, 3))])


def choice_loop(p: Fraction, extra: int, decide: Callable[[int], str]) -> LoopModel:
    """x := 0; y := 0; z := z0;
    while (x + y = 0) { { y := 0 } [] { y := 1 }; { x := 0 } <p> { x := 1 };
                        z := 4 * z (extra + 1 times) }"""
    def branches(state, k):
        y = 0 if decide(k) == "Ln" else 1
        return [(p, (0, y)), (ONE - p, (1, y))]
    return LoopModel(
        init=(0, 0), prefix=6, period=choice_loop_period(extra),
        paths_at=lambda o: 1 if o < 5 else 2,
        guard=lambda s: s[0] + s[1] == 0,
        branches=branches)


def choice_loop_period(extra: int) -> int:
    return 9 + 2 * extra


def nondet_walk(x0: int, p: Fraction, q: Fraction,
                decide: Callable[[int], str]) -> LoopModel:
    """x := x0; while (x > 0) { { x := x + 1 } [] { x := x - 1 };
    { x := x + 1 } <p> { x := x - 1 }; { x := x + 1 } <q> { x := x - 1 } }"""
    def branches(x, k):
        x = x + 1 if decide(k) == "Ln" else x - 1
        out = []
        for a, pa in ((1, p), (-1, ONE - p)):
            for b, pb in ((1, q), (-1, ONE - q)):
                out.append((pa * pb, x + a + b))
        return out
    return LoopModel(
        init=x0, prefix=2, period=10,
        paths_at=lambda o: 1 if o < 5 else (2 if o < 8 else 4),
        guard=lambda x: x > 0,
        branches=branches)


def scheduler_decisions(spec: str, history_per_iteration: int) -> Callable[[int], str]:
    """The answer a scheduler spec gives at the k-th query along a path, for
    loops that query once per iteration at the start of the body and add
    `history_per_iteration` directions per iteration."""
    if spec in ("const:Ln", "const:Rn"):
        d = spec.split(":")[1]
        return lambda k: d
    if spec == "alt":
        return lambda k: "Ln" if (history_per_iteration * k) % 2 == 0 else "Rn"
    if spec.startswith("bounded:"):
        _, bound, inner = spec.split(":", 2)
        bound = int(bound)
        if inner not in ("const:Ln", "const:Rn"):
            raise ValueError(f"no reference for scheduler {spec!r}")
        base = scheduler_decisions(inner, history_per_iteration)
        flip = {"Ln": "Rn", "Rn": "Ln"}
        # A constant inner answer is overridden once every bound + 1 queries.
        return lambda k: flip[base(k)] if k % (bound + 1) == bound else base(k)
    raise ValueError(f"no reference for scheduler {spec!r}")


def depth_for_frontier(model: LoopModel, target: int, limit: int) -> int:
    """Smallest depth at which the live path count reaches target (path
    counts only: the same chain as `profile` without the masses)."""
    counts: Dict[object, int] = {model.init: 1}
    head, k = model.prefix, 0
    while head <= limit:
        for offset in range(model.period):
            live = sum(c * model.paths_at(offset) if model.guard(s)
                       else (c if offset == 0 else 0)
                       for s, c in counts.items())
            if live >= target:
                return head + offset
        nxt: Dict[object, int] = {}
        for state, count in counts.items():
            if model.guard(state):
                for _, out in model.branches(state, k):
                    if not (isinstance(out, tuple) and out[0] is EXIT):
                        nxt[out] = nxt.get(out, 0) + count
        counts, head, k = nxt, head + model.period, k + 1
    raise ValueError(f"frontier stays below {target} up to depth {limit}")


# ---------------------------------------------------------------------------
# AST semi-check on the choice_loop family
# ---------------------------------------------------------------------------

def choice_loop_rounds(n: int, extra: int) -> int:
    """Rounds whose coin can end the loop within n steps."""
    return max(0, (n - 6 - 1) // choice_loop_period(extra))


def choice_loop_worst_termination(n: int, extra: int) -> Fraction:
    """Scheduler-independent minimum: each completed round exits w.p. 1/2
    under Ln and surely under Rn, so the worst case is 1 - 2^-rounds."""
    return ONE - Fraction(1, 2 ** choice_loop_rounds(n, extra))


# ---------------------------------------------------------------------------
# Exit-time certificates
# ---------------------------------------------------------------------------

def bellman_residual(kinds, edges, region, times) -> Optional[str]:
    """None if `times` solves t = 1 + (successor | max | mixture) exactly on
    the region (0 outside), else a description of the first violation."""
    if set(times) != set(region):
        return "solution domain differs from the region"

    def val(node):
        return times.get(node, ZERO)

    for node in sorted(region):
        out = edges[node]
        if kinds[node] == "nondet":
            succ = max(val(dst) for dst, _ in out)
        elif kinds[node] == "prob":
            succ = sum((prob * val(dst) for dst, prob in out), ZERO)
        else:
            (dst, _), = out
            succ = val(dst)
        if times[node] != ONE + succ:
            return f"node {node}: {times[node]} != 1 + {succ}"
    return None


# ---------------------------------------------------------------------------
# Straight-line programs with nested if/while
# ---------------------------------------------------------------------------
# Statement forms: ("skip",), ("set", var, const), ("inc", var, const),
# ("if", var, const, then_list, else_list) guarding on var < const, and
# ("loop", counter, times, body_list) for
#     counter := 0; while (counter < times) { counter := counter + 1; body }
# printed as two statements of the enclosing sequence.

def render(stmts) -> str:
    """Canonical concrete syntax, as pastlab's printer formats it."""
    return "; ".join(_render(s) for s in stmts) if stmts else "bot"


def _render(s) -> str:
    kind = s[0]
    if kind == "skip":
        return "skip"
    if kind == "set":
        return f"{s[1]} := {s[2]}"
    if kind == "inc":
        return f"{s[1]} := {s[1]} + {s[2]}"
    if kind == "if":
        text = f"if ({s[1]} < {s[2]}) {{ {render(s[3])} }}"
        if s[4]:
            text += f" else {{ {render(s[4])} }}"
        return text
    if kind == "loop":
        counter, times, body = s[1], s[2], s[3]
        inner = render([("inc", counter, 1)] + body)
        return f"{counter} := 0; while ({counter} < {times}) {{ {inner} }}"
    raise ValueError(kind)


def count_steps(stmts) -> int:
    """Steps to run the program to the empty program, one per rule."""
    env: Dict[str, int] = {}
    return _seq_steps(_flatten(stmts), env)


def _flatten(stmts):
    out = []
    for s in stmts:
        if s[0] == "loop":
            out.append(("set", s[1], 0))
        out.append(s)
    return out


def _seq_steps(stmts, env) -> int:
    # Every statement that is not last in its sequence costs one extra step
    # to discharge the finished first component.
    total = sum(_stmt_steps(s, env) for s in stmts)
    return total + max(0, len(stmts) - 1)


def _stmt_steps(s, env) -> int:
    kind = s[0]
    if kind == "skip":
        return 1
    if kind == "set":
        env[s[1]] = s[2]
        return 1
    if kind == "inc":
        env[s[1]] = env.get(s[1], 0) + s[2]
        return 1
    if kind == "if":
        branch = s[3] if env.get(s[1], 0) < s[2] else s[4]
        return 1 + (_seq_steps(_flatten(branch), env) if branch else 0)
    if kind == "loop":
        counter, times, body = s[1], s[2], s[3]
        steps = 0
        while env.get(counter, 0) < times:
            steps += 1 + _seq_steps(_flatten([("inc", counter, 1)] + body), env) + 1
        return steps + 1
    raise ValueError(kind)
