"""Bounded execution-tree analytics.

Everything here is exact: probabilities are rationals, and the quantitative
outputs are prefixes of the defining series, never floating approximations.
Depth is counted in applications of the transition relation.

There are two walks.  The per-path walk (`build_tree`) keeps one node per
path of the execution tree, with its probability and history: `tree` and
`ast-check` read it.  The merged walk (`_merged_layers`) joins the paths
that reach the same program, valuation and scheduler memory at the same
depth into one entry holding their summed probability and path count:
`run` and `runtime` read it through `run_masses`.

The expected-runtime lower bound after k depths is

    L(k) = sum over j < k of (1 - terminal mass reached within j steps)

which is monotone in k and equals the expected runtime once the tree has no
non-terminal frontier left.  The expected-time-to-reach variant truncates
every path at its first state satisfying the target predicate.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, List, Optional

from .semantics import (ONE, ZERO, Direction, ExecState, Exit, ProgramState,
                        head_redex, initial_state, is_terminal,
                        step, step_all)  # the tracer patches both steps
from .syntax import Empty, NondetChoice, Program, print_rational, subterms
from .scheduling import (Ln, Rn, Scheduler,
                         iter_partial_schedules)  # the tracer patches it

DEFAULT_NODE_CAP = 500_000


class ResourceCapExceeded(Exception):
    """Exploration hit the configured node cap."""


class StateSpaceNotClosed(Exception):
    """The reachable program-state space did not close within the bound."""


def _merged_layers(program, scheduler, depth, node_cap, visit):
    """Breadth-first walk of layers 0..depth of the execution tree of
    `program` under `scheduler`.  The paths that reach the same (program,
    valuation, scheduler memory) at the same depth are merged into one entry
    [program, valuation, memory, mass, paths]: their summed probability and
    their count.  visit(d, layer) records layer d and returns the entries to
    expand; the walk returns what the last visit returned.  The root and
    every new entry count against node_cap.  No layer past `depth` is
    generated, and the walk stops once nothing is left to expand.  A lone
    entry is not keyed, since the first hash of a program recurses once per
    level of its term; nor is an entry whose program is too deep to hash,
    which stays an entry of its own.  Each entry is keyed at most once, so
    a first entry too deep to hash is tried once per layer.

    Each distinct (program, valuation) is stepped once per walk, at
    probability 1 with an empty history, and the kept successors are scaled
    by the mass of each entry that meets it.  The table is keyed by
    structure, so equal residual programs built apart share one entry (and
    from then on their successor programs).  The first program too deep to
    hash drops the table: the rest of the walk steps every entry."""
    if not _asks(program):
        scheduler = None  # never consulted, so nothing to remember
    start = initial_state(program)
    layer = [[program, start.valuation, _start(scheduler), ONE, 1]]
    count = 1
    table = {}
    for d in range(depth + 1):
        frontier = visit(d, layer)
        if d == depth or not frontier:
            return frontier
        layer, by_key = [], None
        for residual, valuation, memory, mass, paths in frontier:
            kept = None
            if table is not None:
                key = (residual, valuation)
                try:
                    kept = table.get(key)
                except RecursionError:
                    table = None
            if kept is None:
                kept = step(ExecState(residual, valuation, ONE, ()))
                if table is not None:
                    table[key] = kept
            for succ, after in _scheduled(scheduler, kept, memory):
                child = succ.state
                entry = [child.program, child.valuation, after,
                         mass * child.prob, paths]
                if layer:
                    if by_key is None:  # the lone entry so far is keyed now
                        by_key = {}
                        _filed(by_key, layer[0])
                    same = _filed(by_key, entry)
                    if same is not entry:
                        same[3] += entry[3]
                        same[4] += paths
                        continue
                layer.append(entry)
                count += 1
                if count > node_cap:
                    raise ResourceCapExceeded(
                        f"exploration exceeds {node_cap} states")
    return []


def _filed(by_key, entry):
    """The entry already filed under entry's (program, valuation, memory),
    after filing entry there if that key is new; entry itself when its
    program is too deep to hash."""
    try:
        return by_key.setdefault((entry[0], entry[1], entry[2]), entry)
    except RecursionError:
        return entry


def _scheduled(scheduler, successors, memory):
    """[(Successor, scheduler memory once its direction is taken)] for a
    walk under `scheduler`: of a nondeterministic step only the arm the
    scheduler picks at `memory`.  Without a scheduler both arms are kept
    and there is no memory."""
    if scheduler is None:
        return [(succ, None) for succ in successors]
    if successors[0].site is not None:
        answer = scheduler.decide(memory, successors[0].site)
        successors = successors[:1] if answer is Direction.Ln \
            else successors[1:]
    return [(succ, memory if succ.direction is None
             else scheduler.advance(memory, succ.direction, succ.site))
            for succ in successors]


def _start(scheduler):
    return None if scheduler is None else scheduler.start()


def _asks(program: Program) -> bool:
    """True iff the program holds a nondeterministic choice, which is the
    only place a step consults the scheduler."""
    return any(isinstance(term, NondetChoice) for term in subterms(program))


# ---------------------------------------------------------------------------
# Execution trees
# ---------------------------------------------------------------------------

@dataclass
class TreeNode:
    state: ExecState
    depth: int
    children: list = field(default_factory=list)  # (direction, TreeNode)


# The "kind" a tree edge prints for the direction its step took.
_TREE_KIND = {None: "deterministic", Ln: "nondet", Rn: "nondet",
              Direction.Lp: "prob-left", Direction.Rp: "prob-right"}


@dataclass
class ExecTree:
    root: TreeNode
    depth_cap: int
    levels: list  # levels[d] = list of TreeNode at depth d

    @property
    def frontier(self):
        """Non-terminal states left unexpanded at the depth cap."""
        if len(self.levels) <= self.depth_cap:
            return []
        return [n for n in self.levels[self.depth_cap]
                if not is_terminal(n.state)]

    def node_count(self):
        return sum(len(level) for level in self.levels)

    def terminal_mass(self):
        return sum((n.state.prob for level in self.levels for n in level
                    if is_terminal(n.state)), ZERO)

    def frontier_mass(self):
        return sum((n.state.prob for n in self.frontier), ZERO)

    def least_terminal_mass(self):
        """Terminal mass under the worst choice at every nondet node."""
        value = {}
        for level in reversed(self.levels):
            for node in level:
                got = [value.pop(id(child)) for _, child in node.children]
                if is_terminal(node.state):
                    got = [node.state.prob]
                elif got and node.children[0][0] in (Ln, Rn):
                    got = [min(got)]
                value[id(node)] = sum(got, ZERO)
        return value[id(self.root)]

    def to_json(self):
        nodes = []
        edges = []
        ids = {}
        for level in self.levels:
            for node in level:
                ids[id(node)] = len(nodes)
                nodes.append({
                    "id": ids[id(node)],
                    "depth": node.depth,
                    "terminal": is_terminal(node.state),
                    **node.state.to_json(),
                })
        for level in self.levels:
            for node in level:
                for direction, child in node.children:
                    edges.append({"from": ids[id(node)],
                                  "to": ids[id(child)],
                                  "kind": _TREE_KIND[direction]})
        return {"depth_cap": self.depth_cap, "nodes": nodes, "edges": edges}


def build_tree(program: Program, scheduler: Scheduler, depth: int,
               node_cap: int = DEFAULT_NODE_CAP) -> ExecTree:
    """Breadth-first execution tree from (program, zero valuation, 1, empty
    history) down to the depth cap.  Terminal states are leaves.  The root
    and every child count against node_cap."""
    root = TreeNode(initial_state(program), 0)
    layer = [(root, _start(scheduler))]
    levels = []
    count = 1
    for d in range(depth + 1):
        levels.append([node for node, _ in layer])
        frontier = [item for item in layer if not is_terminal(item[0].state)]
        if d == depth or not frontier:
            break
        layer = []
        for node, memory in frontier:
            stepped = _scheduled(scheduler, step(node.state), memory)
            node.children = [(succ.direction, TreeNode(succ.state, d + 1))
                             for succ, _ in stepped]
            layer += [(child, after) for (_, child), (_, after)
                      in zip(node.children, stepped)]
            if count + len(layer) > node_cap:
                raise ResourceCapExceeded(
                    f"exploration exceeds {node_cap} states")
        count += len(layer)
    return ExecTree(root, depth, levels)


# ---------------------------------------------------------------------------
# Mass profiles (terminal/absorbed probability per depth)
# ---------------------------------------------------------------------------

@dataclass
class MassProfile:
    """Per-depth accounting of one bounded run.

    hit_mass[d] is the probability mass first absorbed at depth d (reaching a
    terminal state, or the target for reachability runs).  It has one entry
    per explored depth, so it ends where the walk did: no mass is absorbed
    at a depth past its end.  dead_mass is mass
    that terminated without ever hitting the target and so never will.
    frontier holds the live states at the final explored depth: one per
    distinct (program state, scheduler memory), with the probabilities of
    the paths reaching it summed and an empty history.  frontier_paths[i]
    is the number of execution-tree paths frontier[i] stands for, and
    frontier_memory[i] the scheduler's memory there (None when the program
    never asks the scheduler).
    """

    depth: int
    hit_mass: List[Fraction]
    dead_mass: Fraction
    frontier: List[ExecState]
    frontier_paths: List[int]
    frontier_memory: list

    def cumulative_hit(self, k: int) -> Fraction:
        return sum(self.hit_mass[:k + 1], ZERO)

    def frontier_mass(self) -> Fraction:
        return sum((s.prob for s in self.frontier), ZERO)


def run_masses(program: Program, scheduler: Scheduler, depth: int,
               target: Optional[Callable[[ProgramState], bool]] = None,
               node_cap: int = DEFAULT_NODE_CAP) -> MassProfile:
    hit = []
    dead = ZERO

    def visit(d, layer):
        nonlocal dead
        frontier = []
        hit.append(ZERO)
        for entry in layer:
            program, valuation, _, mass, _ = entry
            if target is not None and target(ProgramState(program,
                                                          valuation)):
                hit[d] += mass
            elif not isinstance(program, Empty):
                frontier.append(entry)
            elif target is None:
                hit[d] += mass
            else:
                dead += mass
        return frontier

    frontier = _merged_layers(program, scheduler, depth, node_cap, visit)
    return MassProfile(depth, hit, dead,
                       [ExecState(program, valuation, mass, ())
                        for program, valuation, _, mass, _ in frontier],
                       [entry[4] for entry in frontier],
                       [entry[2] for entry in frontier])


@dataclass
class RuntimeBounds:
    lower: Fraction
    exact: Optional[Fraction]
    closed: bool


def _series_bounds(profile: MassProfile, k: int) -> RuntimeBounds:
    lower = ZERO
    cum = ZERO
    explored = min(k, len(profile.hit_mass))
    for j in range(explored):
        cum += profile.hit_mass[j]
        lower += ONE - cum
    # Past the explored depths nothing more is absorbed: each later term
    # of the series is the same.
    lower += (k - explored) * (ONE - cum)
    closed = not profile.frontier and profile.dead_mass == 0
    return RuntimeBounds(lower, lower if closed else None, closed)


def exp_runtime_bounds(program: Program, scheduler: Scheduler, k: int,
                       target: Optional[Callable[[ProgramState], bool]] = None,
                       node_cap: int = DEFAULT_NODE_CAP) -> RuntimeBounds:
    """Lower bound (exact when closed) for the expected-runtime series, or
    with a target for the expected time until a path first enters the
    target set.  Paths are truncated at their first target hit.  A path that
    terminates without hitting the target never will, so such mass keeps
    every later series term positive and the bounds can only close when all
    mass hits."""
    profile = run_masses(program, scheduler, k, target=target,
                         node_cap=node_cap)
    return _series_bounds(profile, k)


# ---------------------------------------------------------------------------
# Reachable nondeterministic queries and the AST semi-decider
# ---------------------------------------------------------------------------

def collect_nondet_queries(program: Program, depth: int,
                           node_cap: int = DEFAULT_NODE_CAP) -> set:
    """Histories at which some execution can query the scheduler within
    `depth` steps, exploring both directions of every choice."""
    # The query of a depth-d node is made by step d + 1: depths 0..depth-1.
    tree = build_tree(program, None, depth - 1, node_cap)
    return {node.state.history for level in tree.levels for node in level
            if isinstance(head_redex(node.state.program), NondetChoice)}


def ast_semicheck(program: Program, delta: Fraction, n: int,
                  node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """True iff every partial schedule of size n pushes the termination
    probability within n steps strictly above delta.

    This is one instance of the almost-sure-termination semi-decision
    procedure: a program is AST iff for every delta < 1 some n makes this
    true.  Each history holds at most one nondet node, so the least terminal
    mass of the fully branching tree is the least over partial schedules.
    """
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie strictly between 0 and 1")
    return build_tree(program, None, n, node_cap).least_terminal_mass() > delta


# ---------------------------------------------------------------------------
# Knievel artery measurements
# ---------------------------------------------------------------------------

def artery_widths(program: Program, scheduler: Scheduler, depth: int,
                  node_cap: int = DEFAULT_NODE_CAP) -> list:
    """Per-depth count of live paths: paths at a non-terminal state whose
    next step is not the collapse of an exit.  The walk is merged, so the
    node cap counts distinct states, not paths.

    Under the one-step exit convention every probabilistic skip-or-exit
    split necessarily leaves a transient exit-headed state at the next
    depth; those states are the terminal leaves of the artery picture and
    are not counted as live.
    """
    widths = []

    def visit(d, layer):
        live = [entry for entry in layer if not isinstance(entry[0], Empty)]
        widths.append(sum(paths for program, _, _, _, paths in live
                          if not isinstance(head_redex(program), Exit)))
        return live

    _merged_layers(program, scheduler, depth, node_cap, visit)
    return widths


# ---------------------------------------------------------------------------
# Program-state graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Edge:
    src: int
    label: str  # det / nondet-left / nondet-right / prob-left / prob-right
    dst: int
    prob: Optional[Fraction] = None


KINDS = ("terminal", "deterministic", "nondet", "prob")

# The label a graph edge prints for its direction; every edge of a
# deterministic node is "det", a forced coin's included.
_GRAPH_LABEL = {Ln: "nondet-left", Rn: "nondet-right",
                Direction.Lp: "prob-left", Direction.Rp: "prob-right"}


@dataclass
class StateGraph:
    states: list            # ProgramState per node id
    kinds: list             # terminal / deterministic / nondet / prob
    edges: dict             # node id -> list of Edge
    initial: int = 0
    # Printed state keys, computed on first use: printing is the dominant
    # cost of a certificate round trip.
    _keys: Optional[list] = field(default=None, init=False, repr=False,
                                  compare=False)

    def __len__(self):
        return len(self.states)

    def node_keys(self) -> list:
        if self._keys is None:
            self._keys = [state.key() for state in self.states]
        return self._keys

    def node_key(self, i: int) -> str:
        return self.node_keys()[i]

    def key_index(self) -> dict:
        return {key: i for i, key in enumerate(self.node_keys())}

    def reachable_from(self, start: int) -> set:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for edge in self.edges.get(node, ()):
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    stack.append(edge.dst)
        return seen

    def to_json(self):
        return {
            "initial": self.initial,
            "nodes": [{"id": i, "key": self.node_key(i),
                       "kind": self.kinds[i]}
                      for i in range(len(self.states))],
            "edges": [{"from": e.src, "label": e.label, "to": e.dst,
                       **({"prob": print_rational(e.prob)}
                          if e.prob is not None else {})}
                      for src in range(len(self.states))
                      for e in self.edges.get(src, ())],
        }

    @staticmethod
    def from_json(data: dict) -> "StateGraph":
        """The graph of the initial node's program, re-derived with the step
        function.  The file must be exactly its to_json(); else ValueError
        names the first node or edge that differs."""
        from .syntax import parse
        nodes = data["nodes"]
        unknown = sorted(set(data) - {"initial", "nodes", "edges"})
        if unknown:
            raise ValueError(f"unknown field {reprlib.repr(unknown[0])}")
        initial = data.get("initial", 0)
        if type(initial) is not int or initial not in range(len(nodes)):
            raise ValueError(f"initial node {json.dumps(initial)} is missing")
        program = parse(nodes[initial]["key"].partition(" | ")[0])
        try:
            graph = collapse_to_state_graph(program, len(nodes))
        except StateSpaceNotClosed as exc:
            raise ValueError(f"graph is not closed: its program reaches more "
                             f"than {len(nodes)} states") from exc
        derived = graph.to_json()
        _first_difference("node", nodes, derived["nodes"])
        _first_difference("edge", data.get("edges", []), derived["edges"])
        if initial != derived["initial"]:
            raise ValueError(f"initial node is {initial}, re-derived "
                             f"{derived['initial']}")
        return graph


_ABSENT = object()


def _first_difference(what: str, given: list, derived: list) -> None:
    """ValueError naming the first entry of a graph file's list that is not
    the re-derived graph's entry at the same position, where false, true
    and 0.0 are not the numbers 0 and 1."""
    def show(entry):
        return "absent" if entry is _ABSENT else json.dumps(entry)

    for i, (entry, want) in enumerate(zip_longest(given, derived,
                                                  fillvalue=_ABSENT)):
        if entry != want or any(type(entry[key]) is not type(value)
                                for key, value in want.items()):
            raise ValueError(f"{what} {i} is {show(entry)}, "
                             f"re-derived {show(want)}")


def collapse_to_state_graph(program: Program, bound: int) -> StateGraph:
    """Finite graph of reachable program states, exploring both directions of
    every nondeterministic choice and both probabilistic branches.

    Fails loudly when more than `bound` distinct program states appear, since
    certificate checking on an incomplete graph would prove nothing.
    """
    start = ProgramState(program, initial_state(program).valuation)
    states = [start]
    index = {start: 0}
    kinds = [None]  # set when the node is taken from todo
    edges = {}
    todo = [0]
    while todo:
        node = todo.pop()
        ps = states[node]
        if isinstance(ps.program, Empty):
            kinds[node] = "terminal"
            continue
        successors = step(ExecState(ps.program, ps.valuation, ONE, ()))
        kind = kinds[node] = ("nondet" if successors[0].site is not None
                              else "prob" if len(successors) == 2
                              else "deterministic")
        out = []
        for succ in successors:
            child = succ.state.program_state()
            if child not in index:
                if len(states) >= bound:
                    raise StateSpaceNotClosed(
                        f"state space not closed within {bound} states")
                index[child] = len(states)
                states.append(child)
                kinds.append(None)
                todo.append(index[child])
            label = "det" if kind == "deterministic" \
                else _GRAPH_LABEL[succ.direction]
            out.append(Edge(node, label, index[child],
                            succ.state.prob if kind == "prob" else None))
        edges[node] = out
    return StateGraph(states, kinds, edges, 0)
