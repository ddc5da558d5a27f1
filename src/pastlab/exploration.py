"""Bounded execution-tree analytics.

Everything here is exact: probabilities are rationals, and the quantitative
outputs are prefixes of the defining series, never floating approximations.
Depth is counted in applications of the transition relation.

The expected-runtime lower bound after k depths is

    L(k) = sum over j < k of (1 - terminal mass reached within j steps)

which is monotone in k and equals the expected runtime once the tree has no
non-terminal frontier left.  The expected-time-to-reach variant truncates
every path at its first state satisfying the target predicate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, List, Optional

from .semantics import (ONE, Direction, ExecState, Exit, ProgramState,
                        classify, head_redex, initial_state, is_terminal,
                        step, step_all, Kind)  # the tracer patches both steps
from .syntax import NondetChoice, Program, print_rational, subterms
from .scheduling import Scheduler, iter_partial_schedules  # tracer patches it

ZERO = Fraction(0)

DEFAULT_NODE_CAP = 500_000


class ResourceCapExceeded(Exception):
    """Exploration hit the configured node cap."""


class StateSpaceNotClosed(Exception):
    """The reachable program-state space did not close within the bound."""


def _layers(root, depth, node_cap, expand, visit, merge=False):
    """Breadth-first walk of layers 0..depth of the tree below `root`.

    A layer is a list of (item, paths) entries, where paths counts the tree
    paths the entry stands for.  visit(d, layer) records layer d and returns
    the entries to expand; expand(item) returns the children of item, each
    of which joins the next layer with its parent's path count.  The root
    and every generated entry count against node_cap.  No layer past
    `depth` is generated, and the walk stops once nothing is left to expand.

    With merge, items are (ExecState, scheduler memory) pairs and each
    generated layer is merged as it is built (see _MergedLayer), so an entry
    counts when its key first appears; without, every entry is one path.
    """
    layer = [(root, 1)]
    count = 1
    for d in range(depth + 1):
        frontier = visit(d, layer)
        if d == depth or not frontier:
            return
        merged = _MergedLayer() if merge else None
        layer = []
        for item, paths in frontier:
            for child in expand(item):
                if merged is None:
                    layer.append((child, paths))
                    count += 1
                else:
                    count += merged.add(child, paths)
                if count > node_cap:
                    raise ResourceCapExceeded(
                        f"exploration exceeds {node_cap} states")
        if merged is not None:
            layer = merged.entries()


class _MergedLayer:
    """A layer of (ExecState, memory) items merged by (program, valuation,
    memory) as they arrive: one entry per key, carrying the summed prob and
    path count and an empty history.

    A lone entry is not keyed, since the first hash of a program recurses
    once per level of its term; nor is a state whose program is too deep to
    hash, which stays an entry of its own.
    """

    def __init__(self):
        self._groups = []  # [state, memory, prob, paths]
        self._by_key = {}

    def _keyed(self, group):
        """The group already under group's key, after filing group there
        if the key is new; None when the program is too deep to hash."""
        key = (group[0].program, group[0].valuation, group[1])
        try:
            return self._by_key.setdefault(key, group)
        except RecursionError:
            return None

    def add(self, item, paths) -> int:
        """Merge one item in; 1 if it made a new entry, else 0."""
        state, memory = item
        group = [state, memory, state.prob, paths]
        if self._groups:
            if not self._by_key:  # the lone entry so far is keyed now
                self._keyed(self._groups[0])
            same = self._keyed(group)
            if same is not None and same is not group:
                same[2] += state.prob
                same[3] += paths
                return 0
        self._groups.append(group)
        return 1

    def entries(self):
        return [((ExecState(state.program, state.valuation, prob, ()), memory),
                 paths) for state, memory, prob, paths in self._groups]


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


def _successor_states(scheduler):
    """expand for walks whose items are (ExecState, memory) pairs.

    The walk keeps a transition table: each distinct (program, valuation)
    is stepped once, at probability 1 with an empty history, and a state
    that meets it again scales the kept probabilities by its own and
    extends its history by the kept directions.  The table is keyed by
    structure, so equal residual programs built apart share one entry (and
    from then on their successor programs).  The first state too deep to
    hash drops the table: the rest of the walk steps every state."""
    table = {}

    def expand(item):
        nonlocal table
        state, memory = item
        # A state at probability ONE (the object initial_state starts from,
        # which steps that do not split pass through) with an empty history
        # is its own entry: the kept successors are its successors.
        own = state.prob is ONE and not state.history
        kept = None
        if table is not None:
            key = (state.program, state.valuation)
            try:
                kept = table.get(key)
            except RecursionError:
                table = None
        if kept is None:
            if table is None:
                kept, own = step(state), True
            else:
                kept = table[key] = step(state if own else ExecState(
                    state.program, state.valuation, ONE, ()))
        chosen = _scheduled(scheduler, kept, memory)
        if own:
            return [(succ.state, after) for succ, after in chosen]
        out = []
        for succ, after in chosen:
            child = succ.state
            # A step that does not split passes the probability it was
            # given through, so only a genuine split scales.
            prob = state.prob if child.prob is ONE \
                else state.prob * child.prob
            out.append((ExecState(child.program, child.valuation, prob,
                                  state.history + child.history), after))
        return out

    return expand


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
    children: list = field(default_factory=list)  # (Kind, TreeNode)


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
                elif got and node.children[0][0] is Kind.NONDET:
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
                for kind, child in node.children:
                    edges.append({"from": ids[id(node)],
                                  "to": ids[id(child)],
                                  "kind": kind.value})
        return {"depth_cap": self.depth_cap, "nodes": nodes, "edges": edges}


def build_tree(program: Program, scheduler: Scheduler, depth: int,
               node_cap: int = DEFAULT_NODE_CAP) -> ExecTree:
    """Breadth-first execution tree from (program, zero valuation, 1, empty
    history) down to the depth cap.  Terminal states are leaves."""
    levels = []

    def visit(d, layer):
        levels.append([node for (node, _), _ in layer])
        return [entry for entry in layer
                if not is_terminal(entry[0][0].state)]

    def expand(item):
        node, memory = item
        stepped = _scheduled(scheduler, step(node.state), memory)
        node.children = [(succ.kind, TreeNode(succ.state, node.depth + 1))
                         for succ, _ in stepped]
        return [(child, after)
                for (_, child), (_, after) in zip(node.children, stepped)]

    root = TreeNode(initial_state(program), 0)
    _layers((root, _start(scheduler)), depth, node_cap, expand, visit)
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
    frontier = []

    def visit(d, layer):
        nonlocal dead, frontier
        frontier = []
        hit.append(ZERO)
        for entry in layer:
            st = entry[0][0]
            if target is not None and target(st.program_state()):
                hit[d] += st.prob
            elif not is_terminal(st):
                frontier.append(entry)
            elif target is None:
                hit[d] += st.prob
            else:
                dead += st.prob
        return frontier

    if not _asks(program):
        scheduler = None  # never consulted, so nothing to remember
    _layers((initial_state(program), _start(scheduler)), depth, node_cap,
            _successor_states(scheduler), visit, merge=True)
    return MassProfile(depth, hit, dead,
                       [st for (st, _), _ in frontier],
                       [paths for _, paths in frontier],
                       [memory for (_, memory), _ in frontier])


def termination_prob_upto(program: Program, scheduler: Scheduler, k: int,
                          node_cap: int = DEFAULT_NODE_CAP) -> Fraction:
    """Exact probability of reaching a terminal state within k steps."""
    profile = run_masses(program, scheduler, k, node_cap=node_cap)
    return profile.cumulative_hit(k)


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
                       node_cap: int = DEFAULT_NODE_CAP) -> RuntimeBounds:
    """Lower bound (exact when closed) for the expected-runtime series."""
    profile = run_masses(program, scheduler, k, node_cap=node_cap)
    return _series_bounds(profile, k)


def exp_reach_runtime_bounds(program: Program, scheduler: Scheduler,
                             target: Callable[[ProgramState], bool], k: int,
                             node_cap: int = DEFAULT_NODE_CAP) -> RuntimeBounds:
    """Expected time until a path first enters the target set.

    Paths are truncated at their first target hit.  A path that terminates
    without hitting the target never will, so such mass keeps every later
    series term positive and the bounds can only close when all mass hits.
    """
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
    queries = set()

    def visit(d, layer):
        live = []
        for entry in layer:
            st = entry[0][0]
            if not is_terminal(st):
                if classify(st.program_state()) == "nondet":
                    queries.add(st.history)
                live.append(entry)
        return live

    # The query of a layer-d state is made by step d + 1: layers 0..depth-1.
    # With no scheduler, step expands both directions of a choice.
    _layers((initial_state(program), None), depth - 1, node_cap,
            _successor_states(None), visit)
    return queries


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
    """Per-depth count of live states: non-terminal states whose next step
    is not the collapse of an exit.

    Under the one-step exit convention every probabilistic skip-or-exit
    split necessarily leaves a transient exit-headed state at the next
    depth; those states are the terminal leaves of the artery picture and
    are not counted as live.
    """
    widths = []

    def visit(d, layer):
        live = [entry for entry in layer if not is_terminal(entry[0][0])]
        widths.append(sum(not isinstance(head_redex(st.program), Exit)
                          for (st, _), _ in live))
        return live

    _layers((initial_state(program), _start(scheduler)), depth, node_cap,
            _successor_states(scheduler), visit)
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
        initial = data.get("initial", 0)
        if initial not in range(len(nodes)):
            raise ValueError(f"initial node {initial} is missing")
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
    the re-derived graph's entry at the same position."""
    def show(entry):
        return "absent" if entry is _ABSENT else json.dumps(entry)

    for i, (entry, want) in enumerate(zip_longest(given, derived,
                                                  fillvalue=_ABSENT)):
        if entry != want:
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
    kinds = [classify(start)]
    edges = {}
    todo = [0]
    while todo:
        node = todo.pop()
        ps = states[node]
        kind = kinds[node]
        if kind == "terminal":
            continue
        out = []
        exec_state = ExecState(ps.program, ps.valuation, ONE, ())
        for succ in step(exec_state):
            child = succ.state.program_state()
            if child not in index:
                if len(states) >= bound:
                    raise StateSpaceNotClosed(
                        f"state space not closed within {bound} states")
                index[child] = len(states)
                states.append(child)
                kinds.append(classify(child))
                todo.append(index[child])
            if kind == "nondet":
                label = "nondet-left" if succ.direction is Direction.Ln \
                    else "nondet-right"
            elif kind == "prob":
                label = succ.kind.value
            else:
                label = "det"
            out.append(Edge(node, label, index[child],
                            succ.state.prob if kind == "prob" else None))
        edges[node] = out
    return StateGraph(states, kinds, edges, 0)
