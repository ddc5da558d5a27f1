"""Certificate checkers over finite program-state graphs.

An RSM certificate (h, epsilon) asserts that h drops by at least epsilon in
expectation at every state where h is positive: through the single successor
of a deterministic state, the worse of the two successors of a
nondeterministic state, and the exact mixture at a probabilistic state.
When it checks out, h(s)/epsilon bounds the expected time to reach the
states where h vanishes, under every scheduler.

A rank certificate (g, k) assigns an ordinal rank to every node, zero
exactly on terminals, and for each non-terminal node an RSM certificate
whose zero set is exactly the strictly-lower-ranked region reachable from
it (plus everything unreachable from it).  Checking is purely structural;
the rule is sound only for normal-form programs, and the regression suite
keeps a non-normal-form certificate that passes while the program diverges.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional

from .exploration import StateGraph
from .ordinal import parse_ordinal, print_ordinal
from .ordinal import ZERO as ORD_ZERO
from .semantics import ONE, ZERO
from .syntax import print_rational, read_rational


class CertificateError(ValueError):
    """Malformed certificate: missing entries or invalid payloads."""


@dataclass(frozen=True)
class RsmCert:
    h: dict  # node id -> non-negative Fraction
    epsilon: Fraction

    def value(self, node: int) -> Fraction:
        if node not in self.h:
            raise CertificateError(f"certificate missing node {node}")
        return self.h[node]

    def to_json(self, graph: StateGraph) -> dict:
        keys = graph.node_keys()
        return {
            "epsilon": print_rational(self.epsilon),
            "h": {keys[i]: print_rational(v)
                  for i, v in sorted(self.h.items())},
        }

    @staticmethod
    def from_json(data: dict, graph: StateGraph,
                  index: Optional[dict] = None,
                  values: Optional[dict] = None) -> "RsmCert":
        """`index` is the graph's key index, when the caller already has it.
        `values` maps each value text this file has given so far to its
        Fraction, so that each distinct text is read once per file."""
        _fields(data, ("epsilon", "h"))
        if index is None:
            index = graph.key_index()
        if values is None:
            values = {}
        h = _by_node(data, "h", index,
                     lambda v: _rational_once(v, "value", values))
        if "epsilon" not in data:
            raise CertificateError("certificate has no epsilon")
        return RsmCert(h, _rational_once(data["epsilon"], "epsilon", values))


@dataclass(frozen=True)
class RuleCert:
    g: dict  # node id -> Ordinal
    k: dict  # non-terminal node id -> RsmCert

    def to_json(self, graph: StateGraph) -> dict:
        keys = graph.node_keys()
        return {
            "g": {keys[i]: print_ordinal(v)
                  for i, v in sorted(self.g.items())},
            "k": {keys[i]: cert.to_json(graph)
                  for i, cert in sorted(self.k.items())},
        }

    @staticmethod
    def from_json(data: dict, graph: StateGraph) -> "RuleCert":
        _fields(data, ("g", "k"))
        index, values = graph.key_index(), {}
        g = _by_node(data, "g", index,
                     lambda v: _read(parse_ordinal, v, "rank"))
        k = _by_node(data, "k", index,
                     lambda v: RsmCert.from_json(v, graph, index, values))
        return RuleCert(g, k)


def _fields(data, allowed) -> None:
    """Refuse a certificate that is not a JSON object of allowed fields."""
    if not isinstance(data, dict):
        raise CertificateError("certificate is not a JSON object")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise CertificateError(f"certificate has unknown field "
                               f"{reprlib.repr(unknown[0])}")


def _by_node(data: dict, name: str, index: dict, read) -> dict:
    """node id -> read(payload) for the certificate's map `name` (empty
    when absent) from state keys to payloads."""
    entries = data.get(name, {})
    if not isinstance(entries, dict):
        raise CertificateError(f"certificate {name!r} is not a JSON object")
    out = {}
    for key, value in entries.items():
        if key not in index:
            raise CertificateError(f"certificate names unknown state {key!r}")
        out[index[key]] = read(value)
    return out


def _rational(text: str) -> Fraction:
    """read_rational(text), refusing the digit separators and surrounding
    whitespace that Fraction accepts and pastlab never prints.  A
    certificate load calls it once per distinct value text, through
    _rational_once."""
    if "_" in text or text != text.strip():
        raise ValueError(f"not a plain rational: {text!r}")
    return read_rational(text)


def _rational_once(value, what: str, values: dict) -> Fraction:
    """_read(_rational, value, what), looked up in `values` (text ->
    Fraction) when an earlier entry gave the same text.  Only accepted texts
    enter `values`, so every refusal is made as if it were the first."""
    if isinstance(value, str) and value in values:
        return values[value]
    values[value] = result = _read(_rational, value, what)
    return result


def _read(parse, value, what: str):
    """parse(value), with a malformed value reported as a CertificateError.
    Values are JSON strings only: a JSON number would be read through its
    binary float value, and true as 1."""
    if not isinstance(value, str):
        raise CertificateError(f"certificate has a bad {what} "
                               f"{reprlib.repr(value)}: not a JSON string")
    try:
        return parse(value)
    except (ValueError, TypeError, AttributeError, ArithmeticError,
            RecursionError) as exc:
        raise CertificateError(f"certificate has a bad {what} "
                               f"{reprlib.repr(value)}") from exc


@dataclass
class Verdict:
    ok: bool
    violations: list = field(default_factory=list)
    # violations: (node, condition-id, lhs, rhs)

    def describe(self, graph: Optional[StateGraph] = None) -> str:
        if self.ok:
            return "OK"
        def show(side):
            return print_rational(side) if isinstance(side, Fraction) else side

        lines = []
        for node, condition, lhs, rhs in self.violations:
            name = graph.node_key(node) if graph is not None else f"#{node}"
            lines.append(f"{condition} at {name}: {show(lhs)} vs {show(rhs)}")
        return "\n".join(lines)


def _successor_value(graph: StateGraph, node: int, value) -> Fraction:
    """What a non-terminal node's successors are worth under value(dst): the
    single successor's value, the worst over nondet edges, or the
    probability-weighted sum."""
    kind = graph.kinds[node]
    edges = graph.edges.get(node, ())
    if kind == "deterministic":
        return value(edges[0].dst)
    if kind == "nondet":
        return max(value(e.dst) for e in edges)
    return sum((e.prob * value(e.dst) for e in edges), ZERO)


def check_rsm(graph: StateGraph, cert: RsmCert,
              restrict: Optional[set] = None) -> Verdict:
    """Verify all RSM conditions; the verdict lists every violated
    inequality with its exact sides.

    With `restrict`, only nodes in that set are examined (used by the proof
    rule to limit a per-state certificate to the states reachable from it).
    """
    if cert.epsilon <= 0:
        return Verdict(False, [(graph.initial, "epsilon-positive",
                                cert.epsilon, ZERO)])
    nodes = range(len(graph.states)) if restrict is None else sorted(restrict)
    violations = []
    for node in nodes:
        value = cert.value(node)
        if value < 0:
            violations.append((node, "h-nonnegative", value, ZERO))
            continue
        if graph.kinds[node] == "terminal":
            if value != 0:
                violations.append((node, "h-zero-on-terminal", value, ZERO))
            continue
        if value == 0:
            continue
        successor = _successor_value(graph, node, cert.value)
        if successor + cert.epsilon > value:
            condition = {"deterministic": "rsm-det", "nondet": "rsm-nondet",
                         "prob": "rsm-prob"}[graph.kinds[node]]
            violations.append((node, condition,
                               successor + cert.epsilon, value))
    return Verdict(not violations, violations)


def rsm_bound(cert: RsmCert, node: int) -> Fraction:
    """h(node)/epsilon: the certified ceiling on the expected time to reach
    the zero set of h from this node, valid once check_rsm passed."""
    return cert.value(node) / cert.epsilon


def lower_set(graph: StateGraph, g: dict, node: int,
              reach: Optional[set] = None) -> set:
    """Nodes reachable from `node` whose rank is strictly below its own;
    `reach` is that reachable cone, when the caller already has it."""
    if node not in g:
        raise CertificateError(f"rank missing node {node}")
    rank = g[node]
    if reach is None:
        reach = graph.reachable_from(node)
    out = set()
    for other in reach:
        if other not in g:
            raise CertificateError(f"rank missing node {other}")
        if g[other] < rank:
            out.add(other)
    return out


def check_proof_rule(graph: StateGraph, cert: RuleCert) -> Verdict:
    """Check the ordinal rank rule: rank zero exactly on terminals, and for
    each non-terminal node a valid RSM certificate over its reachable cone
    whose zero set is exactly the lower-ranked region plus the unreachable
    remainder."""
    violations = []
    all_nodes = set(range(len(graph.states)))
    for node in sorted(all_nodes):
        if node not in cert.g:
            raise CertificateError(f"rank missing node {node}")
        rank = cert.g[node]
        terminal = graph.kinds[node] == "terminal"
        if terminal and rank != ORD_ZERO:
            violations.append((node, "rank-zero-on-terminal", rank, ORD_ZERO))
        if not terminal and rank == ORD_ZERO:
            violations.append((node, "rank-positive-on-nonterminal",
                               rank, ORD_ZERO))
    for node in sorted(all_nodes):
        if graph.kinds[node] == "terminal":
            continue
        if node not in cert.k:
            raise CertificateError(f"certification missing node {node}")
        rsm = cert.k[node]
        reach = graph.reachable_from(node)
        lower = lower_set(graph, cert.g, node, reach)
        expected_zero = lower | (all_nodes - reach)
        for other in sorted(all_nodes):
            value = rsm.value(other)
            if other in expected_zero and value != 0:
                violations.append((other, f"zero-set-at-{node}", value, ZERO))
            if other not in expected_zero and value == 0:
                violations.append((other, f"zero-set-at-{node}", value,
                                   "positive"))
        sub = check_rsm(graph, rsm, restrict=reach)
        for violation in sub.violations:
            violations.append((violation[0], f"{violation[1]}-at-{node}",
                               violation[2], violation[3]))
    return Verdict(not violations, violations)


# ---------------------------------------------------------------------------
# Constructing in-loop RSM certificates
# ---------------------------------------------------------------------------

def _solve_linear(rows: List[List[Fraction]], rhs: List[Fraction]):
    """Gaussian elimination over exact rationals; returns the solution or
    None when the system is singular."""
    size = len(rows)
    a = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [entry / inv for entry in a[col]]
        for r in range(size):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [entry - factor * other
                        for entry, other in zip(a[r], a[col])]
    return [a[i][size] for i in range(size)]


class FixpointDiverges(Exception):
    """The region admits a scheduler that never leaves it."""


def _trapped_subregion(graph: StateGraph, region: set) -> set:
    """Largest subset of the region a scheduler can keep forever: greatest
    fixpoint where deterministic nodes stay, nondeterministic nodes can
    choose to stay, and probabilistic nodes stay with both branches."""
    trapped = set(region)
    changed = True
    while changed:
        changed = False
        for node in list(trapped):
            kind = graph.kinds[node]
            edges = graph.edges.get(node, ())
            if kind == "terminal":
                stays = False
            elif kind == "nondet":
                stays = any(e.dst in trapped for e in edges)
            else:  # deterministic or prob: all successors must stay inside
                stays = all(e.dst in trapped for e in edges)
            if not stays:
                trapped.discard(node)
                changed = True
    return trapped


def _components(graph: StateGraph, region: set) -> List[List[int]]:
    """Strongly connected components of the region's internal edges, by an
    iterative Tarjan pass, in reverse topological order: each component
    comes after every component it can reach."""
    def inside(node):
        return (e.dst for e in graph.edges.get(node, ()) if e.dst in region)

    index, low = {}, {}
    stack, on_stack = [], set()
    components = []
    for root in sorted(region):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, inside(root))]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, inside(succ)))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def _cyclic_exit_times(graph: StateGraph, component: List[int],
                       known: dict) -> Dict[int, Fraction]:
    """Howard policy iteration over one cyclic component with exact linear
    solves; exits from the component enter the right-hand side through the
    exit times in `known` (0 outside the region)."""
    if _trapped_subregion(graph, set(component)):
        raise FixpointDiverges("region not uniformly exit-bounded")
    order = sorted(component)
    index = {node: i for i, node in enumerate(order)}
    policy = {node: graph.edges[node][0].dst for node in order
              if graph.kinds[node] == "nondet"}

    def evaluate():
        size = len(order)
        rows = [[ZERO] * size for _ in range(size)]
        rhs = [ONE] * size
        for node in order:
            i = index[node]
            rows[i][i] = ONE
            kind = graph.kinds[node]
            if kind == "deterministic":
                targets = [(graph.edges[node][0].dst, ONE)]
            elif kind == "nondet":
                targets = [(policy[node], ONE)]
            else:  # prob
                targets = [(e.dst, e.prob) for e in graph.edges[node]]
            for dst, weight in targets:
                if dst in index:
                    rows[i][index[dst]] -= weight
                else:
                    rhs[i] += weight * known.get(dst, ZERO)
        solution = _solve_linear(rows, rhs)
        if solution is None or any(v < 0 for v in solution):
            raise FixpointDiverges("policy evaluation has no finite solution")
        return {node: solution[index[node]] for node in order}

    while True:
        values = evaluate()

        def val(dst):
            return values[dst] if dst in values else known.get(dst, ZERO)

        improved = False
        for node in policy:
            best = max(graph.edges[node], key=lambda e: val(e.dst))
            if val(best.dst) > val(policy[node]):
                policy[node] = best.dst
                improved = True
        if not improved:
            return values


def worst_case_exit_times(graph: StateGraph, region: set) -> Dict[int, Fraction]:
    """Exact least fixpoint of  t = 1 + (max | mixture | successor)  over the
    region, i.e. the scheduler-worst expected number of steps to leave it.

    The region's strongly connected components are solved sinks first: a
    node on no cycle takes its value from its successors in one step, and
    only a cyclic component runs policy iteration with exact linear solves.
    Raises FixpointDiverges when some scheduler never leaves the region.
    """
    region = set(region)
    for node in region:
        if graph.kinds[node] == "terminal":
            raise FixpointDiverges("terminal state inside the region never exits")
    known: Dict[int, Fraction] = {}
    for component in _components(graph, region):
        node = component[0]
        if len(component) == 1 and all(e.dst != node
                                       for e in graph.edges.get(node, ())):
            if not graph.edges.get(node):
                raise FixpointDiverges("region not uniformly exit-bounded")
            known[node] = ONE + _successor_value(
                graph, node, lambda dst: known.get(dst, ZERO))
        else:
            known.update(_cyclic_exit_times(graph, component, known))
    return {node: known[node] for node in sorted(region)}


def in_loop_rsm_from_bound(graph: StateGraph, region: Iterable[int],
                           bound) -> RsmCert:
    """Build the certificate promised by a known exit-time bound for a loop
    region: h is the exact scheduler-worst expected number of steps to
    leave the region (zero outside), with epsilon 1.

    Fails when the fixpoint diverges (the region is not uniformly
    exit-bounded) or when the computed worst case exceeds the stated bound.
    """
    bound = Fraction(bound)
    region = set(region)
    times = worst_case_exit_times(graph, region)
    worst = max(times.values(), default=ZERO)
    if worst > bound:
        raise CertificateError(
            f"stated bound {bound} is below the worst-case exit time {worst}")
    h = {node: ZERO for node in range(len(graph.states))}
    h.update(times)
    return RsmCert(h, ONE)
