"""Builders for the worked certificate fixtures shared by module and
acceptance tests: the rank-omega certificate for the truncated diverging
program, rank certificates over the truncated increment gadget, and the
dense whole-region exit-time solver kept as a reference."""

from fractions import Fraction

from pastlab.certificates import (FixpointDiverges, RsmCert, RuleCert,
                                  _solve_linear, _trapped_subregion,
                                  in_loop_rsm_from_bound,
                                  worst_case_exit_times)
from pastlab.exploration import collapse_to_state_graph
from pastlab.ordinal import OMEGA, ZERO as ORD_ZERO, from_natural
from pastlab.syntax import parse, print_program
from pastlab.transforms import emit_inc

# Truncated variant of the diverging program: the first loop is cut off
# after x reaches 3 so the state space closes, while the countdown still
# quadruples with x.  The untruncated program lives in
# programs/unsound_rank.pgcl.
UNSOUND_TRUNCATED = parse(
    "while (y = 0 and x < 3) { x := x + 1; { y := 0 } <1/2> { y := 1 } }; "
    "z := 1; w := x; "
    "while (w > 0) { z := 4 * z; w := w - 1 }; "
    "while (z > 0) { z := z - 1 }")

FIRST_LOOP_MARK = "while (y = 0 and x < 3)"


def zone_of(graph, mark):
    """Nodes whose residual program still carries the marked loop."""
    return {i for i in range(len(graph))
            if graph.kinds[i] != "terminal"
            and mark in print_program(graph.states[i].program)}


def deterministic_remaining_steps(graph, nodes):
    """Steps to the terminal along a deterministic suffix, per node."""
    remaining = {}

    def walk(node):
        if graph.kinds[node] == "terminal":
            return 0
        if node in remaining:
            return remaining[node]
        (edge,) = graph.edges[node]
        remaining[node] = 1 + walk(edge.dst)
        return remaining[node]

    for node in nodes:
        walk(node)
    return remaining


def build_unsoundness_regression():
    """(graph, certificate) for the truncated diverging program: rank omega
    inside the first loop with the loop's exit-time supermartingale, ranks
    equal to the remaining countdown outside with point certificates."""
    graph = collapse_to_state_graph(UNSOUND_TRUNCATED, 800)
    loop_zone = zone_of(graph, FIRST_LOOP_MARK)
    after_zone = {i for i in range(len(graph))
                  if graph.kinds[i] != "terminal" and i not in loop_zone}
    remaining = deterministic_remaining_steps(graph, after_zone)

    g = {}
    for node in range(len(graph)):
        if graph.kinds[node] == "terminal":
            g[node] = ORD_ZERO
        elif node in loop_zone:
            g[node] = OMEGA
        else:
            g[node] = from_natural(remaining[node])

    k = {}
    size = len(graph)
    for node in loop_zone:
        region = loop_zone & graph.reachable_from(node)
        exit_times = worst_case_exit_times(graph, region)
        bound = max(exit_times.values())
        k[node] = in_loop_rsm_from_bound(graph, region, bound)
    for node in after_zone:
        h = {i: Fraction(0) for i in range(size)}
        h[node] = Fraction(1)
        k[node] = RsmCert(h, Fraction(1))
    return graph, RuleCert(g, k)


# ---------------------------------------------------------------------------
# The increment gadget
# ---------------------------------------------------------------------------

def build_inc_graph(cap):
    program = emit_inc(cap=cap)
    graph = collapse_to_state_graph(program, 2000)
    mark = f"while (iy = 0 and ix < {cap})"
    selection = zone_of(graph, mark)
    countdown = {i for i in range(len(graph))
                 if graph.kinds[i] != "terminal" and i not in selection}
    return graph, selection, countdown


def inc_least_unit_rsm(graph):
    """Pointwise least h of any unit-decrease certificate whose zero set is
    the terminals: the scheduler-worst expected steps to termination."""
    region = {i for i in range(len(graph)) if graph.kinds[i] != "terminal"}
    return worst_case_exit_times(graph, region)


def build_inc_rank1_capped(graph, cap_value):
    """The best rank-1 candidate whose h entries are clamped at cap_value;
    clamping breaks the decrease where the true requirement exceeds it."""
    least = inc_least_unit_rsm(graph)
    size = len(graph)
    g = {node: (ORD_ZERO if graph.kinds[node] == "terminal"
                else from_natural(1))
         for node in range(size)}
    k = {}
    for node in range(size):
        if graph.kinds[node] == "terminal":
            continue
        reach = graph.reachable_from(node)
        h = {i: Fraction(0) for i in range(size)}
        for other in reach:
            if graph.kinds[other] != "terminal":
                h[other] = min(least[other], Fraction(cap_value))
        k[node] = RsmCert(h, Fraction(1))
    return RuleCert(g, k)


def build_inc_rank2(graph, selection, countdown):
    """The two-stage certificate: rank 2 on the selection loop, rank 1 on
    the countdown, with the loop's exit-time supermartingale and the
    countdown's step-count supermartingale."""
    size = len(graph)
    remaining = deterministic_remaining_steps(graph, countdown)
    g = {}
    for node in range(size):
        if graph.kinds[node] == "terminal":
            g[node] = ORD_ZERO
        elif node in selection:
            g[node] = from_natural(2)
        else:
            g[node] = from_natural(1)
    k = {}
    for node in selection:
        region = selection & graph.reachable_from(node)
        exit_times = worst_case_exit_times(graph, region)
        k[node] = in_loop_rsm_from_bound(graph, region,
                                         max(exit_times.values()))
    for node in countdown:
        reach = graph.reachable_from(node)
        h = {i: Fraction(0) for i in range(size)}
        for other in reach:
            if graph.kinds[other] != "terminal":
                h[other] = Fraction(remaining[other])
        k[node] = RsmCert(h, Fraction(1))
    return RuleCert(g, k)


# ---------------------------------------------------------------------------
# Dense reference solver
# ---------------------------------------------------------------------------

def dense_worst_case_exit_times(graph, region):
    """Scheduler-worst expected exit times by policy iteration over the
    whole region at once, one dense exact linear solve per round: the
    reference for the component-wise solver in pastlab.certificates."""
    zero, one = Fraction(0), Fraction(1)
    region = set(region)
    for node in region:
        if graph.kinds[node] == "terminal":
            raise FixpointDiverges("terminal state inside the region never exits")
    if _trapped_subregion(graph, region):
        raise FixpointDiverges("region not uniformly exit-bounded")
    order = sorted(region)
    index = {node: i for i, node in enumerate(order)}
    policy = {node: graph.edges[node][0].dst for node in order
              if graph.kinds[node] == "nondet"}

    def solve():
        size = len(order)
        rows = [[zero] * size for _ in range(size)]
        for node in order:
            i = index[node]
            rows[i][i] = one
            kind = graph.kinds[node]
            if kind == "deterministic":
                targets = [(graph.edges[node][0].dst, one)]
            elif kind == "nondet":
                targets = [(policy[node], one)]
            else:
                targets = [(e.dst, e.prob) for e in graph.edges[node]]
            for dst, weight in targets:
                if dst in index:
                    rows[i][index[dst]] -= weight
        solution = _solve_linear(rows, [one] * size)
        if solution is None or any(v < 0 for v in solution):
            raise FixpointDiverges("policy evaluation has no finite solution")
        return {node: solution[index[node]] for node in order}

    while True:
        values = solve()
        improved = False
        for node in policy:
            best = max(graph.edges[node], key=lambda e: values.get(e.dst, zero))
            if values.get(best.dst, zero) > values.get(policy[node], zero):
                policy[node] = best.dst
                improved = True
        if not improved:
            return values
