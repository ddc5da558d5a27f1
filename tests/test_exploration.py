import json
import pathlib
from collections import Counter
from fractions import Fraction

import pytest

from pastlab import exploration
from pastlab.exploration import (ResourceCapExceeded, StateGraph,
                                 StateSpaceNotClosed, artery_widths,
                                 ast_semicheck, build_tree,
                                 collapse_to_state_graph,
                                 collect_nondet_queries,
                                 exp_runtime_bounds, run_masses)
from pastlab.scheduling import (ConstantScheduler, RandomScheduler, Scheduler,
                                TableScheduler, iter_partial_schedules,
                                parse_scheduler_spec, Ln, Rn)
from pastlab.semantics import head_redex, initial_state, is_terminal
from pastlab.syntax import Exit, NondetChoice, parse, subterms
from pastlab.transforms import emit_inc
from conftest import (ballot_walk_oracle, geometric_series_limit,
                      random_active_program, random_program, scheduled_step)

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"
RANDOM_WALK = parse("x := 1; while (x != 0) "
                    "{ { x := x + 1 } <1/2> { x := x - 1 } }")
GEOMETRIC = parse("while (x = 0) { { skip } <1/2> { exit } }")
SPIN = parse("while (true) { skip }")
# Both coin branches take three steps to the same state when the choice
# answers Ln, one of them asking the scheduler and one not: equal states
# with different scheduler memories under alt and bounded schedulers.
MEMORY_LOOP = parse("x := 3; while (x > 0) { "
                    "{ { x := x + 1 } [] { x := x - 1 } } <1/2> "
                    "{ if (true) { x := x + 1 } else { skip } }; "
                    "{ x := x - 2 } <1/3> { skip } }")
CHOICE_LOOP = parse("x := 0; y := 0; z := 1; while (x + y = 0) "
                    "{ { y := 0 } [] { y := 1 }; "
                    "{ x := 0 } <1/2> { x := 1 }; z := 4 * z }")


def hit_depths(profile):
    return [d for d, mass in enumerate(profile.hit_mass) if mass > 0]


def test_build_tree_single_assign():
    tree = build_tree(parse("x := 1"), ConstantScheduler(Ln), 1)
    assert tree.node_count() == 2
    (direction, child) = tree.root.children[0]
    assert is_terminal(child.state)


def test_build_tree_coin():
    tree = build_tree(parse("{ skip } <1/2> { exit }"), ConstantScheduler(Ln),
                      2)
    assert len(tree.root.children) == 2
    probs = sorted(c.state.prob for _, c in tree.root.children)
    assert probs == [Fraction(1, 2), Fraction(1, 2)]
    assert tree.terminal_mass() == 1


def test_build_tree_conservation_vs_brute_force():
    # Node count must agree with an independent recursive enumerator.
    scheduler = ConstantScheduler(Ln)
    tree = build_tree(RANDOM_WALK, scheduler, 12)
    assert tree.node_count() == states_in_layers(RANDOM_WALK, scheduler, 12)
    # More than one non-terminal state per depth: the walk branches.
    widths = [sum(1 for n in level if not is_terminal(n.state))
              for level in tree.levels]
    assert max(widths) > 1


def test_build_tree_node_cap():
    with pytest.raises(ResourceCapExceeded):
        build_tree(RANDOM_WALK, ConstantScheduler(Ln), 40, node_cap=100)


def states_in_layers(program, scheduler, last):
    """States in layers 0..last of the execution tree, by recursion; with no
    scheduler both arms of every nondeterministic choice are followed."""
    def count(state, memory, depth):
        if depth == last or is_terminal(state):
            return 1
        return 1 + sum(count(succ.state, after, depth + 1) for succ, after
                       in scheduled_step(state, scheduler, memory))
    return count(initial_state(program),
                 None if scheduler is None else scheduler.start(), 0)


class Poison(Scheduler):
    def decide(self, memory, site=None):
        raise AssertionError("scheduler consulted for a nondet-free program")


def test_nondet_free_program_never_asks_the_scheduler(rng):
    programs = [RANDOM_WALK, GEOMETRIC, SPIN,
                parse("exit; x := 1; x := 2"),
                parse("{ x := 1 } <0> { x := 2 }; { x := 3 } <2> { skip }")]
    while len(programs) < 40:
        program = random_program(rng, 4)
        if not any(isinstance(term, NondetChoice)
                   for term in subterms(program)):
            programs.append(program)
    for program in programs:
        build_tree(program, Poison(), 8)
        run_masses(program, Poison(), 8)


@pytest.mark.parametrize("analysis, needed", [
    (lambda cap: build_tree(RANDOM_WALK, ConstantScheduler(Ln), 10,
                            node_cap=cap),
     states_in_layers(RANDOM_WALK, ConstantScheduler(Ln), 10)),
    (lambda cap: run_masses(RANDOM_WALK, ConstantScheduler(Ln), 10,
                            node_cap=cap),
     states_in_layers(RANDOM_WALK, ConstantScheduler(Ln), 10)),
    (lambda cap: artery_widths(RANDOM_WALK, ConstantScheduler(Ln), 10,
                               node_cap=cap),
     states_in_layers(RANDOM_WALK, ConstantScheduler(Ln), 10)),
    # The queries made within 12 steps are those of layers 0..11.
    (lambda cap: collect_nondet_queries(CHOICE_LOOP, 12, node_cap=cap),
     states_in_layers(CHOICE_LOOP, None, 11)),
], ids=["build_tree", "run_masses", "artery_widths", "collect_nondet_queries"])
def test_node_cap_admits_exactly_the_states_needed(analysis, needed):
    analysis(needed)
    with pytest.raises(ResourceCapExceeded):
        analysis(needed - 1)


def test_no_unread_layer_counts_against_the_cap():
    # 18 states fill the 11 reported artery layers and the 12 layers whose
    # queries are collected; a layer beyond them must not be generated.
    assert artery_widths(RANDOM_WALK, ConstantScheduler(Ln), 10,
                         node_cap=18) == [1, 1, 1, 1, 2, 2, 2, 1, 2, 2, 2]
    assert collect_nondet_queries(CHOICE_LOOP, 12, node_cap=18) == {()}


def per_path_reference(tree, scheduler, target=None):
    """hit_mass, dead_mass, live mass per (program state, scheduler memory)
    at the depth cap, the number of live paths there, and the number of
    distinct (program state, memory) pairs among the nodes generated at
    each depth, read off the per-path execution tree.  The memory follows
    each path from the root, or is None when the program never asks the
    scheduler."""
    hit = [Fraction(0)] * (tree.depth_cap + 1)
    dead = Fraction(0)
    live = {}
    paths = 0
    generated = [set() for _ in range(tree.depth_cap + 1)]
    asks = any(isinstance(term, NondetChoice)
               for term in subterms(tree.root.state.program))
    todo = [(tree.root, scheduler.start() if asks else None)]
    while todo:
        node, memory = todo.pop()
        st = node.state
        generated[node.depth].add((st.program_state(), memory))
        if target is not None and target(st.program_state()):
            hit[node.depth] += st.prob
        elif is_terminal(st):
            if target is None:
                hit[node.depth] += st.prob
            else:
                dead += st.prob
        elif node.depth == tree.depth_cap:
            key = (st.program_state(), memory)
            live[key] = live.get(key, Fraction(0)) + st.prob
            paths += 1
        else:
            for direction, child in node.children:
                after = memory
                if asks and len(child.state.history) > len(st.history):
                    site = head_redex(st.program) \
                        if direction in (Ln, Rn) else None
                    after = scheduler.advance(memory,
                                              child.state.history[-1], site)
                todo.append((child, after))
    return hit, dead, live, paths, [len(keys) for keys in generated]


def padded(hit_mass, depth):
    """hit_mass with a zero for each depth up to `depth` past its end, where
    nothing was absorbed."""
    return hit_mass + [Fraction(0)] * (depth + 1 - len(hit_mass))


def merged_frontier(profile):
    live = {}
    for st, memory in zip(profile.frontier, profile.frontier_memory):
        key = (st.program_state(), memory)
        assert key not in live and st.history == ()
        live[key] = st.prob
    return live


MERGING_SCHEDULERS = ["const:Ln", "const:Rn", "alt"] + [
    f"bounded:{k}:const:{d}" for k in (1, 2, 3) for d in ("Ln", "Rn")]


def test_merged_run_masses_match_per_path_tree(rng):
    cases = [(RANDOM_WALK, 30), (GEOMETRIC, 30), (CHOICE_LOOP, 30),
             (MEMORY_LOOP, 30)]
    cases += [(random_program(rng, 4), 8) for _ in range(40)]
    cases += [(random_active_program(rng), 20) for _ in range(30)]
    targets = [lambda ps: ps.valuation.get("x") >= 2,
               lambda ps: ps.valuation.get("x") == 1]
    for spec in MERGING_SCHEDULERS:
        merged_some = False
        for program, depth in cases:
            scheduler = parse_scheduler_spec(spec)
            try:
                tree = build_tree(program, scheduler, depth, node_cap=4000)
            except ResourceCapExceeded:
                continue
            hit, _, live, paths, generated = per_path_reference(tree,
                                                                scheduler)
            profile = run_masses(program, scheduler, depth)
            assert padded(profile.hit_mass, depth) == hit
            assert merged_frontier(profile) == live
            assert profile.frontier_mass() == sum(live.values(), Fraction(0))
            assert sum(profile.frontier_paths) == paths
            merged_some |= len(profile.frontier) < paths

            for target in targets:
                hit, dead, live, paths, _ = per_path_reference(
                    tree, scheduler, target)
                profile = run_masses(program, scheduler, depth,
                                     target=target)
                assert padded(profile.hit_mass, depth) == hit
                assert profile.dead_mass == dead
                assert merged_frontier(profile) == live
                assert sum(profile.frontier_paths) == paths

            # The cap counts merged entries: the root and, at every later
            # depth, each distinct (program state, memory) generated there.
            needed = sum(generated)
            run_masses(program, scheduler, depth, node_cap=needed)
            with pytest.raises(ResourceCapExceeded):
                run_masses(program, scheduler, depth, node_cap=needed - 1)
        assert merged_some, spec


def test_program_too_deep_to_hash_runs_per_path():
    # Hashing a term recurses once per statement, so a long program's
    # states cannot be keyed; its layers stay one entry per path.
    body = "; ".join(f"y := {i}" for i in range(1500))
    program = parse("{ skip } <1/2> { skip }; " + body)
    profile = run_masses(program, ConstantScheduler(Ln), 6)
    assert profile.frontier_paths == [1, 1]
    assert profile.frontier_mass() == 1
    assert all(st.history == () for st in profile.frontier)


def test_layer_head_too_deep_to_hash_is_keyed_once(monkeypatch):
    # Each failed hash of a long program recurses to the recursion limit,
    # so a layer whose first entry cannot be keyed must not retry it for
    # every later entry of the layer.
    filed = []
    real = exploration._filed

    def counting(by_key, entry):
        filed.append(entry)
        return real(by_key, entry)

    monkeypatch.setattr(exploration, "_filed", counting)
    body = "; ".join(f"y := {i}" for i in range(1500))
    program = parse("{ skip } <1/2> { skip }; " * 6 + body)
    run_masses(program, ConstantScheduler(Ln), 20)
    most = max(Counter(map(id, filed)).values())
    assert most == 1


def test_artery_widths_count_paths_on_merged_layers():
    # By depth 30 paths of the walk merge.  The widths still count live,
    # non-exit-headed paths; the node cap counts merged entries.
    scheduler = ConstantScheduler(Ln)
    tree = build_tree(RANDOM_WALK, scheduler, 30)
    widths = [sum(not is_terminal(node.state) and
                  not isinstance(head_redex(node.state.program), Exit)
                  for node in level) for level in tree.levels]
    assert artery_widths(RANDOM_WALK, scheduler, 30) == widths
    needed = sum(per_path_reference(tree, scheduler)[4])
    assert needed < tree.node_count()
    artery_widths(RANDOM_WALK, scheduler, 30, node_cap=needed)
    with pytest.raises(ResourceCapExceeded):
        artery_widths(RANDOM_WALK, scheduler, 30, node_cap=needed - 1)


def test_termination_prob_trivial():
    assert run_masses(parse("exit"), ConstantScheduler(Ln),
                      1).cumulative_hit(1) == 1
    assert run_masses(SPIN, ConstantScheduler(Ln),
                      50).cumulative_hit(50) == 0


def test_random_walk_against_ballot_oracle():
    profile = run_masses(RANDOM_WALK, ConstantScheduler(Ln), 23)
    depths = hit_depths(profile)
    # Terminal mass appears only after odd iteration counts; the first
    # three hits land after iterations 1, 3, 5 of the loop.
    oracle = ballot_walk_oracle(5)
    assert [profile.cumulative_hit(d) for d in depths[:3]] == [
        oracle[0], oracle[2], oracle[4]]
    assert [oracle[0], oracle[2], oracle[4]] == [
        Fraction(1, 2), Fraction(5, 8), Fraction(11, 16)]


def test_monotonicity():
    values = [run_masses(RANDOM_WALK, ConstantScheduler(Ln),
                         k).cumulative_hit(k)
              for k in range(0, 25, 4)]
    assert values == sorted(values)
    lowers = [exp_runtime_bounds(GEOMETRIC, ConstantScheduler(Ln), k).lower
              for k in range(0, 60, 7)]
    assert lowers == sorted(lowers)


def test_exp_runtime_straight_line():
    # One assign inside the sequence, the discharge step, the second assign.
    bounds = exp_runtime_bounds(parse("x := 1; x := 2"),
                                ConstantScheduler(Ln), 10)
    assert bounds.closed and bounds.exact == 3


def test_hit_mass_ends_where_the_walk_does():
    # The walk ends after the one assignment, so a depth of ten million
    # costs two entries, not one per requested depth.
    profile = run_masses(parse("x := 1"), ConstantScheduler(Ln), 10 ** 7)
    assert profile.hit_mass == [0, 1]
    assert profile.cumulative_hit(10 ** 7) == 1
    bounds = exp_runtime_bounds(parse("x := 1"), ConstantScheduler(Ln),
                                10 ** 7)
    assert bounds.closed and bounds.exact == 1


def test_series_tail_past_the_walk():
    # Half the mass reaches x = 5 and half ends without it, so the walk
    # ends after a few depths and every later term of the reach-time
    # series is the last one repeated: 1/2.
    program = parse("{ x := 5 } <1/2> { skip }")
    target = lambda ps: ps.valuation.get("x") == 5
    hit_mass = run_masses(program, ConstantScheduler(Ln), 100,
                          target=target).hit_mass
    assert len(hit_mass) < 10
    for k in (0, 1, 2, 5, 10, 100, 10 ** 7):
        terms = [1 - sum(hit_mass[:j + 1]) for j in range(min(k, 100))]
        tail = terms[len(hit_mass):]
        assert tail == [Fraction(1, 2)] * len(tail)
        expected = sum(terms) + (k - len(terms)) * Fraction(1, 2)
        bounds = exp_runtime_bounds(program, ConstantScheduler(Ln), k,
                                    target=target)
        assert bounds.lower == expected and not bounds.closed


def test_exp_runtime_spin_grows_linearly():
    for k in (5, 17, 40):
        bounds = exp_runtime_bounds(SPIN, ConstantScheduler(Ln), k)
        assert bounds.lower == k
        assert not bounds.closed


def test_exp_runtime_geometric_approaches_oracle():
    profile = run_masses(GEOMETRIC, ConstantScheduler(Ln), 30)
    depths = hit_depths(profile)
    stride = depths[1] - depths[0]
    offset = depths[0] - stride
    assert [offset + stride * (i + 1) for i in range(len(depths))] == depths
    limit = geometric_series_limit(offset, stride)
    for k in (40, 80, 200):
        bounds = exp_runtime_bounds(GEOMETRIC, ConstantScheduler(Ln), k)
        assert bounds.lower < limit
        gap = limit - bounds.lower
        assert gap <= stride * (Fraction(k, stride) + 2) / 2 ** (k // stride)


def test_exp_reach_matches_runtime_on_terminal_target():
    target = lambda ps: is_terminal(ps)
    for k in (10, 30):
        reach = exp_runtime_bounds(GEOMETRIC, ConstantScheduler(Ln), k,
                                   target=target)
        plain = exp_runtime_bounds(GEOMETRIC, ConstantScheduler(Ln), k)
        assert reach.lower == plain.lower
        assert reach.closed == plain.closed


def test_exp_reach_initial_state_is_zero():
    target = lambda ps: True
    bounds = exp_runtime_bounds(RANDOM_WALK, ConstantScheduler(Ln), 10,
                                target=target)
    assert bounds.closed and bounds.exact == 0


def test_exp_reach_x_zero_on_random_walk():
    # Hitting x = 0 precedes the loop-exit bookkeeping by a fixed margin.
    target = lambda ps: ps.valuation.get("x") == 0
    reach = exp_runtime_bounds(RANDOM_WALK, ConstantScheduler(Ln), 23,
                               target=target)
    plain = exp_runtime_bounds(RANDOM_WALK, ConstantScheduler(Ln), 23)
    assert reach.lower < plain.lower
    reach_profile = run_masses(RANDOM_WALK, ConstantScheduler(Ln), 23,
                               target=target)
    plain_profile = run_masses(RANDOM_WALK, ConstantScheduler(Ln), 23)
    gap = [p - r for r, p in zip(hit_depths(reach_profile),
                                 hit_depths(plain_profile))]
    assert len(set(gap)) == 1  # constant bookkeeping offset


def test_subtree_scaling_property():
    # The series contribution of the subtree under a probabilistic split is
    # the subtree's own expected runtime scaled by its branch probability.
    tail = "x := 1; x := 2"
    parent = parse("{ skip } <1/2> { exit }; " + tail)
    skip_side = parse("skip; " + tail)
    exit_side = parse("exit; " + tail)
    e_parent = exp_runtime_bounds(parent, ConstantScheduler(Ln), 30).exact
    e_skip = exp_runtime_bounds(skip_side, ConstantScheduler(Ln), 30).exact
    e_exit = exp_runtime_bounds(exit_side, ConstantScheduler(Ln), 30).exact
    half = Fraction(1, 2)
    assert e_parent == 1 + half * e_skip + half * e_exit


def test_ast_semicheck_trivial():
    assert ast_semicheck(parse("exit"), Fraction(1, 2), 1)
    assert not ast_semicheck(SPIN, Fraction(1, 2), 10)
    assert not ast_semicheck(SPIN, Fraction(99, 100), 60)


def test_ast_semicheck_choice_loop():
    loop = parse("x := 0; y := 0; z := 1; while (x + y = 0) "
                 "{ { y := 0 } [] { y := 1 }; { x := 0 } <1/2> { x := 1 }; "
                 "z := 4 * z }")
    # Each iteration exits with chance 1/2 whatever the scheduler picks, so
    # some desk-scale horizon pushes every schedule past 3/4.
    assert not ast_semicheck(loop, Fraction(3, 4), 12)
    assert ast_semicheck(loop, Fraction(3, 4), 40)


def test_backward_pass_equals_enumerated_minimum(rng):
    # The oracle enumerates every partial schedule over the reachable
    # queries and runs each one's standard extension.
    cases = [(CHOICE_LOOP, n) for n in (10, 25, 40)]
    cases += [(random_program(rng, 6), 16) for _ in range(60)]
    cases += [(random_active_program(rng), 20) for _ in range(30)]
    skipped = scheduler_matters = 0
    for program, n in cases:
        queries = collect_nondet_queries(program, n)
        if len(queries) > 12:
            skipped += 1
            continue
        enumerated = [run_masses(program, TableScheduler(partial),
                                 n).cumulative_hit(n)
                      for partial in iter_partial_schedules(n, queries)]
        least = build_tree(program, None, n).least_terminal_mass()
        assert least == min(enumerated)
        if 0 < least < 1:
            assert not ast_semicheck(program, least, n)
            assert ast_semicheck(program, least / 2, n)
        scheduler_matters += min(enumerated) != max(enumerated)
    assert skipped <= 5
    assert scheduler_matters >= 5


def test_least_terminal_mass_of_scheduled_tree_is_its_terminal_mass():
    # A scheduler leaves one child per nondet node, so there is no choice.
    for direction in (Ln, Rn):
        tree = build_tree(CHOICE_LOOP, ConstantScheduler(direction), 30)
        assert tree.least_terminal_mass() == tree.terminal_mass()


def test_collapse_geometric_graph():
    graph = collapse_to_state_graph(GEOMETRIC, 20)
    assert len(graph) <= 8
    assert sum(1 for k in graph.kinds if k == "terminal") == 1
    # cyclic: some edge returns to an earlier node
    assert any(e.dst <= src for src in range(len(graph))
               for e in graph.edges.get(src, ()))


def test_collapse_straight_line_is_path():
    program = parse("x := 1; y := 2; z := 3")
    graph = collapse_to_state_graph(program, 50)
    assert all(len(graph.edges.get(i, ())) <= 1 for i in range(len(graph)))
    assert len(graph) == 6


# A nondeterministic choice, a coin <x> forced right at x = 0 and left at
# x = 1, a genuine <1/3> split, coins forced by <0> and <2>, and a fair coin
# whose two arms reach one state.
PINNED = ["{ x := 1 } [] { skip }", "{ skip } <x> { exit }",
          "{ skip } <1/3> { exit }", "{ exit } <0> { skip }",
          "{ skip } <2> { exit }", "{ skip } <1/2> { skip }"]


def test_graph_pins_node_kinds_and_edge_labels():
    # A forced coin is a deterministic node with one det edge and no prob;
    # prob appears only on the prob-left/prob-right edges of a real split.
    rest = ["; ".join(PINNED[i:]) for i in range(len(PINNED))]
    nodes = [
        ("nondet", f"{rest[0]} | "),
        ("deterministic", f"x := 1; {rest[1]} | "),
        ("deterministic", f"skip; {rest[1]} | "),
        ("deterministic", f"bot; {rest[1]} | "),
        ("deterministic", f"{rest[1]} | "),            # <x> forced right
        ("deterministic", f"exit; {rest[2]} | "),
        ("terminal", "bot | "),
        ("deterministic", f"bot; {rest[1]} | x=1"),
        ("deterministic", f"{rest[1]} | x=1"),         # <x> forced left
        ("deterministic", f"skip; {rest[2]} | x=1"),
        ("deterministic", f"bot; {rest[2]} | x=1"),
        ("prob", f"{rest[2]} | x=1"),
        ("deterministic", f"skip; {rest[3]} | x=1"),
        ("deterministic", f"exit; {rest[3]} | x=1"),
        ("terminal", "bot | x=1"),
        ("deterministic", f"bot; {rest[3]} | x=1"),
        ("deterministic", f"{rest[3]} | x=1"),         # <0>
        ("deterministic", f"skip; {rest[4]} | x=1"),
        ("deterministic", f"bot; {rest[4]} | x=1"),
        ("deterministic", f"{rest[4]} | x=1"),         # <2>
        ("deterministic", f"skip; {rest[5]} | x=1"),
        ("deterministic", f"bot; {rest[5]} | x=1"),
        ("prob", f"{rest[5]} | x=1"),
        ("deterministic", "skip | x=1"),
    ]
    edges = [(0, "nondet-left", 1), (0, "nondet-right", 2), (1, "det", 7),
             (2, "det", 3), (3, "det", 4), (4, "det", 5), (5, "det", 6),
             (7, "det", 8), (8, "det", 9), (9, "det", 10), (10, "det", 11),
             (11, "prob-left", 12, "1/3"), (11, "prob-right", 13, "2/3"),
             (12, "det", 15), (13, "det", 14), (15, "det", 16),
             (16, "det", 17), (17, "det", 18), (18, "det", 19),
             (19, "det", 20), (20, "det", 21), (21, "det", 22),
             (22, "prob-left", 23, "1/2"), (22, "prob-right", 23, "1/2"),
             (23, "det", 14)]
    graph = collapse_to_state_graph(parse("; ".join(PINNED)), 50)
    assert graph.to_json() == {
        "initial": 0,
        "nodes": [{"id": i, "key": key, "kind": kind}
                  for i, (kind, key) in enumerate(nodes)],
        "edges": [{"from": src, "label": label, "to": dst,
                   **({"prob": prob[0]} if prob else {})}
                  for src, label, dst, *prob in edges],
    }


def test_collapse_unbounded_counter_refused():
    with pytest.raises(StateSpaceNotClosed):
        collapse_to_state_graph(RANDOM_WALK, 60)


def test_state_graph_json_round_trip():
    # Every graph `pastlab graph` writes: the shipped programs whose state
    # space closes, and the increment gadget at every cap the tests use.
    programs = ([GEOMETRIC]
                + [parse(path.read_text())
                   for path in sorted(PROGRAMS.glob("*.pgcl"))]
                + [emit_inc(cap=cap) for cap in range(2, 9)])
    round_trips = 0
    for program in programs:
        try:
            graph = collapse_to_state_graph(program, 2000)
        except StateSpaceNotClosed:
            continue
        data = json.loads(json.dumps(graph.to_json()))
        back = StateGraph.from_json(data)
        assert back.kinds == graph.kinds
        assert [back.node_key(i) for i in range(len(back))] == \
            [graph.node_key(i) for i in range(len(graph))]
        assert back.to_json() == data
        round_trips += 1
    assert round_trips == 9


def test_conservation_random_programs(rng):
    for _ in range(60):
        program = random_program(rng, 4)
        scheduler = RandomScheduler(17)
        try:
            tree = build_tree(program, scheduler, 8, node_cap=4000)
        except ResourceCapExceeded:
            continue
        cumulative_terminal = Fraction(0)
        for level in tree.levels:
            frontier_mass = Fraction(0)
            for node in level:
                if is_terminal(node.state):
                    cumulative_terminal += node.state.prob
                else:
                    frontier_mass += node.state.prob
            assert cumulative_terminal + frontier_mass == 1
