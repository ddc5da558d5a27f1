"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; all comparisons are exact rationals unless
a criterion explicitly bounds a running time.
"""

import random
import time
from fractions import Fraction

from pastlab.certificates import (check_proof_rule, check_rsm,
                                  in_loop_rsm_from_bound, rsm_bound)
from pastlab.exploration import (ResourceCapExceeded, artery_widths,
                                 ast_semicheck, build_tree,
                                 collapse_to_state_graph,
                                 collect_nondet_queries,
                                 exp_runtime_bounds, run_masses)
from pastlab.hydra import (HydraState, Tree, head_count, leaves,
                           parse_hydra, play_round, surviving, T)
from pastlab.ordinal import natural_sum, parse_ordinal, print_ordinal
from pastlab.ordinal import ONE as ORD_ONE
from pastlab.scheduling import (ConstantScheduler, RandomScheduler, Ln, Rn,
                                TableScheduler, iter_partial_schedules)
from pastlab.semantics import is_terminal
from pastlab.syntax import parse
from pastlab.transforms import (emit_ordinal_program,
                                emit_tree_reduction, explicit_tree,
                                is_knievel, rule_tree, to_knievel)
from conftest import (ballot_walk_oracle, geometric_series_limit,
                      random_active_program, random_program)
from certhelpers import build_unsoundness_regression
from test_ordinal import random_ordinal

RANDOM_WALK = parse("x := 1; while (x != 0) "
                    "{ { x := x + 1 } <1/2> { x := x - 1 } }")
GEOMETRIC = parse("while (x = 0) { { skip } <1/2> { exit } }")
SPIN = parse("while (true) { skip }")
CHOICE_LOOP = parse("x := 0; y := 0; z := 1; while (x + y = 0) "
                    "{ { y := 0 } [] { y := 1 }; "
                    "{ x := 0 } <1/2> { x := 1 }; z := 4 * z }")


def report(number, text):
    print(f"criterion {number:02d} PASS: {text}")


def test_criterion_01_semantics_conservation():
    started = time.time()
    rng = random.Random(1001)
    checked = 0
    attempts = 0
    busy_trees = 0
    while checked < 500:
        attempts += 1
        assert attempts < 5000
        if attempts % 2 == 0:
            program = random_program(rng, 5)
        else:
            program = random_active_program(rng)
        scheduler = RandomScheduler(rng.randrange(1 << 30))
        try:
            tree = build_tree(program, scheduler, 30, node_cap=8000)
        except ResourceCapExceeded:
            continue
        if tree.node_count() > 30:
            busy_trees += 1
        cumulative = Fraction(0)
        for level in tree.levels:
            frontier = Fraction(0)
            for node in level:
                if is_terminal(node.state):
                    cumulative += node.state.prob
                else:
                    frontier += node.state.prob
            assert cumulative + frontier == 1
        checked += 1
    assert busy_trees > 100  # the sample really exercises deep trees
    elapsed = time.time() - started
    assert elapsed < 30
    report(1, f"terminal+frontier mass = 1 at every depth over "
              f"{checked} random programs, {busy_trees} of them past 30 "
              f"nodes ({elapsed:.1f}s)")


def test_criterion_02_random_walk_oracle():
    started = time.time()
    oracle = ballot_walk_oracle(5)
    expected = [oracle[0], oracle[2], oracle[4]]
    assert expected == [Fraction(1, 2), Fraction(5, 8), Fraction(11, 16)]
    profile = run_masses(RANDOM_WALK, ConstantScheduler(Ln), 30)
    horizons = [d for d, mass in enumerate(profile.hit_mass) if mass > 0][:3]
    got = [run_masses(RANDOM_WALK, ConstantScheduler(Ln),
                      horizon).cumulative_hit(horizon)
           for horizon in horizons]
    assert got == expected
    elapsed = time.time() - started
    assert elapsed < 5
    report(2, f"walk termination mass {[str(v) for v in got]} at "
              f"iteration horizons {horizons} matches the coin-string "
              f"oracle ({elapsed:.1f}s)")


def test_criterion_03_geometric_runtime_envelope():
    profile = run_masses(GEOMETRIC, ConstantScheduler(Ln), 60)
    depths = [d for d, mass in enumerate(profile.hit_mass) if mass > 0]
    stride = depths[1] - depths[0]
    offset = depths[0] - stride
    limit = geometric_series_limit(offset, stride)
    previous = Fraction(-1)
    full = run_masses(GEOMETRIC, ConstantScheduler(Ln), 200)
    for k in range(1, 201):
        lower = Fraction(0)
        cumulative = Fraction(0)
        for j in range(k):
            cumulative += full.hit_mass[j] if j < len(full.hit_mass) else 0
            lower += 1 - cumulative
        assert lower >= previous
        previous = lower
        envelope = stride * (Fraction(k, stride) + 2) / 2 ** (k // stride)
        assert limit - lower <= envelope
    report(3, f"geometric loop bounds are monotone and within the "
              f"series envelope up to k=200 (limit {limit})")


def test_criterion_04_hydra_rank_decrease():
    rng = random.Random(404)
    games = 0
    while games < 200:
        count = rng.randrange(2, 13)
        parents = [None] + [rng.randrange(i) for i in range(1, count)]
        children = {}
        for child, parent in enumerate(parents):
            if parent is not None:
                children.setdefault(parent, []).append(child)

        def build(i):
            return Tree(tuple(build(c) for c in children.get(i, ())))

        state = HydraState(build(0), 4)
        heads = leaves(state.tree)
        if not heads:
            continue
        leaf = rng.choice(heads)
        evolutions = rng.randrange(0, 5) if len(leaf) >= 2 else 0
        survivor = surviving(play_round(state, leaf, evolutions))
        assert T(survivor.result) < T(state)
        games += 1
    report(4, "rank dropped in every surviving round of 200 random games")


def test_criterion_05_hydra_divergence_witness():
    line = parse_hydra("((()))")
    for evolutions in range(11):
        survivor = surviving(play_round(line, (0, 0), evolutions))
        product = survivor.prob * head_count(survivor.result.tree)
        assert product == 4 * 2 ** evolutions
        assert product >= 2 ** (evolutions - 1)
    report(5, "survival mass times regrown heads equals 4*2^e for e<=10, "
              "above the 2^(e-1) floor")


def test_criterion_06_rsm_soundness_bound():
    cases = [
        "{ t := 1 } [] { t := 2 }; while (t > 0) { t := t - 1 }",
        "while (x = 0) { { skip } <1/2> { exit } }",
        "x := 1; y := 2; z := 3",
    ]
    for source in cases:
        program = parse(source)
        graph = collapse_to_state_graph(program, 200)
        region = {i for i in range(len(graph))
                  if graph.kinds[i] != "terminal"}
        cert = in_loop_rsm_from_bound(graph, region, 100)
        assert check_rsm(graph, cert).ok
        ceiling = rsm_bound(cert, graph.initial)
        queries = collect_nondet_queries(program, 20)
        schedules = 0
        for partial in iter_partial_schedules(20, queries, cap=10):
            schedules += 1
            bounds = exp_runtime_bounds(
                program, TableScheduler(partial), 20,
                target=lambda ps: is_terminal(ps))
            assert bounds.lower <= ceiling
        assert schedules >= 1
    report(6, "measured reach-time lower bounds stayed under h/epsilon on "
              "all three certified graphs, every enumerated schedule")


def test_criterion_07_proof_rule_regressions():
    # (a) a valid chain certificate is accepted
    from pastlab.certificates import RsmCert, RuleCert
    from pastlab.ordinal import ZERO as ORD_ZERO, from_natural
    chain = collapse_to_state_graph(parse("skip"), 10)
    terminal = next(i for i in range(len(chain))
                    if chain.kinds[i] == "terminal")
    live = next(i for i in range(len(chain))
                if chain.kinds[i] != "terminal")
    accepted = RuleCert(
        {live: from_natural(1), terminal: ORD_ZERO},
        {live: RsmCert({live: Fraction(1), terminal: Fraction(0)},
                       Fraction(1))})
    assert check_proof_rule(chain, accepted).ok
    # (b) a nonzero terminal rank is rejected
    rejected = RuleCert(
        {live: from_natural(1), terminal: from_natural(1)},
        accepted.k)
    assert not check_proof_rule(chain, rejected).ok
    # (c) the known unsound certificate shape passes structurally while
    # the program's runtime lower bound blows past 100
    graph, cert = build_unsoundness_regression()
    assert check_proof_rule(graph, cert).ok
    import pathlib
    source = pathlib.Path(__file__).resolve().parent.parent \
        / "programs" / "unsound_rank.pgcl"
    diverging = parse(source.read_text())
    bounds = exp_runtime_bounds(diverging, ConstantScheduler(Ln), 800)
    assert bounds.lower > 100
    report(7, f"chain cert accepted, bad terminal rank rejected, "
              f"unsound-shape cert accepted while the program's lower "
              f"bound reached {float(bounds.lower):.1f} at depth 800")


def test_criterion_08_reduction_case_analysis():
    # Explicit root-only tree: every schedule enumerated at depth 70 (256
    # schedules) has either closed or nearly-dead residue by depth 220.
    program = emit_tree_reduction(explicit_tree([()]))
    enumeration_depth = 70
    queries = collect_nondet_queries(program, enumeration_depth)
    assert 2 ** len(queries) <= 256
    schedules = 0
    for partial in iter_partial_schedules(enumeration_depth, queries, cap=8):
        schedules += 1
        profile = run_masses(program, TableScheduler(partial), 220)
        assert not profile.frontier \
            or profile.frontier_mass() < Fraction(1, 64)
    # All-zeros tree: the branch follower keeps collecting whole units.
    zeros = emit_tree_reduction(rule_tree("all-zeros"))
    follower = exp_runtime_bounds(zeros, ConstantScheduler(Rn), 300)
    assert follower.lower > 5 and not follower.closed
    # Bounded-depth tree under a badly-behaved scheduler: converging.
    bounded = emit_tree_reduction(rule_tree("bounded-depth(2)"))
    near = exp_runtime_bounds(bounded, ConstantScheduler(Ln), 200)
    far = exp_runtime_bounds(bounded, ConstantScheduler(Ln), 400)
    assert far.lower - near.lower < Fraction(1, 100)
    assert run_masses(bounded, ConstantScheduler(Ln), 400).frontier_mass() \
        < Fraction(1, 2 ** 20)
    report(8, f"root-only tree residue < 2^-6 across {schedules} schedules; "
              f"zero-branch follower passed 5; badly-behaved bounds "
              f"converged")


def test_criterion_09_knievel_closure():
    emitted = [
        to_knievel(parse("x := 1")),
        to_knievel(SPIN),
        to_knievel(parse("{ x := 1 } <1/3> { x := 2 }; "
                         "while (x > 1) { x := x - 1 }")),
        emit_tree_reduction(explicit_tree([()])),
        emit_tree_reduction(rule_tree("all-zeros")),
        emit_tree_reduction(rule_tree("bounded-depth(2)")),
        emit_ordinal_program(explicit_tree([()])),
        emit_ordinal_program(rule_tree("all-zeros")),
    ]
    for program in emitted:
        assert is_knievel(program)
        for seed in range(50):
            widths = artery_widths(program, RandomScheduler(seed), 100)
            assert max(widths) <= 1
    report(9, f"{len(emitted)} emitted programs are in normal form with a "
              f"single live branch per depth across 50 schedulers each")


def test_criterion_10_ast_semicheck():
    found = None
    for n in (8, 16, 24, 32, 40, 48):
        if ast_semicheck(CHOICE_LOOP, Fraction(3, 4), n):
            found = n
            break
    assert found is not None
    for n in range(1, 26):
        assert not ast_semicheck(SPIN, Fraction(3, 4), n)
    report(10, f"choice loop crossed 3/4 under every schedule at n={found}; "
               f"the spinner never did for any n <= 25")


def test_criterion_11_ordinal_laws():
    rng = random.Random(1111)
    for _ in range(1000):
        a = random_ordinal(rng, 3)
        b = random_ordinal(rng, 3)
        c = random_ordinal(rng, 3)
        assert natural_sum(a, b) == natural_sum(b, a)
        assert natural_sum(natural_sum(a, b), c) == \
            natural_sum(a, natural_sum(b, c))
        assert natural_sum(a, c) < natural_sum(natural_sum(a, ORD_ONE), c)
        assert (a < b) == (b > a)
        assert (not a < b and not b < a) == (a == b)
        assert parse_ordinal(print_ordinal(a)) == a
    report(11, "1000 random triples satisfied the sum laws, order totality, "
               "and text round-trips")
