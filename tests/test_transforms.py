import hashlib
import json
import pathlib
import random
from fractions import Fraction

import pytest

from pastlab.certificates import check_proof_rule
from pastlab.exploration import (artery_widths, collect_nondet_queries,
                                 exp_runtime_bounds, run_masses)
from pastlab.scheduling import (ConstantScheduler, RandomScheduler, Ln, Rn,
                                TableScheduler, iter_partial_schedules)
from pastlab.semantics import (Direction, head_redex, initial_state,
                               is_terminal)
from pastlab.syntax import Cmp, Var, While, parse, print_program
from pastlab.transforms import (FrontierWidthError, NonConstantProbability,
                                TransformError, TreeSpec, cantor_pair,
                                emit_inc, emit_ordinal_program,
                                emit_tree_reduction, encode_sequence,
                                explicit_tree, is_knievel, rule_tree,
                                to_knievel)
from certhelpers import (build_inc_graph, build_inc_rank1_capped,
                         build_inc_rank2, inc_least_unit_rsm)
from conftest import (random_active_program, random_program,
                      scheduled_step)

SPIN = parse("while (true) { skip }")


def test_is_knievel_examples():
    assert is_knievel(parse("{ skip } <1/2> { exit }"))
    assert not is_knievel(parse(
        "x := 1; while (x != 0) { { x := x + 1 } <1/2> { x := x - 1 } }"))
    assert is_knievel(emit_tree_reduction(explicit_tree([()])))
    assert is_knievel(parse("x := 1"))  # no coins at all
    assert not is_knievel(parse("{ exit } <1/2> { skip }"))  # arms swapped


def test_tree_spec_validation():
    with pytest.raises(TransformError):
        explicit_tree([(0,)])  # missing root
    with pytest.raises(TransformError):
        explicit_tree([(), (0, 0)])  # not prefix closed
    with pytest.raises(TransformError):
        rule_tree("no-such-rule")
    assert rule_tree("bounded-depth(3)").contains((5, 5, 5))
    assert not rule_tree("bounded-depth(3)").contains((0,) * 4)
    assert rule_tree("all-zeros").contains((0, 0))
    assert not rule_tree("all-zeros").contains((0, 1))
    assert rule_tree("full").contains((9, 9, 9, 9))


def test_tree_spec_json():
    spec = explicit_tree([(), (0,), (1,), (0, 2)])
    assert TreeSpec.from_json(
        json.loads('{"explicit": [[], [0], [0, 2], [1]]}')) == spec
    rule = rule_tree("bounded-depth(2)")
    assert TreeSpec.from_json(
        json.loads('{"rule": "bounded-depth(2)"}')) == rule


def test_sequence_encoding_injective():
    seen = {}
    for a in range(7):
        for b in range(7):
            code = cantor_pair(a, b)
            assert code not in seen
            seen[code] = (a, b)
    codes = {}
    for seq in [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (2, 3, 1)]:
        key = (encode_sequence(seq), len(seq))
        assert key not in codes
        codes[key] = seq
    assert encode_sequence((0, 0, 0)) == 0  # zero branch stays at code zero


# ---------------------------------------------------------------------------
# to_knievel
# ---------------------------------------------------------------------------

def test_to_knievel_trivial_source_closes():
    out = to_knievel(parse("x := 1"))
    assert is_knievel(out)
    for scheduler in (ConstantScheduler(Ln), ConstantScheduler(Rn),
                      RandomScheduler(3)):
        bounds = exp_runtime_bounds(out, scheduler, 200)
        assert bounds.closed


KNIEVEL_SOURCES = [
    "x := 1", "while (true) { skip }",
    "{ x := 1 } <1/3> { x := 2 }; while (x > 1) { x := x - 1 }",
    "{ y := 1 } [] { y := 2 }; x := y"]


def test_to_knievel_output_is_normal_form():
    for source in KNIEVEL_SOURCES:
        assert is_knievel(to_knievel(parse(source)))


def test_to_knievel_output_is_pinned():
    # SHA-256 of every printed rebuild, or the refusal's type and text, over
    # the example programs, hand-written sources (forced coins <0> and <2>
    # included) and seeded random programs, under two horizons and one that
    # is refused after every other refusal.
    root = pathlib.Path(__file__).resolve().parent.parent
    programs = [parse(path.read_text())
                for path in sorted((root / "programs").glob("*.pgcl"))]
    programs += [parse(source) for source in KNIEVEL_SOURCES + [
        "{ skip } <0> { x := 1 }; { exit } <2> { skip }; exit",
        "; ".join("{ skip } <1/2> { skip }" for _ in range(9))]]
    rng = random.Random(7)
    programs += [random_program(rng, 4) if i % 2
                 else random_active_program(rng) for i in range(3000)]
    digest = hashlib.sha256()
    for program in programs:
        for horizon in ("double", "3", "x"):
            try:
                text = print_program(to_knievel(program, horizon))
            except TransformError as exc:
                text = f"{type(exc).__name__}: {exc}"
            digest.update(text.encode() + b"\0")
    assert digest.hexdigest() == (
        "2ea8a3d45df3ebc718f06627c9d4a8622912e2b726a7502c71727619ac753f68")


def test_to_knievel_exposes_nondet_choices():
    out = to_knievel(parse("{ y := 1 } [] { y := 2 }; x := y"))
    queries = collect_nondet_queries(out, 40)
    assert queries  # the source's choice is still the scheduler's


def live_step(state, scheduler, memory):
    """(state, memory) after one step along the live branch: the first
    successor that is not a coin's right (death) arm."""
    succ, memory = next(pair for pair
                        in scheduled_step(state, scheduler, memory)
                        if pair[0].direction is not Direction.Rp)
    return succ.state, memory


def count_cheers(program, scheduler, depth):
    """Follow the live branch and count completed cheering passes (entries
    into the bound-crossing wait loop)."""
    state, memory = initial_state(program), scheduler.start()
    cheers = 0
    for _ in range(depth):
        if is_terminal(state):
            break
        state, memory = live_step(state, scheduler, memory)
        redex = head_redex(state.program)
        if isinstance(redex, While) and isinstance(redex.guard, Cmp) \
                and isinstance(redex.guard.left, Var) \
                and redex.guard.left.name == "cw" \
                and state.valuation.get("cw") == 0:
            cheers += 1
    return cheers


def test_to_knievel_divergent_source_keeps_cheering():
    out = to_knievel(SPIN)
    # Bound doublings never stop, each cheering pass adds one in
    # expectation, so the lower bounds keep growing past any fixed value,
    # one unit per (exponentially longer) cheer.
    assert count_cheers(out, ConstantScheduler(Ln), 4000) >= 4
    lowers = [exp_runtime_bounds(out, ConstantScheduler(Ln), k).lower
              for k in (200, 800, 3200)]
    assert lowers[0] < lowers[1] < lowers[2]
    assert lowers[2] > 45
    assert not exp_runtime_bounds(out, ConstantScheduler(Ln), 3200).closed


def test_to_knievel_past_source_stops_cheering():
    out = to_knievel(parse("x := 1; x := 2; x := 3"))
    total = count_cheers(out, ConstantScheduler(Ln), 4000)
    bounds = exp_runtime_bounds(out, ConstantScheduler(Ln), 1000)
    assert bounds.closed
    assert total <= 3


def test_to_knievel_refusals():
    with pytest.raises(NonConstantProbability):
        to_knievel(parse("{ skip } <p> { exit }"))
    with pytest.raises(FrontierWidthError):
        to_knievel(parse("while (x = 0) { { x := 1 } <1/2> { skip } }"))
    with pytest.raises(FrontierWidthError):
        source = "; ".join("{ skip } <1/2> { skip }" for _ in range(9))
        to_knievel(parse(source))


def test_to_knievel_weight_bookkeeping_is_exact():
    # Source terminates with probability 1 after its one coin; the
    # simulator's terminated-mass variable must hit exactly 1.
    out = to_knievel(parse("{ x := 1 } <1/3> { x := 2 }"))
    state = initial_state(out)
    scheduler = ConstantScheduler(Ln)
    memory = scheduler.start()
    seen_one = False
    for _ in range(400):
        if is_terminal(state):
            break
        state, memory = live_step(state, scheduler, memory)
        if state.valuation.get("term") == 1:
            seen_one = True
            break
    assert seen_one


# ---------------------------------------------------------------------------
# emit_tree_reduction
# ---------------------------------------------------------------------------

def test_reduction_root_only_all_small_schedules():
    program = emit_tree_reduction(explicit_tree([()]))
    depth = 70
    queries = collect_nondet_queries(program, depth)
    assert len(queries) <= 8
    for partial in iter_partial_schedules(depth, queries, cap=8):
        profile = run_masses(program, TableScheduler(partial), 220)
        assert not profile.frontier \
            or profile.frontier_mass() < Fraction(1, 64)


def test_reduction_all_zeros_branch_follower_diverges():
    program = emit_tree_reduction(rule_tree("all-zeros"))
    # Following the zero branch exits the child-picking loop immediately
    # every round, never flips a coin, and cheers once per round: the
    # expected runtime grows without bound.
    bounds = exp_runtime_bounds(program, ConstantScheduler(Rn), 300)
    assert bounds.lower > 5
    assert not bounds.closed
    deeper = exp_runtime_bounds(program, ConstantScheduler(Rn), 600)
    assert deeper.lower > bounds.lower


def test_reduction_bounded_depth_badly_behaved_converges():
    program = emit_tree_reduction(rule_tree("bounded-depth(2)"))
    near = exp_runtime_bounds(program, ConstantScheduler(Ln), 200)
    far = exp_runtime_bounds(program, ConstantScheduler(Ln), 400)
    assert far.lower - near.lower < Fraction(1, 100)
    profile = run_masses(program, ConstantScheduler(Ln), 400)
    assert profile.frontier_mass() < Fraction(1, 2 ** 20)


def test_reduction_cheer_length_tracks_live_probability():
    # On the live branch, entering the wait loop always happens with
    # probability exactly 1/s: one full pass adds one expected step.
    program = emit_tree_reduction(rule_tree("full"))
    scheduler = RandomScheduler(23)
    state, memory = initial_state(program), scheduler.start()
    checked = 0
    for _ in range(600):
        if is_terminal(state):
            break
        state, memory = live_step(state, scheduler, memory)
        redex = head_redex(state.program)
        if isinstance(redex, While) and isinstance(redex.guard, Cmp) \
                and isinstance(redex.guard.left, Var) \
                and redex.guard.left.name == "w" \
                and state.valuation.get("w") == 0:
            assert state.prob * state.valuation.get("s") == 1
            checked += 1
    assert checked >= 3


def test_reduction_disconnected_probe_loops_forever():
    # A "tree" whose rule validates a deep node but not its parent cannot
    # be built from TreeSpec (prefix closure is enforced), so drive the
    # emitted edge case directly: for the root-only tree the second probe
    # always fails and the program exits instead of looping.
    program = emit_tree_reduction(explicit_tree([()]))
    bounds = exp_runtime_bounds(program, ConstantScheduler(Rn), 200)
    assert bounds.closed


def test_emitters_are_knievel_with_single_live_artery():
    emitted = [
        emit_tree_reduction(explicit_tree([()])),
        emit_tree_reduction(rule_tree("all-zeros")),
        emit_tree_reduction(rule_tree("bounded-depth(2)")),
        emit_ordinal_program(explicit_tree([()])),
        emit_ordinal_program(rule_tree("all-zeros")),
        emit_inc(),
    ]
    for program in emitted:
        assert is_knievel(program)
        for seed in (1, 2):
            widths = artery_widths(program, RandomScheduler(seed), 120)
            assert max(widths) <= 1


# ---------------------------------------------------------------------------
# emit_ordinal_program and the increment gadget
# ---------------------------------------------------------------------------

def test_ordinal_program_leaf_case_closes():
    program = emit_ordinal_program(explicit_tree([()]))
    for scheduler in (ConstantScheduler(Rn), RandomScheduler(4)):
        bounds = exp_runtime_bounds(program, scheduler, 300)
        assert bounds.closed


def test_ordinal_program_chain_runs_inc_per_level():
    # Tree with one branch (child 0 twice): a scheduler following it runs
    # the increment gadget after each validated child.
    spec = explicit_tree([(), (0,), (0, 0)])
    program = emit_ordinal_program(spec)
    # Every query: exit the selection loop at once (child 0), and stop the
    # increment loop at once as well.
    bounds = exp_runtime_bounds(program, ConstantScheduler(Rn), 400)
    assert bounds.closed


def test_inc_least_rank_exceeds_small_budget():
    graph, selection, countdown = build_inc_graph(8)
    least = inc_least_unit_rsm(graph)
    assert max(least.values()) > 12
    capped = build_inc_rank1_capped(graph, 12)
    assert not check_proof_rule(graph, capped).ok
    rank2 = build_inc_rank2(graph, selection, countdown)
    assert check_proof_rule(graph, rank2).ok


def test_inc_rank_requirement_grows_with_cap():
    tops = []
    for cap in (4, 8, 16):
        graph, _, _ = build_inc_graph(cap)
        tops.append(max(inc_least_unit_rsm(graph).values()))
    assert tops[0] < tops[1] < tops[2]


def random_explicit_tree(rng):
    """A prefix-closed set of up to 12 sequences: each one after the root
    adds a child of small index below a sequence already drawn."""
    seqs = [()]
    for _ in range(rng.randrange(12)):
        seqs.append(rng.choice(seqs) + (rng.randrange(4),))
    return explicit_tree(seqs)


def emitter_specs():
    """The rule trees, then seeded random explicit trees."""
    rng = random.Random(11)
    return ([rule_tree("full"), rule_tree("all-zeros")]
            + [rule_tree(f"bounded-depth({d})") for d in range(4)]
            + [random_explicit_tree(rng) for _ in range(41)])


def test_emitters_output_is_pinned():
    # SHA-256 of the printed reduction and ordinal program of every spec,
    # then of the increment gadget uncapped and under caps 1 to 8.
    digest = hashlib.sha256()
    for spec in emitter_specs():
        for emit in (emit_tree_reduction, emit_ordinal_program):
            digest.update(print_program(emit(spec)).encode() + b"\0")
    for cap in [None] + list(range(1, 9)):
        digest.update(print_program(emit_inc(cap)).encode() + b"\0")
    assert digest.hexdigest() == (
        "f512e2c1ca2691d5c52baee301cc0adbe3979dbd2933d9f65a8810ad7b8a0ffa")



def test_emitted_programs_are_what_the_parser_builds():
    programs = [emit(spec) for spec in emitter_specs()
                for emit in (emit_tree_reduction, emit_ordinal_program)]
    programs += [emit_inc(cap) for cap in [None] + list(range(1, 9))]
    for program in programs:
        assert parse(print_program(program)) == program
