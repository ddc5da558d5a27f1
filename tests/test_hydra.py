import random
import time
from fractions import Fraction

import pytest

from pastlab import hydra, ordinal
from pastlab.hydra import (EncodingWidthError, HydraError, HydraState,
                           LeftmostDeepest, RandomLeaf, T, Tree, LEAF,
                           canonical_shape, compile_to_pgcl, depth,
                           head_count, leaves, node_count, nodes,
                           parse_hydra, play_round, surviving)
from pastlab.ordinal import OMEGA, ZERO, from_natural, natural_sum
from pastlab.semantics import Direction, head_redex, initial_state
from pastlab.scheduling import Scheduler, Ln, Rn
from pastlab.syntax import BoolLit, While, parse, print_program
from pastlab.transforms import is_knievel
from pastlab.exploration import exp_runtime_bounds
from pastlab.scheduling import ConstantScheduler
from conftest import scheduled_step

LINE = parse_hydra("((()))")          # root - mid - leaf
SINGLE = parse_hydra("(())")          # root with one leaf child


def tree_from_counts(counts, b):
    """The depth <= 2 tree that the compiled game's variables describe: b
    leaves under the root and counts[c - 1] children bearing c leaves."""
    children = [LEAF] * b
    for c, count in enumerate(counts, start=1):
        children.extend([Tree((LEAF,) * c)] * count)
    return Tree(tuple(children))


def successors_T(h, leaf, e_max):
    """Rank of the surviving hydra for 0, 1, ..., e_max evolutions."""
    return [T(surviving(play_round(h, leaf, e)).result)
            for e in range(e_max + 1)]


def test_rank_examples():
    assert T(parse_hydra("()")) == ZERO
    assert T(LINE) == OMEGA
    # a depth-2 chains and b direct leaves rank a*w + b
    state = HydraState(tree_from_counts([3], 2))
    assert T(state) == natural_sum(ordinal.Ordinal(((ordinal.ONE, 3),)),
                                   from_natural(2))


def test_parse_print_round_trip():
    for text in ("()", "(())", "(()())", "((())())", "(((())))"):
        state = parse_hydra(text)
        shape = canonical_shape(state.tree)
        # Printing orders the children, so the printed shape parses back
        # to the same ordered tree exactly when the text was already in it.
        assert (parse_hydra(shape).tree == state.tree) == (text == shape)
        assert canonical_shape(parse_hydra(shape).tree) == \
            canonical_shape(state.tree)
    assert canonical_shape(parse_hydra("((())())").tree) == "(()(()))"
    with pytest.raises(HydraError):
        parse_hydra("(()")
    with pytest.raises(HydraError):
        parse_hydra("()()")


def test_play_round_refuses_copies_past_sys_maxsize():
    # 4 * 4**30 - 1 copies fit a tuple length but not memory: CPython
    # refuses a tuple that large with MemoryError before allocating it.
    # 4 * 4**31 - 1 do not fit a tuple length, and the refusal comes before
    # 4**10**9 is computed.
    for evolutions in (30, 31, 40, 10 ** 9):
        with pytest.raises(HydraError, match="more copies than fit"):
            play_round(LINE, (0, 0), evolutions)


def test_play_round_line_no_evolutions():
    outcomes = play_round(LINE, (0, 0), 0)
    assert len(outcomes) == 1
    outcome = outcomes[0]
    assert outcome.survived and outcome.prob == 1
    # mid is kept, three fresh copies grow: four leaves under the root
    assert canonical_shape(outcome.result.tree) == \
        canonical_shape(tree_from_counts([], 4))
    assert T(outcome.result) == from_natural(4)
    assert outcome.result.n == 4


def test_play_round_line_one_evolution():
    outcomes = play_round(LINE, (0, 0), 1)
    survivor = surviving(outcomes)
    assert survivor.prob == Fraction(1, 2)
    assert survivor.result.n == 16
    assert T(survivor.result) == from_natural(16)
    deaths = [o for o in outcomes if not o.survived]
    assert [o.prob for o in deaths] == [Fraction(1, 2)]


def test_play_round_death_probabilities():
    outcomes = play_round(LINE, (0, 0), 3)
    assert surviving(outcomes).prob == Fraction(1, 8)
    assert [o.prob for o in outcomes if not o.survived] == [
        Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    assert sum(o.prob for o in outcomes) == 1


def test_play_round_no_grandparent():
    outcomes = play_round(SINGLE, (0,), 0)
    assert len(outcomes) == 1
    assert outcomes[0].prob == 1
    assert T(outcomes[0].result) == ZERO
    assert head_count(outcomes[0].result.tree) == 0


def test_play_round_errors():
    with pytest.raises(HydraError):
        play_round(LINE, (0,), 0)  # mid is not a leaf
    with pytest.raises(HydraError):
        play_round(SINGLE, (0,), 1)  # no grandparent, no evolutions
    with pytest.raises(HydraError):
        play_round(SINGLE, (), 0)  # the root is not a head


def test_successors_line():
    values = successors_T(LINE, (0, 0), 3)
    assert values == [from_natural(v) for v in (4, 16, 64, 256)]
    assert all(v < T(LINE) for v in values)


def test_successors_two_chains():
    state = parse_hydra("((())(()))")
    values = successors_T(state, (0, 0), 2)
    expected = [natural_sum(OMEGA, from_natural(v)) for v in (4, 16, 64)]
    assert values == expected
    assert all(v < T(state) for v in values)
    # strictly increasing in the evolution count
    assert values == sorted(values)


def test_line_hydra_cofinality():
    # The one-round ranks are finite, strictly increasing, and unbounded
    # among the finite ordinals, so their least upper bound is the line
    # hydra's own rank omega.
    values = successors_T(LINE, (0, 0), 6)
    assert values == sorted(values)
    assert all(v.is_finite() for v in values)
    assert values[-1].finite_value() == 4 ** 7
    assert all(v < T(LINE) for v in values)


def random_tree(rng, max_nodes):
    # Each node after the root hangs under an earlier one.
    count = rng.randrange(2, max_nodes + 1)
    parents = [None] + [rng.randrange(i) for i in range(1, count)]
    children = {}
    for child, parent in enumerate(parents):
        if parent is not None:
            children.setdefault(parent, []).append(child)

    def build(i):
        return Tree(tuple(build(c) for c in children.get(i, ())))

    return build(0)


def test_rank_decrease_randomized(rng):
    games = 0
    while games < 200:
        tree = random_tree(rng, 12)
        state = HydraState(tree, 4)
        heads = leaves(tree)
        if not heads:
            continue
        leaf = rng.choice(heads)
        evolutions = rng.randrange(0, 5) if len(leaf) >= 2 else 0
        survivor = surviving(play_round(state, leaf, evolutions))
        assert T(survivor.result) < T(state)
        games += 1


def test_divergence_pressure():
    for evolutions in range(11):
        survivor = surviving(play_round(LINE, (0, 0), evolutions))
        product = survivor.prob * head_count(survivor.result.tree)
        assert product == 4 * 2 ** evolutions
        assert product >= 2 ** (evolutions - 1)


def test_hercules_strategies():
    assert LeftmostDeepest().choose(LINE) == (0, 0)
    assert LeftmostDeepest().choose(parse_hydra("(()(()))")) in ((1, 0), (0, 0))
    first = RandomLeaf(9).choose(parse_hydra("(()()())"))
    again = RandomLeaf(9).choose(parse_hydra("(()()())"))
    assert first == again  # deterministic per seed


def test_leftmost_deepest_folds_each_subtree_once(monkeypatch):
    # A choice folds the tree a fixed number of times however many heads
    # hang under one node, and picks the head that ranking every path's
    # subtrees afresh picks.
    rng = random.Random(3)
    for tree in [random_tree(rng, 30) for _ in range(40)]:
        def fresh_rank(path):
            subtrees = [tree]
            for i in path:
                subtrees.append(subtrees[-1].children[i])
            return (len(path), tuple((node_count(t), canonical_shape(t))
                                     for t in subtrees[1:]))

        assert LeftmostDeepest().choose(HydraState(tree)) == \
            max(leaves(tree), key=fresh_rank)
    fold, calls = hydra._fold, []

    def counting_fold(*args):
        calls.append(args)
        return fold(*args)

    monkeypatch.setattr(hydra, "_fold", counting_fold)
    folds = []
    for heads in (50, 400):
        calls.clear()
        LeftmostDeepest().choose(parse_hydra("((" + "()" * heads + "))"))
        folds.append(len(calls))
    assert folds[0] == folds[1]


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

class EvolveScript(Scheduler):
    """Answer the evolve choices: evolve e times, then stop; memoized so
    replays within one exploration are consistent."""

    def __init__(self, evolutions):
        self.answers = [Rn] * evolutions + [Ln]
        self.cursor = 0
        self.memo = {}

    def decide(self, history, site=None):
        history = tuple(history)
        if history not in self.memo:
            answer = self.answers[self.cursor] \
                if self.cursor < len(self.answers) else Ln
            self.cursor += 1
            self.memo[history] = answer
        return self.memo[history]


def arm(successors, direction):
    """(state, memory) of the one scheduled successor, or at a coin of the
    arm taking the given direction."""
    if len(successors) == 2:
        successors = [pair for pair in successors
                      if pair[0].direction is direction]
    (succ, memory), = successors
    return succ.state, memory


def simulate_one_round(state, evolutions):
    """Drive the compiled game through one full round on the surviving
    path; returns (survival probability, class counts valuation)."""
    program = compile_to_pgcl(state)
    scheduler = EvolveScript(evolutions)
    current, memory = initial_state(program), scheduler.start()
    loop_heads = 0
    for _ in range(2000):
        current, memory = arm(scheduled_step(current, scheduler, memory),
                              Direction.Lp)
        redex = head_redex(current.program)
        if isinstance(redex, While) and isinstance(redex.guard, BoolLit):
            loop_heads += 1
            if loop_heads == 2:
                return current.prob, current.valuation
    raise AssertionError("round did not complete")


def counts_from_valuation(valuation):
    width = 0
    while valuation.get(f"h{width + 1}") != 0:
        width += 1
    counts = [int(valuation.get(f"h{c}")) for c in range(1, width + 1)]
    return counts, int(valuation.get("b"))


def test_compile_is_knievel():
    assert is_knievel(compile_to_pgcl(LINE))
    assert is_knievel(compile_to_pgcl(parse_hydra("(()(())(()()))")))


def test_compile_round_trip_line():
    for evolutions in range(3):
        prob, valuation = simulate_one_round(LINE, evolutions)
        expected = surviving(play_round(LINE, (0, 0), evolutions))
        assert prob == expected.prob
        counts, root_leaves = counts_from_valuation(valuation)
        rebuilt = tree_from_counts(counts, root_leaves)
        assert canonical_shape(rebuilt) == \
            canonical_shape(expected.result.tree)
        assert int(valuation.get("n")) == expected.result.n


def test_compile_round_trip_wider_tree():
    state = parse_hydra("((()())(()))")  # one 2-leaf child, one 1-leaf child
    for evolutions in (0, 1):
        prob, valuation = simulate_one_round(state, evolutions)
        leaf = LeftmostDeepest().choose(state)
        expected = surviving(play_round(state, leaf, evolutions))
        assert prob == expected.prob
        counts, root_leaves = counts_from_valuation(valuation)
        assert canonical_shape(tree_from_counts(counts, root_leaves)) == \
            canonical_shape(expected.result.tree)


def test_compile_single_leaf_terminates_fixed():
    program = compile_to_pgcl(SINGLE)
    for scheduler in (ConstantScheduler(Ln), ConstantScheduler(Rn)):
        bounds = exp_runtime_bounds(program, scheduler, 60)
        assert bounds.closed
    assert exp_runtime_bounds(program, ConstantScheduler(Ln), 60).exact == \
        exp_runtime_bounds(program, ConstantScheduler(Rn), 60).exact


def test_compile_line_reaches_pending_chops():
    for evolutions in (0, 1, 2):
        _, valuation = simulate_one_round(LINE, evolutions)
        assert valuation.get("b") == 4 ** (evolutions + 1)


def test_compile_depth_cap():
    deep = parse_hydra("(((())))")
    with pytest.raises(EncodingWidthError):
        compile_to_pgcl(deep)


def test_compile_random_strategy():
    state = parse_hydra("((()())(()))")
    shuffled = compile_to_pgcl(state, RandomLeaf(3))
    assert is_knievel(shuffled)
    again = compile_to_pgcl(state, RandomLeaf(3))
    assert shuffled == again  # deterministic per seed


def test_measures_of_a_deep_chain():
    # Deeper than the interpreter's recursion limit.  T is left out: it
    # hashes ordinals, and that hash is still recursive.
    chain = LEAF
    for _ in range(3000):
        chain = Tree((chain,))
    assert depth(chain) == 3000
    assert node_count(chain) == 3001
    assert head_count(chain) == 1
    assert canonical_shape(chain) == "(" * 3001 + ")" * 3001


def test_node_count_combines_a_shared_subtree_once():
    shared = parse_hydra("((())())").tree
    star = Tree((shared,) * 10 ** 6)
    start = time.perf_counter()
    assert node_count(star) == 1 + 4 * 10 ** 6
    assert time.perf_counter() - start < 1


def test_round_on_a_deep_chain():
    # Deeper than the interpreter's recursion limit: the round rebuilds the
    # path to the chopped head without recursing.
    chain = LEAF
    for _ in range(3000):
        chain = Tree((chain,))
    survivor = surviving(play_round(HydraState(chain), (0,) * 3000, 0))
    assert depth(survivor.result.tree) == 2999
    assert head_count(survivor.result.tree) == 4


def test_regrown_copies_share_one_subtree():
    state = parse_hydra("(((()()))(()))")
    grown = surviving(play_round(state, (0, 0, 1), 1)).result
    copies = grown.node((0,)).children
    assert len(copies) == 16
    assert all(copy is copies[0] for copy in copies)
    assert canonical_shape(copies[0]) == "(())"
    # Only the path to the grandparent is rebuilt.
    assert grown.tree.children[1] is state.tree.children[1]


def test_strategy_priority():
    assert LeftmostDeepest().priority(3) == [3, 2, 1, 0]
    assert LeftmostDeepest().priority(0) == [0]
    shuffled = RandomLeaf(3).priority(3)
    assert sorted(shuffled) == [0, 1, 2, 3]
    assert shuffled == RandomLeaf(3).priority(3)


def test_nodes_in_document_order():
    tree = parse_hydra("((())())").tree
    assert [path for path, _ in nodes(tree)] == [
        (), (0,), (0, 0), (1,)]
    assert leaves(tree) == [(0, 0), (1,)]
    assert leaves(LEAF) == []


def test_compiled_game_is_what_the_parser_builds():
    rng = random.Random(5)
    trees = [parse_hydra(text).tree for text in (
        "()", "(())", "(()())", "((()))", "((())())", "((()())(()))",
        "(()(())(()()))", "((())(()))", "((()()())(())())")]
    trees += [tree for tree in (random_tree(rng, 12) for _ in range(60))
              if depth(tree) <= 2]
    for tree in trees:
        for hercules in (LeftmostDeepest(), RandomLeaf(0), RandomLeaf(1)):
            program = compile_to_pgcl(HydraState(tree), hercules)
            assert parse(print_program(program)) == program
