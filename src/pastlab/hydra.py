"""The stochastic Hydra game.

A hydra is a finite rooted tree together with a regrowth capacity n
(initially 4).  Each round Hercules chops off a head (a leaf plus its edge).
If the leaf had a grandparent the Hydra may then attempt any number of
evolutions; each evolution kills the Hydra outright with probability 1/2
and quadruples n otherwise.  Afterwards n - 1 copies of the remaining
subtree rooted at the chopped leaf's parent grow beneath the grandparent.
Without a grandparent nothing regrows and no evolution is possible.

Trees are immutable recursive tuples and node ids are root paths (tuples of
child indices), so copies of a subtree share structure; a million-headed
star costs one shared leaf object.  Tree equality in the game sense is
rooted-tree isomorphism, exposed through canonical shapes.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .ordinal import Ordinal
from .syntax import (ABin, Assign, BoolLit, Cmp, EMPTY, EXIT, If,
                     NondetChoice, ProbChoice, Program, RatLit, SKIP, Var,
                     While, seq_of)


class HydraError(ValueError):
    pass


class EncodingWidthError(HydraError):
    """The tree does not fit the fixed pGCL variable encoding."""


@dataclass(frozen=True)
class Tree:
    children: tuple  # tuple of Tree

    def is_leaf(self):
        return not self.children


LEAF = Tree(())


@dataclass(frozen=True)
class HydraState:
    tree: Tree
    n: int = 4

    def node(self, path: tuple) -> Tree:
        t = self.tree
        for i in path:
            if not 0 <= i < len(t.children):
                raise HydraError(f"no child {i}")
            t = t.children[i]
        return t


@dataclass(frozen=True)
class RoundOutcome:
    survived: bool
    prob: Fraction
    result: Optional[HydraState]


# ---------------------------------------------------------------------------
# Tree utilities
# ---------------------------------------------------------------------------

def leaves(tree: Tree) -> List[tuple]:
    """Root paths of all leaves, in document order (the root itself counts
    only when the tree has a single node, in which case it has no head)."""
    out = []

    def walk(t, path):
        if t.is_leaf():
            out.append(path)
        for i, child in enumerate(t.children):
            walk(child, path + (i,))

    if tree.is_leaf():
        return []
    walk(tree, ())
    return out


def _fold(tree: Tree, combine):
    """combine(t, values of t's children) for the root, children first, by
    an explicit stack.  Results are memoised by id, so a subtree object
    shared by many parents is combined once."""
    memo = {}
    stack = [(tree, iter(tree.children))]
    while stack:
        t, children = stack[-1]
        for child in children:
            if id(child) not in memo:
                stack.append((child, iter(child.children)))
                break
        else:
            stack.pop()
            memo[id(t)] = combine(t, [memo[id(c)] for c in t.children])
    return memo[id(tree)]


def depth(tree: Tree) -> int:
    return _fold(tree, lambda t, below: 1 + max(below) if below else 0)


def head_count(tree: Tree) -> int:
    """Number of heads: leaves that hang on an edge."""
    if tree.is_leaf():
        return 0
    return _fold(tree, lambda t, below: sum(below) if below else 1)


def node_count(tree: Tree) -> int:
    return _fold(tree, lambda t, below: 1 + sum(below))


def canonical_shape(tree: Tree) -> str:
    """Parenthesised canonical form; equal strings mean isomorphic trees."""
    return _fold(tree, lambda t, below:
                 "(" + "".join(sorted(below, reverse=True)) + ")")


def parse_hydra(text: str, n: int = 4) -> HydraState:
    """Nested-parentheses form: "(()())" is a root with two leaf children."""
    text = text.strip()
    pos = 0

    def node():
        nonlocal pos
        if pos >= len(text) or text[pos] != "(":
            raise HydraError(f"expected '(' at offset {pos} in {text!r}")
        pos += 1
        children = []
        while pos < len(text) and text[pos] == "(":
            children.append(node())
        if pos >= len(text) or text[pos] != ")":
            raise HydraError(f"expected ')' at offset {pos} in {text!r}")
        pos += 1
        return Tree(tuple(children))

    tree = node()
    if pos != len(text):
        raise HydraError(f"trailing input at offset {pos} in {text!r}")
    return HydraState(tree, n)


# ---------------------------------------------------------------------------
# The ordinal map
# ---------------------------------------------------------------------------

def T(h) -> Ordinal:
    """Ordinal rank of a hydra: leaves rank 0, internal nodes the natural
    sum of omega to the rank of each child."""
    tree = h.tree if isinstance(h, HydraState) else h

    def rank(t, exponents):
        terms = Counter(exponents).items()
        return Ordinal(tuple(sorted(terms, key=lambda kv: kv[0], reverse=True)))

    return _fold(tree, rank)


# ---------------------------------------------------------------------------
# Round mechanics
# ---------------------------------------------------------------------------

def _remove_leaf(tree: Tree, path: tuple) -> Tree:
    if not path:
        raise HydraError("the root is not a head")
    index = path[0]
    if index >= len(tree.children):
        raise HydraError(f"no child {index}")
    child = tree.children[index]
    if len(path) == 1:
        if not child.is_leaf():
            raise HydraError("chosen node is not a leaf")
        new_children = tree.children[:index] + tree.children[index + 1:]
        return Tree(new_children)
    return Tree(tree.children[:index]
                + (_remove_leaf(child, path[1:]),)
                + tree.children[index + 1:])


def _attach(tree: Tree, path: tuple, extra: Tree, copies: int) -> Tree:
    if not path:
        return Tree(tree.children + (extra,) * copies)
    index = path[0]
    return Tree(tree.children[:index]
                + (_attach(tree.children[index], path[1:], extra, copies),)
                + tree.children[index + 1:])


def play_round(h: HydraState, leaf: tuple, evolutions: int) -> List[RoundOutcome]:
    """All outcomes of one round in which Hercules chops `leaf` and the Hydra
    attempts `evolutions` evolutions.

    With a grandparent present: one surviving outcome with probability
    2**-evolutions, capacity n * 4**evolutions, and capacity-1 copies of the
    post-removal subtree rooted at the leaf's parent attached beneath the
    grandparent; plus one death outcome per evolution coin, with
    probabilities 1/2, 1/4, ..., 2**-evolutions.  Without a grandparent the
    single outcome has probability 1 and nothing regrows.
    """
    leaf = tuple(leaf)
    if evolutions < 0:
        raise HydraError("evolutions must be non-negative")
    node = h.node(leaf)
    if not node.is_leaf():
        raise HydraError("chosen node is not a leaf")
    if not leaf:
        raise HydraError("the root is not a head")
    removed = _remove_leaf(h.tree, leaf)
    has_grandparent = len(leaf) >= 2
    if not has_grandparent:
        if evolutions > 0:
            raise HydraError("cannot evolve without a grandparent")
        return [RoundOutcome(True, Fraction(1), HydraState(removed, h.n))]
    parent_path = leaf[:-1]
    grandparent_path = leaf[:-2]
    subtree = removed
    for i in parent_path:
        subtree = subtree.children[i]
    try:
        # A tuple holds at most sys.maxsize items, which 4**evolutions alone
        # passes once 2 * evolutions reaches its bit length: the power is
        # only computed below that.
        if 2 * evolutions >= sys.maxsize.bit_length() \
                or h.n * 4 ** evolutions - 1 > sys.maxsize:
            raise MemoryError
        new_capacity = h.n * 4 ** evolutions
        grown = _attach(removed, grandparent_path, subtree, new_capacity - 1)
    except MemoryError:
        raise HydraError(f"{evolutions} evolutions regrow more copies "
                         f"than fit in memory") from None
    outcomes = [RoundOutcome(True, Fraction(1, 2 ** evolutions),
                             HydraState(grown, new_capacity))]
    for i in range(1, evolutions + 1):
        outcomes.append(RoundOutcome(False, Fraction(1, 2 ** i), None))
    return outcomes


def surviving(outcomes: List[RoundOutcome]) -> RoundOutcome:
    for outcome in outcomes:
        if outcome.survived:
            return outcome
    raise HydraError("no surviving outcome")


# ---------------------------------------------------------------------------
# Hercules strategies
# ---------------------------------------------------------------------------

class LeftmostDeepest:
    """Chop a deepest leaf; ties break toward the largest subtree (by node
    count, then shape) so the choice matches the compiled class dispatch,
    which serves the highest leaf class first."""

    def choose(self, h: HydraState) -> tuple:
        candidates = leaves(h.tree)
        if not candidates:
            raise HydraError("no heads left")

        def rank(path):
            keys = []
            t = h.tree
            for i in path:
                t = t.children[i]
                keys.append((node_count(t), canonical_shape(t)))
            return (len(path), tuple(keys))

        return max(candidates, key=rank)


class RandomLeaf:
    """Uniformly random head, deterministic for a fixed seed."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def choose(self, h: HydraState) -> tuple:
        candidates = leaves(h.tree)
        if not candidates:
            raise HydraError("no heads left")
        return self.rng.choice(candidates)


# ---------------------------------------------------------------------------
# Compilation to pGCL
# ---------------------------------------------------------------------------
#
# Hydras of depth at most two are encoded in integer variables: hc counts the
# root's internal children bearing exactly c leaves (c = 1..width), b counts
# the root's own leaf children, and n is the regrowth capacity.  Chopping a
# leaf under a class-c child moves that child (and, after evolution, n - 1
# fresh copies of it) into class c-1, where class 0 means a bare leaf under
# the root.  Round dynamics never deepen a tree or raise a child's leaf
# count, so the width fixed at compile time suffices forever.  Deeper trees
# have no such finite-variable numbering here and are refused.

def _num(value) -> RatLit:
    return RatLit(Fraction(value))


def _class_counts(h: HydraState):
    """(counts per leaf-class 1..width, root leaf count) for depth <= 2."""
    if depth(h.tree) > 2:
        raise EncodingWidthError(
            "tree too large for the configured encoding width: "
            "only hydras of depth <= 2 have the class encoding")
    b = 0
    classes = {}
    for child in h.tree.children:
        if child.is_leaf():
            b += 1
        else:
            c = len(child.children)
            classes[c] = classes.get(c, 0) + 1
    width = max(classes) if classes else 0
    return [classes.get(c, 0) for c in range(1, width + 1)], b


def _evolution_block() -> Program:
    evolve_choice = NondetChoice(Assign("evolve", _num(0)),
                                 Assign("evolve", _num(1)))
    body = seq_of([
        ProbChoice(SKIP, _num(Fraction(1, 2)), EXIT),
        Assign("n", ABin("*", _num(4), Var("n"))),
        evolve_choice,
    ])
    return seq_of([evolve_choice, While(Cmp("=", Var("evolve"), _num(1)), body)])


def _round_program(c: int) -> Program:
    """One round chopping a leaf in class c (c = 0 chops a root leaf)."""
    if c == 0:
        return Assign("b", ABin("-", Var("b"), _num(1)))
    target = f"h{c}" if c >= 1 else "b"
    gain = "b" if c == 1 else f"h{c - 1}"
    return seq_of([
        Assign(target, ABin("-", Var(target), _num(1))),
        _evolution_block(),
        Assign(gain, ABin("+", Var(gain), Var("n"))),
    ])


def _priority_dispatch(order) -> Program:
    """if (class count > 0) round else if ... chained along the priority."""
    prog: Program = EMPTY
    for c in reversed(order):
        var = "b" if c == 0 else f"h{c}"
        prog = If(Cmp(">", Var(var), _num(0)), _round_program(c), prog)
    return prog


def compile_to_pgcl(h: HydraState, hercules="leftmost-deepest") -> Program:
    """Compile the whole game into a pGCL program.

    The program's nondeterministic choices are exactly the Hydra's evolution
    decisions; deaths are skip-or-exit coin flips, so the output is already
    in normal form.  Hercules's strategy is fixed at compile time as a
    priority order over leaf classes: leftmost-deepest prefers the deepest
    class and random(seed) uses a seed-shuffled priority.
    """
    counts, b = _class_counts(h)
    width = len(counts)
    order = list(range(width, 0, -1)) + [0]

    if isinstance(hercules, tuple) and hercules[0] == "random":
        random.Random(hercules[1]).shuffle(order)
    elif hercules != "leftmost-deepest":
        raise HydraError(f"unknown strategy {hercules!r}")

    total = Var("b")
    for c in range(1, width + 1):
        total = ABin("+", Var(f"h{c}"), total)

    body = seq_of([
        If(Cmp("=", total, _num(0)), EXIT, EMPTY),
        _priority_dispatch(order),
    ])
    inits = [Assign("n", _num(h.n)), Assign("b", _num(b))]
    for c in range(1, width + 1):
        inits.append(Assign(f"h{c}", _num(counts[c - 1])))
    return seq_of(inits + [While(BoolLit(True), body)])
