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
                     NondetChoice, Program, Var, While, seq_of)
from .transforms import COIN, chain, num


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

def nodes(tree: Tree):
    """(root path, subtree) of every node in document order, by an explicit
    stack."""
    stack = [((), tree)]
    while stack:
        path, t = stack.pop()
        yield path, t
        stack.extend((path + (i,), t.children[i])
                     for i in reversed(range(len(t.children))))


def leaves(tree: Tree) -> List[tuple]:
    """Root paths of the heads, the leaves below the root, in document
    order."""
    return [path for path, t in nodes(tree) if path and t.is_leaf()]


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

def _rebuild(tree: Tree, path: tuple, change) -> Tree:
    """tree with the node at path replaced by change(node); only the nodes
    along the path are rebuilt, by an explicit stack."""
    spine = [tree]
    for i in path:
        spine.append(spine[-1].children[i])
    node = change(spine.pop())
    for i in reversed(path):
        parent = spine.pop()
        node = Tree(parent.children[:i] + (node,) + parent.children[i + 1:])
    return node


def _without_child(tree: Tree, i: int) -> Tree:
    return Tree(tree.children[:i] + tree.children[i + 1:])


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
    if not h.node(leaf).is_leaf():
        raise HydraError("chosen node is not a leaf")
    if not leaf:
        raise HydraError("the root is not a head")
    if len(leaf) == 1:
        if evolutions > 0:
            raise HydraError("cannot evolve without a grandparent")
        return [RoundOutcome(True, Fraction(1), HydraState(
            _without_child(h.tree, leaf[0]), h.n))]
    p, i = leaf[-2:]

    def regrow(grandparent):
        # The parent stays in place and every copy is that same object.
        parent = _without_child(grandparent.children[p], i)
        return Tree(grandparent.children[:p] + (parent,)
                    + grandparent.children[p + 1:]
                    + (parent,) * (new_capacity - 1))

    try:
        # A tuple holds at most sys.maxsize items, which 4**evolutions alone
        # passes once 2 * evolutions reaches its bit length: the power is
        # only computed below that.
        if 2 * evolutions >= sys.maxsize.bit_length() \
                or h.n * 4 ** evolutions - 1 > sys.maxsize:
            raise MemoryError
        new_capacity = h.n * 4 ** evolutions
        grown = _rebuild(h.tree, leaf[:-2], regrow)
    except MemoryError:
        raise HydraError(f"{evolutions} evolutions regrow more copies "
                         f"than fit in memory") from None
    return [RoundOutcome(True, Fraction(1, 2 ** evolutions),
                         HydraState(grown, new_capacity))] + [
        RoundOutcome(False, Fraction(1, 2 ** coin), None)
        for coin in range(1, evolutions + 1)]


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

    def priority(self, width: int) -> list:
        """The leaf classes of the compiled game (see below) in the order
        Hercules serves them: the deepest class first."""
        return list(range(width, 0, -1)) + [0]


class RandomLeaf:
    """Uniformly random head, deterministic for a fixed seed.  Compiled, the
    seed instead fixes one shuffled class order for the whole game."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def choose(self, h: HydraState) -> tuple:
        candidates = leaves(h.tree)
        if not candidates:
            raise HydraError("no heads left")
        return self.rng.choice(candidates)

    def priority(self, width: int) -> list:
        order = LeftmostDeepest().priority(width)
        random.Random(self.seed).shuffle(order)
        return order


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

def _class_counts(h: HydraState):
    """(counts per leaf-class 1..width, root leaf count) for depth <= 2."""
    if depth(h.tree) > 2:
        raise EncodingWidthError(
            "tree too large for the configured encoding width: "
            "only hydras of depth <= 2 have the class encoding")
    classes = Counter(len(child.children) for child in h.tree.children)
    b = classes.pop(0, 0)
    return [classes[c] for c in range(1, max(classes, default=0) + 1)], b


def _evolution_block() -> Program:
    evolve_choice = NondetChoice(Assign("evolve", num(0)),
                                 Assign("evolve", num(1)))
    body = seq_of([
        COIN,
        Assign("n", ABin("*", num(4), Var("n"))),
        evolve_choice,
    ])
    return seq_of([evolve_choice, While(Cmp("=", Var("evolve"), num(1)), body)])


def _round_program(c: int) -> Program:
    """One round chopping a leaf in class c (c = 0 chops a root leaf)."""
    if c == 0:
        return Assign("b", ABin("-", Var("b"), num(1)))
    gain = "b" if c == 1 else f"h{c - 1}"
    return seq_of([
        Assign(f"h{c}", ABin("-", Var(f"h{c}"), num(1))),
        _evolution_block(),
        Assign(gain, ABin("+", Var(gain), Var("n"))),
    ])


def compile_to_pgcl(h: HydraState,
                    hercules=LeftmostDeepest()) -> Program:
    """Compile the whole game into a pGCL program.

    The program's nondeterministic choices are exactly the Hydra's evolution
    decisions; deaths are skip-or-exit coin flips, so the output is already
    in normal form.  Hercules's strategy is fixed at compile time as the
    order over leaf classes that hercules.priority(width) gives.
    """
    counts, b = _class_counts(h)
    width = len(counts)
    total = Var("b")
    for c in range(1, width + 1):
        total = ABin("+", Var(f"h{c}"), total)

    body = seq_of([
        If(Cmp("=", total, num(0)), EXIT, EMPTY),
        chain([(Cmp(">", Var(f"h{c}" if c else "b"), num(0)),
                 _round_program(c)) for c in hercules.priority(width)],
              EMPTY),
    ])
    inits = [Assign("n", num(h.n)), Assign("b", num(b))]
    inits += [Assign(f"h{c}", num(count))
              for c, count in enumerate(counts, start=1)]
    return seq_of(inits + [While(BoolLit(True), body)])
