"""Schedulers: resolvers for nondeterministic choice.

A scheduler answers Ln or Rn from its memory of the decision history (the
sequence of directions taken so far).  The memory is a hashable summary of
the history that fixes every later decision: start() is the memory of the
empty history and advance() the memory once one more direction is
appended.  Paths that reach the same program state with the same memory
have the same future, so exploration may merge them: it walks the product
of the program with a finite-memory scheduler.  By default the memory is
the history itself, which merges nothing.

decide() also receives the nondeterministic choice node being resolved
("site"); plain schedulers ignore it, the k-bounded wrapper uses it to
track how often each direction was ignored at the same syntactic choice
point.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator

from .semantics import Direction

Ln = Direction.Ln
Rn = Direction.Rn


class SchedulerAbort(Exception):
    """An interactive scheduler ran out of input."""


class EnumerationTooLarge(Exception):
    """Partial-schedule enumeration would exceed the configured cap."""


class Scheduler:
    def start(self):
        """The memory of the empty history."""
        return ()

    def advance(self, memory, direction: Direction, site=None):
        """The memory once `direction` is appended to a history remembered
        as `memory`; site is the choice node an Ln or Rn resolved."""
        return memory + (direction,)

    def decide(self, memory, site=None) -> Direction:
        """The answer at choice node `site` after a history remembered as
        `memory`."""
        raise NotImplementedError


class ConstantScheduler(Scheduler):
    def __init__(self, direction: Direction):
        self.direction = direction

    def advance(self, memory, direction, site=None):
        return ()

    def decide(self, memory, site=None):
        return self.direction

    def __repr__(self):
        return f"constant({self.direction.value})"


class AlternatingScheduler(Scheduler):
    """Ln after an even number of directions, Rn after an odd number;
    probabilistic directions count too, so it remembers the parity."""

    def start(self):
        return 0

    def advance(self, memory, direction, site=None):
        return 1 - memory

    def decide(self, memory, site=None):
        return Ln if memory == 0 else Rn

    def __repr__(self):
        return "alt"


class FunctionScheduler(Scheduler):
    def __init__(self, fn: Callable):
        self.fn = fn

    def decide(self, history, site=None):
        return self.fn(history)


class RandomScheduler(Scheduler):
    """Seeded pseudo-random decisions, memoized per history (replayable)."""

    def __init__(self, seed: int):
        self.seed = seed
        self._memo: Dict[tuple, Direction] = {}

    def decide(self, history, site=None):
        history = tuple(history)
        if history not in self._memo:
            word = "".join(d.value for d in history)
            rng = random.Random(f"{self.seed}:{word}")
            self._memo[history] = rng.choice((Ln, Rn))
        return self._memo[history]


class InteractiveScheduler(Scheduler):
    """Prompts for each fresh decision; answers are memoized per history
    so that replays within one exploration stay consistent."""

    def __init__(self, input_fn=input, output_fn=print):
        self.input_fn = input_fn
        self.output_fn = output_fn
        self._memo: Dict[tuple, Direction] = {}

    def decide(self, history, site=None):
        history = tuple(history)
        if history in self._memo:
            return self._memo[history]
        word = "".join(d.value for d in history) or "(start)"
        self.output_fn(f"nondet choice at history {word}: left or right? [l/r]")
        while True:
            try:
                answer = self.input_fn().strip().lower()
            except EOFError as exc:
                raise SchedulerAbort("end of input") from exc
            if answer in ("l", "left", "ln"):
                direction = Ln
                break
            if answer in ("r", "right", "rn"):
                direction = Rn
                break
            self.output_fn("please answer 'l' or 'r'")
        self._memo[history] = direction
        return direction


# ---------------------------------------------------------------------------
# Partial schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialSchedule:
    """A scheduler table on decision histories of length <= size.

    Only histories at which a nondeterministic query can actually occur are
    stored; entries for unreachable histories could never influence any
    execution tree, so leaving them implicit loses nothing.
    """

    size: int
    table: tuple  # sorted tuple of (history, Direction)

    @staticmethod
    def of(size: int, mapping: dict) -> "PartialSchedule":
        items = tuple(sorted(mapping.items(),
                             key=lambda kv: (len(kv[0]),
                                             tuple(d.value for d in kv[0]))))
        return PartialSchedule(size, items)

    def mapping(self) -> dict:
        return dict(self.table)


class TableScheduler(Scheduler):
    """Standard extension of a partial schedule: table answers on its domain,
    Ln everywhere else (in particular beyond the table's size)."""

    def __init__(self, partial: PartialSchedule):
        self.partial = partial
        self._table = partial.mapping()

    def decide(self, history, site=None):
        return self._table.get(tuple(history), Ln)

    def __repr__(self):
        table = {"".join(d.value for d in history): answer.value
                 for history, answer in self.partial.table}
        return f"extension({table})"


def iter_partial_schedules(size: int, histories: Iterable[tuple],
                           cap: int = 16) -> Iterator[PartialSchedule]:
    """All partial schedules over the given reachable query histories, lazily.

    One schedule per assignment of a direction to each history, so the count
    is 2 ** len(histories).  Raises EnumerationTooLarge when len(histories)
    exceeds the cap.
    """
    histories = sorted(set(tuple(h) for h in histories),
                       key=lambda h: (len(h), tuple(d.value for d in h)))
    if len(histories) > cap:
        raise EnumerationTooLarge(
            f"enumeration too large: {len(histories)} reachable queries "
            f"(2**{len(histories)} schedules) exceeds cap {cap}")
    for combo in itertools.product((Ln, Rn), repeat=len(histories)):
        yield PartialSchedule.of(size, dict(zip(histories, combo)))


# ---------------------------------------------------------------------------
# k-bounded wrapper
# ---------------------------------------------------------------------------

class BoundedScheduler(Scheduler):
    """Overrides an inner scheduler so that at any single choice site no
    direction is ignored more than k consecutive times along a branch.

    A choice site is the nondeterministic choice node itself; structurally
    equal occurrences (for example the same choice on successive loop
    iterations) count as the same site.  The memory is (runs, inner
    memory): runs[i] is (last answer, run length capped at k) at the i-th
    site this scheduler has seen, or None while the branch has not queried
    it; the inner memory follows every direction of the branch.
    """

    def __init__(self, inner: Scheduler, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.inner = inner
        self.k = k
        self._sites: Dict[object, int] = {}  # site -> its index in runs

    def start(self):
        return (), self.inner.start()

    def decide(self, memory, site=None):
        runs, inner = memory
        choice = self.inner.decide(inner, site)
        i = self._sites.get(site)
        if i is not None and i < len(runs) and runs[i] == (choice, self.k):
            choice = Rn if choice == Ln else Ln
        return choice

    def advance(self, memory, direction, site=None):
        runs, inner = memory
        if direction in (Ln, Rn):
            # The run counts this scheduler's own answers, which an outer
            # bound may have overridden.
            answer = self.decide(memory, site)
            i = self._sites.setdefault(site, len(self._sites))
            last = runs[i] if i < len(runs) else None
            length = last[1] + 1 if last and last[0] == answer else 1
            runs = (runs[:i] + (None,) * (i - len(runs))
                    + ((answer, min(length, self.k)),) + runs[i + 1:])
        return runs, self.inner.advance(inner, direction, site)


SCHEDULER_SPEC = re.compile(r"(bounded:-?[0-9]+:)*"
                            r"(const:Ln|const:Rn|alt|random(:-?[0-9]+)?"
                            r"|interactive)")


def parse_scheduler_spec(spec: str, seed: int = 0) -> Scheduler:
    """Build a scheduler from a CLI spec like const:Ln, random:7, alt,
    bounded:2:const:Ln, or interactive; plain random uses `seed`."""
    if not SCHEDULER_SPEC.fullmatch(spec):
        raise ValueError(f"unknown scheduler spec {spec!r} (expected "
                         f"const:Ln | const:Rn | alt | random[:SEED] | "
                         f"bounded:K:SPEC | interactive)")
    if spec.startswith("bounded:"):
        _, k, rest = spec.split(":", 2)
        return BoundedScheduler(parse_scheduler_spec(rest, seed), int(k))
    if spec.startswith("const:"):
        return ConstantScheduler(Direction(spec[len("const:"):]))
    if spec.startswith("random"):
        _, _, given = spec.partition(":")
        return RandomScheduler(int(given) if given else seed)
    if spec == "alt":
        return AlternatingScheduler()
    return InteractiveScheduler()
