"""Schedulers: resolvers for nondeterministic choice.

A scheduler answers Ln or Rn for any decision history (the sequence of
directions taken so far).  Replayable schedulers give the same answer for
the same history, which exploration relies on when it revisits a state.

The decide() method also receives the nondeterministic choice node being
resolved ("site"); plain schedulers ignore it, the k-bounded wrapper uses
it to track how often each direction was ignored at the same syntactic
choice point.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional

from .semantics import Direction

Ln = Direction.Ln
Rn = Direction.Rn


class SchedulerAbort(Exception):
    """An interactive scheduler ran out of input."""


class EnumerationTooLarge(Exception):
    """Partial-schedule enumeration would exceed the configured cap."""


class Scheduler:
    # True when decide() never reads the history, so that two paths reaching
    # the same program state have the same future and exploration may merge
    # them.
    memoryless = False

    def decide(self, history, site=None) -> Direction:
        raise NotImplementedError


class ConstantScheduler(Scheduler):
    memoryless = True

    def __init__(self, direction: Direction):
        self.direction = direction

    def decide(self, history, site=None):
        return self.direction

    def __repr__(self):
        return f"constant({self.direction.value})"


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


def constant(direction: Direction) -> Scheduler:
    return ConstantScheduler(direction)


def from_function(fn: Callable) -> Scheduler:
    return FunctionScheduler(fn)


def interactive(input_fn=input, output_fn=print) -> Scheduler:
    return InteractiveScheduler(input_fn, output_fn)


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

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "table": {"".join(d.value for d in hist): direction.value
                      for hist, direction in self.table},
        }

    @staticmethod
    def from_json(data: dict) -> "PartialSchedule":
        table = {}
        for word, value in data.get("table", {}).items():
            history = tuple(Direction(word[i:i + 2])
                            for i in range(0, len(word), 2))
            table[history] = Direction(value)
        return PartialSchedule.of(int(data["size"]), table)


class TableScheduler(Scheduler):
    """Standard extension of a partial schedule: table answers on its domain,
    Ln everywhere else (in particular beyond the table's size)."""

    def __init__(self, partial: PartialSchedule):
        self.partial = partial
        self._table = partial.mapping()

    def decide(self, history, site=None):
        return self._table.get(tuple(history), Ln)

    def __repr__(self):
        return f"extension({self.partial.to_json()})"


def standard_extension(partial: PartialSchedule) -> Scheduler:
    return TableScheduler(partial)


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


def enumerate_partial_schedules(size: int, histories: Iterable[tuple],
                                cap: int = 16) -> list:
    return list(iter_partial_schedules(size, histories, cap))


# ---------------------------------------------------------------------------
# k-bounded wrapper
# ---------------------------------------------------------------------------

class BoundedScheduler(Scheduler):
    """Overrides an inner scheduler so that at any single choice site no
    direction is ignored more than k consecutive times along a branch.

    A choice site is the nondeterministic choice node itself; structurally
    equal occurrences (for example the same choice on successive loop
    iterations) count as the same site.  Past answers are logged per history,
    and the consecutive run is read off the logged queries whose histories
    are prefixes of the current one, i.e. the queries on this branch.
    """

    def __init__(self, inner: Scheduler, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.inner = inner
        self.k = k
        self._log: Dict[tuple, tuple] = {}  # history -> (site, answer)

    def decide(self, history, site=None):
        history = tuple(history)
        if history in self._log:
            return self._log[history][1]
        run_dir: Optional[Direction] = None
        run_len = 0
        for end in range(len(history)):
            logged = self._log.get(history[:end])
            if logged is None or logged[0] != site:
                continue
            answer = logged[1]
            if answer == run_dir:
                run_len += 1
            else:
                run_dir, run_len = answer, 1
        choice = self.inner.decide(history, site)
        if run_dir is not None and run_len >= self.k and choice == run_dir:
            choice = Rn if run_dir == Ln else Ln
        self._log[history] = (site, choice)
        return choice


def bound(inner: Scheduler, k: int) -> BoundedScheduler:
    return BoundedScheduler(inner, k)


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
        return bound(parse_scheduler_spec(rest, seed), int(k))
    if spec.startswith("const:"):
        return constant(Direction(spec[len("const:"):]))
    if spec.startswith("random"):
        _, _, given = spec.partition(":")
        return RandomScheduler(int(given) if given else seed)
    if spec == "alt":
        return from_function(lambda h: Ln if len(h) % 2 == 0 else Rn)
    return interactive()
