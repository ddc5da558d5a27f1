import pytest

from pastlab.scheduling import (BoundedScheduler, ConstantScheduler,
                                EnumerationTooLarge, FunctionScheduler,
                                InteractiveScheduler, Ln, PartialSchedule,
                                RandomScheduler, Rn, TableScheduler,
                                iter_partial_schedules, SchedulerAbort)
from pastlab.semantics import Direction
from pastlab.syntax import parse
from pastlab.exploration import collect_nondet_queries


def hist(word):
    return tuple(Direction(word[i:i + 2]) for i in range(0, len(word), 2))


def test_standard_extension_defaults_left():
    ps = PartialSchedule.of(0, {(): Rn})
    sched = TableScheduler(ps)
    assert sched.decide(hist("LnLpRn")) == Ln
    assert sched.decide(()) == Rn


def test_standard_extension_agrees_on_domain():
    table = {hist("Ln"): Rn, hist("Lp"): Ln, hist("RnRp"): Rn}
    sched = TableScheduler(PartialSchedule.of(2, table))
    for history, direction in table.items():
        assert sched.decide(history) == direction


def test_enumerate_counts():
    # No nondeterminism: a single empty schedule.
    queries = collect_nondet_queries(parse("x := 1; x := 2"), 10)
    assert list(iter_partial_schedules(10, queries)) == [
        PartialSchedule.of(10, {})]
    # A single choice up front: two schedules.
    queries = collect_nondet_queries(parse("{ x := 1 } [] { x := 2 }"), 3)
    assert len(list(iter_partial_schedules(3, queries))) == 2
    # One loop iteration of the choice-then-coin loop: one reachable query.
    loop = parse("x := 0; y := 0; z := 1; while (x + y = 0) "
                 "{ { y := 0 } [] { y := 1 }; { x := 0 } <1/2> { x := 1 }; "
                 "z := 4 * z }")
    depth_one_iteration = 8
    queries = collect_nondet_queries(loop, depth_one_iteration)
    assert len(queries) == 1
    assert len(list(iter_partial_schedules(depth_one_iteration,
                                           queries))) == 2


def test_enumeration_cap():
    queries = {hist("Ln") * i for i in range(20)}
    with pytest.raises(EnumerationTooLarge):
        list(iter_partial_schedules(20, queries, cap=16))


def test_enumeration_covers_all_assignments():
    queries = [(), hist("Ln")]
    schedules = list(iter_partial_schedules(1, queries))
    assert len(schedules) == 4
    answers = {tuple(ps.mapping()[q] for q in sorted(queries, key=len))
               for ps in schedules}
    assert answers == {(Ln, Ln), (Ln, Rn), (Rn, Ln), (Rn, Rn)}


def test_constant_and_function():
    assert ConstantScheduler(Ln).decide(hist("RnRn")) == Ln
    parity = FunctionScheduler(lambda h: Ln if len(h) % 2 == 0 else Rn)
    assert parity.decide(()) == Ln
    assert parity.decide(hist("Lp")) == Rn


def test_interactive_scripted_stdin():
    answers = iter(["r", "nonsense", "l"])
    printed = []
    sched = InteractiveScheduler(input_fn=lambda: next(answers),
                        output_fn=printed.append)
    assert sched.decide(()) == Rn
    # memoized: no further input consumed
    assert sched.decide(()) == Rn
    assert sched.decide(hist("Rn")) == Ln
    assert any("l/r" in line for line in printed)


def test_interactive_eof_aborts():
    def no_input():
        raise EOFError
    sched = InteractiveScheduler(input_fn=no_input, output_fn=lambda *_: None)
    with pytest.raises(SchedulerAbort):
        sched.decide(())


def test_random_scheduler_replayable():
    a = RandomScheduler(5)
    b = RandomScheduler(5)
    histories = [(), hist("Ln"), hist("LnLp"), hist("Rn")]
    assert [a.decide(h) for h in histories] == [b.decide(h) for h in histories]


def branch(sched, sites):
    """The answers of sched along one branch that queries the given sites
    in turn and takes every answer, advancing its memory as exploration
    does."""
    memory = sched.start()
    answers = []
    for site in sites:
        direction = sched.decide(memory, site)
        answers.append(direction)
        memory = sched.advance(memory, direction, site)
    return answers


def test_bound_overrides_after_k_ignores():
    site = object()
    answers = branch(BoundedScheduler(ConstantScheduler(Ln), 2), [site] * 6)
    assert answers == [Ln, Ln, Rn, Ln, Ln, Rn]


def test_bound_strict_alternation_at_k1():
    site = object()
    answers = branch(BoundedScheduler(ConstantScheduler(Ln), 1), [site] * 4)
    assert answers == [Ln, Rn, Ln, Rn]


def test_bound_transparent_when_under_k():
    inner = FunctionScheduler(lambda h: Rn if len(h) == 1 else Ln)
    site = object()
    answers = branch(BoundedScheduler(inner, 3), [site] * 3)
    assert answers == [inner.decide(tuple(answers[:i])) for i in range(3)]


def test_bound_tracks_sites_separately():
    site_a, site_b = object(), object()
    # Alternate queries between two sites: each site's own run is what
    # matters, so the first query at each site still answers Ln, and the
    # third is Rn because Ln was already ignored once at site_a.
    answers = branch(BoundedScheduler(ConstantScheduler(Ln), 1),
                     [site_a, site_b, site_a])
    assert answers == [Ln, Ln, Rn]


def test_bound_audit_never_exceeds_k():
    # One repeated syntactic site, long branch: audit consecutive answers.
    site = object()
    run_dir, run_len = None, 0
    for direction in branch(BoundedScheduler(RandomScheduler(11), 3),
                            [site] * 60):
        if direction == run_dir:
            run_len += 1
        else:
            run_dir, run_len = direction, 1
        assert run_len <= 3


def test_nested_bound_counts_its_own_answers():
    # The inner bound answers Ln Ln Ln Rn and repeats, whatever the outer
    # bound makes of its third Ln, so the outer answers Rn twice in a row.
    site = object()
    answers = branch(
        BoundedScheduler(BoundedScheduler(ConstantScheduler(Ln), 3), 2),
        [site] * 8)
    assert answers == [Ln, Ln, Rn, Rn] * 2


def test_bound_requires_positive_k():
    with pytest.raises(ValueError):
        BoundedScheduler(ConstantScheduler(Ln), 0)


def test_bound_audits_every_branch_of_a_probabilistic_tree():
    # The k-bound applies along every branch of the execution tree, so each
    # probabilistic branch carries its own alternation discipline.
    from pastlab.exploration import build_tree
    program = parse("while (true) { { skip } <1/2> { skip }; "
                    "{ x := 1 } [] { x := 2 } }")
    tree = build_tree(program, BoundedScheduler(ConstantScheduler(Ln), 1), 30,
                      node_cap=100_000)

    def walk(node, trail):
        if not node.children:
            run, last = 0, None
            for direction in trail:
                if direction not in (Ln, Rn):
                    continue
                run = run + 1 if direction == last else 1
                last = direction
                assert run <= 1
            return
        for direction, child in node.children:
            walk(child, trail + [direction])

    walk(tree.root, [])


def test_tree_independent_of_extension_beyond_size():
    # Within the schedule's horizon every query is covered by the table, so
    # how the extension answers afterwards cannot change the bounded tree.
    from pastlab.exploration import build_tree

    class RightExtension(TableScheduler):
        def decide(self, history, site=None):
            return self._table.get(tuple(history), Rn)

    program = parse("x := 3; while (x > 0) "
                    "{ { x := x - 1 } [] { x := x - 2 } }")
    size = 12
    queries = collect_nondet_queries(program, size)
    for partial in iter_partial_schedules(size, queries):
        left = build_tree(program, TableScheduler(partial), size)
        right = build_tree(program, RightExtension(partial), size)
        assert left.to_json() == right.to_json()
