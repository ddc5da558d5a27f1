"""Seeded jobs for the four benchmark workloads, and the checks on their outputs.

Every job is a real analysis: `pastlab` command lines run in-process through
`pastlab.cli.main(argv)` on files generated here, plus, for `certify`, the
library calls that build the certificates.  A job's `run` is timed; its
`check` runs afterwards, untimed, against a reference from `oracles` that
does not come from the layer under test.

Workloads are built from strata: each stratum fixes what drives a job's cost
(frontier size, query count, graph size, program length) and the seed picks
the remaining parameters.  One cycle takes one job from every stratum, in a
fixed interleaved order, so any run covers the strata in proportion and a
new seed changes the inputs but not the cost profile.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

from pastlab import certificates, cli, exploration, transforms
from pastlab.ordinal import ZERO as ORD_ZERO, from_natural
from pastlab.syntax import BBin, If, Seq, While, parse, print_program

import oracles

ONE = Fraction(1)
ZERO = Fraction(0)

# Branch probabilities with small denominators keep exact arithmetic cheap
# and comparable across seeds.
PROBS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(2, 5),
         Fraction(3, 5), Fraction(1, 4), Fraction(3, 4)]

GRAPH_BOUND = 20000
DEEP_RUN_DEPTH = 60


@dataclass
class Job:
    kind: str
    label: str                                   # inputs, for failure reports
    run: Callable[[], object]                    # timed
    check: Callable[[object], Optional[str]]     # None when the output is right


@dataclass
class Invocation:
    argv: List[str]
    code: int
    out: str


def invoke(argv) -> Invocation:
    """Run one `pastlab` command line in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return Invocation(list(argv), code, out.getvalue())


def expect(inv: Invocation, code: int) -> Optional[str]:
    if inv.code != code:
        return f"exit {inv.code}, expected {code}: {' '.join(map(str, inv.argv))}"
    return None


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _write(path: str, text: str) -> str:
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path


def _cycles(rng: random.Random, strata, repeats: int):
    return [make(rng) for _ in range(repeats) for make in strata], len(strata)


# ---------------------------------------------------------------------------
# Bounded runs checked against a per-iteration Markov chain
# ---------------------------------------------------------------------------

def _exact(want: str, code: int = 0):
    """A check that the command exited with `code` and printed exactly `want`."""
    def check(inv: Invocation):
        if inv.out != want and inv.code == code:
            return f"output {inv.out!r}, expected {want!r}"
        return expect(inv, code)
    return check


def _run_check(model, depth):
    ref = oracles.profile(model, depth)
    return _exact(f"depth: {depth}\nterminal mass: {fmt(ref.terminal_mass())}\n"
                  f"frontier mass: {fmt(ref.live_mass)} ({ref.live_paths} states)\n")


def _runtime_check(model, depth):
    ref = oracles.profile(model, depth)
    lower = fmt(ref.runtime_lower_bound(depth))
    if ref.live_paths == 0:
        return _exact(f"lower bound: {lower}\nclosed: true\nexact: {lower}\n")
    return _exact(f"lower bound: {lower}\nclosed: false\n")


def _cli_job(kind, label, argv, check) -> Job:
    return Job(kind, label, lambda: invoke(argv), check)


def walk_source(x0, p):
    return (f"x := {x0}; while (x != 0) {{ {{ x := x + 1 }} <{fmt(p)}> "
            f"{{ x := x - 1 }} }}")


def geometric_source(p):
    return f"while (x = 0) {{ {{ skip }} <{fmt(p)}> {{ exit }} }}"


def choice_loop_source(p, extra, z0):
    body = "; ".join(["z := 4 * z"] * (extra + 1))
    return (f"x := 0; y := 0; z := {z0}; while (x + y = 0) {{ "
            f"{{ y := 0 }} [] {{ y := 1 }}; {{ x := 0 }} <{fmt(p)}> {{ x := 1 }}; "
            f"{body} }}")


def nondet_walk_source(x0, p, q):
    return (f"x := {x0}; while (x > 0) {{ {{ x := x + 1 }} [] {{ x := x - 1 }}; "
            f"{{ x := x + 1 }} <{fmt(p)}> {{ x := x - 1 }}; "
            f"{{ x := x + 1 }} <{fmt(q)}> {{ x := x - 1 }} }}")


class Builder:
    """Writes job inputs into one work directory, numbering the files."""

    def __init__(self, workdir: str, prefix: str = "job"):
        self.workdir = workdir
        self.prefix = prefix
        self.count = 0

    def _stem(self, name: str) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"{self.prefix}{self.count:04d}-{name}")

    def file(self, name: str, text: str) -> str:
        return _write(self._stem(name) + ".pgcl", text)

    # -- explore -------------------------------------------------------------

    def walk(self, command, target, x0, denominator):
        def make(rng):
            p = Fraction(rng.randrange(1, denominator), denominator)
            model = oracles.walk(x0, p)
            depth = oracles.depth_for_frontier(model, target, 400)
            path = self.file("walk", walk_source(x0, p))
            spec = rng.choice(("const:Ln", "const:Rn"))
            check = (_run_check if command == "run" else _runtime_check)(model, depth)
            return _cli_job(f"walk-{command}", f"x0={x0} p={fmt(p)} depth={depth}",
                            [command, path, "--depth", depth, "--scheduler", spec],
                            check)
        return make

    def geometric(self, low, high):
        def make(rng):
            p, depth = rng.choice(PROBS), rng.randrange(low, high)
            path = self.file("geometric", geometric_source(p))
            return _cli_job("geometric-runtime", f"p={fmt(p)} depth={depth}",
                            ["runtime", path, "--depth", depth],
                            _runtime_check(oracles.geometric(p), depth))
        return make

    def choice_run(self, low, high):
        def make(rng):
            p, extra, z0 = rng.choice(PROBS), rng.randrange(3), rng.randrange(1, 10)
            spec = rng.choice(("const:Ln", "const:Rn"))
            depth = rng.randrange(low, high)
            model = oracles.choice_loop(p, extra,
                                        oracles.scheduler_decisions(spec, 2))
            path = self.file("choice", choice_loop_source(p, extra, z0))
            return _cli_job("choice-run", f"{spec} p={fmt(p)} depth={depth}",
                            ["run", path, "--depth", depth, "--scheduler", spec],
                            _run_check(model, depth))
        return make

    # -- schedule ------------------------------------------------------------

    def ast_check(self, queries, verdict):
        def make(rng):
            z0, period = rng.randrange(1, 10), oracles.choice_loop_period(0)
            # The k-th round queries the scheduler at depth 6 + (k-1)*period + 1,
            # which collect_nondet_queries sees when it is below n; the cost
            # grows with n, so it varies by little.
            n = 8 + (queries - 1) * period + rng.randrange(3)
            worst = oracles.choice_loop_worst_termination(n, 0)
            rounds = oracles.choice_loop_rounds(n, 0)
            delta = worst - Fraction(1, 2 ** (rounds + 2)) if verdict else worst
            path = self.file("choice", choice_loop_source(Fraction(1, 2), 0, z0))
            answer = "yes" if verdict else "no"
            return _cli_job(f"ast-check-{answer}", f"n={n} delta={fmt(delta)}",
                            ["ast-check", path, "--delta", fmt(delta), "--n", n],
                            _exact(f"every size-{n} schedule exceeds {fmt(delta)}: "
                                   f"{answer}\n", 0 if verdict else 1))
        return make

    def nondet_walk(self, specs, target):
        def make(rng):
            spec = rng.choice(specs)
            x0, p, q = rng.choice((3, 4, 5)), rng.choice(PROBS), rng.choice(PROBS)
            model = oracles.nondet_walk(x0, p, q, oracles.scheduler_decisions(spec, 3))
            depth = oracles.depth_for_frontier(model, target, 400)
            path = self.file("ndwalk", nondet_walk_source(x0, p, q))
            return _cli_job("nondet-walk-run",
                            f"{spec} x0={x0} p={fmt(p)} q={fmt(q)} depth={depth}",
                            ["run", path, "--depth", depth, "--scheduler", spec],
                            _run_check(model, depth))
        return make

    # -- certify -------------------------------------------------------------

    def certify(self, caps, kind):
        def make(rng):
            cap, clamp = rng.choice(caps), rng.randrange(2, 10)
            stem = self._stem(f"inc{cap}-{kind}")
            return Job(f"certify-{kind}", f"cap={cap} clamp=1/{clamp}",
                       lambda: certify_run(cap, kind, clamp, stem),
                       certify_check(cap, kind))
        return make

    # -- deep ----------------------------------------------------------------

    def deep(self, size):
        def make(rng):
            size_now = size + rng.randrange(-2, 3)
            stmts = deep_program(rng, size_now)
            path = self.file(f"deep{size_now}", oracles.render(stmts))
            graph_path = path[:-len(".pgcl")] + "-graph.json"
            argvs = (["parse", path],
                     ["graph", path, "--bound", GRAPH_BOUND, "-o", graph_path],
                     ["run", path, "--depth", DEEP_RUN_DEPTH])

            def run():
                return [invoke(argv) for argv in argvs]
            return Job("deep", f"statements={size_now}", run,
                       deep_check(stmts, graph_path))
        return make


# ---------------------------------------------------------------------------
# certify: emit_inc(cap) -> graph -> certificates -> check-rsm / check-rule
# ---------------------------------------------------------------------------

# Graph size and scheduler-worst expected steps to termination of the
# increment gadget, pinned at the commit that introduced this benchmark.
# The exit times themselves are checked exactly by the Bellman residual;
# these golden values catch a wrong graph on which the residual still holds.
INC_GOLDEN = {2: (42, Fraction(17)), 4: (73, Fraction(41, 2)), 8: (116, Fraction(29))}


def _doubling_cap(cap: int) -> int:
    top = 1
    while top < cap:
        top *= 2
    return top


def _in_selection_loop(program) -> bool:
    """True while the capped doubling loop (the only `and`-guarded while)
    is still ahead in the residual program."""
    stack = [program]
    while stack:
        node = stack.pop()
        if isinstance(node, While):
            if isinstance(node.guard, BBin):
                return True
        elif isinstance(node, Seq):
            stack.extend((node.first, node.rest))
        elif isinstance(node, If):
            stack.extend((node.then, node.orelse))
    return False


def _remaining_steps(graph, nodes):
    """Steps from each node to the terminal along its deterministic path."""
    remaining = {}
    for node in nodes:
        path = []
        cur = node
        while graph.kinds[cur] != "terminal" and cur not in remaining:
            path.append(cur)
            (edge,) = graph.edges[cur]
            cur = edge.dst
        base = remaining.get(cur, 0)
        for offset, item in enumerate(reversed(path), start=1):
            remaining[item] = base + offset
    return remaining


def certify_run(cap: int, kind: str, clamp: int, stem: str):
    program = transforms.emit_inc(cap=cap)
    program_path = _write(stem + ".pgcl", print_program(program))
    graph_path = stem + "-graph.json"
    made = invoke(["graph", program_path, "--bound", GRAPH_BOUND, "-o", graph_path])
    if made.code != 0:
        return {"made": made}
    with open(graph_path) as handle:
        graph = exploration.StateGraph.from_json(json.load(handle))
    size = len(graph)
    region = {i for i in range(size) if graph.kinds[i] != "terminal"}
    least = certificates.worst_case_exit_times(graph, region)
    solves = [(region, least)]
    ceiling = max(least.values()) - Fraction(1, clamp)
    zeros = {i: ZERO for i in range(size)}
    if kind == "rsm":
        accepted = certificates.RsmCert({**zeros, **least}, ONE)
        clamped = certificates.RsmCert(
            {**zeros, **{i: min(v, ceiling) for i, v in least.items()}}, ONE)
        command = "check-rsm"
    else:
        accepted, solves = _rank2_cert(graph, least, solves)
        clamped = _rank1_clamped_cert(graph, least, ceiling)
        command = "check-rule"
    paths = []
    for name, cert in (("accepted", accepted), ("clamped", clamped)):
        paths.append(_write(f"{stem}-{name}.json",
                            json.dumps(cert.to_json(graph))))
    return {"made": made, "graph": graph, "least": least, "solves": solves,
            "accepted": invoke([command, graph_path, paths[0]]),
            "clamped": invoke([command, graph_path, paths[1]])}


def _rank2_cert(graph, least, solves):
    """Rank 2 on the doubling loop with its exit-time supermartingale, rank 1
    on the countdown with its remaining-step supermartingale."""
    size = len(graph)
    live = [i for i in range(size) if graph.kinds[i] != "terminal"]
    selection = {i for i in live if _in_selection_loop(graph.states[i].program)}
    countdown = [i for i in live if i not in selection]
    remaining = _remaining_steps(graph, countdown)
    g = {i: ORD_ZERO for i in range(size)}
    k = {}
    for node in sorted(selection):
        g[node] = from_natural(2)
        region = selection & graph.reachable_from(node)
        # Leaving the loop comes before termination, so the worst-case time to
        # terminate bounds the exit time from above.
        cert = certificates.in_loop_rsm_from_bound(
            graph, region, max(least[i] for i in region))
        k[node] = cert
        solves.append((region, {i: cert.h[i] for i in region}))
    for node in countdown:
        g[node] = from_natural(1)
        h = {i: ZERO for i in range(size)}
        for other in graph.reachable_from(node):
            if graph.kinds[other] != "terminal":
                h[other] = Fraction(remaining[other])
        k[node] = certificates.RsmCert(h, ONE)
    return certificates.RuleCert(g, k), solves


def _rank1_clamped_cert(graph, least, ceiling):
    """Rank 1 everywhere with the least unit certificate clamped below its
    maximum: the decrease fails where the true requirement exceeds the clamp."""
    size = len(graph)
    g, k = {}, {}
    for node in range(size):
        if graph.kinds[node] == "terminal":
            g[node] = ORD_ZERO
            continue
        g[node] = from_natural(1)
        h = {i: ZERO for i in range(size)}
        for other in graph.reachable_from(node):
            if graph.kinds[other] != "terminal":
                h[other] = min(least[other], ceiling)
        k[node] = certificates.RsmCert(h, ONE)
    return certificates.RuleCert(g, k)


def certify_check(cap: int, kind: str):
    golden_size, golden_worst = INC_GOLDEN[_doubling_cap(cap)]

    def check(res) -> Optional[str]:
        bad = expect(res["made"], 0)
        if bad:
            return bad
        graph, least = res["graph"], res["least"]
        worst = max(least.values())
        if (len(graph), worst) != (golden_size, golden_worst):
            return (f"graph of {len(graph)} nodes with worst exit time {worst}, "
                    f"expected {golden_size} and {golden_worst}")
        edges = {i: [(e.dst, e.prob) for e in graph.edges.get(i, ())]
                 for i in range(len(graph))}
        for region, times in res["solves"]:
            bad = oracles.bellman_residual(graph.kinds, edges, region, times)
            if bad:
                return f"exit times off the Bellman equation: {bad}"
        accepted, clamped = res["accepted"], res["clamped"]
        bad = expect(accepted, 0) or expect(clamped, 1)
        if bad:
            return bad
        want = "OK, bound = " + fmt(least[graph.initial]) if kind == "rsm" else "OK"
        if accepted.out != want + "\n":
            return f"accepted certificate printed {accepted.out!r}, expected {want!r}"
        if not clamped.out.startswith("REJECTED\n"):
            return f"clamped certificate printed {clamped.out!r}"
        return None
    return check


# ---------------------------------------------------------------------------
# deep: long programs through parse -> print -> graph -> a short run
# ---------------------------------------------------------------------------

VARS = [f"v{i}" for i in range(6)]


def _simple(rng):
    roll = rng.random()
    if roll < 0.2:
        return ("skip",)
    if roll < 0.6:
        return ("set", rng.choice(VARS), rng.randrange(1, 10))
    return ("inc", rng.choice(VARS), rng.randrange(1, 10))


def _simples(rng, low, high):
    return [_simple(rng) for _ in range(rng.randrange(low, high + 1))]


def deep_program(rng: random.Random, size: int):
    """A sequence of exactly `size` top-level statements: one in 50 is a
    two-round counting loop (two statements, the counter reset and the while)
    whose body may hold an if, one in 10 a short if/else, and the rest
    assignments and skips.  Nesting stays at most three deep."""
    loops, ifs = size // 50, size // 10
    kinds = ["loop"] * loops + ["if"] * ifs + ["simple"] * (size - 2 * loops - ifs)
    rng.shuffle(kinds)
    stmts = []
    for i, kind in enumerate(kinds):
        if kind == "loop":
            body = _simples(rng, 1, 2)
            if rng.random() < 0.5:
                body.append(("if", rng.choice(VARS), rng.randrange(1, 13),
                             _simples(rng, 1, 1), _simples(rng, 0, 1)))
            stmts.append(("loop", f"c{i % 3}", 2, body))
        elif kind == "if":
            stmts.append(("if", rng.choice(VARS), rng.randrange(1, 13),
                          _simples(rng, 1, 2), _simples(rng, 0, 1)))
        else:
            stmts.append(_simple(rng))
    return stmts


def deep_check(stmts, graph_path):
    text = oracles.render(stmts)
    steps = oracles.count_steps(stmts)
    if steps > DEEP_RUN_DEPTH:
        run_want = (f"depth: {DEEP_RUN_DEPTH}\nterminal mass: 0\n"
                    f"frontier mass: 1 (1 states)\n")
    else:
        run_want = (f"depth: {DEEP_RUN_DEPTH}\nterminal mass: 1\n"
                    f"frontier mass: 0 (0 states)\n")

    def check(invs) -> Optional[str]:
        parsed, graph, run = invs
        bad = expect(parsed, 0) or expect(graph, 0) or expect(run, 0)
        if bad:
            return bad
        printed = parsed.out.rstrip("\n")
        if printed != text:
            return "printed program differs from the generated source"
        if print_program(parse(printed)) != printed:
            return "print -> parse -> print is not a fixpoint"
        with open(graph_path) as handle:
            data = json.load(handle)
        nodes, edges = data["nodes"], data["edges"]
        # A deterministic terminating run never revisits a state, so the
        # graph is the run itself: one node per step plus the terminal.
        if len(nodes) != steps + 1 or len(edges) != steps:
            return (f"graph has {len(nodes)} nodes and {len(edges)} edges, "
                    f"expected {steps + 1} and {steps}")
        if any(e["label"] != "det" for e in edges):
            return "graph of a deterministic program has a non-det edge"
        if nodes[data["initial"]]["key"] != printed + " | ":
            return "graph initial state differs from the printed program"
        if run.out != run_want:
            return f"run printed {run.out!r}, expected {run_want!r}"
        return None
    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def build(workload: str, seed: int, workdir: str):
    """The seeded job list of one workload, in cycle order, and the number
    of jobs in one cycle."""
    rng = random.Random(f"{workload}:{seed}")
    b = Builder(workdir)
    if workload == "explore":
        # Start value and the denominator of p fix a walk's cost at a given
        # frontier size; the seed picks the numerator.
        # Two jobs per cycle in the costliest stratum keep job_p90_s inside
        # it even when a slow run completes few cycles.
        strata = [b.walk("run", 500, 1, 5), b.geometric(300, 700),
                  b.walk("run", 1000, 2, 4), b.choice_run(100, 300),
                  b.walk("runtime", 1500, 1, 3), b.walk("run", 2000, 2, 5),
                  b.walk("runtime", 3000, 1, 4), b.walk("run", 4000, 3, 3),
                  b.walk("runtime", 4000, 2, 5)]
        return _cycles(rng, strata, 14)
    if workload == "schedule":
        bounded = ("bounded:1:const:Ln", "bounded:2:const:Ln",
                   "bounded:3:const:Rn", "bounded:2:const:Rn")
        # Walks with 400 or 4000 frontier paths cost well below or above
        # the 2^9 schedules of ast_check(9), so job_p50_s stays inside that
        # stratum on every seed.
        strata = [b.ast_check(9, True), b.nondet_walk(bounded, 400),
                  b.ast_check(10, True), b.nondet_walk(("alt",), 400),
                  b.ast_check(9, False), b.nondet_walk(bounded, 4000),
                  b.ast_check(11, True)]
        return _cycles(rng, strata, 10)
    if workload == "certify":
        # The rank-2 build at cap 8 takes seconds; cap 8 enters through the
        # least-certificate solve, which is where the solver cost sits.
        strata = [b.certify((2,), "rsm"), b.certify((5, 6, 7, 8), "rsm"),
                  b.certify((2,), "rule"), b.certify((3, 4), "rsm"),
                  b.certify((3, 4), "rule")]
        return _cycles(rng, strata, 8)
    if workload == "deep":
        # No size comes near 495 statements, where graph collapse overflows
        # the recursion limit at the seed commit (the exact point moves with
        # the caller's stack depth); every job from 500 statements up fails.
        # Four failing strata of nine keep at least ten failures beyond
        # job_p90_s's rank, so it reads a failure in every run.
        strata = [b.deep(100), b.deep(520), b.deep(150), b.deep(580),
                  b.deep(200), b.deep(640), b.deep(260), b.deep(690),
                  b.deep(340)]
        return _cycles(rng, strata, 8)
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, workdir: str) -> Job:
    """One small job of the workload, run untimed during set-up."""
    rng = random.Random(f"warmup:{workload}")
    b = Builder(workdir, "warmup")
    if workload == "explore":
        return b.walk("run", 50, 1, 2)(rng)
    if workload == "schedule":
        return b.ast_check(3, True)(rng)
    if workload == "certify":
        return b.certify((2,), "rsm")(rng)
    return b.deep(30)(rng)
