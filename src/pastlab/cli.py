"""Command-line interface.

Exit codes: 0 success, 1 verdict failure (certificate rejected, semi-check
false, not in normal form), 2 usage, parse, or resource errors.  All
probabilities print as num/den; --decimal adds a clearly labelled
approximate column.  Runs with a fixed --seed are byte-reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import reprlib
import sys
from collections import Counter
from fractions import Fraction

from . import certificates, exploration, hydra, scheduling, transforms
from .syntax import (ParseError, TooManyDigits, parse, print_program,
                     print_rational, read_rational)


class CliError(Exception):
    """Usage-level failure: reported on stderr with exit status 2."""


def _read_program(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return parse(source)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict, refusing a key given twice: json would keep
    only its last value."""
    data = dict(pairs)
    if len(data) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"duplicate key {reprlib.repr(key)}")
    return data


def _read_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also an integer too long to convert
        raise CliError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CliError(f"{path}: invalid JSON: nests too deeply") from exc


def _open_output(path: str):
    try:
        return open(path, "w")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _write_output(text: str, path):
    if path is None or path == "-":
        print(text)
    else:
        with _open_output(path) as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def _write_json(data, path):
    """Stream data as indented JSON and a newline to path, or to stdout,
    without building the whole text first."""
    if path is None or path == "-":
        json.dump(data, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        with _open_output(path) as handle:
            json.dump(data, handle, indent=2)
            handle.write("\n")


def _node_cap(args) -> int:
    if args.node_cap is not None:
        return args.node_cap
    env = os.environ.get("PASTLAB_NODE_CAP")
    if env is None:
        return exploration.DEFAULT_NODE_CAP
    try:
        cap = int(env)
    except ValueError as exc:
        raise CliError(f"PASTLAB_NODE_CAP must be an integer, "
                       f"not {env!r}") from exc
    if cap <= 0:
        raise CliError("node-cap must be positive")
    return cap


def _scheduler(args):
    try:
        return scheduling.parse_scheduler_spec(args.scheduler, args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _fmt(value: Fraction, args) -> str:
    text = print_rational(value)
    if args.decimal:
        return f"{text} (~{_approx(value)})"
    return text


def _approx(value: Fraction) -> str:
    """value to six significant digits in the form of Python's '.6g', but
    rounded from the exact rational, so that no magnitude overflows."""
    if value == 0:
        return "0"
    sign, value = "-" if value < 0 else "", abs(value)
    exp = len(str(value.numerator)) - len(str(value.denominator))
    if value < Fraction(10) ** exp:
        exp -= 1  # now 10**exp <= value < 10**(exp + 1)
    digits = str(round(value / Fraction(10) ** (exp - 5)))
    if len(digits) == 7:  # rounding carried into a seventh digit
        digits, exp = digits[:6], exp + 1
    if -4 <= exp < 6:
        text, suffix = ("0." + "0" * (-exp - 1) + digits if exp < 0 else
                        digits[:exp + 1] + "." + digits[exp + 1:]), ""
    else:
        text, suffix = digits[0] + "." + digits[1:], f"e{exp:+03d}"
    return sign + text.rstrip("0").rstrip(".") + suffix


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_parse(args) -> int:
    program = _read_program(args.file)
    if args.format == "json":
        print(json.dumps({"program": print_program(program)}))
    else:
        print(print_program(program))
    return 0


def cmd_run(args) -> int:
    program = _read_program(args.file)
    profile = exploration.run_masses(program, _scheduler(args), args.depth,
                                     node_cap=_node_cap(args))
    terminal = profile.cumulative_hit(args.depth)
    frontier = profile.frontier_mass()
    if args.format == "json":
        print(json.dumps({
            "depth": args.depth,
            "terminal_mass": print_rational(terminal),
            "frontier_mass": print_rational(frontier),
            "frontier_states": [
                {**s.to_json(), "paths": paths}
                for s, paths in zip(profile.frontier, profile.frontier_paths)],
        }))
    else:
        print(f"depth: {args.depth}")
        print(f"terminal mass: {_fmt(terminal, args)}")
        print(f"frontier mass: {_fmt(frontier, args)} "
              f"({sum(profile.frontier_paths)} states)")
    return 0


def cmd_tree(args) -> int:
    program = _read_program(args.file)
    tree = exploration.build_tree(program, _scheduler(args), args.depth,
                                  node_cap=_node_cap(args))
    if args.format == "json":
        _write_json(tree.to_json(), args.output)
    else:
        _write_output(f"nodes: {tree.node_count()}\n"
                      f"terminal mass: {_fmt(tree.terminal_mass(), args)}\n"
                      f"frontier mass: {_fmt(tree.frontier_mass(), args)}",
                      args.output)
    return 0


def cmd_runtime(args) -> int:
    program = _read_program(args.file)
    bounds = exploration.exp_runtime_bounds(program, _scheduler(args),
                                            args.depth,
                                            node_cap=_node_cap(args))
    print(f"lower bound: {_fmt(bounds.lower, args)}")
    print(f"closed: {'true' if bounds.closed else 'false'}")
    if bounds.closed:
        print(f"exact: {_fmt(bounds.exact, args)}")
    return 0


def _delta(text: str) -> Fraction:
    try:
        delta = read_rational(text)
        if 0 < delta < 1:
            return delta
    except (ValueError, ZeroDivisionError):
        pass
    raise CliError("delta must be a rational strictly between 0 and 1")


def cmd_ast_check(args) -> int:
    delta = _delta(args.delta)
    program = _read_program(args.file)
    verdict = exploration.ast_semicheck(program, delta, args.n,
                                        node_cap=_node_cap(args))
    print(f"every size-{args.n} schedule exceeds {args.delta}: "
          f"{'yes' if verdict else 'no'}")
    return 0 if verdict else 1


def cmd_graph(args) -> int:
    program = _read_program(args.file)
    graph = exploration.collapse_to_state_graph(program, args.bound)
    _write_json(graph.to_json(), args.output)
    return 0


def _load_graph_from_json(path: str):
    try:
        return exploration.StateGraph.from_json(_read_json(path))
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise CliError(f"{path}: bad graph: {exc}") from exc


def cmd_check_rsm(args) -> int:
    graph = _load_graph_from_json(args.graph)
    cert = certificates.RsmCert.from_json(_read_json(args.cert), graph)
    verdict = certificates.check_rsm(graph, cert)
    # h/epsilon bounds the expected time to reach the zero set of h, which
    # is a runtime bound only when that set holds no non-terminal node.
    verdict.violations += [(node, "h-positive-on-nonterminal", value,
                            "positive")
                           for node, value in sorted(cert.h.items())
                           if value == 0 and graph.kinds[node] != "terminal"]
    verdict.ok = not verdict.violations
    if verdict.ok:
        bound = certificates.rsm_bound(cert, graph.initial)
        print(f"OK, bound = {_fmt(bound, args)}")
        return 0
    print("REJECTED\n" + verdict.describe(graph))
    return 1


def cmd_check_rule(args) -> int:
    graph = _load_graph_from_json(args.graph)
    cert = certificates.RuleCert.from_json(_read_json(args.cert), graph)
    verdict = certificates.check_proof_rule(graph, cert)
    if verdict.ok:
        print("OK")
        return 0
    print("REJECTED\n" + verdict.describe(graph))
    return 1


def cmd_knievel(args) -> int:
    program = _read_program(args.file)
    if not args.transform:
        normal = transforms.is_knievel(program)
        print("normal form: " + ("yes" if normal else "no"))
        return 0 if normal else 1
    output = transforms.to_knievel(program, args.horizon)
    _write_output(print_program(output), args.output)
    return 0


def _tree_spec(text: str) -> transforms.TreeSpec:
    """A rule name first, then inline JSON, then a path such as ./full."""
    name = text.strip()
    try:
        if name in transforms.RULES or (name.startswith("bounded-depth(")
                                        and name.endswith(")")):
            return transforms.rule_tree(name)
        if name.startswith("{"):
            return transforms.TreeSpec.from_json(
                json.loads(text, object_pairs_hook=_unique_keys))
        if os.path.exists(text):
            return transforms.TreeSpec.from_json(_read_json(text))
        return transforms.rule_tree(text)
    except (transforms.TransformError, json.JSONDecodeError, ValueError) as exc:
        raise CliError(f"bad tree spec {text!r}: {exc}") from exc
    except RecursionError as exc:
        raise CliError(f"bad tree spec {text!r}: invalid JSON: "
                       f"nests too deeply") from exc


def cmd_emit(args) -> int:
    spec = _tree_spec(args.tree)
    if args.kind == "reduction":
        program = transforms.emit_tree_reduction(spec)
    else:
        program = transforms.emit_ordinal_program(spec)
    _write_output(print_program(program), args.output)
    return 0


# ---------------------------------------------------------------------------
# The Hydra game
# ---------------------------------------------------------------------------

def _render_hydra(state: hydra.HydraState) -> str:
    lines = [f"capacity n = {state.n}"]
    for path, tree in hydra.nodes(state.tree):
        label = ".".join(str(i) for i in path) if path else "root"
        kind = "head" if (tree.is_leaf() and path) else "node"
        lines.append("  " * len(path) + f"{label} ({kind})")
    return "\n".join(lines)


def _hercules(spec: str):
    """The strategy a --hercules value names, None for interactive."""
    if spec == "interactive":
        return None
    if spec == "leftmost-deepest":
        return hydra.LeftmostDeepest()
    kind, _, seed = spec.partition(":")
    if kind == "random":
        try:
            return hydra.RandomLeaf(int(seed))
        except ValueError:
            pass
    raise CliError(f"unknown hercules strategy {spec!r} (expected "
                   f"interactive, leftmost-deepest or random:SEED)")


def cmd_hydra_rank(args) -> int:
    print(hydra.T(hydra.parse_hydra(args.tree)))
    return 0


def cmd_hydra_compile(args) -> int:
    state = hydra.parse_hydra(args.tree)
    hercules = _hercules(args.hercules)
    # Compiled first, so that a tree past the encoding is refused first.
    program = hydra.compile_to_pgcl(state, hercules or hydra.LeftmostDeepest())
    if hercules is None:
        raise CliError("unknown strategy 'interactive'")
    _write_output(print_program(program), args.output)
    return 0


def _move(strategy, state, round_no: int, evolutions: int):
    """The round's (leaf, evolutions): the strategy's head, or the answers
    typed at the prompt, None when they are no move.  A scripted round, or
    an empty evolutions answer, takes `evolutions`."""
    if strategy is None:
        try:
            raw = input(f"round {round_no}: leaf to chop (e.g. 0 or 0.1)? ")
            leaf = tuple(int(p) for p in raw.strip().split(".") if p != "")
            answer = input("evolutions? ").strip()
            if answer:
                return leaf, int(answer)
        except EOFError as exc:
            raise CliError("end of input") from exc
        except ValueError:
            print("bad input, try again")
            return None
    else:
        leaf = strategy.choose(state)
    # A head hanging on the root has no grandparent to regrow under.
    count = evolutions if len(leaf) >= 2 else 0
    if strategy is not None:
        print(f"round {round_no}: chopping {'.'.join(map(str, leaf))} "
              f"with {count} evolutions")
    return leaf, count


def cmd_hydra_play(args) -> int:
    state = hydra.parse_hydra(args.tree)
    rng = random.Random(args.seed)
    strategy = _hercules(args.hercules)
    round_no = 1
    while True:
        print(_render_hydra(state))
        print(f"T = {hydra.T(state)}")
        if not hydra.leaves(state.tree):
            print("the hydra is dead: Hercules wins")
            return 0
        move = _move(strategy, state, round_no, args.evolutions)
        if move is None:
            continue
        leaf, evolutions = move
        try:
            outcomes = hydra.play_round(state, leaf, evolutions)
        except hydra.HydraError as exc:
            if strategy is not None:
                raise CliError(f"illegal move: {exc}") from exc
            print(f"illegal move: {exc}")
            continue
        round_no += 1
        for coin in range(evolutions):
            if rng.random() < 0.5:
                print(f"evolution {coin + 1} failed: the hydra implodes, "
                      f"Hercules wins")
                return 0
        survivor = hydra.surviving(outcomes)
        state = survivor.result
        print(f"survived with probability {print_rational(survivor.prob)}; "
              f"T now {hydra.T(state)}")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# The options more than one command reads, by the attribute they set.  Each
# command lists the ones its cmd_* function reads and accepts no other.
OPTIONS = {
    "scheduler": (("--scheduler",), {
        "default": "const:Ln",
        "help": "const:Ln | const:Rn | alt | random[:SEED] | bounded:K:SPEC | "
                "interactive"}),
    "depth": (("--depth",), {"type": int, "default": 64}),
    "seed": (("--seed",), {"type": int, "default": 0,
                           "help": "random seed (deterministic default)"}),
    "node_cap": (("--node-cap",), {
        "type": int, "default": None,
        "help": "exploration node cap "
                "(env PASTLAB_NODE_CAP overrides default)"}),
    "format": (("--format",), {"choices": ("text", "json"),
                               "default": "text"}),
    "decimal": (("--decimal",), {"action": "store_true",
                                 "help": "add approximate decimal values"}),
    "output": (("-o", "--output"), {"default": None}),
}


def command(parent, name, fn, *options, summary):
    """Add subcommand `name`, run by `fn`, with the listed OPTIONS."""
    p = parent.add_parser(name, help=summary)
    for option in options:
        flags, spec = OPTIONS[option]
        p.add_argument(*flags, **spec)
    p.set_defaults(fn=fn, parser=p)
    return p


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one: parsing leaves no state in it, since each parse returns a
    fresh namespace and the commands read PASTLAB_NODE_CAP when they run."""
    parser = argparse.ArgumentParser(
        prog="pastlab",
        description="probabilistic-termination analysis workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    walk = ("scheduler", "depth", "seed", "node_cap")

    command(sub, "parse", cmd_parse, "format",
            summary="parse and pretty-print a program").add_argument("file")
    command(sub, "run", cmd_run, *walk, "format", "decimal",
            summary="bounded run: terminal and frontier mass"
            ).add_argument("file")
    command(sub, "tree", cmd_tree, *walk, "format", "decimal", "output",
            summary="dump the bounded execution tree").add_argument("file")
    command(sub, "runtime", cmd_runtime, *walk, "decimal",
            summary="expected-runtime series bounds").add_argument("file")

    p = command(sub, "ast-check", cmd_ast_check, "node_cap",
                summary="semi-decision step for almost-sure termination")
    p.add_argument("file")
    p.add_argument("--delta", required=True)
    p.add_argument("--n", type=int, required=True)

    p = command(sub, "graph", cmd_graph, "output",
                summary="collapse to a program-state graph")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=1000)

    for p in (command(sub, "check-rsm", cmd_check_rsm, "decimal",
                      summary="check a supermartingale certificate"),
              command(sub, "check-rule", cmd_check_rule,
                      summary="check an ordinal rank certificate")):
        p.add_argument("graph")
        p.add_argument("cert")

    p = command(sub, "knievel", cmd_knievel, "output",
                summary="normal-form test or transformation")
    p.add_argument("file")
    p.add_argument("--transform", action="store_true")
    p.add_argument("--horizon", default="double")

    p = command(sub, "emit", cmd_emit, "output",
                summary="emit a tree-reduction program")
    p.add_argument("kind", choices=("reduction", "ordinal"))
    p.add_argument("--tree", required=True,
                   help="rule name, inline JSON, or a JSON file path")

    actions = sub.add_parser("hydra", help="the stochastic hydra game"
                             ).add_subparsers(dest="action", required=True)
    rank = command(actions, "rank", cmd_hydra_rank,
                   summary="print the ordinal T of a hydra")
    compile_ = command(actions, "compile", cmd_hydra_compile, "output",
                       summary="compile the game into a pGCL program")
    compile_.add_argument("--hercules", default="leftmost-deepest",
                          help="leftmost-deepest | random:SEED")
    play = command(actions, "play", cmd_hydra_play, "seed",
                   summary="play the game")
    play.add_argument("--hercules", default="interactive",
                      help="interactive | leftmost-deepest | random:SEED")
    play.add_argument("--evolutions", type=int, default=0,
                      help="evolutions per round of a scripted strategy, "
                      "and for an empty answer at the prompt")
    for p in (rank, compile_, play):
        p.add_argument("--tree", required=True,
                       help='nested parentheses, e.g. "((()))"')
    return parser


def _validate(args):
    for name in ("depth", "n", "evolutions"):
        if getattr(args, name, 0) < 0:
            raise CliError(f"{name} must be non-negative")
    for name in ("node_cap", "bound"):
        value = getattr(args, name, None)
        if value is not None and value <= 0:
            raise CliError(f"{name.replace('_', '-')} must be positive")


def main(argv=None) -> int:
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:  # reported with the usage of the command that refused them
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        _validate(args)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # The reader of stdout is gone.  Point fd 1 at os.devnull, so that
        # the interpreter's flush at exit writes what is left there quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 2
    except (CliError,
            certificates.CertificateError,
            exploration.ResourceCapExceeded,
            exploration.StateSpaceNotClosed,
            hydra.HydraError,
            scheduling.SchedulerAbort,
            transforms.TransformError,
            TooManyDigits) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: {'hydra' if args.command == 'hydra' else 'program'} "
              f"nests too deeply for this analysis", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
