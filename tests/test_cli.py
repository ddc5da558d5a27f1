import argparse
import hashlib
import json
import os
import pathlib
import reprlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from pastlab import exploration
from pastlab.cli import _build_parser, main
from pastlab.exploration import StateGraph, build_tree
from pastlab.certificates import RsmCert, in_loop_rsm_from_bound
from pastlab.scheduling import parse_scheduler_spec
from pastlab.semantics import is_terminal
from pastlab.syntax import parse, print_rational

GEOMETRIC = "while (x = 0) { { skip } <1/2> { exit } }\n"
PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"
RANDOM_WALK = str(PROGRAMS / "random_walk.pgcl")


@pytest.fixture
def geometric_file(tmp_path):
    path = tmp_path / "geometric.pgcl"
    path.write_text(GEOMETRIC)
    return str(path)


def test_parse_round_trip(geometric_file, capsys):
    assert main(["parse", geometric_file]) == 0
    printed = capsys.readouterr().out.strip()
    assert parse(printed) == parse(GEOMETRIC)


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pgcl"
    bad.write_text("while (")
    assert main(["parse", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["parse", "/no/such/file.pgcl"]) == 2


@pytest.mark.parametrize("command", ["parse", "run", "knievel"])
def test_program_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "bytes.pgcl"
    path.write_bytes(b"\xff\xfe")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: not UTF-8 text: ")
    assert captured.err.count("\n") == 1


# Every command that writes to -o PATH; PROGRAM is a program file.
WRITERS = {
    "tree": ["tree", "PROGRAM", "--depth", "3"],
    "graph": ["graph", "PROGRAM", "--bound", "50"],
    "knievel": ["knievel", "PROGRAM", "--transform"],
    "emit": ["emit", "reduction", "--tree", "all-zeros"],
    "hydra-compile": ["hydra", "compile", "--tree", "((()))"],
}


@pytest.mark.parametrize("argv", WRITERS.values(), ids=WRITERS.keys())
@pytest.mark.parametrize("target", ["missing/out", "."],
                         ids=["in-missing-directory", "is-directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, argv, target):
    program = tmp_path / "simple.pgcl"
    program.write_text("x := 1\n")
    out = tmp_path / target
    argv = [str(program) if arg == "PROGRAM" else arg for arg in argv]
    assert main(argv + ["-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


def test_runtime_output(geometric_file, capsys):
    assert main(["runtime", geometric_file, "--scheduler", "const:Ln",
                 "--depth", "64"]) == 0
    out = capsys.readouterr().out
    assert "lower bound: 458745/65536" in out
    assert "closed: false" in out


def test_runtime_past_the_end_of_the_walk(tmp_path, capsys):
    # The walk ends after one step; the requested depth costs nothing more.
    path = tmp_path / "one.pgcl"
    path.write_text("x := 1\n")
    started = time.time()
    assert main(["runtime", str(path), "--depth", "10000000"]) == 0
    assert time.time() - started < 1
    assert capsys.readouterr().out.endswith("closed: true\nexact: 1\n")


def test_runtime_decimal_flag(geometric_file, capsys):
    assert main(["runtime", geometric_file, "--depth", "16",
                 "--decimal"]) == 0
    assert "(~" in capsys.readouterr().out


def test_run_json_round_trip(geometric_file, capsys):
    assert main(["run", geometric_file, "--depth", "11",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    total = Fraction(data["terminal_mass"]) + Fraction(data["frontier_mass"])
    assert total == 1


def test_tree_json(geometric_file, tmp_path, capsys):
    out = tmp_path / "tree.json"
    assert main(["tree", geometric_file, "--depth", "6", "--format", "json",
                 "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["depth_cap"] == 6
    assert data["nodes"][0]["prob"] == "1"
    assert all("/" in n["prob"] or n["prob"].isdigit()
               for n in data["nodes"])


def test_tree_json_pins_edge_kinds(tmp_path, capsys):
    # A forced coin (<0>, <2>) has one edge, which names the arm it took;
    # only the real <1/3> split has two.  Under const:Ln the choice keeps
    # one nondet edge.
    program = tmp_path / "kinds.pgcl"
    program.write_text("{ x := 1 } [] { skip }; { skip } <1/3> { exit }; "
                       "{ exit } <0> { skip }; { skip } <2> { exit }\n")
    assert main(["tree", str(program), "--depth", "30",
                 "--format", "json"]) == 0
    edges = json.loads(capsys.readouterr().out)["edges"]
    assert [(e["from"], e["to"], e["kind"]) for e in edges] == [
        (0, 1, "nondet"), (1, 2, "deterministic"), (2, 3, "deterministic"),
        (3, 4, "prob-left"), (3, 5, "prob-right"), (4, 6, "deterministic"),
        (5, 7, "deterministic"), (6, 8, "deterministic"),
        (8, 9, "prob-right"), (9, 10, "deterministic"),
        (10, 11, "deterministic"), (11, 12, "prob-left"),
        (12, 13, "deterministic")]


def test_ast_check_exit_codes(tmp_path, geometric_file):
    spin = tmp_path / "spin.pgcl"
    spin.write_text("while (true) { skip }\n")
    assert main(["ast-check", geometric_file, "--delta", "1/2",
                 "--n", "12"]) == 0
    assert main(["ast-check", str(spin), "--delta", "1/2", "--n", "12"]) == 1


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--delta", "abc", "--n", "12"],
                 "delta must be a rational strictly between 0 and 1",
                 id="delta-not-rational"),
    pytest.param(["--delta", "1/0", "--n", "12"],
                 "delta must be a rational strictly between 0 and 1",
                 id="delta-zero-denominator"),
    pytest.param(["--delta", "2", "--n", "12"],
                 "delta must be a rational strictly between 0 and 1",
                 id="delta-above-1"),
    pytest.param(["--delta", "1e-10000000", "--n", "12"],
                 "delta must be a rational strictly between 0 and 1",
                 id="delta-too-long"),
    pytest.param(["--delta", "1/2", "--n", "-3"], "n must be non-negative",
                 id="negative-n"),
])
def test_ast_check_bad_arguments_exit_2(geometric_file, capsys, argv,
                                        message):
    assert main(["ast-check", geometric_file, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_ast_check_enum_cap_is_gone(geometric_file):
    with pytest.raises(SystemExit) as exit_info:
        main(["ast-check", geometric_file, "--delta", "1/2", "--n", "12",
              "--enum-cap", "20"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("n", [100, 200])
def test_ast_check_choice_loop_beyond_old_query_cap(capsys, n):
    # 11 and 22 reachable queries: 2**11 schedule runs, and a refusal past
    # the old 16-query enumeration cap.
    assert main(["ast-check", str(PROGRAMS / "choice_loop.pgcl"),
                 "--delta", "1/2", "--n", str(n)]) == 0
    assert capsys.readouterr().out == \
        f"every size-{n} schedule exceeds 1/2: yes\n"


@pytest.mark.parametrize("n, answer, code", [(800, "no", 1),
                                             (1500, "yes", 0)])
def test_ast_check_long_program(tmp_path, capsys, n, answer, code):
    # About 1400 steps to terminate whichever branch the scheduler takes.
    path = tmp_path / "long.pgcl"
    path.write_text("{ x := 1 } [] { x := 2 }; "
                    + "; ".join(f"y := {i}" for i in range(700)) + "\n")
    assert main(["ast-check", str(path), "--delta", "1/2",
                 "--n", str(n)]) == code
    assert capsys.readouterr().out == \
        f"every size-{n} schedule exceeds 1/2: {answer}\n"


def test_graph_and_check_rsm(geometric_file, tmp_path, capsys):
    graph_path = tmp_path / "graph.json"
    assert main(["graph", geometric_file, "--bound", "50",
                 "-o", str(graph_path)]) == 0
    graph = StateGraph.from_json(json.loads(graph_path.read_text()))
    region = {i for i in range(len(graph)) if graph.kinds[i] != "terminal"}
    cert = in_loop_rsm_from_bound(graph, region, 20)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert.to_json(graph)))
    capsys.readouterr()
    assert main(["check-rsm", str(graph_path), str(cert_path)]) == 0
    assert "OK, bound = 7" in capsys.readouterr().out
    # break the certificate: rejected with exit 1
    bad = cert.to_json(graph)
    key = next(k for k, v in bad["h"].items() if Fraction(v) > 1)
    bad["h"][key] = "1/2"
    cert_path.write_text(json.dumps(bad))
    assert main(["check-rsm", str(graph_path), str(cert_path)]) == 1


def test_check_rsm_two_node_chain(tmp_path, capsys):
    program_path = tmp_path / "one.pgcl"
    program_path.write_text("skip\n")
    graph_path = tmp_path / "graph.json"
    assert main(["graph", str(program_path), "--bound", "10",
                 "-o", str(graph_path)]) == 0
    graph = StateGraph.from_json(json.loads(graph_path.read_text()))
    cert = {"epsilon": "1",
            "h": {graph.node_key(i): ("0" if graph.kinds[i] == "terminal"
                                      else "1")
                  for i in range(len(graph))}}
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["check-rsm", str(graph_path), str(cert_path)]) == 0
    assert "OK, bound = 1" in capsys.readouterr().out


def test_check_rsm_refuses_zero_on_a_nonterminal(tmp_path, capsys):
    # h = 0 everywhere passes every RSM inequality, but its zero set holds
    # the whole loop, so h/epsilon = 0 bounds no runtime.
    program_path = tmp_path / "spin.pgcl"
    program_path.write_text("while (true) { skip }\n")
    graph_path = tmp_path / "graph.json"
    assert main(["graph", str(program_path), "-o", str(graph_path)]) == 0
    graph = StateGraph.from_json(json.loads(graph_path.read_text()))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(
        {"epsilon": "1", "h": {key: "0" for key in graph.node_keys()}}))
    capsys.readouterr()
    assert main(["check-rsm", str(graph_path), str(cert_path)]) == 1
    assert capsys.readouterr().out == "REJECTED\n" + "".join(
        f"h-positive-on-nonterminal at {key}: 0 vs positive\n"
        for key in graph.node_keys())


@pytest.mark.parametrize("h, epsilon, approx", [
    pytest.param("1" + "0" * 400, "1", "1e+400", id="beyond-float-range"),
    pytest.param("3" + "0" * 400, "7", "4.28571e+399", id="fraction-beyond"),
    pytest.param("7", "3", "2.33333", id="fixed"),
    pytest.param("1234567", "1", "1.23457e+06", id="exponent"),
    pytest.param("9999995", "10", "1e+06", id="carry"),
])
def test_check_rsm_decimal_bound_is_rounded_exactly(tmp_path, capsys, h,
                                                    epsilon, approx):
    program_path = tmp_path / "program.pgcl"
    program_path.write_text("x := 1\n")
    graph_path = tmp_path / "graph.json"
    assert main(["graph", str(program_path), "-o", str(graph_path)]) == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(
        {"epsilon": epsilon, "h": {"x := 1 | ": h, "bot | x=1": "0"}}))
    capsys.readouterr()
    assert main(["check-rsm", str(graph_path), str(cert_path),
                 "--decimal"]) == 0
    bound = print_rational(Fraction(h) / Fraction(epsilon))
    assert capsys.readouterr().out == f"OK, bound = {bound} (~{approx})\n"


def test_check_rule_cli(tmp_path, capsys):
    program_path = tmp_path / "two.pgcl"
    program_path.write_text("skip\n")
    graph_path = tmp_path / "graph.json"
    assert main(["graph", str(program_path), "--bound", "10",
                 "-o", str(graph_path)]) == 0
    graph = StateGraph.from_json(json.loads(graph_path.read_text()))
    cert = {
        "g": {graph.node_key(i): ("0" if graph.kinds[i] == "terminal"
                                  else "1")
              for i in range(len(graph))},
        "k": {graph.node_key(i): {"epsilon": "1",
                                  "h": {graph.node_key(j):
                                        ("1" if j == i else "0")
                                        for j in range(len(graph))}}
              for i in range(len(graph)) if graph.kinds[i] != "terminal"},
    }
    cert_path = tmp_path / "rule.json"
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["check-rule", str(graph_path), str(cert_path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_knievel_exit_codes(tmp_path, geometric_file):
    walk = tmp_path / "walk.pgcl"
    walk.write_text("x := 1; while (x != 0) "
                    "{ { x := x + 1 } <1/2> { x := x - 1 } }\n")
    assert main(["knievel", geometric_file]) == 0
    assert main(["knievel", str(walk)]) == 1


def test_knievel_transform(tmp_path, capsys):
    source = tmp_path / "simple.pgcl"
    source.write_text("x := 1\n")
    out = tmp_path / "out.pgcl"
    assert main(["knievel", str(source), "--transform", "-o", str(out)]) == 0
    from pastlab.transforms import is_knievel
    assert is_knievel(parse(out.read_text()))


def test_emit_commands(tmp_path, capsys):
    out = tmp_path / "emitted.pgcl"
    assert main(["emit", "reduction", "--tree", "all-zeros",
                 "-o", str(out)]) == 0
    from pastlab.transforms import is_knievel
    assert is_knievel(parse(out.read_text()))
    assert main(["emit", "ordinal", "--tree",
                 '{"explicit": [[], [0]]}', "-o", str(out)]) == 0
    assert is_knievel(parse(out.read_text()))
    assert main(["emit", "reduction", "--tree", "no-such-rule"]) == 2


@pytest.mark.parametrize("kind", ["reduction", "ordinal"])
def test_emit_refuses_a_sequence_code_past_the_digit_limit(kind, capsys):
    # The packed code of sixteen nines, and the membership check with it,
    # has more digits than a literal may.
    tree = json.dumps({"explicit": [[9] * k for k in range(16)]})
    assert main(["emit", kind, "--tree", tree]) == 2
    assert capsys.readouterr() == (
        "", "error: rational of more than 4300 digits\n")


def test_hydra_rank_and_compile(tmp_path, capsys):
    assert main(["hydra", "rank", "--tree", "((()))"]) == 0
    assert capsys.readouterr().out.strip() == "w"
    out = tmp_path / "hydra.pgcl"
    assert main(["hydra", "compile", "--tree", "((()))",
                 "-o", str(out)]) == 0
    from pastlab.transforms import is_knievel
    assert is_knievel(parse(out.read_text()))


def test_hydra_play_scripted_stdin(monkeypatch, capsys):
    # One round: chop the deep head with 0 evolutions (never dies), then
    # end input, which aborts the session.
    inputs = iter(["0.0", "0"])

    def fake_input(*args):
        try:
            return next(inputs)
        except StopIteration:
            raise EOFError

    monkeypatch.setattr("builtins.input", fake_input)
    code = main(["hydra", "play", "--tree", "((()))", "--seed", "5"])
    captured = capsys.readouterr()
    out = captured.out
    assert "T = w" in out
    assert "T now 4" in out
    assert code == 2
    assert captured.err == "error: end of input\n"


def test_hydra_play_head_on_the_root_takes_no_evolutions(capsys):
    # Both heads hang on the root, which has no parent: each scripted round
    # chops one with 0 evolutions, the only legal count, until the hydra
    # is dead.
    assert main(["hydra", "play", "--tree", "(()())", "--evolutions", "1",
                 "--hercules", "leftmost-deepest"]) == 0
    out = capsys.readouterr().out
    assert out.count("with 0 evolutions") == 2
    assert "illegal move" not in out
    assert out.endswith("the hydra is dead: Hercules wins\n")


@pytest.mark.parametrize("evolutions", ["40", "1000000000"])
def test_hydra_play_too_many_copies_is_an_illegal_move(capsys, evolutions):
    # n * 4**evolutions - 1 copies fit no tuple: refused before the power
    # is computed, so even 10**9 evolutions answer at once.
    started = time.time()
    assert main(["hydra", "play", "--tree", "((()))", "--hercules",
                 "leftmost-deepest", "--evolutions", evolutions]) == 2
    err = capsys.readouterr().err
    assert time.time() - started < 1
    assert err == (f"error: illegal move: {evolutions} evolutions regrow "
                   f"more copies than fit in memory\n")


def test_hydra_play_too_many_copies_is_asked_again(monkeypatch, capsys):
    inputs = iter(["0.0", "1000000000", "0.0", "0"] + ["0", "0"] * 4)
    monkeypatch.setattr("builtins.input", lambda *args: next(inputs))
    assert main(["hydra", "play", "--tree", "((()))"]) == 0
    out = capsys.readouterr().out
    assert "illegal move: 1000000000 evolutions" in out
    assert out.endswith("the hydra is dead: Hercules wins\n")


def _typed(monkeypatch, answers):
    """Read input() from answers, then end of input."""
    answers = iter(answers)

    def fake_input(*args):
        try:
            return next(answers)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", fake_input)


@pytest.mark.parametrize("seed, code, line", [
    ("0", 2, "survived with probability 1/2; T now 16\n"),
    ("1", 0, "evolution 1 failed: the hydra implodes, Hercules wins\n"),
])
def test_hydra_play_empty_evolutions_answer_takes_the_option(
        monkeypatch, capsys, seed, code, line):
    # An empty answer plays --evolutions, as a scripted round does; one
    # evolution survives with probability 1/2 or the hydra implodes.
    _typed(monkeypatch, ["0.0", ""])
    assert main(["hydra", "play", "--tree", "((()))", "--evolutions", "1",
                 "--seed", seed]) == code
    assert line in capsys.readouterr().out


def test_hydra_play_empty_answer_on_a_root_head_takes_none(monkeypatch,
                                                           capsys):
    # Heads on the root have no grandparent: an empty answer plays 0
    # evolutions whatever --evolutions says.
    _typed(monkeypatch, ["0", "", "0", ""])
    assert main(["hydra", "play", "--tree", "(()())",
                 "--evolutions", "3"]) == 0
    out = capsys.readouterr().out
    assert "illegal move" not in out
    assert out.count("survived with probability 1;") == 2
    assert out.endswith("the hydra is dead: Hercules wins\n")


@pytest.mark.parametrize("action", ["rank", "compile", "play"])
def test_too_deep_hydra_exits_2(capsys, action):
    line = "(" * 3000 + ")" * 3000
    assert main(["hydra", action, "--tree", line]) == 2
    assert capsys.readouterr() == (
        "", "error: hydra nests too deeply for this analysis\n")


HYDRA_TREES = ["()", "(())", "(()())", "((()))", "((())())", "((()())(()))",
               "(()(())(()()))", "((())(()))"]
DEEP_HYDRAS = ["(((())))", "(((()))())"]

# Interactive games: the answers typed at the prompts, in order.  Leaves
# past a head, heads on the root with evolutions, unparsable answers and
# evolutions past memory are each asked again; an empty evolutions answer
# is left out where --evolutions would change it.
HYDRA_SCRIPTS = [
    ("((()))", ["0.0", "0", "0", "", "0", "0", "0", "0", "0", "0"]),
    ("((()))", ["x", "0.0", "y", "0.0", "1", "0", "0"]),
    ("((()))", ["0.0.0", "0", "", "0", "0", "1", "0.0", "1000000000",
                "0.0", "3"]),
    ("(()())", ["0.0", "0", "-1", "0", "0", "1", "1", "0", "0", "0"]),
    ("((())(()))", ["1.0", "2", "0.0", "1", "0", "0", "1.0", "0"]),
]


def _hydra_runs():
    """(argv, answers) of every pinned hydra run; answers None for a run
    that reads no input."""
    for tree in HYDRA_TREES + DEEP_HYDRAS + ["(("]:
        yield ["hydra", "rank", "--tree", tree], None
        for hercules in ["leftmost-deepest", "random:0", "random:1",
                         "random:2", "random:3", "interactive", "sideways"]:
            yield ["hydra", "compile", "--tree", tree,
                   "--hercules", hercules], None
    for tree in HYDRA_TREES + DEEP_HYDRAS:
        for hercules in ["leftmost-deepest", "random:0", "random:1",
                         "random:2"]:
            for evolutions in ["0", "1", "2"]:
                if tree in DEEP_HYDRAS and evolutions == "0":
                    continue  # thousands of rounds
                for seed in ["0", "1"]:
                    yield ["hydra", "play", "--tree", tree, "--hercules",
                           hercules, "--evolutions", evolutions,
                           "--seed", seed], None
    for seed in ["0", "1", "2"]:
        for tree, answers in HYDRA_SCRIPTS:
            yield ["hydra", "play", "--tree", tree, "--seed", seed], answers


def test_hydra_output_is_pinned(monkeypatch, capsys):
    # SHA-256 of the exit code, stdout and stderr of hydra rank, compile
    # (every strategy, trees within and past the encoding) and play
    # (scripted, and interactive with each prompt echoed as input() does).
    digest = hashlib.sha256()
    for argv, answers in _hydra_runs():
        typed = iter(answers or [])

        def fake_input(prompt=""):
            print(prompt, end="")
            try:
                return next(typed)
            except StopIteration:
                raise EOFError from None

        monkeypatch.setattr("builtins.input", fake_input)
        code = main(argv)
        out, err = capsys.readouterr()
        digest.update(f"{argv}\0{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == (
        "8aa2753cfd2251d5fc175820e924d80e1b9b9732fdae174056b563089fcbfc85")


def test_node_cap_env_override(geometric_file, monkeypatch, capsys):
    monkeypatch.setenv("PASTLAB_NODE_CAP", "3")
    assert main(["run", geometric_file, "--depth", "30"]) == 2
    assert "error" in capsys.readouterr().err


def test_seeded_runs_reproducible(tmp_path, capsys):
    choice = tmp_path / "choice.pgcl"
    choice.write_text("{ x := 1 } [] { x := 2 }; "
                      "while (x > 0) { x := x - 1 }\n")
    outputs = []
    for _ in range(2):
        assert main(["run", str(choice), "--depth", "9",
                     "--scheduler", "random:9", "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("value, message", [
    ("abc", "error: PASTLAB_NODE_CAP must be an integer, not 'abc'\n"),
    ("-5", "error: node-cap must be positive\n"),
    ("0", "error: node-cap must be positive\n"),
])
def test_node_cap_env_rejects_bad_values(geometric_file, monkeypatch, capsys,
                                         value, message):
    monkeypatch.setenv("PASTLAB_NODE_CAP", value)
    assert main(["run", geometric_file, "--depth", "30"]) == 2
    assert capsys.readouterr().err == message


def test_run_random_walk_output_pinned(capsys):
    assert main(["run", RANDOM_WALK, "--depth", "60"]) == 0
    assert capsys.readouterr().out == (
        "depth: 60\nterminal mass: 1619/2048\n"
        "frontier mass: 429/2048 (6864 states)\n")


def test_memoryless_run_merges_equal_states(monkeypatch, capsys):
    # Per path this run makes 28831 steps; merged, it makes one per
    # distinct live state per depth, 319 over depths 0..59.  random_walk
    # has no nondeterministic choice, so random:3 is never asked and its
    # run merges and prints alike.
    calls = 0
    real_step = exploration.step

    def counting_step(state):
        nonlocal calls
        calls += 1
        return real_step(state)

    monkeypatch.setattr(exploration, "step", counting_step)
    outputs = []
    for scheduler in ("const:Ln", "random:3"):
        calls = 0
        assert main(["run", RANDOM_WALK, "--depth", "60",
                     "--scheduler", scheduler]) == 0
        outputs.append(capsys.readouterr().out)
        assert calls < 400
    assert "(6864 states)" in outputs[0]
    assert outputs[1] == outputs[0]


def _counting_step(monkeypatch):
    """The states exploration steps from now on, in order."""
    stepped = []
    real_step = exploration.step

    def counting_step(state):
        stepped.append(state)
        return real_step(state)

    monkeypatch.setattr(exploration, "step", counting_step)
    return stepped


def _live_states(program, scheduler, depth):
    """The distinct (program, valuation) pairs of the live states at depths
    0..depth-1 of the execution tree, and the sum over those depths of the
    distinct pairs at each."""
    tree = build_tree(program, parse_scheduler_spec(scheduler), depth)
    per_depth = [{(node.state.program, node.state.valuation)
                  for node in level if not is_terminal(node.state)}
                 for level in tree.levels[:depth]]
    return len(set().union(*per_depth)), sum(map(len, per_depth))


@pytest.mark.parametrize("source, distinct, per_depth", [
    pytest.param(pathlib.Path(RANDOM_WALK).read_text(), 76, 319,
                 id="random-walk"),
    # The inner loop's residuals are rebuilt, equal but apart, on every
    # iteration; its coin reaches the same y at different depths.
    pytest.param("x := 2; while (x > 0) { y := 2; "
                 "while (y > 0) { { y := y - 1 } <1/2> { skip } }; "
                 "{ x := x - 1 } [] { skip } }", 41, 388, id="inner-while"),
])
def test_run_steps_each_distinct_state_once(tmp_path, monkeypatch, capsys,
                                            source, distinct, per_depth):
    # per_depth is what a run makes that steps each depth's distinct
    # states apart.
    path = tmp_path / "loop.pgcl"
    path.write_text(source)
    assert _live_states(parse(source), "const:Ln", 60) == \
        (distinct, per_depth)
    stepped = _counting_step(monkeypatch)
    assert main(["run", str(path), "--depth", "60",
                 "--scheduler", "const:Ln"]) == 0
    assert len(stepped) == distinct
    assert len({(st.program, st.valuation) for st in stepped}) == distinct
    assert "states)" in capsys.readouterr().out


def test_run_steps_a_program_too_deep_to_hash_once_per_depth(
        tmp_path, monkeypatch, capsys):
    path = tmp_path / "long.pgcl"
    path.write_text(_assignments(700) + "\n")
    with pytest.raises(RecursionError):
        hash(parse(_assignments(700)))
    stepped = _counting_step(monkeypatch)
    assert main(["run", str(path), "--depth", "60"]) == 0
    assert capsys.readouterr().out == (
        "depth: 60\nterminal mass: 0\nfrontier mass: 1 (1 states)\n")
    assert len(stepped) == 60
    assert main(["run", str(path), "--depth", "60", "--format", "json"]) == 0
    state = {"program": _assignments(700, start=30),
             "valuation": {"x": "29"}, "prob": "1", "history": "",
             "paths": 1}
    expected = {"depth": 60, "terminal_mass": "0", "frontier_mass": "1",
                "frontier_states": [state]}
    assert capsys.readouterr() == (json.dumps(expected) + "\n", "")


def test_deep_random_walk_run_counts_distinct_states(capsys):
    # Merged runs count distinct entries against the node cap, not paths,
    # so depth 200 (over 10^14 frontier paths) fits the default cap.
    assert main(["run", RANDOM_WALK, "--depth", "200"]) == 0
    # Reference: the walk's Markov chain over loop iterations.  x := 1
    # takes two steps (assignment, sequence discharge), each iteration four
    # (guard, coin, assignment, discharge), and the guard step that finds
    # x = 0 terminates.  Depth 200 thus holds 49 whole iterations and the
    # guard and coin steps of the 50th, which split each live path in two.
    mass, paths, stopped = {1: Fraction(1)}, {1: 1}, Fraction(0)
    for _ in range(49):
        next_mass, next_paths = {}, {}
        for x in mass:
            for y in (x + 1, x - 1):
                next_mass[y] = next_mass.get(y, 0) + mass[x] / 2
                next_paths[y] = next_paths.get(y, 0) + paths[x]
        stopped += next_mass.pop(0, 0)
        next_paths.pop(0, None)
        mass, paths = next_mass, next_paths
    live = sum(mass.values())
    assert stopped + live == 1
    assert capsys.readouterr().out == (
        f"depth: 200\nterminal mass: {print_rational(stopped)}\n"
        f"frontier mass: {print_rational(live)} "
        f"({2 * sum(paths.values())} states)\n")


@pytest.mark.parametrize("scheduler", ["const:Ln", "alt"])
def test_run_json_frontier_paths(tmp_path, capsys, scheduler):
    source = ("x := 3; while (x > 0) { { x := x - 1 } [] "
              "{ skip }; { x := x + 1 } <1/3> { x := x - 1 } }\n")
    choice = tmp_path / "choice.pgcl"
    choice.write_text(source)
    common = ["run", str(choice), "--depth", "40", "--scheduler", scheduler]
    assert main(common) == 0
    text = capsys.readouterr().out
    assert main(common + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    states = data["frontier_states"]
    paths = sum(s["paths"] for s in states)
    assert f"({paths} states)" in text
    assert sum(Fraction(s["prob"]) for s in states) == \
        Fraction(data["frontier_mass"])
    # Both schedulers have finite memory, so their runs merge paths, and
    # the merged frontier carries the per-path tree's paths and mass.
    tree = exploration.build_tree(parse(source),
                                  parse_scheduler_spec(scheduler), 40)
    assert paths == len(tree.frontier) > len(states)
    assert Fraction(data["frontier_mass"]) == tree.frontier_mass()
    assert all(s["history"] == "" for s in states)


# ---------------------------------------------------------------------------
# Malformed graph files
# ---------------------------------------------------------------------------

def _check_rsm_on(tmp_path, graph, h):
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(graph))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({"epsilon": "1", "h": h}))
    return main(["check-rsm", str(graph_path), str(cert_path)])


ONE_ASSIGNMENT = {
    "initial": 0,
    "nodes": [{"id": 0, "key": "x := 1 | ", "kind": "deterministic"},
              {"id": 1, "key": "bot | x=1", "kind": "terminal"}],
    "edges": [{"from": 0, "label": "det", "to": 1}],
}
ONE_ASSIGNMENT_H = {"x := 1 | ": "1", "bot | x=1": "0"}
# The re-derived entries of ONE_ASSIGNMENT, as bad-graph messages print them.
ASSIGNMENT_0 = '{"id": 0, "key": "x := 1 | ", "kind": "deterministic"}'
TERMINAL_1 = '{"id": 1, "key": "bot | x=1", "kind": "terminal"}'
EDGE_0_1 = '{"from": 0, "label": "det", "to": 1}'


def test_well_formed_graph_file_still_checks(tmp_path, capsys):
    assert _check_rsm_on(tmp_path, ONE_ASSIGNMENT, ONE_ASSIGNMENT_H) == 0
    assert capsys.readouterr().out == "OK, bound = 1\n"


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda g: g.update(edges=[]),
                 "edge 0 is absent, re-derived " + EDGE_0_1, id="no-edges"),
    pytest.param(lambda g: g["edges"][0].update(to=7),
                 'edge 0 is {"from": 0, "label": "det", "to": 7}, re-derived '
                 + EDGE_0_1, id="dangling-edge"),
    pytest.param(lambda g: g["nodes"][1].update(id=2),
                 'node 1 is {"id": 2, "key": "bot | x=1", '
                 '"kind": "terminal"}, re-derived ' + TERMINAL_1, id="id-gap"),
    pytest.param(lambda g: g["nodes"][0].update(kind="loop"),
                 'node 0 is {"id": 0, "key": "x := 1 | ", "kind": "loop"}, '
                 're-derived ' + ASSIGNMENT_0, id="unknown-kind"),
    pytest.param(lambda g: g["nodes"][1].update(kind="nondet"),
                 'node 1 is {"id": 1, "key": "bot | x=1", "kind": "nondet"}, '
                 're-derived ' + TERMINAL_1, id="nondet-without-edges"),
    pytest.param(lambda g: g["edges"].append(
                     {"from": 1, "label": "det", "to": 0}),
                 'edge 1 is {"from": 1, "label": "det", "to": 0}, '
                 're-derived absent', id="terminal-edge"),
    pytest.param(lambda g: g["nodes"][0].update(kind="prob"),
                 'node 0 is {"id": 0, "key": "x := 1 | ", "kind": "prob"}, '
                 're-derived ' + ASSIGNMENT_0, id="prob-without-prob"),
    pytest.param(lambda g: (g["nodes"][0].update(kind="prob"), g.update(
                     edges=[{"from": 0, "label": "prob-left", "to": 1,
                             "prob": "3/2"},
                            {"from": 0, "label": "prob-right", "to": 1,
                             "prob": "-1/2"}])),
                 'node 0 is {"id": 0, "key": "x := 1 | ", "kind": "prob"}, '
                 're-derived ' + ASSIGNMENT_0, id="prob-out-of-range"),
    pytest.param(lambda g: g["nodes"][0].update(key=5),
                 "'int' object has no attribute 'partition'", id="key-not-text"),
    pytest.param(lambda g: g.update(nodes=[0, 1]),
                 "'int' object is not subscriptable", id="node-not-object"),
    pytest.param(lambda g: g.update(initial=5),
                 "initial node 5 is missing", id="missing-initial"),
    # Python compares false and 0.0 equal to 0, and true to 1.
    pytest.param(lambda g: g.update(initial=False),
                 "initial node false is missing", id="initial-false"),
    pytest.param(lambda g: g["nodes"][0].update(id=0.0),
                 'node 0 is {"id": 0.0, "key": "x := 1 | ", '
                 '"kind": "deterministic"}, re-derived ' + ASSIGNMENT_0,
                 id="id-float"),
    pytest.param(lambda g: g["edges"][0].update({"from": False, "to": True}),
                 'edge 0 is {"from": false, "label": "det", "to": true}, '
                 're-derived ' + EDGE_0_1, id="edge-booleans"),
    pytest.param([1], "list indices must be integers or slices, not str",
                 id="file-not-object"),
    pytest.param(lambda g: g.update(comment="made by hand"),
                 "unknown field 'comment'", id="unknown-field"),
])
def test_malformed_graph_file_exits_2(tmp_path, capsys, edit, message):
    graph = json.loads(json.dumps(ONE_ASSIGNMENT))
    if callable(edit):
        edit(graph)
    else:  # a replacement for the whole file
        graph = edit
    assert _check_rsm_on(tmp_path, graph, ONE_ASSIGNMENT_H) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'graph.json'}: bad graph: " \
                           f"{message}\n"


def test_forged_probabilistic_loop_is_rejected(tmp_path, capsys):
    # `while (x = 0) { skip }` never terminates; relabelled as a coin with a
    # single 1/100 edge to a terminal it used to be certified with bound 2.
    forged = {
        "initial": 0,
        "nodes": [{"id": 0, "key": "while (x = 0) { skip } | ",
                   "kind": "prob"},
                  {"id": 1, "key": "skip; while (x = 0) { skip } | ",
                   "kind": "deterministic"},
                  {"id": 2, "key": "bot | ", "kind": "terminal"}],
        "edges": [{"from": 0, "label": "prob-right", "to": 2,
                   "prob": "1/100"},
                  {"from": 1, "label": "det", "to": 0}],
    }
    h = {"while (x = 0) { skip } | ": "2",
         "skip; while (x = 0) { skip } | ": "0", "bot | ": "0"}
    assert _check_rsm_on(tmp_path, forged, h) == 2
    assert capsys.readouterr().err.endswith(
        'bad graph: node 0 is {"id": 0, "key": "while (x = 0) { skip } | ", '
        '"kind": "prob"}, re-derived {"id": 0, "key": '
        '"while (x = 0) { skip } | ", "kind": "deterministic"}\n')


@pytest.mark.parametrize("graph, h, message", [
    # `while (x = 0) { skip }` never terminates; with the loop forged into
    # one step to a terminal it used to be certified with bound 1.
    pytest.param({"initial": 0,
                  "nodes": [{"id": 0, "key": "while (x = 0) { skip } | ",
                             "kind": "deterministic"},
                            {"id": 1, "key": "bot | ", "kind": "terminal"}],
                  "edges": [{"from": 0, "label": "det", "to": 1}]},
                 {"while (x = 0) { skip } | ": "1", "bot | ": "0"},
                 "graph is not closed: its program reaches more than 2 states",
                 id="deterministic-loop"),
    # Skips `bot; y := 2 | x=1`, the state between the two assignments.
    pytest.param({"initial": 0,
                  "nodes": [{"id": 0, "key": "x := 1; y := 2 | ",
                             "kind": "deterministic"},
                            {"id": 1, "key": "y := 2 | x=1",
                             "kind": "deterministic"},
                            {"id": 2, "key": "bot | x=1,y=2",
                             "kind": "terminal"}],
                  "edges": [{"from": 0, "label": "det", "to": 1},
                            {"from": 1, "label": "det", "to": 2}]},
                 {"x := 1; y := 2 | ": "2", "y := 2 | x=1": "1",
                  "bot | x=1,y=2": "0"},
                 "graph is not closed: its program reaches more than 3 states",
                 id="skipped-state"),
    # Leaves out the right branch of the choice and everything below it.
    pytest.param({"initial": 0,
                  "nodes": [{"id": 0, "key": "{ x := 1 } [] { x := 2 } | ",
                             "kind": "nondet"},
                            {"id": 1, "key": "x := 1 | ",
                             "kind": "deterministic"},
                            {"id": 2, "key": "bot | x=1", "kind": "terminal"}],
                  "edges": [{"from": 0, "label": "nondet-left", "to": 1},
                            {"from": 1, "label": "det", "to": 2}]},
                 {"{ x := 1 } [] { x := 2 } | ": "2", "x := 1 | ": "1",
                  "bot | x=1": "0"},
                 "graph is not closed: its program reaches more than 3 states",
                 id="left-out-node"),
    # The real graph, but it starts at a later state whose program prints
    # like the initial one.
    pytest.param({**exploration.collapse_to_state_graph(
                      parse("while (true) { x := 1 }"), 10).to_json(),
                  "initial": 3},
                 {"while (true) { x := 1 } | ": "0",
                  "x := 1; while (true) { x := 1 } | ": "0",
                  "bot; while (true) { x := 1 } | x=1": "0",
                  "while (true) { x := 1 } | x=1": "0",
                  "x := 1; while (true) { x := 1 } | x=1": "0"},
                 "initial node is 3, re-derived 0", id="wrong-initial"),
])
def test_graph_file_that_is_not_the_program_graph_exits_2(tmp_path, capsys,
                                                         graph, h, message):
    assert _check_rsm_on(tmp_path, graph, h) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'graph.json'}: bad graph: " \
                           f"{message}\n"


# ---------------------------------------------------------------------------
# Malformed certificate files
# ---------------------------------------------------------------------------

ONE_ASSIGNMENT_RANK = {"x := 1 | ": "1", "bot | x=1": "0"}


@pytest.mark.parametrize("command, cert, message", [
    pytest.param("check-rsm", {"epsilon": "abc", "h": ONE_ASSIGNMENT_H},
                 "certificate has a bad epsilon 'abc'",
                 id="epsilon-not-rational"),
    pytest.param("check-rsm", {"h": ONE_ASSIGNMENT_H},
                 "certificate has no epsilon", id="missing-epsilon"),
    pytest.param("check-rsm", {"epsilon": True, "h": ONE_ASSIGNMENT_H},
                 "certificate has a bad epsilon True: not a JSON string",
                 id="epsilon-boolean"),
    pytest.param("check-rsm", {"epsilon": 1, "h": ONE_ASSIGNMENT_H},
                 "certificate has a bad epsilon 1: not a JSON string",
                 id="epsilon-integer"),
    pytest.param("check-rsm", {"epsilon": 0.1, "h": ONE_ASSIGNMENT_H},
                 "certificate has a bad epsilon 0.1: not a JSON string",
                 id="epsilon-float"),
    pytest.param("check-rsm", {"epsilon": "1",
                               "h": {**ONE_ASSIGNMENT_H, "x := 1 | ": 1.5}},
                 "certificate has a bad value 1.5: not a JSON string",
                 id="value-float"),
    pytest.param("check-rsm", {"epsilon": "1",
                               "h": {**ONE_ASSIGNMENT_H, "x := 1 | ": "1/0"}},
                 "certificate has a bad value '1/0'", id="value-not-rational"),
    pytest.param("check-rsm", [ONE_ASSIGNMENT_H],
                 "certificate is not a JSON object", id="rsm-list"),
    pytest.param("check-rule",
                 {"g": {**ONE_ASSIGNMENT_RANK, "x := 1 | ": "zz"},
                  "k": {"x := 1 | ": {"epsilon": "1",
                                      "h": ONE_ASSIGNMENT_H}}},
                 "certificate has a bad rank 'zz'", id="rank-not-ordinal"),
    pytest.param("check-rule",
                 {"g": ONE_ASSIGNMENT_RANK, "k": {"x := 1 | ": []}},
                 "certificate is not a JSON object", id="rule-entry-list"),
    pytest.param("check-rule", {"g": ONE_ASSIGNMENT_RANK, "k": []},
                 "certificate 'k' is not a JSON object", id="rule-k-list"),
    pytest.param("check-rsm", {"epsilon": "1", "h": ONE_ASSIGNMENT_H,
                               "bound": "1"},
                 "certificate has unknown field 'bound'",
                 id="rsm-unknown-field"),
    pytest.param("check-rule", {"g": ONE_ASSIGNMENT_RANK, "k": {},
                                "h": ONE_ASSIGNMENT_H},
                 "certificate has unknown field 'h'", id="rule-unknown-field"),
    pytest.param("check-rule",
                 {"g": ONE_ASSIGNMENT_RANK,
                  "k": {"x := 1 | ": {"epsilon": "1", "h": ONE_ASSIGNMENT_H,
                                      "g": ONE_ASSIGNMENT_RANK}}},
                 "certificate has unknown field 'g'",
                 id="rule-entry-unknown-field"),
    pytest.param("check-rsm", {"epsilon": "1_0", "h": ONE_ASSIGNMENT_H},
                 "certificate has a bad epsilon '1_0'",
                 id="epsilon-digit-separator"),
    pytest.param("check-rsm", {"epsilon": "1",
                               "h": {**ONE_ASSIGNMENT_H, "x := 1 | ": " 1 "}},
                 "certificate has a bad value ' 1 '", id="value-padded"),
])
def test_malformed_certificate_file_exits_2(tmp_path, capsys, command, cert,
                                            message):
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(ONE_ASSIGNMENT))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    assert main([command, str(graph_path), str(cert_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


DEEP_RANK = "w^(" * 1500 + "1" + ")" * 1500


@pytest.mark.parametrize("argv, message", [
    pytest.param(["check-rsm", "{deep}", "{graph}"],
                 "{deep}: invalid JSON: nests too deeply", id="check-rsm"),
    pytest.param(["emit", "reduction", "--tree", "{deep}"],
                 "{deep}: invalid JSON: nests too deeply", id="emit"),
    pytest.param(["check-rule", "{graph}", "{cert}"],
                 f"certificate has a bad rank {reprlib.repr(DEEP_RANK)}",
                 id="check-rule"),
])
def test_deep_json_or_rank_is_blamed_on_its_file(tmp_path, capsys, argv,
                                                 message):
    paths = {"deep": tmp_path / "deep.json", "graph": tmp_path / "graph.json",
             "cert": tmp_path / "cert.json"}
    paths["deep"].write_text("[" * 100000 + "]" * 100000)
    paths["graph"].write_text(json.dumps(ONE_ASSIGNMENT))
    paths["cert"].write_text(json.dumps(
        {"g": {**ONE_ASSIGNMENT_RANK, "x := 1 | ": DEEP_RANK}, "k": {}}))
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(**paths)}\n")


def test_deep_inline_tree_spec_exits_2(capsys):
    text = '{"explicit": ' + "[" * 100000 + "]" * 100000 + "}"
    assert main(["emit", "reduction", "--tree", text]) == 2
    assert capsys.readouterr() == (
        "", f"error: bad tree spec {text!r}: invalid JSON: nests too deeply\n")


# A text refused in the last k entry, after the same number written plainly
# in the earlier ones, is refused as if it were the first: a load reads each
# accepted value text once.
TOO_LONG_ONE = "1" + "0" * 4300 + "/1" + "0" * 4300


@pytest.mark.parametrize("plain, target, bad, message", [
    pytest.param("1", 2, " 1", "certificate has a bad value ' 1'",
                 id="padded"),
    pytest.param("10", 2, "1_0", "certificate has a bad value '1_0'",
                 id="digit-separator"),
    pytest.param("1", 0, 0, "certificate has a bad value 0: not a JSON string",
                 id="json-number"),
    pytest.param("1", 2, TOO_LONG_ONE,
                 "certificate has a bad value '100000000000...0000000000000'",
                 id="digits"),
])
def test_value_refused_after_its_plain_form_exits_2(tmp_path, capsys, plain,
                                                    target, bad, message):
    program_path = tmp_path / "three.pgcl"
    program_path.write_text("x := 1; x := 2\n")
    graph_path = tmp_path / "graph.json"
    assert main(["graph", str(program_path), "-o", str(graph_path)]) == 0
    keys = [node["key"] for node in json.loads(graph_path.read_text())["nodes"]]
    # Node i is 3 - i steps from the end, so it ranks 3 - i and its
    # certificate is `plain` on itself and 0 everywhere else.
    cert = {"g": {key: str(3 - i) for i, key in enumerate(keys)},
            "k": {keys[i]: {"epsilon": plain,
                            "h": {key: plain if j == i else "0"
                                  for j, key in enumerate(keys)}}
                  for i in range(3)}}
    cert_path = tmp_path / "rule.json"
    cert_path.write_text(json.dumps(cert))
    assert main(["check-rule", str(graph_path), str(cert_path)]) == 0
    assert capsys.readouterr().out == "OK\n"
    cert["k"][keys[2]]["h"][keys[target]] = bad
    cert_path.write_text(json.dumps(cert))
    assert main(["check-rule", str(graph_path), str(cert_path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


ONE_ASSIGNMENT_TEXT = json.dumps(ONE_ASSIGNMENT)


@pytest.mark.parametrize("command, which, text, key", [
    pytest.param("check-rsm", "graph", ONE_ASSIGNMENT_TEXT.replace(
        '"initial": 0', '"initial": 0, "initial": 1'), "initial",
                 id="graph-field"),
    pytest.param("check-rsm", "graph", ONE_ASSIGNMENT_TEXT.replace(
        '"kind": "terminal"', '"kind": "terminal", "kind": "terminal"'),
                 "kind", id="graph-node-field"),
    pytest.param("check-rsm", "cert",
                 '{"epsilon": "1", "epsilon": "1/2", "h": {}}', "epsilon",
                 id="rsm-field"),
    pytest.param("check-rsm", "cert",
                 '{"epsilon": "1", "h": {"x := 1 | ": "1", '
                 '"bot | x=1": "0", "x := 1 | ": "0"}}', "x := 1 | ",
                 id="rsm-h-entry"),
    pytest.param("check-rule", "cert",
                 '{"g": {"x := 1 | ": "1", "bot | x=1": "0"}, "k": '
                 '{"x := 1 | ": {"epsilon": "1", "h": {}, "h": {}}}}', "h",
                 id="rule-k-entry"),
])
def test_duplicated_json_key_exits_2(tmp_path, capsys, command, which, text,
                                     key):
    paths = {"graph": tmp_path / "graph.json", "cert": tmp_path / "cert.json"}
    paths["graph"].write_text(ONE_ASSIGNMENT_TEXT)
    paths["cert"].write_text(json.dumps({"epsilon": "1",
                                         "h": ONE_ASSIGNMENT_H}))
    paths[which].write_text(text)
    assert main([command, str(paths["graph"]), str(paths["cert"])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {paths[which]}: invalid JSON: "
                            f"duplicate key {key!r}\n")


def test_rule_name_is_read_before_a_file_of_that_name(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["emit", "reduction", "--tree", "full"]) == 0
    rule = capsys.readouterr().out
    assert main(["emit", "reduction", "--tree", '{"explicit": [[]]}']) == 0
    other = capsys.readouterr().out
    assert other != rule
    (tmp_path / "full").write_text('{"explicit": [[]]}')
    (tmp_path / "all-zeros").mkdir()
    assert main(["emit", "reduction", "--tree", "full"]) == 0
    assert capsys.readouterr().out == rule
    # A file named like a rule is read through a path that is no rule name.
    assert main(["emit", "reduction", "--tree", "./full"]) == 0
    assert capsys.readouterr().out == other
    assert main(["emit", "reduction", "--tree", "all-zeros"]) == 0
    assert capsys.readouterr().err == ""


def test_tree_spec_with_duplicated_key_exits_2(tmp_path, capsys):
    text = '{"rule": "full", "rule": "all-zeros"}'
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert main(["emit", "reduction", "--tree", str(path)]) == 2
    assert main(["emit", "reduction", "--tree", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: invalid JSON: duplicate key 'rule'\n"
        f"error: bad tree spec {text!r}: duplicate key 'rule'\n")


# ---------------------------------------------------------------------------
# Programs too deep for the recursive parser and hash; long ones that print
# ---------------------------------------------------------------------------

def _assignments(count, start=0):
    return "; ".join(f"x := {i}" for i in range(start, count))


@pytest.mark.parametrize("argv, source", [
    pytest.param(["graph"], _assignments(800), id="graph"),
    pytest.param(["parse"], "if (x = 0) { " * 1000 + "skip" + " }" * 1000,
                 id="nested-if"),
])
def test_too_deep_program_exits_2(tmp_path, capsys, argv, source):
    path = tmp_path / "deep.pgcl"
    path.write_text(source + "\n")
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: program nests too deeply for this analysis\n"


@pytest.mark.parametrize("argv", [
    ["parse", str(PROGRAMS / "geometric.pgcl")],
    ["run", str(PROGRAMS / "geometric.pgcl")],
    ["graph", str(PROGRAMS / "geometric.pgcl")],
    ["hydra", "rank", "--tree", "((()))"],
], ids=["parse", "run", "graph", "hydra-rank"])
def test_closed_stdout_exits_2_with_one_line(argv):
    # stdout is a pipe whose read end is already closed, so the first write
    # to it fails, however little the command prints.
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pastlab.cli", *argv], stdout=write,
            stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(PROGRAMS.parent / "src")})
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (
        2, "error: cannot write to stdout: [Errno 32] Broken pipe\n")


def test_parse_prints_a_long_sequence(tmp_path, capsys):
    path = tmp_path / "long.pgcl"
    path.write_text(_assignments(3000) + "\n")
    assert main(["parse", str(path)]) == 0
    assert capsys.readouterr() == (_assignments(3000) + "\n", "")


def test_run_json_prints_a_long_sequence(tmp_path, capsys):
    path = tmp_path / "long.pgcl"
    path.write_text("{ skip } <1/2> { skip }; " + _assignments(1500) + "\n")
    assert main(["run", str(path), "--depth", "10", "--format", "json"]) == 0
    # The residual program is too deep to hash, so the states the two
    # branches reach are listed apart rather than merged.
    state = {"program": "bot; " + _assignments(1500, start=4),
             "valuation": {"x": "3"}, "prob": "1/2", "history": "",
             "paths": 1}
    expected = {"depth": 10, "terminal_mass": "0", "frontier_mass": "1",
                "frontier_states": [state, state]}
    assert capsys.readouterr() == (json.dumps(expected) + "\n", "")


def _coins(count, last="{ skip } <1/2> { exit }"):
    return "; ".join(["{ skip } <1/2> { exit }"] * (count - 1) + [last])


@pytest.mark.parametrize("source, answer, code", [
    pytest.param(_assignments(3000), "yes", 0, id="statements"),
    pytest.param(_coins(2000), "yes", 0, id="coins"),
    pytest.param(_coins(2000, last="{ exit } <1/2> { skip }"), "no", 1,
                 id="coins-last-swapped"),
])
def test_knievel_has_no_length_limit(tmp_path, capsys, source, answer, code):
    path = tmp_path / "long.pgcl"
    path.write_text(source + "\n")
    assert main(["knievel", str(path)]) == code
    assert capsys.readouterr().out == f"normal form: {answer}\n"


# ---------------------------------------------------------------------------
# Numerals too long to convert
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("source, message", [
    pytest.param("x := " + "7" * 5000,
                 "integer literal of 5000 digits exceeds 4300 "
                 "at line 1, column 6", id="numerator"),
    pytest.param("x := 1/" + "7" * 4301,
                 "integer literal of 4301 digits exceeds 4300 "
                 "at line 1, column 8", id="denominator"),
])
def test_program_literal_too_long_exits_2(tmp_path, capsys, source, message):
    path = tmp_path / "long.pgcl"
    path.write_text(source + "\n")
    start = time.perf_counter()
    assert main(["parse", str(path)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("epsilon, message", [
    pytest.param('"1e1000000"', "certificate has a bad epsilon '1e1000000'",
                 id="exponent"),
    pytest.param('"1e10000000"', "certificate has a bad epsilon '1e10000000'",
                 id="longer-exponent"),
    pytest.param('"' + "9" * 4301 + '"',
                 "certificate has a bad epsilon '999999999999...9999999999999'",
                 id="digits"),
    pytest.param("9" * 4301, "invalid JSON: Exceeds the limit",
                 id="json-number"),
])
def test_certificate_value_too_long_exits_2(tmp_path, capsys, epsilon,
                                            message):
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(ONE_ASSIGNMENT))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text('{"epsilon": %s, "h": %s}'
                         % (epsilon, json.dumps(ONE_ASSIGNMENT_H)))
    start = time.perf_counter()
    assert main(["check-rsm", str(graph_path), str(cert_path)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert message in captured.err


def test_certificate_with_longest_printable_values_loads(tmp_path, capsys):
    # pastlab prints no rational with more than 4300 digits, so everything
    # it writes reads back.
    program = parse("x := 1")
    graph = exploration.collapse_to_state_graph(program, 10)
    top = 10 ** 4300 - 1
    cert = RsmCert({0: Fraction(top, 7), 1: Fraction(0)}, Fraction(1, 7))
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(graph.to_json()))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert.to_json(graph)))
    assert main(["check-rsm", str(graph_path), str(cert_path)]) == 0
    assert capsys.readouterr().out == f"OK, bound = {top}\n"


# A program whose second value has 8000 digits, more than can be printed.
SQUARED = "x := " + "9" * 4000 + "; y := x * x\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["graph"], id="graph"),
    pytest.param(["tree", "--depth", "4", "--format", "json"], id="tree-json"),
])
def test_value_too_long_to_print_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "squared.pgcl"
    path.write_text(SQUARED)
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rational of more than 4300 digits\n"


@pytest.mark.parametrize("source, h, epsilon", [
    # Each value prints, but the bound h/epsilon = 10^8598 does not.
    pytest.param("x := 1", {"x := 1 | ": "1" + "0" * 4299, "bot | x=1": "0"},
                 "1/1" + "0" * 4299, id="bound"),
    # Rejected, but the side h(successor) + epsilon = 2 * (10^4300 - 1)
    # does not print.
    pytest.param("x := 1; y := 1",
                 {"x := 1; y := 1 | ": "1", "bot; y := 1 | x=1": "9" * 4300,
                  "y := 1 | x=1": "9" * 4300, "bot | x=1,y=1": "0"},
                 "9" * 4300, id="rejection"),
])
def test_check_rsm_result_too_long_to_print_exits_2(tmp_path, capsys, source,
                                                    h, epsilon):
    program_path = tmp_path / "program.pgcl"
    program_path.write_text(source + "\n")
    graph_path = tmp_path / "graph.json"
    assert main(["graph", str(program_path), "-o", str(graph_path)]) == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({"epsilon": epsilon, "h": h}))
    assert main(["check-rsm", str(graph_path), str(cert_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rational of more than 4300 digits\n"


@pytest.mark.parametrize("action", ["play", "compile"])
@pytest.mark.parametrize("spec", ["random:abc", "random:", "sideways"])
def test_bad_hercules_strategy_exits_2(capsys, action, spec):
    assert main(["hydra", action, "--tree", "((()))", "--hercules", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: unknown hercules strategy {spec!r} "
                            f"(expected interactive, leftmost-deepest or "
                            f"random:SEED)\n")


# ---------------------------------------------------------------------------
# Each command accepts exactly the options it reads
# ---------------------------------------------------------------------------

WALK = {"--scheduler", "--depth", "--seed", "--node-cap"}
OUTPUT = {"-o", "--output"}
OPTION_TABLE = {
    ("parse",): {"--format"},
    ("run",): WALK | {"--format", "--decimal"},
    ("tree",): WALK | {"--format", "--decimal"} | OUTPUT,
    ("runtime",): WALK | {"--decimal"},
    ("ast-check",): {"--delta", "--n", "--node-cap"},
    ("graph",): {"--bound"} | OUTPUT,
    ("check-rsm",): {"--decimal"},
    ("check-rule",): set(),
    ("knievel",): {"--transform", "--horizon"} | OUTPUT,
    ("emit",): {"--tree"} | OUTPUT,
    ("hydra", "rank"): {"--tree"},
    ("hydra", "compile"): {"--tree", "--hercules"} | OUTPUT,
    ("hydra", "play"): {"--tree", "--hercules", "--evolutions", "--seed"},
}


def _subcommands(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_option_table_names_every_command():
    paths = set()
    top = _subcommands(_build_parser())
    for name, parser in top.items():
        actions = _subcommands(parser)
        paths |= {(name, a) for a in actions} if actions else {(name,)}
    assert paths == set(OPTION_TABLE)


@pytest.mark.parametrize("path", list(OPTION_TABLE),
                         ids=" ".join)
def test_command_declares_only_the_options_it_reads(path):
    parser = _build_parser()
    for name in path:
        parser = _subcommands(parser)[name]
    declared = {flag for action in parser._actions
                for flag in action.option_strings
                if not isinstance(action, argparse._HelpAction)}
    assert declared == OPTION_TABLE[path]


VALUES = {"--seed": ["1"], "--node-cap": ["5"], "--format": ["json"],
          "--decimal": [], "--hercules": ["leftmost-deepest"],
          "--evolutions": ["1"], "-o": ["out.txt"]}
# Every (command, option) pair the parser accepted without reading it.
REFUSED = [
    (["parse", "f.pgcl"], ["--seed", "--node-cap", "--decimal"]),
    (["runtime", "f.pgcl"], ["--format"]),
    (["ast-check", "f.pgcl", "--delta", "1/2", "--n", "4"],
     ["--seed", "--format", "--decimal"]),
    (["graph", "f.pgcl"], ["--seed", "--node-cap", "--format", "--decimal"]),
    (["check-rsm", "g.json", "c.json"], ["--seed", "--node-cap", "--format"]),
    (["check-rule", "g.json", "c.json"],
     ["--seed", "--node-cap", "--format", "--decimal"]),
    (["knievel", "f.pgcl"], ["--seed", "--node-cap", "--format", "--decimal"]),
    (["emit", "reduction", "--tree", "full"],
     ["--seed", "--node-cap", "--format", "--decimal"]),
    (["hydra", "rank", "--tree", "(())"],
     ["--seed", "--node-cap", "--format", "--decimal", "--hercules",
      "--evolutions", "-o"]),
    (["hydra", "compile", "--tree", "(())"],
     ["--seed", "--node-cap", "--format", "--decimal", "--evolutions"]),
    (["hydra", "play", "--tree", "(())"],
     ["--node-cap", "--format", "--decimal", "-o"]),
]


@pytest.mark.parametrize("argv", [
    pytest.param(base + [option] + VALUES[option],
                 id=" ".join(base[:2] if base[0] == "hydra" else base[:1])
                 + " " + option)
    for base, options in REFUSED for option in options])
def test_unread_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    # The refusing command's own parser reports it.
    name = " ".join(argv[:2] if argv[0] == "hydra" else argv[:1])
    assert err.startswith(f"usage: pastlab {name} ")


def test_unread_option_names_the_command_and_the_arguments(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["runtime", str(PROGRAMS / "geometric.pgcl"),
              "--format", "json"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: pastlab runtime [-h] ")
    assert captured.err.endswith("\npastlab runtime: error: unrecognized "
                                 "arguments: --format json\n")


# ---------------------------------------------------------------------------
# One parser serves every call in a process
# ---------------------------------------------------------------------------

def test_second_call_builds_no_parser(geometric_file, monkeypatch, capsys):
    assert _build_parser() is _build_parser()
    assert main(["parse", geometric_file]) == 0
    built = []
    real_init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(self)
                        or real_init(self, *args, **kwargs))
    assert main(["run", geometric_file, "--depth", "3"]) == 0
    assert built == []


def test_options_of_one_call_do_not_reach_the_next(geometric_file, capsys):
    assert main(["run", geometric_file, "--depth", "3", "--decimal",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["depth"] == 3
    assert main(["run", geometric_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("depth: 64\nterminal mass: ")
    assert "(~" not in out


def test_unknown_option_after_successful_calls_is_a_usage_error(
        geometric_file, capsys):
    assert main(["run", geometric_file, "--depth", "3"]) == 0
    assert main(["parse", geometric_file]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["run", geometric_file, "--bogus"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: pastlab run [-h] ")
    assert captured.err.endswith("\npastlab run: error: unrecognized "
                                 "arguments: --bogus\n")


def test_node_cap_env_is_read_on_every_call(geometric_file, monkeypatch,
                                            capsys):
    monkeypatch.delenv("PASTLAB_NODE_CAP", raising=False)
    assert main(["run", geometric_file, "--depth", "30"]) == 0
    monkeypatch.setenv("PASTLAB_NODE_CAP", "3")
    assert main(["run", geometric_file, "--depth", "30"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_hydra_compile_refuses_interactive(capsys):
    assert main(["hydra", "compile", "--tree", "((()))",
                 "--hercules", "interactive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown strategy 'interactive'\n"


@pytest.mark.parametrize("action", ["rank", "compile", "play"])
def test_malformed_hydra_exits_2(capsys, action):
    assert main(["hydra", action, "--tree", "(("]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected ')' at offset 2 in '(('\n"


def test_hydra_play_move_past_a_leaf_is_retried(monkeypatch, capsys):
    # 0.0 runs past the head 0 and is refused; then both heads are chopped.
    inputs = iter(["0.0", "0", "0", "0", "0", "0"])
    monkeypatch.setattr("builtins.input", lambda *args: next(inputs))
    assert main(["hydra", "play", "--tree", "(()())"]) == 0
    out = capsys.readouterr().out
    assert "illegal move: no child 0" in out
    assert out.endswith("the hydra is dead: Hercules wins\n")


# ---------------------------------------------------------------------------
# Hostile option values
# ---------------------------------------------------------------------------

TREE_SPEC_SHAPE = ('a JSON tree spec is an object with an "explicit" list of '
                   'integer lists or a "rule" string')


@pytest.mark.parametrize("argv, message", [
    pytest.param(["knievel", "SIMPLE", "--transform", "--horizon", "abc"],
                 "horizon must be 'double' or an integer, not 'abc'",
                 id="knievel-horizon"),
    pytest.param(["emit", "reduction", "--tree", "{}"],
                 f"bad tree spec '{{}}': {TREE_SPEC_SHAPE}", id="emit-empty"),
    pytest.param(["emit", "reduction", "--tree", '{"explicit": 5}'],
                 f"bad tree spec '{{\"explicit\": 5}}': {TREE_SPEC_SHAPE}",
                 id="emit-explicit-not-a-list"),
    pytest.param(["emit", "reduction", "--tree", '{"rule": 3}'],
                 f"bad tree spec '{{\"rule\": 3}}': {TREE_SPEC_SHAPE}",
                 id="emit-rule-not-a-string"),
    # Refused before the game starts, so no hydra or round is printed.
    pytest.param(["hydra", "play", "--tree", "((()))", "--hercules",
                  "leftmost-deepest", "--evolutions", "-1"],
                 "evolutions must be non-negative", id="negative-evolutions"),
])
def test_hostile_option_value_exits_2(tmp_path, capsys, argv, message):
    simple = tmp_path / "simple.pgcl"
    simple.write_text("x := 1\n")
    argv = [str(simple) if a == "SIMPLE" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


SCHEDULER_FORMS = ("const:Ln | const:Rn | alt | random[:SEED] | "
                   "bounded:K:SPEC | interactive")


@pytest.mark.parametrize("spec, message", [
    (spec, f"unknown scheduler spec {spec!r} (expected {SCHEDULER_FORMS})")
    for spec in ["randomfoo", "bounded:2", "bounded:x:const:Ln",
                 "random:abc", "random:", "const:Xn", "bounded:2:foo"]
] + [("bounded:0:const:Ln", "k must be >= 1")])
def test_malformed_scheduler_spec_exits_2(geometric_file, capsys, spec,
                                          message):
    assert main(["run", geometric_file, "--scheduler", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_tree_text_summary_goes_to_output_file(geometric_file, tmp_path,
                                               capsys):
    assert main(["tree", geometric_file, "--depth", "3"]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "tree.txt"
    assert main(["tree", geometric_file, "--depth", "3",
                 "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed
    assert printed.startswith("nodes: ")
