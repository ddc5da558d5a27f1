from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastlab import certificates
from pastlab.certificates import (CertificateError, FixpointDiverges,
                                  RsmCert, RuleCert, check_proof_rule,
                                  check_rsm, in_loop_rsm_from_bound,
                                  lower_set, rsm_bound,
                                  worst_case_exit_times)
from pastlab.exploration import (KINDS, Edge, StateGraph,
                                 collapse_to_state_graph,
                                 collect_nondet_queries,
                                 exp_runtime_bounds)
from pastlab.ordinal import OMEGA, ZERO as ORD_ZERO, from_natural
from pastlab.scheduling import (ConstantScheduler, Ln, TableScheduler,
                                iter_partial_schedules)
from pastlab.semantics import ProgramState, Valuation, is_terminal
from pastlab.syntax import parse, read_rational
from certhelpers import (build_inc_graph, build_inc_rank2,
                         dense_worst_case_exit_times)


def make_graph(kinds, edges, initial=0):
    """Hand-built graph: synthetic distinct states, explicit edges given as
    src -> [(label, dst, prob)]."""
    states = []
    for i, kind in enumerate(kinds):
        text = "bot" if kind == "terminal" else "skip"
        states.append(ProgramState(parse(text), Valuation({"id": i + 1})))
    edge_map = {src: [Edge(src, label, dst,
                           Fraction(prob) if prob is not None else None)
                      for label, dst, prob in out]
                for src, out in edges.items()}
    return StateGraph(states, list(kinds), edge_map, initial)


CHAIN = make_graph(["deterministic", "terminal"],
                   {0: [("det", 1, None)]})


def test_check_rsm_chain():
    cert = RsmCert({0: Fraction(1), 1: Fraction(0)}, Fraction(1))
    assert check_rsm(CHAIN, cert).ok


def test_check_rsm_prob_violation_and_fix():
    graph = make_graph(
        ["prob", "terminal", "deterministic", "terminal"],
        {0: [("prob-left", 1, "1/2"), ("prob-right", 2, "1/2")],
         2: [("det", 3, None)]})
    bad = RsmCert({0: Fraction(2), 1: Fraction(0), 2: Fraction(4),
                   3: Fraction(0)}, Fraction(1))
    verdict = check_rsm(graph, bad)
    assert not verdict.ok
    node, condition, lhs, rhs = verdict.violations[0]
    assert (node, condition) == (0, "rsm-prob")
    assert (lhs, rhs) == (Fraction(3), Fraction(2))
    good = RsmCert({0: Fraction(3), 1: Fraction(0), 2: Fraction(4),
                    3: Fraction(0)}, Fraction(1))
    assert check_rsm(graph, good).ok


def test_check_rsm_nondet_uses_max():
    graph = make_graph(
        ["nondet", "terminal", "deterministic", "terminal"],
        {0: [("nondet-left", 1, None), ("nondet-right", 2, None)],
         2: [("det", 3, None)]})
    cert = RsmCert({0: Fraction(3, 2), 1: Fraction(0), 2: Fraction(1),
                    3: Fraction(0)}, Fraction(1, 2))
    assert check_rsm(graph, cert).ok
    tight = RsmCert({0: Fraction(1), 1: Fraction(0), 2: Fraction(1),
                     3: Fraction(0)}, Fraction(1, 2))
    verdict = check_rsm(graph, tight)
    assert not verdict.ok and verdict.violations[0][1] == "rsm-nondet"


def test_check_rsm_missing_entry():
    with pytest.raises(CertificateError):
        check_rsm(CHAIN, RsmCert({0: Fraction(1)}, Fraction(1)))


def test_check_rsm_terminal_must_be_zero():
    cert = RsmCert({0: Fraction(1), 1: Fraction(1)}, Fraction(1))
    verdict = check_rsm(CHAIN, cert)
    assert not verdict.ok
    assert any(v[1] == "h-zero-on-terminal" for v in verdict.violations)


def test_rsm_bound_values():
    cert = RsmCert({0: Fraction(3), 1: Fraction(0)}, Fraction(1))
    assert rsm_bound(cert, 0) == 3
    cert_half = RsmCert({0: Fraction(3), 1: Fraction(0)}, Fraction(1, 2))
    assert rsm_bound(cert_half, 0) == 6


def test_rsm_bound_dominates_measured_runtime():
    program = parse("{ t := 1 } [] { t := 2 }; "
                    "while (t > 0) { t := t - 1 }")
    graph = collapse_to_state_graph(program, 100)
    region = {i for i in range(len(graph)) if graph.kinds[i] != "terminal"}
    cert = in_loop_rsm_from_bound(graph, region, 50)
    assert check_rsm(graph, cert).ok
    ceiling = rsm_bound(cert, graph.initial)
    queries = collect_nondet_queries(program, 20)
    for partial in iter_partial_schedules(20, queries):
        bounds = exp_runtime_bounds(
            program, TableScheduler(partial), 20,
            target=lambda ps: is_terminal(ps))
        assert bounds.lower <= ceiling


def test_lower_set():
    graph = make_graph(["deterministic", "deterministic", "terminal"],
                       {0: [("det", 1, None)], 1: [("det", 2, None)]})
    g = {0: from_natural(2), 1: from_natural(1), 2: ORD_ZERO}
    assert lower_set(graph, g, 0) == {1, 2}
    assert lower_set(graph, g, 1) == {2}
    assert lower_set(graph, g, 2) == set()
    for node in range(3):
        assert node not in lower_set(graph, g, node)
        assert lower_set(graph, g, node, graph.reachable_from(node)) == \
            lower_set(graph, g, node)


def test_check_proof_rule_chain():
    cert = RuleCert(
        {0: from_natural(1), 1: ORD_ZERO},
        {0: RsmCert({0: Fraction(1), 1: Fraction(0)}, Fraction(1))})
    assert check_proof_rule(CHAIN, cert).ok


def test_check_proof_rule_rejects_nonzero_terminal_rank():
    cert = RuleCert(
        {0: from_natural(1), 1: from_natural(1)},
        {0: RsmCert({0: Fraction(1), 1: Fraction(0)}, Fraction(1))})
    verdict = check_proof_rule(CHAIN, cert)
    assert not verdict.ok
    assert any(v[1] == "rank-zero-on-terminal" for v in verdict.violations)


def test_check_proof_rule_zero_set_exactness_both_directions():
    graph = make_graph(
        ["deterministic", "deterministic", "terminal"],
        {0: [("det", 1, None)], 1: [("det", 2, None)]})
    ranks = {0: from_natural(2), 1: from_natural(1), 2: ORD_ZERO}
    good = RuleCert(ranks, {
        0: RsmCert({0: Fraction(1), 1: Fraction(0), 2: Fraction(0)},
                   Fraction(1)),
        1: RsmCert({0: Fraction(0), 1: Fraction(1), 2: Fraction(0)},
                   Fraction(1)),
    })
    assert check_proof_rule(graph, good).ok
    # zero where a positive value is required
    zero_on_live = RuleCert(ranks, {
        0: RsmCert({0: Fraction(0), 1: Fraction(0), 2: Fraction(0)},
                   Fraction(1)),
        1: good.k[1],
    })
    assert not check_proof_rule(graph, zero_on_live).ok
    # positive where the lower set demands zero
    positive_on_lower = RuleCert(ranks, {
        0: RsmCert({0: Fraction(2), 1: Fraction(1), 2: Fraction(0)},
                   Fraction(1)),
        1: good.k[1],
    })
    assert not check_proof_rule(graph, positive_on_lower).ok


def test_proof_rule_implies_member_rsms():
    graph = make_graph(
        ["deterministic", "deterministic", "terminal"],
        {0: [("det", 1, None)], 1: [("det", 2, None)]})
    ranks = {0: from_natural(2), 1: from_natural(1), 2: ORD_ZERO}
    cert = RuleCert(ranks, {
        0: RsmCert({0: Fraction(1), 1: Fraction(0), 2: Fraction(0)},
                   Fraction(1)),
        1: RsmCert({0: Fraction(0), 1: Fraction(1), 2: Fraction(0)},
                   Fraction(1)),
    })
    assert check_proof_rule(graph, cert).ok
    for node, rsm in cert.k.items():
        assert check_rsm(graph, rsm,
                         restrict=graph.reachable_from(node)).ok


# ---------------------------------------------------------------------------
# Constructing in-loop certificates
# ---------------------------------------------------------------------------

def test_in_loop_geometric_exact():
    graph = collapse_to_state_graph(
        parse("while (x = 0) { { skip } <1/2> { exit } }"), 50)
    region = {i for i in range(len(graph)) if graph.kinds[i] != "terminal"}
    cert = in_loop_rsm_from_bound(graph, region, 10)
    assert check_rsm(graph, cert).ok
    assert rsm_bound(cert, graph.initial) == 7
    measured = exp_runtime_bounds(
        parse("while (x = 0) { { skip } <1/2> { exit } }"),
        ConstantScheduler(Ln), 120)
    assert measured.lower < 7
    assert 7 - measured.lower < Fraction(1, 2 ** 20)


def test_in_loop_single_deterministic_node():
    graph = collapse_to_state_graph(parse("skip"), 10)
    cert = in_loop_rsm_from_bound(graph, {graph.initial}, 5)
    assert cert.h[graph.initial] == 1


def test_in_loop_self_loop_fails():
    graph = collapse_to_state_graph(parse("while (true) { skip }"), 10)
    region = {i for i in range(len(graph)) if graph.kinds[i] != "terminal"}
    with pytest.raises(FixpointDiverges):
        in_loop_rsm_from_bound(graph, region, 100)


def test_in_loop_bound_too_small():
    graph = collapse_to_state_graph(
        parse("while (x = 0) { { skip } <1/2> { exit } }"), 50)
    region = {i for i in range(len(graph)) if graph.kinds[i] != "terminal"}
    with pytest.raises(CertificateError):
        in_loop_rsm_from_bound(graph, region, 2)


def test_stagewise_bounds_dominate_normal_form_runtime():
    # A rank-accepted certificate over a normal-form program's graph keeps
    # the measured runtime under the sum of per-stage certified bounds.
    from certhelpers import build_inc_graph, build_inc_rank2
    from pastlab.transforms import emit_inc, is_knievel
    from pastlab.exploration import collect_nondet_queries

    program = emit_inc(cap=8)
    assert is_knievel(program)
    graph, selection, countdown = build_inc_graph(8)
    cert = build_inc_rank2(graph, selection, countdown)
    assert check_proof_rule(graph, cert).ok
    stage_two = rsm_bound(cert.k[graph.initial], graph.initial)
    stage_one = max(rsm_bound(cert.k[node], node) for node in countdown)
    ceiling = stage_two + stage_one
    queries = collect_nondet_queries(program, 20)
    for partial in iter_partial_schedules(20, queries, cap=8):
        bounds = exp_runtime_bounds(program,
                                    TableScheduler(partial), 60)
        assert bounds.lower <= ceiling


def test_json_round_trips():
    graph = CHAIN
    cert = RsmCert({0: Fraction(3, 2), 1: Fraction(0)}, Fraction(1, 2))
    data = cert.to_json(graph)
    assert data["epsilon"] == "1/2"
    assert RsmCert.from_json(data, graph) == cert
    rule = RuleCert({0: OMEGA, 1: ORD_ZERO}, {0: cert})
    back = RuleCert.from_json(rule.to_json(graph), graph)
    assert back == rule


def test_certificate_json_prints_each_state_key_once(monkeypatch):
    graph, selection, countdown = build_inc_graph(2)
    data = build_inc_rank2(graph, selection, countdown).to_json(graph)
    printed = []
    real_key = ProgramState.key
    monkeypatch.setattr(ProgramState, "key",
                        lambda self: printed.append(self) or real_key(self))
    fresh = StateGraph(graph.states, graph.kinds, graph.edges, graph.initial)
    back = RuleCert.from_json(data, fresh)
    assert back.to_json(fresh) == data
    assert len(printed) == len(fresh)


def test_rank_certificate_reads_each_value_text_once(monkeypatch):
    graph, selection, countdown = build_inc_graph(2)
    data = build_inc_rank2(graph, selection, countdown).to_json(graph)
    texts = [text for entry in data["k"].values()
             for text in [entry["epsilon"], *entry["h"].values()]]
    assert len(set(texts)) < len(texts)
    read = []
    monkeypatch.setattr(certificates, "read_rational",
                        lambda text: read.append(text) or read_rational(text))
    back = RuleCert.from_json(data, graph)
    assert sorted(read) == sorted(set(texts))
    index, values = graph.key_index(), {}
    for key, entry in data["k"].items():
        rsm = back.k[index[key]]
        pairs = [(entry["epsilon"], rsm.epsilon)] + [
            (text, rsm.h[index[node]]) for node, text in entry["h"].items()]
        for text, value in pairs:
            assert type(value) is Fraction and value == read_rational(text)
            assert values.setdefault(text, value) is value


# ---------------------------------------------------------------------------
# The component-wise exit-time solver against the dense reference
# ---------------------------------------------------------------------------

@st.composite
def graphs_with_regions(draw):
    """Random well-formed graphs over all four kinds with self-loops,
    nondeterministic and probabilistic cycles, and a region of all live
    nodes, some live nodes, or any nodes, terminals included.  In a tame
    graph node 0 is terminal and only the later branches of a choice may
    lead to a node at or above its own, so most cycles pass through a coin
    that can leave them and the exit times are finite."""
    size = draw(st.integers(1, 8))
    tame = draw(st.booleans())
    kinds = draw(st.lists(st.sampled_from(KINDS + ("prob",) * 2),
                          min_size=size, max_size=size))
    if tame:
        kinds[0] = "terminal"

    def targets(src, least, most):
        count = draw(st.integers(least, most))
        anywhere = st.integers(0, size - 1)
        if not tame:
            return [draw(anywhere) for _ in range(count)]
        below = st.integers(0, src - 1)
        later = below if kinds[src] == "deterministic" else anywhere
        return [draw(below)] + [draw(later) for _ in range(count - 1)]

    edges = {}
    for src, kind in enumerate(kinds):
        if kind == "deterministic":
            edges[src] = [("det", targets(src, 1, 1)[0], None)]
        elif kind == "nondet":
            edges[src] = [("nondet-left" if i == 0 else "nondet-right",
                           dst, None)
                          for i, dst in enumerate(targets(src, 1, 3))]
        elif kind == "prob":
            dsts = targets(src, 1, 3)
            weights = draw(st.lists(st.integers(1, 4), min_size=len(dsts),
                                    max_size=len(dsts)))
            edges[src] = [("prob-left" if i == 0 else "prob-right", dst,
                           Fraction(weight, sum(weights)))
                          for i, (dst, weight) in enumerate(zip(dsts, weights))]
    live = sorted(i for i in range(size) if kinds[i] != "terminal")
    pick = draw(st.integers(0, 2)) if live else 2
    if pick == 0:
        region = set(live)
    elif pick == 1:
        region = draw(st.sets(st.sampled_from(live), min_size=1))
    else:
        region = draw(st.sets(st.integers(0, size - 1), min_size=1))
    return make_graph(kinds, edges), region


def _outcome(solver, graph, region):
    try:
        return list(solver(graph, region).items())
    except FixpointDiverges:
        return "diverges"


@settings(max_examples=600, deadline=None, derandomize=True)
@given(graphs_with_regions())
def test_exit_times_match_dense_reference(case):
    graph, region = case
    assert _outcome(worst_case_exit_times, graph, region) == \
        _outcome(dense_worst_case_exit_times, graph, region)


def test_exit_times_match_dense_reference_on_inc_graph():
    graph, _, _ = build_inc_graph(2)
    region = {i for i in range(len(graph)) if graph.kinds[i] != "terminal"}
    assert list(worst_case_exit_times(graph, region).items()) == \
        list(dense_worst_case_exit_times(graph, region).items())


def _count_linear_solves(monkeypatch):
    sizes = []
    real = certificates._solve_linear
    monkeypatch.setattr(certificates, "_solve_linear",
                        lambda rows, rhs: sizes.append(len(rows))
                        or real(rows, rhs))
    return sizes


def test_components_solved_sinks_first_with_policy_improvement(monkeypatch):
    # {1, 2} is a coin loop whose nondeterministic node starts on its exit
    # branch and must switch to the loop; {3} is a coin self-loop feeding
    # it; 4 is acyclic.
    graph = make_graph(
        ["terminal", "prob", "nondet", "prob", "nondet"],
        {1: [("prob-left", 0, "1/2"), ("prob-right", 2, "1/2")],
         2: [("nondet-left", 0, None), ("nondet-right", 1, None)],
         3: [("prob-left", 3, "1/3"), ("prob-right", 1, "2/3")],
         4: [("nondet-left", 3, None), ("nondet-right", 0, None)]})
    sizes = _count_linear_solves(monkeypatch)
    times = worst_case_exit_times(graph, {1, 2, 3, 4})
    assert list(times.items()) == [(1, 3), (2, 4), (3, Fraction(9, 2)),
                                   (4, Fraction(11, 2))]
    assert sizes == [2, 2, 1]


def test_malformed_hand_built_graphs_diverge():
    # A coin whose only branch loops back is trapped even though its one
    # edge carries 1/2, and a node with no way out never leaves.  Graph
    # files are validated on load; hand-built graphs are not.
    short_coin = make_graph(["prob", "terminal"],
                            {0: [("prob-left", 0, "1/2")]})
    stuck = make_graph(["prob", "deterministic"],
                       {0: [("prob-left", 1, "1")]})
    for graph in (short_coin, stuck):
        for solver in (worst_case_exit_times, dense_worst_case_exit_times):
            with pytest.raises(FixpointDiverges):
                solver(graph, {0, 1} if graph is stuck else {0})


def test_acyclic_region_needs_no_linear_solve(monkeypatch):
    graph, _, _ = build_inc_graph(8)
    region = {i for i in range(len(graph)) if graph.kinds[i] != "terminal"}
    sizes = _count_linear_solves(monkeypatch)
    times = worst_case_exit_times(graph, region)
    assert sizes == []
    assert max(times.values()) == 29


def test_only_cyclic_components_are_solved(monkeypatch):
    # The coin loop is one cyclic component; the assignments before it are
    # acyclic and must not enter the linear system.
    graph = collapse_to_state_graph(
        parse("y := 1; y := 2; while (x = 0) { { skip } <1/2> { exit } }"), 50)
    region = {i for i in range(len(graph)) if graph.kinds[i] != "terminal"}
    sizes = _count_linear_solves(monkeypatch)
    times = worst_case_exit_times(graph, region)
    assert times[graph.initial] == 11
    assert sizes and all(size < len(region) for size in sizes)
