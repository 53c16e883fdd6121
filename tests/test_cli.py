from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkwise.cli import main
from chunkwise.rational import dump_json


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fan_then_simulate(tmp_path, capsys):
    fan_path = tmp_path / "fan.json"
    code, _, _ = run(capsys, "fan", "-n", "3", "-c", "3/2", "-o", str(fan_path))
    assert code == 0
    code, out, _ = run(capsys, "simulate", "-g", str(fan_path), "-b", "2")
    assert code == 0
    trace = json.loads(out)
    assert trace["total"] == "27/8"
    assert trace["path"][0] == "v0" and trace["path"][-1] == "t"


def test_fan_dot_output(capsys):
    code, out, _ = run(capsys, "fan", "-n", "2", "-c", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_chunk_edge_golden(s32_path, capsys):
    code, out, _ = run(
        capsys, "chunk-edge", "-g", str(s32_path), "-e", "u,v", "-b", "2", "-k", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chunks"] == ["211/60", "211/60", "209/30"]
    assert payload["report"]["bottleneck"] == "2221/30"
    assert payload["report"]["perceived"] == ["2221/30"] * 3


def test_chunk_edge_k2_golden(s32_path, capsys):
    code, out, _ = run(
        capsys, "chunk-edge", "-g", str(s32_path), "-e", "u,v", "-b", "2", "-k", "2"
    )
    payload = json.loads(out)
    assert payload["chunks"] == ["211/40", "349/40"]
    assert payload["report"]["bottleneck"] == "1551/20"


def test_byte_identical_outputs(s32_path, capsys):
    _, first, _ = run(
        capsys, "chunk-edge", "-g", str(s32_path), "-e", "u,v", "-b", "2", "-k", "3"
    )
    _, second, _ = run(
        capsys, "chunk-edge", "-g", str(s32_path), "-e", "u,v", "-b", "2", "-k", "3"
    )
    assert first == second


def test_chunk_graph_plan_round_trip(s32_path, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    code, _, _ = run(
        capsys,
        "chunk-graph",
        "-g",
        str(s32_path),
        "--biases",
        "2",
        "-k",
        "3",
        "-o",
        str(plan_path),
    )
    assert code == 0
    plan = json.loads(plan_path.read_text())
    assert plan["predicted_cost"] == "741/10"
    code, out, _ = run(
        capsys, "simulate", "-g", str(s32_path), "-b", "2", "--plan", str(plan_path)
    )
    assert code == 0
    assert json.loads(out)["total"] == plan["predicted_cost"]


def test_chunk_graph_two_biases(s32_path, capsys):
    code, out, _ = run(
        capsys, "chunk-graph", "-g", str(s32_path), "--biases", "2,10", "-k", "3"
    )
    assert code == 0
    payload = json.loads(out)
    totals = sorted(t["total"] for t in payload["traces"])
    assert totals == ["741/10", "76"]


def test_chunk_graph_single_path(s32_path, capsys):
    code, out, _ = run(
        capsys,
        "chunk-graph",
        "-g",
        str(s32_path),
        "--biases",
        "2,3",
        "-k",
        "3",
        "--single-path",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["planned_paths"] == [["u", "z", "t"], ["u", "z", "t"]]


def test_chunk_graph_single_path_infeasible_is_data(tmp_path, capsys):
    graph = tmp_path / "split.json"
    graph.write_text(
        json.dumps(
            {
                "vertices": ["s", "a", "b", "t"],
                "edges": [
                    {"from": "s", "to": "a", "cost": "1"},
                    {"from": "a", "to": "t", "cost": "10"},
                    {"from": "s", "to": "b", "cost": "3"},
                    {"from": "b", "to": "t", "cost": "3"},
                ],
                "source": "s",
                "sink": "t",
            }
        )
    )
    code, out, _ = run(
        capsys, "chunk-graph", "-g", str(graph), "--biases", "2,10", "-k", "1", "--single-path"
    )
    assert code == 1
    assert json.loads(out)["error"] == "InfeasibleChunking"


def test_split_edge(s32_path, capsys):
    code, out, _ = run(
        capsys,
        "split-edge",
        "-g",
        str(s32_path),
        "-e",
        "u,v",
        "--biases",
        "2,10",
        "-k",
        "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert Fraction(payload["repelled_bottleneck"]) > 76


def test_same_path_edge_infeasible_is_data_not_crash(s32_path, capsys):
    code, out, _ = run(
        capsys,
        "same-path-edge",
        "-g",
        str(s32_path),
        "-e",
        "u,v",
        "--biases",
        "2,3",
        "-k",
        "3",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["infeasible"] == "same-path"


def test_edge_commands_on_an_unknown_tail_report_unknown_edge(s32_path, capsys):
    # split-edge used to look up the missing tail's out-edges first and
    # escape with a KeyError traceback.
    unknown = '{\n  "error": "UnknownEdge",\n  "message": "edge (x -> t) does not exist"\n}\n'
    for argv in (
        ("split-edge", "-g", str(s32_path), "-e", "x,t", "--biases", "2,3", "-k", "2"),
        ("same-path-edge", "-g", str(s32_path), "-e", "x,t", "--biases", "2,3", "-k", "2"),
        ("chunk-edge", "-g", str(s32_path), "-e", "x,t", "-b", "2", "-k", "2"),
    ):
        assert run(capsys, *argv) == (1, unknown, "")


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()),
    lambda inner: st.one_of(
        st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(st.text(), inner)
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(json_values)
@example({})
@example([])
@example(())
@example({"a": [], "b": {}, "c": ((), [{}])})
@example([[[]], {"x": {"y": []}}])
@example({"\u00e9t\u00e9 \u2603": "\x00\t\n\"\\ \u2028 \U0001f600 caf\u00e9"})
@example([0, -7, 10**40, 1.5, -0.0, 1e300, float("inf"), float("nan"), True, False, None])
def test_dump_json_writes_what_json_dumps_writes(value):
    assert dump_json(value) == json.dumps(value, indent=2)


def test_every_json_output_is_built_of_exact_containers(s32_path, tmp_path, capsys, monkeypatch):
    # dump_json dispatches on the exact type, so a dict, list or tuple
    # subclass (a NamedTuple, say) would be handed whole to json.dumps and
    # written on one line. Every value the commands write must hold none.
    import chunkwise.cli as cli
    import chunkwise.graph as graph

    seen: list[object] = []

    def recording(value, *rest):
        seen.append(value)
        return dump_json(value, *rest)

    monkeypatch.setattr(cli, "dump_json", recording)
    monkeypatch.setattr(graph, "dump_json", recording)
    g, plan = str(s32_path), str(tmp_path / "plan.json")
    for argv in (
        ["fan", "-n", "3", "-c", "3/2"],
        ["chunk-graph", "-g", g, "--biases", "2", "-k", "3", "-o", plan],
        ["simulate", "-g", g, "-b", "2", "--decimal"],
        ["simulate", "-g", g, "-b", "2", "--plan", plan],
        ["chunk-edge", "-g", g, "-e", "u,v", "-b", "2", "-k", "3", "--decimal"],
        ["chunk-graph", "-g", g, "--biases", "2,10", "--mode", "global", "-k", "3"],
        ["chunk-graph", "-g", g, "--biases", "2,3,4", "-k", "3", "--single-path"],
        ["split-edge", "-g", g, "-e", "u,v", "--biases", "2,10", "-k", "3", "--decimal"],
        ["split-edge", "-g", g, "-e", "u,v", "--biases", "2,10", "-k", "3", "--taker", "2"],
        ["same-path-edge", "-g", g, "-e", "u,w", "--biases", "2,3", "-k", "11"],
        ["same-path-edge", "-g", g, "-e", "u,v", "--biases", "2,3", "-k", "3"],
        ["chunk-edge", "-g", g, "-e", "u,x", "-b", "2", "-k", "3"],
    ):
        assert main(argv) in (0, 1), argv
    capsys.readouterr()
    assert len(seen) == 12

    def walk(value) -> None:
        if type(value) is dict:
            for key, item in value.items():
                assert type(key) is str
                walk(item)
        elif type(value) in (list, tuple):
            for item in value:
                walk(item)
        else:
            assert type(value) in (str, int, float, bool, type(None)), type(value)

    for value in seen:
        walk(value)


def test_usage_errors_exit_two(s32_path, capsys, tmp_path):
    assert run(capsys, "chunk-edge", "-g", str(s32_path), "-e", "nope", "-b", "2", "-k", "3")[0] == 2
    assert run(capsys, "simulate", "-g", str(tmp_path / "missing.json"), "-b", "2")[0] == 2
    assert run(capsys, "simulate", "-g", str(s32_path), "-b", "1")[0] == 2
    assert run(capsys, "wat")[0] == 2
    # Bad fan parameters are input errors, like chunks-needed's; they used to
    # exit 1 with an InvalidSpec object on stdout.
    for argv, message in (
        (("fan", "-n", "0", "-c", "2"), "fan needs n >= 1, got 0"),
        (("fan", "-n", "3", "-c", "1"), "fan needs c > 1, got 1"),
        (("experiment", "cost-ratio", "-b", "2", "-c", "1", "-k", "3"), "fan needs c > 1, got 1"),
        # verify used to run its suites on these: --trials 0 reported two
        # suites as failed with 0 violations, and -k 0 escaped from randrange.
        (("verify", "--trials", "0"), "verify needs --trials >= 1, got 0"),
        (("verify", "--suite", "graph-dp", "-k", "0"), "verify needs -k >= 1, got 0"),
        (("verify", "--suite", "edge-oracle", "-d", "-1"), "verify needs -d >= 1, got -1"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    # A JSON true is a Python int; it used to load as cost 1.
    bool_cost = tmp_path / "bool_cost.json"
    bool_cost.write_text(json.dumps({
        "vertices": ["s", "t"], "edges": [{"from": "s", "to": "t", "cost": True}],
        "source": "s", "sink": "t",
    }))
    assert run(capsys, "simulate", "-g", str(bool_cost), "-b", "2") == (
        2, "", "error: edges[0].cost: must be an exact string or integer\n"
    )
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff{}")
    assert run(capsys, "simulate", "-g", str(not_utf8), "-b", "2") == (
        2, "", "error: json: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )


@pytest.mark.parametrize(
    "boundary, literal",
    [
        ("graph cost", "1e9999999"),
        ("plan chunk", "1e3"),
        ("-b", "1e1"),
        ("--biases", "1_0"),
        ("fan -c", "\u0663"),
    ],
)
def test_every_number_follows_the_one_grammar(boundary, literal, s32_path, capsys, tmp_path):
    # Each of these literals used to parse (1e9999999 after about 11 s);
    # now each is refused by the one grammar, naming its rule, and exits 2.
    graph, plan = tmp_path / "graph.json", tmp_path / "plan.json"
    graph.write_text(json.dumps({
        "vertices": ["s", "t"], "edges": [{"from": "s", "to": "t", "cost": literal}],
        "source": "s", "sink": "t",
    }))
    plan.write_text(json.dumps({"chunkings": [{"from": "u", "to": "v", "chunks": [literal]}]}))
    argv, field = {
        "graph cost": (("simulate", "-g", str(graph), "-b", "2"), "edges[0].cost: "),
        "plan chunk": (("simulate", "-g", str(s32_path), "-b", "2", "--plan", str(plan)),
                       "plan.chunkings[0]: "),
        "-b": (("chunk-edge", "-g", str(s32_path), "-e", "u,v", "-b", literal, "-k", "3"), ""),
        "--biases": (("chunk-graph", "-g", str(s32_path), "--biases", f"2,{literal}", "-k", "3"),
                     ""),
        "fan -c": (("fan", "-n", "3", "-c", literal), ""),
    }[boundary]
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "")
    assert err == (
        f"error: {field}not an exact rational: {literal!r}; expected an optional sign, "
        "then ASCII digits with an optional '.digits', or digits '/' digits, "
        "with at most 4300 digits above and below the bar\n"
    )


def test_verify_suites_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "all", "--seed", "7", "--trials", "4", "-k", "3", "-d", "16"
    )
    assert code == 0
    assert out.count("[ok]") == 3


def test_verify_multi_agent_counts_infeasible_single_paths(capsys):
    # At k=1 some drawn graphs have no path both types can be persuaded to
    # share; the suite counts them instead of aborting on the first one.
    code, out, _ = run(
        capsys, "verify", "--suite", "multi-agent", "--seed", "0", "--trials", "25", "-k", "1"
    )
    assert code == 0
    assert out.startswith("[ok] multi-agent: 25 joint sims")
    assert out.rstrip().endswith("0 violations, 2 infeasible")


def test_experiment_cost_ratio_csv(capsys):
    code, out, _ = run(
        capsys, "experiment", "cost-ratio", "-b", "2", "-c", "9/8", "-k", "3", "--n-max", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,b,c,k,ratio_num,ratio_den,bound_num,bound_den"
    assert len(lines) == 5
    n, b, c, k, rn, rd, bn, bd = lines[4].split(",")
    assert (n, b, c, k) == ("4", "2", "9/8", "3")
    assert Fraction(int(rn), int(rd)) == Fraction(9, 8) ** 4


def test_experiment_chunks_needed_csv(capsys):
    code, out, _ = run(
        capsys,
        "experiment",
        "chunks-needed",
        "-b",
        "2",
        "-c",
        "2",
        "--n-min",
        "8",
        "--n-max",
        "8",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].split(",")[3] == "4"


def test_decimal_flag_adds_columns(s32_path, capsys):
    _, out, _ = run(
        capsys,
        "chunk-edge",
        "-g",
        str(s32_path),
        "-e",
        "u,v",
        "-b",
        "2",
        "-k",
        "2",
        "--decimal",
    )
    payload = json.loads(out)
    assert payload["report"]["bottleneck_decimal"] == 77.55


def test_golden_output_fixture_matches(s32_path, capsys):
    from conftest import FIXTURES

    _, out, _ = run(
        capsys, "chunk-edge", "-g", str(s32_path), "-e", "u,v", "-b", "2", "-k", "3"
    )
    assert out == (FIXTURES / "golden_chunk_edge_uv_k3.json").read_text()


def test_large_k_golden_output_fixture_matches(s32_path, capsys):
    # k = 64 reaches the interior branch with many taus and rebalanced candidates.
    from conftest import FIXTURES

    _, out, _ = run(
        capsys, "chunk-edge", "-g", str(s32_path), "-e", "u,v", "-b", "7/4", "-k", "64"
    )
    assert out == (FIXTURES / "golden_chunk_edge_uv_k64.json").read_text()


@pytest.mark.parametrize(
    "edge, b, k, golden",
    [
        # delta <= 0: the geometric chunking
        ("u,w", "2", "4", "golden_chunk_edge_uw_k4.json"),
        # x = 0 < delta: three zero chunks, selective bias 1
        ("u,z", "2", "3", "golden_chunk_edge_uz_k3.json"),
        # v's only out-edge: no outside option, delta null
        ("v,t", "7/4", "3", "golden_chunk_edge_vt_k3.json"),
    ],
)
def test_optimizer_branch_golden_output_fixtures_match(s32_path, capsys, edge, b, k, golden):
    from conftest import FIXTURES

    _, out, _ = run(capsys, "chunk-edge", "-g", str(s32_path), "-e", edge, "-b", b, "-k", k)
    assert out == (FIXTURES / golden).read_text()


def test_same_path_golden_output_fixture_matches(s32_path, capsys):
    # Eleven chunks, the first five zero: the padded greedy fill of two types.
    from conftest import FIXTURES

    _, out, _ = run(
        capsys, "same-path-edge", "-g", str(s32_path), "-e", "u,w", "--biases", "2,3", "-k", "11"
    )
    assert out == (FIXTURES / "golden_same_path_uw_k11.json").read_text()


def test_two_type_plan_golden_output_fixture_matches(s32_path, capsys):
    # Two biases: the 2 type is split onto (u, v) by chunk_split's witness
    # (211/60, 38/15, 159/20) while the 10 type keeps its default u->z->t.
    from conftest import FIXTURES

    _, out, _ = run(capsys, "chunk-graph", "-g", str(s32_path), "--biases", "2,10", "-k", "3")
    assert out == (FIXTURES / "golden_plan_two_type_k3.json").read_text()
    payload = json.loads(out)
    assert payload["chunkings"][0]["chunks"] == ["211/60", "38/15", "159/20"]
    assert payload["planned_paths"] == [["u", "v", "t"], ["u", "z", "t"]]
    assert payload["predicted_cost"] == "1501/10"


def test_split_edge_taker_refuses_is_data(s32_path, capsys):
    # bias 10 cannot be persuaded onto (u, v) with three chunks
    code, out, _ = run(
        capsys,
        "split-edge",
        "-g",
        str(s32_path),
        "-e",
        "u,v",
        "--biases",
        "2,10",
        "--taker",
        "2",
        "-k",
        "3",
    )
    assert code == 1
    assert json.loads(out)["infeasible"] == "taker-refuses"


def test_cli_biases_are_order_insensitive(s32_path, capsys):
    _, a, _ = run(capsys, "chunk-graph", "-g", str(s32_path), "--biases", "2,10", "-k", "3")
    _, b, _ = run(capsys, "chunk-graph", "-g", str(s32_path), "--biases", "10,2", "-k", "3")
    assert a == b


def test_pair_plan_round_trip(s32_path, tmp_path, capsys):
    plan_path = tmp_path / "pair.json"
    code, _, _ = run(
        capsys,
        "chunk-graph",
        "-g",
        str(s32_path),
        "--biases",
        "2,10",
        "-k",
        "3",
        "-o",
        str(plan_path),
    )
    assert code == 0
    plan = json.loads(plan_path.read_text())
    _, out2, _ = run(
        capsys, "simulate", "-g", str(s32_path), "-b", "2", "--plan", str(plan_path)
    )
    _, out10, _ = run(
        capsys, "simulate", "-g", str(s32_path), "-b", "10", "--plan", str(plan_path)
    )
    assert json.loads(out2)["total"] == "741/10"
    assert json.loads(out10)["total"] == "76"
    totals = Fraction("741/10") + Fraction(76)
    assert Fraction(plan["predicted_cost"]) == totals


def test_verify_exit_code_on_violation(monkeypatch, capsys):
    import chunkwise.verify as v

    monkeypatch.setitem(
        v.SUITES, "edge-oracle", lambda **kw: (False, ["edge-oracle: forced failure"])
    )
    code, out, _ = run(capsys, "verify", "--suite", "edge-oracle", "--trials", "1")
    assert code == 1
    assert "[FAIL]" in out


def test_verify_sees_a_wrong_chain_vertex_distance(monkeypatch, capsys):
    # Mutation: a chain vertex's distance is min(through, outside + 1). The
    # graph-dp plans never reach a chain vertex whose way out is cheaper than
    # the rest of its chain; the edge-oracle suite's optimal chunkings do.
    import chunkwise.agent as agent
    import chunkwise.expansion as expansion
    import chunkwise.verify as v

    class MutatedView(expansion.PlanView):
        # The view keeps its distances as ints over view.scale.
        def __init__(self, g, dist, plan):
            super().__init__(g, dist, plan)
            d, f = self.scaled_for(self), self.scale // g.scale
            for (tail, head), chain in self.chains.items():
                outside = min(
                    (c * f + d[h] for h, c in g.scaled_out_edges(tail) if h != head),
                    default=None,
                )
                through = d[head]
                chunks = self._by_edge[(tail, head)].chunks
                for i in range(len(chain) - 2, 0, -1):
                    through += int(chunks[i] * self.scale)
                    d[chain[i]] = (
                        through if outside is None else min(through, outside + self.scale)
                    )

    for module in (expansion, agent, v):
        monkeypatch.setattr(module, "PlanView", MutatedView)
    code, out, _ = run(capsys, "verify", "--suite", "edge-oracle", "--seed", "0", "--trials", "25")
    assert code == 1
    assert out.startswith("[FAIL] edge-oracle: 25 comparisons, ")
    assert "at chain vertex" in out


def test_main_reuses_one_parser(s32_path, capsys, monkeypatch):
    # main parses with one parser per process and hands a known command's
    # arguments straight to that command's parser. Every argv must give the
    # Namespace, exit code and bytes that a freshly built full parser gives.
    import sys

    import chunkwise.cli as cli

    g = str(s32_path)
    valid = {
        "fan": ["-n", "3", "-c", "2"],
        "simulate": ["-g", g, "-b", "2"],
        "chunk-edge": ["-g", g, "-e", "u,v", "-b", "2", "-k", "3"],
        "chunk-graph": ["-g", g, "--biases", "2", "-k", "3"],
        "split-edge": ["-g", g, "-e", "u,v", "--biases", "2,10", "-k", "3"],
        "same-path-edge": ["-g", g, "-e", "u,v", "--biases", "2,10", "-k", "3"],
        "verify": ["--suite", "graph-dp", "--trials", "1"],
        "experiment": ["cost-ratio", "-b", "2", "-c", "2"],
    }
    assert set(valid) == set(cli._parser()[1])
    tails = [
        [],  # a valid call
        ["--sing"],  # an abbreviated option: --single-path on chunk-graph
        ["--graph=x"],
        ["--help"],
        ["--bogus"],  # an unknown option
        ["--mode", "sideways"],  # a bad choice on chunk-graph
        ["--taker", "3"],  # and on split-edge
        ["--"],
        ["--", "x"],
    ]
    argvs = [[], ["--help"], ["-h", "fan"], ["nope"], ["chunk"], ["--bogus", "fan"]]
    for name, args in valid.items():
        argvs.append([name])  # a missing required option, where one is required
        argvs += [[name, *args, *tail] for tail in tails]

    def parse(parse_args, argv):
        try:
            result = parse_args(argv)
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    for argv in argvs:
        fresh = parse(cli.build_parser().parse_args, argv)
        assert parse(cli._parse_args, argv) == fresh, argv
        with monkeypatch.context() as m:  # the console script's route, argv=None
            m.setattr(sys, "argv", ["chunkwise", *argv])
            assert parse(cli._parse_args, None) == fresh, argv
    # A valid call never reaches the full parser; leftover arguments get its
    # usage error.
    chunk_graph = ["chunk-graph", *valid["chunk-graph"]]
    with monkeypatch.context() as m:
        m.setattr(cli._parser()[0], "parse_args", None)
        assert cli._parse_args(chunk_graph).command == "chunk-graph"
    assert "chunkwise: error: unrecognized arguments: --bogus" in run(
        capsys, *chunk_graph, "--bogus"
    )[2]

    cases = [
        ("chunk-edge", "-g", g, "-e", "u,v", "-b", "2"),  # -k missing
        ("chunk-edge", "-g", g, "-e", "u,v", "-b", "2", "-k", "3"),
        ("--help",),
    ]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli._build_parsers)
        fresh = [run(capsys, *argv) for argv in cases]
    assert [code for code, _, _ in fresh] == [2, 0, 0]
    assert "required: -k" in fresh[0][2] and fresh[2][1].startswith("usage: chunkwise")
    for _ in range(3):
        assert [run(capsys, *argv) for argv in cases] == fresh
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    # The cached parser does not pin the command functions.
    monkeypatch.setattr(cli, "cmd_chunk_edge", lambda args: 7)
    assert run(capsys, *cases[1]) == (7, "", "")


_S32_EDGES = [
    ("u", "w", "65"), ("w", "t", "2"), ("u", "v", "14"),
    ("v", "t", "60.1"), ("u", "z", "0"), ("z", "t", "76"),
]
_DEAD_END_EDGES = [("s", "a", "1"), ("a", "t", "1"), ("s", "x", "1"), ("x", "y", "2")]
_MALFORMED_PLANS = {
    "unknown-edge": (
        ["u", "w", "v", "z", "t"], _S32_EDGES, [("u", "t", ["1"])],
        1, '{\n  "error": "UnknownEdge",\n  "message": "edge (u -> t) does not exist"\n}\n', "",
    ),
    "bad-sum": (
        ["u", "w", "v", "z", "t"], _S32_EDGES, [("u", "v", ["7", "6"])],
        2, "", "error: chunking of ('u', 'v') sums to 13, edge costs 14\n",
    ),
    "chain-name-collides": (
        ["u", "w", "v", "z", "t", "u>v#1"], _S32_EDGES + [("u>v#1", "t", "1")],
        [("u", "v", ["7", "7"])],
        2, "", "error: synthesized chain vertex 'u>v#1' collides\n",
    ),
    "sink-unreachable": (
        ["s", "a", "x", "y", "t"], _DEAD_END_EDGES, [("x", "y", ["1", "1"])],
        1,
        '{\n  "error": "SinkUnreachable",\n'
        '  "message": "no path to sink from: x, y, x>y#1"\n}\n',
        "",
    ),
    "plan-error-before-graph-error": (
        ["s", "a", "x", "y", "t"], _DEAD_END_EDGES,
        [("x", "y", ["1", "1"]), ("s", "t", ["1"])],
        1, '{\n  "error": "UnknownEdge",\n  "message": "edge (s -> t) does not exist"\n}\n', "",
    ),
    "cycle": (
        ["s", "a", "b", "t"], [("s", "a", "1"), ("a", "b", "2"), ("b", "a", "1"), ("a", "t", "1")],
        [("a", "b", ["1", "1"])],
        1,
        '{\n  "error": "CycleDetected",\n'
        '  "message": "cycle detected through back edge (a -> a>b#1)"\n}\n',
        "",
    ),
    # A dict is the whole plan payload. These shapes used to escape as a
    # TypeError traceback (exit 1), or, for "14", to parse as chunks 1 and 4.
    "chunkings-not-a-list": (
        ["u", "w", "v", "z", "t"], _S32_EDGES, {"chunkings": 5},
        2, "", "error: plan.chunkings: expected a list, got 5\n",
    ),
    "chunks-a-string": (
        ["u", "w", "v", "z", "t"], _S32_EDGES,
        {"chunkings": [{"from": "u", "to": "v", "chunks": "14"}]},
        2, "", "error: plan.chunkings[0]: expected a list, got '14'\n",
    ),
    "planned-paths-not-a-list": (
        ["u", "w", "v", "z", "t"], _S32_EDGES, {"chunkings": [], "planned_paths": 5},
        2, "", "error: plan.planned_paths: expected a list, got 5\n",
    ),
    # mode and k used to be echoed back whatever their type.
    "mode-a-number": (
        ["u", "w", "v", "z", "t"], _S32_EDGES, {"chunkings": [], "mode": 5},
        2, "", "error: plan.mode: expected 'local' or 'global', got 5\n",
    ),
    "k-a-string": (
        ["u", "w", "v", "z", "t"], _S32_EDGES, {"chunkings": [], "k": "x"},
        2, "", "error: plan.k: expected an integer >= 0, got 'x'\n",
    ),
    "k-a-bool": (
        ["u", "w", "v", "z", "t"], _S32_EDGES, {"chunkings": [], "k": True},
        2, "", "error: plan.k: expected an integer >= 0, got True\n",
    ),
    "float-predicted-cost": (
        ["u", "w", "v", "z", "t"], _S32_EDGES, {"chunkings": [], "predicted_cost": 1.5},
        2, "", "error: plan.predicted_cost: cannot interpret 1.5 as an exact rational\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_PLANS))
def test_simulate_malformed_plan_bytes(case, tmp_path, capsys):
    # Pinned from the route that expands the plan into a graph: a plan error
    # comes first, then the graph's own, naming the expanded graph's vertices.
    vertices, edges, chunkings, code, out, err = _MALFORMED_PLANS[case]
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({
        "vertices": vertices,
        "edges": [{"from": u, "to": v, "cost": c} for u, v, c in edges],
        "source": vertices[0],
        "sink": "t",
    }))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(chunkings if isinstance(chunkings, dict) else {"chunkings": [
        {"from": u, "to": v, "chunks": chunks} for u, v, chunks in chunkings
    ]}))
    assert run(capsys, "simulate", "-g", str(graph), "-b", "2", "--plan", str(plan)) == (
        code, out, err
    )
