import json
import logging
from fractions import Fraction
from pathlib import Path

import pytest

import credal as cr
from credal import cli
from credal.cli import main
from credal.problemfile import ProblemFileError, load_problem, state_key

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
SHAPE = str(PROBLEMS / "shape_color.json")
COIN = str(PROBLEMS / "coin.json")
THREE = str(PROBLEMS / "three_table.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestProblemFile:
    def test_shape_color_round_trip(self):
        pf = load_problem(SHAPE)
        assert pf.space.names == ("C", "S")
        assert pf.problem.actions == ("a_BS", "a_BC", "a_WS", "a_WC")
        assert pf.credal.marginal_model is not None

    def test_float_literal_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"variables": {"x": ["a", "b"]}, "actions": ["a1"],'
            ' "utilities": {"a1": {"a": 0.5, "b": "1"}}}'
        )
        with pytest.raises(ProblemFileError):
            load_problem(str(bad))

    def test_missing_section(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"actions": []}')
        with pytest.raises(ProblemFileError):
            load_problem(str(bad))

    @pytest.mark.parametrize("edit", [
        lambda raw: raw["constraints"]["intervals"].update(H=["0.4", "0.5", "0.6"]),
        lambda raw: raw.update(variables=[["coin", ["H", "T"]]]),
        lambda raw: [raw],
        # would otherwise be read as the two actions "a" and "1"
        lambda raw: raw.update(actions="a1", utilities={
            "a": raw["utilities"]["a1"], "1": raw["utilities"]["a2"]}),
        lambda raw: raw.update(variables={"coin": "HT"}),
        lambda raw: raw.update(utilities=[raw["utilities"]]),
        lambda raw: raw["utilities"].update(a1=["1000", "-995"]),
        lambda raw: raw.update(target_variables="coin"),
        # would otherwise leave K the full simplex
        lambda raw: raw.update(constraints={"interval": raw["constraints"]["intervals"]}),
        # would otherwise be read as the chain T >= H
        lambda raw: raw["constraints"].update(ordering="TH"),
        lambda raw: raw["utilities"].update(a4={"H": "1", "T": "1"}),
        lambda raw: raw.update(actions=[["a1"], "a2", "a3"]),
        lambda raw: raw.update(target_variables=[["coin"]]),
        lambda raw: raw.update(variables={"coin": [["H"], "T"]}),
        lambda raw: raw["constraints"].update(ordering=[["H"]]),
        lambda raw: raw["constraints"].update(intervals=["0.1"]),
        # would otherwise be read as the block {c}
        lambda raw: raw.update(variables={"c": ["H", "T"]}, constraints={
            "marginals": [{"block": "c", "table": {"H": "0.5", "T": "0.5"}}]}),
        # would otherwise be read as [0, 1]
        lambda raw: raw["constraints"]["intervals"].update(H="01"),
        # would otherwise give the state (H, 1) with an integer value
        lambda raw: raw.update(variables={"coin": ["H", "T"], "side": ["up", 1]},
                               target_variables=["coin"], constraints={}),
        lambda raw: raw.update(constraints={
            "marginals": [{"block": ["coin"], "table": ["0.5", "0.5"]}]}),
        lambda raw: raw.update(constraints={
            "linear": [{"coefficients": ["1", "0"], "relation": "<=", "rhs": "1"}]}),
    ], ids=["interval-3-elements", "variables-list", "top-level-array", "actions-string",
            "values-string", "utilities-list", "utility-row-list", "target-string",
            "unknown-section", "ordering-string", "undeclared-action-row",
            "actions-nested", "target-nested", "values-nested", "ordering-nested",
            "intervals-list", "block-string", "interval-string", "values-integer",
            "table-list", "coefficients-list"])
    def test_malformed_shape_rejected(self, capsys, tmp_path, edit):
        raw = json.loads(Path(COIN).read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(raw) or raw))
        with pytest.raises(ProblemFileError):
            load_problem(str(bad))
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1
        assert err.startswith("error:")


    @pytest.mark.parametrize("old, new, key", [
        ('{"B,S": "10"', '{"B,S": "1", "B,S": "10"', "B,S"),
        ('{"C": ["B", "W"]', '{"C": ["X", "Y"], "C": ["B", "W"]', "C"),
        ('{"B": "0.7"', '{"B": "0.2", "B": "0.7"', "B"),
    ], ids=["utility-state", "variable", "table-cell"])
    def test_duplicate_key_rejected(self, capsys, tmp_path, old, new, key):
        text = Path(SHAPE).read_text()
        assert old in text
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace(old, new, 1))
        with pytest.raises(ProblemFileError, match=f"duplicate key '{key}'"):
            load_problem(str(bad))
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1 and err == f"error: duplicate key '{key}'\n"

    def test_comma_in_value_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "variables": {"X": ["a,b", "c"]}, "actions": ["u"],
            "utilities": {"u": {"a,b": "1", "c": "2"}}}))
        with pytest.raises(ProblemFileError, match="value 'a,b' of variable 'X'"):
            load_problem(str(bad))
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1 and "'a,b'" in err

    def test_every_state_key_round_trips(self, tmp_path):
        # "" is a value name like any other, in one variable or several
        space = cr.VariableSpace([("X", ["", "c"]), ("Y", ["d", ""])])
        for names in (["X"], ["X", "Y"]):
            states = space.subspace(names).states
            doc = {"variables": dict(space.variables), "target_variables": names,
                   "actions": ["u"],
                   "utilities": {"u": {state_key(s): str(j) for j, s in enumerate(states)}}}
            path = tmp_path / "p.json"
            path.write_text(json.dumps(doc))
            assert load_problem(str(path)).problem.utilities == (tuple(range(len(states))),)

    def test_empty_value_addressable(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "variables": {"X": ["", "c"]}, "actions": ["u"],
            "utilities": {"u": {"": "1", "c": "2"}},
            "constraints": {"intervals": {"": ["1/2", "1"]}}}))
        code, out, _ = run(capsys, "intervals", str(path))
        assert code == 0
        assert out == "U(u) = [1 (1.000000), 3/2 (1.500000)]\n"


class TestCheck:
    def test_shape_color_consistent(self, capsys):
        code, out, _ = run(capsys, "check", SHAPE)
        assert code == 0
        assert out.startswith("consistent")

    def test_contradictory_marginals_exit_2(self, capsys, tmp_path):
        raw = json.loads(Path(SHAPE).read_text())
        # p(BS) <= p(S-column total) = 0.6, so a 0.65 floor is infeasible
        raw["constraints"]["intervals"] = {"B,S": ["0.65", "1"]}
        f = tmp_path / "contradiction.json"
        f.write_text(json.dumps(raw))
        code, out, _ = run(capsys, "check", str(f))
        assert code == 2

    def test_interval_floor_on_marginals_exit_2(self, capsys, tmp_path):
        raw = json.loads(Path(THREE).read_text())
        # p(C=B) = 0.7 in the tables, so this floor empties K
        raw["constraints"]["intervals"] = {"B,A,S,L,L,L": ["0.9", "1"]}
        f = tmp_path / "three_intervals.json"
        f.write_text(json.dumps(raw))
        code, out, _ = run(capsys, "check", str(f))
        assert code == 2

    def test_no_constraints_is_full_simplex(self, capsys, tmp_path):
        raw = json.loads(Path(COIN).read_text())
        del raw["constraints"]
        f = tmp_path / "vacuous.json"
        f.write_text(json.dumps(raw))
        code, out, _ = run(capsys, "check", str(f))
        assert code == 0


class TestIntervals:
    def test_shape_color_golden(self, capsys):
        code, out, _ = run(capsys, "intervals", SHAPE)
        assert code == 0
        assert "U(a_BS) = [-1/2 (-0.500000), 4 (4.000000)]" in out
        assert "U(a_WS) = [-50 (-50.000000), 127 (127.000000)]" in out

    def test_three_table_uses_projection(self, capsys):
        code, out, _ = run(capsys, "intervals", THREE)
        assert code == 0
        assert "U(a_WS) = [9 (9.000000), 127 (127.000000)]" in out
        assert "U(a_BC) = [6/5 (1.200000), 17/5 (3.400000)]" in out

    def test_json_round_trips_to_library_values(self, capsys, shape_color):
        _, _, _, k, dp = shape_color
        code, out, _ = run(capsys, "intervals", SHAPE, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        expected = cr.utility_intervals(dp, k)
        for entry, iv in zip(doc["intervals"], expected):
            assert entry["action"] == iv.action
            assert Fraction(entry["lo"]) == iv.lo
            assert Fraction(entry["hi"]) == iv.hi

    @pytest.mark.parametrize("argv", [["intervals"], ["decide", "--criterion", "gm"]],
                             ids=["intervals", "decide-gm"])
    def test_target_with_other_sections_refused(self, capsys, tmp_path, argv):
        raw = json.loads(Path(THREE).read_text())
        # p(C=B) = 0.7 in the tables, so this floor empties K (check exits 2)
        raw["constraints"]["intervals"] = {"B,A,S,L,L,L": ["0.9", "1"]}
        f = tmp_path / "three_intervals.json"
        f.write_text(json.dumps(raw))
        code, out, err = run(capsys, argv[0], str(f), *argv[1:])
        assert code == 1
        assert out == ""
        assert "target_variables" in err and "marginal tables" in err

    def test_inconsistent_projected_tables_exit_2(self, capsys, tmp_path):
        raw = json.loads(Path(THREE).read_text())
        # p(M=A) = 0.5 here but 0.8 in the {M, S, D} table
        raw["constraints"]["marginals"][0]["table"] = {
            "B,A": "0.3", "B,P": "0.2", "W,A": "0.2", "W,P": "0.3"}
        f = tmp_path / "three_inconsistent.json"
        f.write_text(json.dumps(raw))
        code, out, err = run(capsys, "intervals", str(f))
        assert code == 2
        assert err.startswith("inconsistent:")

    def test_byte_deterministic(self, capsys):
        _, first, _ = run(capsys, "intervals", SHAPE, "--format", "json")
        _, second, _ = run(capsys, "intervals", SHAPE, "--format", "json")
        assert first == second


class TestDecide:
    @pytest.mark.parametrize(
        "path,criterion,expected",
        [
            (COIN, "gm", "a3"),
            (SHAPE, "pme", "a_WS"),
            (SHAPE, "gm", "a_BC"),
            (COIN, "levi", "a1"),
            (COIN, "regret", "a3"),
            (COIN, "maximin", "a3"),
        ],
    )
    def test_choices(self, capsys, path, criterion, expected):
        code, out, _ = run(capsys, "decide", path, "--criterion", criterion)
        assert code == 0
        assert out.splitlines()[0] == f"chosen: {expected}  [{criterion}]"

    def test_gh_needs_alpha(self, capsys):
        code, _, err = run(capsys, "decide", COIN, "--criterion", "gh")
        assert code == 1
        assert "alpha" in err

    def test_gh_with_alpha(self, capsys):
        code, out, _ = run(capsys, "decide", COIN, "--criterion", "gh",
                           "--alpha", "1/2")
        assert code == 0

    @pytest.mark.parametrize(
        "criterion", [name for name, (needs_alpha, _) in cli.CRITERIA.items() if not needs_alpha]
    )
    def test_alpha_refused_where_unused(self, capsys, criterion):
        code, out, err = run(capsys, "decide", COIN, "--criterion", criterion, "--alpha", "7")
        assert code == 1 and out == ""
        assert err == f"error: criterion '{criterion}' takes no --alpha\n"

    def test_target_projected_gm(self, capsys):
        code, out, _ = run(capsys, "decide", THREE, "--criterion", "gm")
        assert code == 0
        assert out.splitlines()[0] == "chosen: a_WS  [gm]"


class TestMaxent:
    def test_shape_color(self, capsys):
        code, out, _ = run(capsys, "maxent", SHAPE)
        assert code == 0
        assert "p*(B,S) = 21/50 (0.420000)" in out
        assert "iterations = 1" in out

    def test_interval_file_rejected(self, capsys):
        code, _, err = run(capsys, "maxent", COIN)
        assert code == 1

    def test_no_convergence_is_not_inconsistency(self, capsys, tmp_path, monkeypatch):
        # consistent tables of a 3-cycle, which IPF fits only in the limit
        space = cr.VariableSpace([(v, "01") for v in "abc"])
        p = cr.Distribution(space, [Fraction(w, 36) for w in range(1, 9)])
        marginals = [
            {"block": list(b), "table": {state_key(s): str(m) for s, m in
                                         cr.project(p, b).as_dict().items()}}
            for b in ("ab", "bc", "ac")
        ]
        f = tmp_path / "cycle.json"
        f.write_text(json.dumps({
            "variables": dict(space.variables), "actions": ["u"],
            "utilities": {"u": {state_key(s): "0" for s in space.states}},
            "constraints": {"marginals": marginals}}))
        monkeypatch.setattr(cr.maxent, "MAX_SWEEPS", 2)
        assert run(capsys, "check", str(f))[0] == 0
        code, _, err = run(capsys, "maxent", str(f))
        assert code == 3
        assert "no convergence" in err and not err.startswith("inconsistent:")


class TestReduce:
    def test_three_table(self, capsys):
        code, out, _ = run(capsys, "reduce", THREE)
        assert code == 0
        assert out.splitlines()[0] == "W = {{C,M}, {M,S}}"

    def test_with_intervals_flag(self, capsys):
        code, out, _ = run(capsys, "reduce", THREE, "--intervals")
        assert code == 0
        assert "U'(a_WS) = [9 (9.000000), 127 (127.000000)]" in out

    def test_second_paper_example(self, capsys, tmp_path):
        raw = {
            "variables": {v: ["0", "1"] for v in "ABCDEFGHM"},
            "actions": ["pick"],
            "utilities": {"pick": {"0,0,0": "1", "0,0,1": "0", "0,1,0": "0",
                                   "0,1,1": "0", "1,0,0": "0", "1,0,1": "0",
                                   "1,1,0": "0", "1,1,1": "0"}},
            "constraints": {"marginals": [
                {"block": ["A", "D"],
                 "table": {"0,0": "0.25", "0,1": "0.25", "1,0": "0.25", "1,1": "0.25"}},
                {"block": ["D", "B", "M"],
                 "table": {"0,0,0": "0.5", "0,0,1": "0", "0,1,0": "0", "0,1,1": "0",
                           "1,0,0": "0.5", "1,0,1": "0", "1,1,0": "0", "1,1,1": "0"}},
                {"block": ["E", "F", "G", "H", "M"],
                 "table": {",".join(bits): ("1" if bits == ("0",) * 5 else "0")
                           for bits in __import__("itertools").product("01", repeat=5)}}
            ]},
            "target_variables": ["A", "B", "C"],
        }
        f = tmp_path / "second.json"
        f.write_text(json.dumps(raw))
        code, out, _ = run(capsys, "reduce", str(f))
        assert code == 0
        assert out.splitlines()[0] == "W = {{A,D}, {B,D}}"

    def test_target_equal_to_block(self, capsys, tmp_path):
        raw = json.loads(Path(THREE).read_text())
        raw["target_variables"] = ["C", "M"]
        raw["utilities"] = {"pick": {"B,A": "1", "B,P": "0", "W,A": "0", "W,P": "0"}}
        raw["actions"] = ["pick"]
        f = tmp_path / "block_target.json"
        f.write_text(json.dumps(raw))
        code, out, _ = run(capsys, "reduce", str(f))
        assert code == 0
        assert out.splitlines()[0] == "W = {{C,M}}"


class TestAdmissible:
    def test_coin_witnesses(self, capsys):
        code, out, _ = run(capsys, "admissible", COIN, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        entries = {e["action"]: e["witness"] for e in doc["e_admissible"]}
        assert set(entries) == {"a1", "a2"}
        assert Fraction(entries["a1"]["H"]) == Fraction(3, 5)
        assert Fraction(entries["a2"]["H"]) == Fraction(2, 5)

    def test_single_action_always_admissible(self, capsys, tmp_path):
        raw = json.loads(Path(COIN).read_text())
        raw["actions"] = ["a1"]
        raw["utilities"] = {"a1": raw["utilities"]["a1"]}
        f = tmp_path / "single.json"
        f.write_text(json.dumps(raw))
        code, out, _ = run(capsys, "admissible", str(f), "--format", "json")
        assert code == 0
        assert [e["action"] for e in json.loads(out)["e_admissible"]] == ["a1"]

    def test_empty_k_exit_2(self, capsys, tmp_path):
        raw = json.loads(Path(COIN).read_text())
        # p(T) >= 0.7 forces p(H) <= 0.3, below the file's floor of 0.4
        raw["constraints"]["intervals"]["T"] = ["0.7", "1"]
        f = tmp_path / "empty.json"
        f.write_text(json.dumps(raw))
        code, out, _ = run(capsys, "admissible", str(f))
        assert code == 2

    def test_matches_library_call(self, capsys, shape_color):
        _, _, _, k, dp = shape_color
        code, out, _ = run(capsys, "admissible", SHAPE, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [e["action"] for e in doc["e_admissible"]] == cr.e_admissible(dp, k)


class TestUsage:
    def test_log_variable_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("CREDAL_LOG", "bogus")
        # without pytest's capture handler, so a logging setup would still run
        monkeypatch.setattr(logging.root, "handlers", [])
        assert main(["check", COIN]) == 0

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate", COIN)
        assert code == 1

    def test_missing_file(self, capsys):
        code = main(["check", "/nonexistent.json"])
        assert code == 1

    @pytest.mark.parametrize("content", [
        pytest.param(b'{"variables": {"x": ["\xff"]}}', id="not-utf8"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="deep-array"),
    ])
    def test_unreadable_file_exit_1(self, capsys, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        with pytest.raises(ProblemFileError):
            load_problem(str(bad))
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1 and err.startswith("error: invalid JSON")

    def test_internal_fault_exit_3(self, capsys, monkeypatch):
        def fault(pf, args):
            raise MemoryError
        monkeypatch.setitem(cli.COMMANDS, "check", fault)
        code, out, err = run(capsys, "check", COIN)
        assert code == 3
        assert err == "internal error: MemoryError()\n" and out == ""
