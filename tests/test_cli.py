"""The command-line front end, driven in process through main(argv).

Every subcommand gets one --json invocation validated against its published
schema, plus coverage of all four exit codes: 0 confirmed, 1 refuted,
2 input error, 3 cap refusal or undecided.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from modalbench.cli import main
from modalbench.schemas import SCHEMAS, schema_for

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    assert err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, schema_for(argv[0]))
    return code, payload


def test_every_record_schema_requires_exactly_its_properties():
    records = [*SCHEMAS.values(), SCHEMAS["chains"]["properties"]["frames"]["items"]]
    for schema in records:
        assert schema == {"type": "object", "required": list(schema["properties"]),
                          "properties": schema["properties"],
                          "additionalProperties": False}
        assert list(schema) == ["type", "required", "properties", "additionalProperties"]


class TestEval:
    def test_globally_true_formula(self, capsys):
        code, out, _ = run(capsys, ["eval", "--frame", "chain:3",
                                    "--formula", "<>x | x", "--val", '{"x": [2]}'])
        assert code == 0
        assert out == "holds at worlds [0, 1, 2] (globally)\n"

    def test_json_payload(self, capsys):
        code, payload = run_json(capsys, ["eval", "--frame", "chain:3",
                                          "--formula", "x", "--val", '{"x": [1]}'])
        assert code == 1
        assert payload == {"formula": "x", "worlds": [1], "holds_globally": False}

    def test_valuation_from_file(self, capsys, tmp_path):
        path = tmp_path / "val.json"
        path.write_text('{"x": [0]}')
        code, payload = run_json(capsys, ["eval", "--frame", "chain:2",
                                          "--formula", "x", "--val", f"@{path}"])
        assert (code, payload["worlds"]) == (1, [0])

    def test_frame_from_file(self, capsys, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text('{"worlds": 2, "edges": [[0, 1]]}')
        code, payload = run_json(capsys, ["eval", "--frame", str(path),
                                          "--formula", "[]F"])
        assert (code, payload["worlds"]) == (1, [1])  # only the endpoint is blind


class TestCheckValid:
    def test_valid_statement(self, capsys):
        code, payload = run_json(capsys, ["check-valid", "--frame", "chain:3",
                                          "--stmt", "x <= x"])
        assert code == 0
        assert payload["verdict"] == "valid"
        assert payload["valuations_tried"] == 8
        assert payload["exhaustive"] is True

    def test_countermodel(self, capsys):
        code, payload = run_json(capsys, ["check-valid", "--frame", "chain:3",
                                          "--stmt", "x <= []x"])
        assert code == 1
        assert payload["verdict"] == "countermodel"
        assert payload["valuation"] is not None

    def test_reflexive_spec_changes_the_verdict(self, capsys):
        code, _ = run_json(capsys, ["check-valid", "--frame", "chain:3:refl=0,1,2",
                                    "--stmt", "[]x <= x"])
        assert code == 0

    def test_over_cap_refusal(self, capsys):
        code, _, err = run(capsys, ["check-valid", "--frame", "chain:9",
                                    "--stmt", "tpow(1) = tpow(2)"])
        assert code == 3
        assert err.startswith("refused:")

    def test_sampling_finds_the_chain_counterexample(self, capsys):
        code, payload = run_json(capsys, ["check-valid", "--frame", "chain:9",
                                          "--stmt", "tpow(1) = tpow(2)", "--sample"])
        assert code == 1
        assert payload["verdict"] == "countermodel"
        assert payload["exhaustive"] is False

    def test_sampling_cannot_conclude_valid(self, capsys):
        code, payload = run_json(capsys, ["check-valid", "--frame", "chain:9",
                                          "--stmt", "x <= x", "--vars", "x,y,z",
                                          "--sample", "32"])
        assert code == 3
        assert payload["verdict"] == "unknown"
        assert payload["valuations_tried"] == 32


class TestLemmaAndChains:
    def test_lemma_certificate(self, capsys):
        code, payload = run_json(capsys, ["lemma", "--n", "1"])
        assert code == 0
        assert payload["valid"] is True
        assert payload["worlds"] == 3
        assert payload["claim_table"]["0"] == [0, 2]

    def test_lemma_table_rendering(self, capsys):
        code, out, _ = run(capsys, ["lemma", "--n", "1", "--refl", "0"])
        assert code == 0
        assert "t^0" in out and "certificate valid: True" in out

    def test_chains_listing(self, capsys):
        code, payload = run_json(capsys, ["chains", "--size", "2"])
        assert code == 0
        assert payload["count"] == 4
        assert len(payload["frames"]) == 4


class TestTransitivity:
    def test_transitive_chain(self, capsys):
        code, payload = run_json(capsys, ["transitivity", "--frame", "chain:3",
                                          "--max", "4"])
        assert (code, payload["degree"]) == (0, 1)

    def test_no_degree_within_bound(self, capsys, tmp_path):
        path = tmp_path / "path.json"
        path.write_text('{"worlds": 3, "edges": [[0, 1], [1, 2]]}')
        code, payload = run_json(capsys, ["transitivity", "--frame", str(path),
                                          "--max", "1"])
        assert (code, payload["degree"]) == (1, None)


class TestFixpoint:
    def test_reachability_orbit(self, capsys):
        code, payload = run_json(capsys, ["fixpoint", "--frame", "chain:3",
                                          "--term", "<>x | x", "--pivot", "x",
                                          "--base", "2"])
        assert code == 0
        assert payload == {"index": 1, "fixpoint": [0, 1, 2],
                           "orbit": [[2], [0, 1, 2]]}

    def test_non_increasing_term_is_an_input_error(self, capsys):
        code, _, err = run(capsys, ["fixpoint", "--frame", "chain:3",
                                    "--term", "[]x", "--pivot", "x"])
        assert code == 2
        assert err.startswith("error:")


class TestConsequence:
    def test_holds(self, capsys):
        code, payload = run_json(capsys, ["consequence", "--frame", "chain:2",
                                          "--frame", "chain:2:refl=0",
                                          "--premise", "x <= y",
                                          "--conclusion", "x <= y"])
        assert code == 0
        assert payload["holds"] is True and payload["complete"] is False

    def test_countermodel(self, capsys):
        code, payload = run_json(capsys, ["consequence", "--frame", "chain:2",
                                          "--premise", "y <= x",
                                          "--conclusion", "x <= y"])
        assert code == 1
        assert payload["holds"] is False
        assert payload["frame_index"] == 0
        assert isinstance(payload["failure_world"], int)

    def test_budget_refusal(self, capsys):
        code, _, err = run(capsys, ["consequence", "--frame", "chain:9",
                                    "--conclusion", "tpow(1) = tpow(2)"])
        assert code == 3
        assert "budget" in err


class TestStabilize:
    def test_diamond_on_all_chains(self, capsys):
        code, payload = run_json(capsys, ["stabilize", "--all-chains", "3",
                                          "--term", "<>x | x", "--pivot", "x",
                                          "--max", "2"])
        assert (code, payload["index"]) == (0, 1)

    def test_chain_step_does_not_stabilize_early(self, capsys):
        code, payload = run_json(capsys, ["stabilize", "--all-chains", "3",
                                          "--term", "tpow(1)", "--pivot", "x",
                                          "--max", "1"])
        assert (code, payload["index"]) == (1, None)

    def test_sampling_cannot_certify(self, capsys):
        code, _, err = run(capsys, ["stabilize", "--frame", "chain:13",
                                    "--term", "tpow(1)", "--pivot", "x",
                                    "--max", "7", "--sample", "64"])
        assert code == 3
        assert "cannot certify" in err

    def test_no_frames_is_an_input_error(self, capsys):
        code, _, err = run(capsys, ["stabilize", "--term", "x", "--pivot", "x",
                                    "--max", "1"])
        assert code == 2
        assert "no frames" in err


class TestInputErrors:
    @pytest.mark.parametrize("spec", ["chain:x", "chain:3:rofl=1", "chain:3:refl=a"])
    def test_bad_frame_specs(self, capsys, spec):
        code, _, err = run(capsys, ["eval", "--frame", spec, "--formula", "x"])
        assert code == 2
        assert err.startswith("error:")

    def test_bad_inline_valuation(self, capsys):
        code, _, err = run(capsys, ["eval", "--frame", "chain:2",
                                    "--formula", "x", "--val", "{x}"])
        assert code == 2
        assert "bad valuation JSON" in err

    def test_missing_valuation_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["eval", "--frame", "chain:2", "--formula", "x",
                                  "--val", f"@{tmp_path}/absent.json"])
        assert code == 2

    def test_formula_parse_error(self, capsys):
        code, _, err = run(capsys, ["eval", "--frame", "chain:2", "--formula", "x |"])
        assert code == 2
        assert "error:" in err and "column 4" in err

    def test_no_subcommand_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_flag_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["chains", "--size", "2", "--frobnicate"])
        assert info.value.code == 2


class TestDeepInput:
    """Inputs deep enough to exhaust Python's recursion limit get an answer
    or a clean refusal, never a traceback."""

    def test_check_valid_on_a_deep_macro(self, capsys):
        code, payload = run_json(capsys, ["check-valid", "--frame", "chain:1",
                                          "--stmt", "tpow(150) = x"])
        assert code in (0, 1)
        assert payload["verdict"] in ("valid", "countermodel")

    @pytest.mark.parametrize("formula", ["~" * 1000 + "x", "[]" * 1000 + "x",
                                         "<>" * 1000 + "x", " -> ".join(["x"] * 1000)])
    def test_long_operator_runs_evaluate(self, capsys, formula):
        code, payload = run_json(capsys, ["eval", "--frame", "chain:2",
                                          "--formula", formula, "--val", '{"x": [1]}'])
        assert code in (0, 1)
        assert payload["holds_globally"] == (code == 0)

    def test_deep_parentheses_are_an_input_error(self, capsys):
        code, _, err = run(capsys, ["eval", "--frame", "chain:2",
                                    "--formula", "(" * 400 + "x" + ")" * 400])
        assert code == 2
        assert err.startswith("error:") and "column 101" in err

    def test_chain_spec_past_the_world_cap_is_refused(self, capsys):
        code, out, err = run(capsys, ["eval", "--frame", "chain:100",
                                      "--formula", "x", "--json"])
        assert code == 3
        assert out == "" and err.startswith("refused:")


class TestRefusedInputs:
    """Inputs that once escaped as tracebacks (exit 1) or as a wrong verdict."""

    @pytest.mark.parametrize("argv", [
        ["fixpoint", "--frame", "chain:2", "--term", "<>x|x", "--pivot", "x", "--base=-1"],
        ["eval", "--frame", "chain:2", "--formula", "x", "--val", '{"x": [100000000]}'],
        ["chains", "--size=-1"],
        ["stabilize", "--all-chains=-1", "--term", "x", "--pivot", "x", "--max", "1"],
        ["check-valid", "--frame", "chain:2", "--stmt", "x = F", "--vars", "y"],
        ["check-valid", "--frame", "chain:2", "--stmt", "x = F", "--vars", "x,x"],
        ["eval", "--frame", "no-such-frame.json", "--formula", "x"],
        ["eval", "--frame", ".", "--formula", "x"],
        ["check-valid", "--frame", "chain:2", "--stmt", "x = x", "--vars", "x,,X"],
        ["check-valid", "--frame", "chain:9", "--stmt", "tpow(1) = tpow(2)", "--sample=-3"],
        ["stabilize", "--all-chains", "2", "--term", "<>x|x", "--pivot", "x", "--max=-1",
         "--json"],
        ["check-valid", "--frame", "chain:2", "--stmt", "x = x", "--cap=-3"],
        ["check-valid", "--frame", "chain:9", "--stmt", "x = x", "--cap=-3", "--sample"],
        ["stabilize", "--all-chains", "2", "--term", "<>x|x", "--pivot", "x", "--max", "1",
         "--cap=-1"],
        ["consequence", "--frame", "chain:2", "--conclusion", "x <= x", "--budget=-1"],
        ["eval", "--frame", "chain:2", "--formula", "x", "--val", '{"x": [true]}'],
        ["eval", "--frame", "bool-frame.json", "--formula", "x"],
        ["fixpoint", "--frame", "chain:2", "--term", "<>x|x", "--pivot", "x",
         "--params", '{"y": [true]}'],
    ])
    def test_input_error(self, capsys, monkeypatch, tmp_path, argv):
        frame = '{"worlds": true, "edges": [[false, false]]}'
        (tmp_path / "bool-frame.json").write_text(frame)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("argv, message", [
        (["fixpoint", "--frame", "chain:2", "--term", "<>x|x", "--pivot", "x",
          "--params", '{"q": [5]}'], "parameter 'q' mentions worlds outside the frame"),
        (["fixpoint", "--frame", "chain:2", "--term", "tpow(2)", "--pivot", "X"],
         "variable names match [a-z][a-z0-9_]*, got 'X'"),
        (["stabilize", "--frame", "chain:2", "--term", "<>x|x", "--pivot", "X", "--max", "2"],
         "variable names match [a-z][a-z0-9_]*, got 'X'"),
    ])
    def test_pivots_and_parameters_are_checked_first(self, capsys, argv, message):
        # once answered with exit 0, blamed the term, or warned that the
        # pivot does not occur before refusing its name
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == "" and err == f"error: {message}\n"

    def test_refusal_names_the_first_variable_under_every_hash_seed(self):
        # two out-of-frame names, iterated from a set: the message must not
        # depend on PYTHONHASHSEED
        argvs = [["eval", "--frame", "chain:2", "--formula", "x",
                  "--val", '{"q": [5], "z": [5]}'],
                 ["fixpoint", "--frame", "chain:2", "--term", "<>x | x | y | z",
                  "--pivot", "x", "--params", '{"y": [5], "z": [5]}']]
        script = ("import json, sys; from modalbench.cli import main; "
                  "[main(argv) for argv in json.loads(sys.argv[1])]")
        messages = set()
        for seed in range(6):
            env = {**os.environ, "PYTHONHASHSEED": str(seed),
                   "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
            proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                                  capture_output=True, text=True, env=env, check=True)
            messages.add(proc.stderr)
        assert messages == {"error: valuation of 'q' mentions worlds outside the frame\n"
                            "error: parameter 'y' mentions worlds outside the frame\n"}


@pytest.mark.parametrize("n", ["-1", "0"])
def test_lemma_refuses_n_below_one(capsys, n):
    # --n -1 was refused as a negative chain size, unlike --n 0
    code, out, err = run(capsys, ["lemma", "--n", n])
    assert code == 2
    assert out == "" and err == "error: the construction needs n >= 1\n"


def test_only_valuation_scans_load_numpy():
    # a fresh interpreter, so sys.modules holds only what these calls import
    argvs = [["eval", "--frame", "chain:3", "--formula", "<>x", "--val", '{"x": [2]}'],
             ["lemma", "--n", "2", "--refl", "0"],
             ["chains", "--size", "2"],
             ["transitivity", "--frame", "chain:3:refl=1", "--max", "3"],
             ["fixpoint", "--frame", "chain:3", "--term", "<>x|x", "--pivot", "x",
              "--base", "2"],
             ["check-valid", "--frame", "chain:2", "--stmt", "x <= <>x | x"]]
    script = """if True:
        import json, sys
        import modalbench
        from modalbench.cli import main
        assert modalbench.SpaceEvaluator is modalbench.vector.SpaceEvaluator
        assert modalbench.first_countermodel is modalbench.vector.first_countermodel
        loaded = ["numpy" in sys.modules]
        for argv in json.loads(sys.argv[1]):
            loaded.append([main(argv + ["--json"]), "numpy" in sys.modules])
        print(json.dumps(loaded))
    """
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        False, [1, False], [0, False], [0, False], [0, False], [0, False], [0, True]]


@pytest.mark.parametrize("argv, message", [
    (["eval", "--frame", "chain:2", "--formula", "x"],
     "variable 'x' not in valuation, treating as empty set"),
    (["stabilize", "--all-chains", "1", "--term", "<>y", "--pivot", "x", "--max", "0"],
     "pivot 'x' does not occur in the term; iteration is constant"),
])
def test_warnings_print_as_one_line(capsys, argv, message):
    code, _, err = run(capsys, argv)
    assert code in (0, 1)
    assert err == f"warning: {message}\n"
