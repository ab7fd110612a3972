"""End-to-end CLI runs: exit codes, JSON output, and the replay bundle."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import catspire
from catspire.cli import main
from catspire.engine import TheoremViolation, paper_epsilon
from catspire.formats import serialize_edge_list
from catspire.witnesses import format_rational, parse_rational
from helpers import cycle_graph, disjoint_union, hook_graph, path_graph, petersen_graph


def _write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text, encoding="utf-8")
    return str(f)


def _graph_file(tmp_path, name, g):
    return _write(tmp_path, name, serialize_edge_list(g))


@pytest.fixture()
def hook_file(tmp_path):
    return _graph_file(tmp_path, "hook.txt", hook_graph())


def test_certify_paper_defaults(tmp_path, capsys, hook_file):
    g = _graph_file(tmp_path, "g.txt", path_graph(6))
    assert main(["certify", "--graph", g, "--tree", hook_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variant"] == "high-mass-vertex"
    assert doc["vertex"] == 0
    assert doc["verdict"] == "pass"
    assert doc["parameters"]["tau"] == 3
    assert doc["parameters"]["p"] == 512
    assert doc["parameters"]["guarantee"] is True


def test_certify_anticomplete_with_trace(tmp_path, capsys, hook_file):
    g = _graph_file(tmp_path, "g.txt", path_graph(200))
    code = main(
        ["certify", "--graph", g, "--tree", hook_file,
         "--epsilon", "1/48", "--p", "2", "--trace"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variant"] == "anticomplete-pair"
    assert doc["a"] == list(range(2, 80))
    assert doc["b"] == list(range(81, 160))
    assert doc["parameters"]["guarantee"] is False
    assert [t["stage"] for t in doc["trace"]] == ["blocks", "anticomplete", "verified"]


def test_certify_stuck_exit(tmp_path, capsys, hook_file):
    g = _graph_file(tmp_path, "g.txt", path_graph(50))
    code = main(
        ["certify", "--graph", g, "--tree", hook_file, "--epsilon", "1/10", "--p", "2"]
    )
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["variant"] == "stuck"
    assert doc["verdict"] == "unverified"
    assert doc["stage"] == "kappa-schedule-infeasible"
    assert doc["diagnostics"]["max_feasible_epsilon"] == "1/48"


def test_certify_explicit_large_p_sticks_at_once(tmp_path, capsys, hook_file):
    g = _graph_file(tmp_path, "g.txt", path_graph(200))
    code = main(
        ["certify", "--graph", g, "--tree", hook_file, "--epsilon", "1/99", "--p", "1000000"]
    )
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["stage"] == "kappa-schedule-infeasible"
    assert doc["diagnostics"]["max_feasible_epsilon"] == "1/(1000000*2^1000000*6)"


def test_certify_default_p_from_epsilon(tmp_path, capsys, hook_file):
    # 1/48 is exactly feasible for p=2 and infeasible for p=3, so the
    # resolver picks 2 when --p is omitted.
    g = _graph_file(tmp_path, "g.txt", path_graph(200))
    assert main(["certify", "--graph", g, "--tree", hook_file, "--epsilon", "1/48"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameters"]["p"] == 2


def test_certify_x1_seed_is_deterministic(tmp_path, capsys, hook_file):
    g = _graph_file(tmp_path, "g.txt", path_graph(200))
    argv = ["certify", "--graph", g, "--tree", hook_file,
            "--epsilon", "1/48", "--p", "2", "--x1-seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_verify_round_trip_and_tamper(tmp_path, capsys, hook_file):
    g = _graph_file(tmp_path, "g.txt", path_graph(200))
    main(["certify", "--graph", g, "--tree", hook_file, "--epsilon", "1/48", "--p", "2"])
    doc = json.loads(capsys.readouterr().out)

    witness = _write(tmp_path, "w.json", json.dumps(doc))
    code = main(["verify", "--graph", g, "--tree", hook_file,
                 "--witness", witness, "--epsilon", "1/48"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"verdict": "pass", "problems": []}

    doc["a"] = [0]
    tampered = _write(tmp_path, "bad.json", json.dumps(doc))
    code = main(["verify", "--graph", g, "--tree", hook_file,
                 "--witness", tampered, "--epsilon", "1/48"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "fail"
    assert out["problems"] == ["mass of side a is below epsilon"]


def test_verify_rejects_malformed_document(tmp_path, capsys, hook_file):
    g = _graph_file(tmp_path, "g.txt", path_graph(6))
    witness = _write(tmp_path, "w.json", json.dumps({"variant": "mystery"}))
    code = main(["verify", "--graph", g, "--tree", hook_file,
                 "--witness", witness, "--epsilon", "1/6"])
    assert code == 66
    assert "malformed witness document" in capsys.readouterr().err


def test_verify_rejects_out_of_range_pair(tmp_path, capsys, hook_file):
    doc = {"variant": "anticomplete-pair", "a": [0], "b": [4, 9]}
    witness = _write(tmp_path, "w.json", json.dumps(doc))
    weights = _write(tmp_path, "weights.txt", "1\n" * 6)
    for mass in ("cardinality", "weighted:" + weights):
        code = main(["verify", "--graph", hook_file, "--tree", hook_file,
                     "--witness", witness, "--epsilon", "1/6", "--mass", mass])
        assert code == 1
        assert json.loads(capsys.readouterr().out) == {
            "verdict": "fail",
            "problems": ["pair vertex 9 out of range"],
        }


def test_fit_tau_and_epsilon_commands(tmp_path, capsys, hook_file):
    assert main(["fit-tau", "--tree", hook_file]) == 0
    assert capsys.readouterr().out == "3\n"
    assert main(["epsilon", "--tau", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "tau": 3,
        "p": 512,
        "epsilon": format_rational(paper_epsilon(3)),
    }


def test_epsilon_at_tau_4_prints_every_digit(capsys):
    # the denominator has 19,734 digits, past the default int-to-str limit
    assert main(["epsilon", "--tau", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["tau"], doc["p"]) == (4, 65536)
    assert parse_rational(doc["epsilon"]) == paper_epsilon(4)


def test_certify_verify_round_trip_at_tau_4_defaults(tmp_path, capsys):
    g = _graph_file(tmp_path, "g.txt", path_graph(6))
    p4 = _graph_file(tmp_path, "p4.txt", path_graph(4))
    assert main(["certify", "--graph", g, "--tree", p4]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variant"] == "high-mass-vertex"
    assert doc["parameters"]["p"] == 65536 and doc["parameters"]["guarantee"] is True
    assert parse_rational(doc["parameters"]["epsilon"]) == paper_epsilon(4)
    witness = _write(tmp_path, "w.json", json.dumps(doc))
    assert main(["verify", "--graph", g, "--tree", p4, "--witness", witness,
                 "--epsilon", doc["parameters"]["epsilon"]]) == 0
    assert json.loads(capsys.readouterr().out) == {"verdict": "pass", "problems": []}


def test_proven_constants_refused_at_tau_5(tmp_path, capsys):
    assert main(["epsilon", "--tau", "5"]) == 64
    assert "2^25-bit denominator; give epsilon and p explicitly" in capsys.readouterr().err
    g = _graph_file(tmp_path, "g.txt", path_graph(6))
    p5 = _graph_file(tmp_path, "p5.txt", path_graph(5))
    assert main(["certify", "--graph", g, "--tree", p5]) == 64
    assert "2^25-bit denominator" in capsys.readouterr().err
    assert main(["certify", "--graph", g, "--tree", p5, "--epsilon", "1/10", "--p", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameters"] == {"tau": 5, "epsilon": "1/10", "p": 2, "guarantee": False}


def test_certify_rejects_nonpositive_epsilon(tmp_path, capsys, hook_file):
    g = _graph_file(tmp_path, "g.txt", path_graph(6))
    for flag in ("--epsilon=0", "--epsilon=-1/2"):
        assert main(["certify", "--graph", g, "--tree", hook_file, flag]) == 64
        assert "epsilon must be positive" in capsys.readouterr().err


def test_oracle_commands(tmp_path, capsys):
    p5 = _graph_file(tmp_path, "p5.txt", path_graph(5))
    p3 = _graph_file(tmp_path, "p3.txt", path_graph(3))
    assert main(["oracle", "embed", "--graph", p5, "--tree", p3]) == 0
    assert json.loads(capsys.readouterr().out) == {"found": True, "mapping": [0, 1, 2]}

    assert main(["oracle", "embed", "--graph", p3, "--tree", p5]) == 0
    assert json.loads(capsys.readouterr().out) == {"found": False, "mapping": None}

    c5 = _graph_file(tmp_path, "c5.txt", cycle_graph(5))
    assert main(["oracle", "anticomplete", "--graph", c5]) == 0
    assert json.loads(capsys.readouterr().out) == {"a": [0], "b": [2, 3]}

    pet = _graph_file(tmp_path, "pet.txt", petersen_graph())
    assert main(["oracle", "chi", "--graph", pet]) == 0
    assert json.loads(capsys.readouterr().out) == {"chi": 3}

    assert main(["oracle", "embed", "--graph", p5]) == 64
    assert "oracle embed needs --tree" in capsys.readouterr().err


def test_oracle_node_limit_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("catspire.oracles.NODE_LIMIT", 1)
    g = _graph_file(tmp_path, "g.txt", path_graph(30))
    t = _graph_file(tmp_path, "t.txt", path_graph(5))
    assert main(["oracle", "embed", "--graph", g, "--tree", t]) == 64
    assert "exceeded 1 search nodes" in capsys.readouterr().err


def test_chi_split_on_two_cycles(tmp_path, capsys, hook_file):
    g = _graph_file(tmp_path, "g.txt", disjoint_union(cycle_graph(5), cycle_graph(5)))
    code = main(["chi-split", "--graph", g, "--tree", hook_file, "--epsilon", "1/3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chi_g"] == 3
    assert doc["epsilon_chi_g"] == "1"
    assert doc["witness"]["variant"] == "high-mass-vertex"


def test_gen_commands(tmp_path, capsys):
    assert main(["gen", "--model", "caterpillar_subdivision",
                 "--spine", "5", "--legs", "3:1"]) == 0
    assert capsys.readouterr().out == serialize_edge_list(hook_graph())

    assert main(["gen", "--model", "gnp", "--n", "12",
                 "--probability", "1", "--seed", "3"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "12 66"

    assert main(["gen", "--model", "gnp", "--n", "12", "--probability", "0.5"]) == 64
    assert "rationals" in capsys.readouterr().err


def test_batch_command(tmp_path, capsys):
    spec = {
        "trials": 2,
        "tree": {"spine": 5, "legs": [[3, 1]]},
        "params": {"tau": 3, "epsilon": "1/10", "p": 2},
        "specs": [{"model": "gnp", "n": 12, "probability": "1", "seed": 0}],
    }
    path = _write(tmp_path, "batch.json", json.dumps(spec))
    assert main(["batch", "--spec", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 2
    assert doc["counts"] == {"high-mass-neighbourhood": 2}
    assert doc["stuck_rate"] == "0"

    assert main(["batch", "--spec", path, "--table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "trials: 2"
    assert lines[1] == "  high-mass-neighbourhood  2"

    broken = _write(tmp_path, "broken.json", "{not json")
    assert main(["batch", "--spec", broken]) == 66

    incomplete = _write(tmp_path, "incomplete.json", json.dumps({"tree": "x"}))
    assert main(["batch", "--spec", incomplete]) == 66
    assert "bad batch spec" in capsys.readouterr().err


_GOOD_BATCH = {
    "trials": 1,
    "tree": {"spine": 5, "legs": [[3, 1]]},
    "params": {"tau": 3, "epsilon": "1/10", "p": 2},
    "specs": [{"model": "gnp", "n": 12, "probability": "1", "seed": 0}],
}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"params": {"tau": 3, "epsilon": 0.1, "p": 2}}, "got 0.1"),
        ({"specs": [{"model": "gnp", "n": 12, "probability": 1, "seed": 0}]}, "got 1"),
        ({"specs": [5]}, "must be a JSON object, got 5"),
        ({"params": []}, "params must be a JSON object, got []"),
    ],
    ids=["numeric-epsilon", "numeric-probability", "spec-not-object", "params-not-object"],
)
def test_batch_rejects_wrong_json_types(tmp_path, capsys, change, message):
    path = _write(tmp_path, "batch.json", json.dumps({**_GOOD_BATCH, **change}))
    assert main(["batch", "--spec", path]) == 66
    err = capsys.readouterr().err
    assert err.startswith("error: bad batch spec:")
    assert message in err


@pytest.mark.parametrize(
    "case, code, message",
    [
        ("weights-short", 64, "weight file has 2 entries for 6 vertices"),
        ("unknown-mass", 64, "unknown mass 'volume'"),
        ("bad-legs", 64, "bad leg '3x'"),
        ("batch-tree-file", 0, ""),
        ("batch-tree-number", 66, "tree must be a file path or {spine, legs}"),
    ],
)
def test_input_errors_exit_with_their_codes(tmp_path, capsys, hook_file, case, code, message):
    g = _graph_file(tmp_path, "g.txt", path_graph(6))
    certify = ["certify", "--graph", g, "--tree", hook_file, "--mass"]
    argv = {
        "weights-short": certify + ["weighted:" + _write(tmp_path, "w.txt", "1\n2\n")],
        "unknown-mass": certify + ["volume"],
        "bad-legs": ["gen", "--model", "caterpillar_subdivision", "--spine", "5", "--legs", "3x"],
        "batch-tree-file": ["batch", "--spec", _write(
            tmp_path, "file.json", json.dumps({**_GOOD_BATCH, "tree": hook_file}))],
        "batch-tree-number": ["batch", "--spec", _write(
            tmp_path, "number.json", json.dumps({**_GOOD_BATCH, "tree": 5}))],
    }[case]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert message in captured.err
    if code == 0:
        assert json.loads(captured.out)["counts"] == {"high-mass-neighbourhood": 1}


def test_batch_theorem_violation_writes_replay(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "batch.json", json.dumps(_GOOD_BATCH))
    monkeypatch.chdir(tmp_path)

    def explode(*args, **kwargs):
        raise TheoremViolation("fabricated failure")

    monkeypatch.setattr("catspire.harness.run_trichotomy", explode)
    assert main(["batch", "--spec", path]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: theorem violation: fabricated failure" in captured.err
    assert "replay bundle written to catspire-replay.json" in captured.err
    replay = json.loads((tmp_path / "catspire-replay.json").read_text())
    assert replay == {
        "trial": 0,
        "spec": {"model": "gnp", "n": 12, "seed": 0, "probability": "1"},
        "params": {"tau": 3, "epsilon": "1/10", "p": 2},
        "witness": None,
        "problems": ["fabricated failure"],
    }


@pytest.mark.parametrize(
    "doc",
    [[1], {"variant": "stuck", "stage": "axiom", "diagnostics": [1]}],
    ids=["document-list", "diagnostics-list"],
)
def test_verify_rejects_wrong_json_types(tmp_path, capsys, hook_file, doc):
    g = _graph_file(tmp_path, "g.txt", path_graph(6))
    witness = _write(tmp_path, "w.json", json.dumps(doc))
    code = main(["verify", "--graph", g, "--tree", hook_file,
                 "--witness", witness, "--epsilon", "1/6"])
    assert code == 66
    assert capsys.readouterr().err.startswith("error: malformed witness document:")


def test_usage_errors(tmp_path, capsys, hook_file):
    g = _graph_file(tmp_path, "g.txt", path_graph(6))
    triangle = _graph_file(tmp_path, "k3.txt", cycle_graph(3))
    assert main(["certify", "--graph", g, "--tree", triangle]) == 64
    assert "must be a tree" in capsys.readouterr().err

    assert main(["certify", "--graph", g, "--tree", hook_file, "--epsilon", "0.5"]) == 64
    assert main(["wibble"]) == 64
    assert main([]) == 64
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_io_errors(tmp_path, capsys, hook_file):
    missing = str(tmp_path / "missing.txt")
    assert main(["certify", "--graph", missing, "--tree", hook_file]) == 66

    looped = _write(tmp_path, "loop.txt", "2 1\n0 0\n")
    assert main(["certify", "--graph", looped, "--tree", hook_file]) == 66
    assert "line 2" in capsys.readouterr().err

    g = _graph_file(tmp_path, "g.txt", path_graph(6))
    not_json = _write(tmp_path, "w.json", "{")
    assert main(["verify", "--graph", g, "--tree", hook_file,
                 "--witness", not_json, "--epsilon", "1/6"]) == 66
    assert "bad JSON" in capsys.readouterr().err


def test_theorem_violation_writes_replay(tmp_path, capsys, monkeypatch, hook_file):
    g = _graph_file(tmp_path, "g.txt", path_graph(6))
    monkeypatch.chdir(tmp_path)

    def explode(*args, **kwargs):
        raise TheoremViolation("fabricated failure")

    monkeypatch.setattr("catspire.cli.run_trichotomy", explode)
    assert main(["certify", "--graph", g, "--tree", hook_file]) == 70
    err = capsys.readouterr().err
    assert "theorem violation: fabricated failure" in err
    assert "replay bundle written to catspire-replay.json" in err
    replay = json.loads((tmp_path / "catspire-replay.json").read_text())
    assert replay["message"] == "fabricated failure"
    assert replay["graph"] == serialize_edge_list(path_graph(6))
    assert replay["params"]["tau"] == 3


def test_out_of_memory_exits_71(tmp_path, capsys, monkeypatch, hook_file):
    g = _graph_file(tmp_path, "g.txt", path_graph(6))

    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("catspire.cli.run_trichotomy", exhaust)
    assert main(["certify", "--graph", g, "--tree", hook_file]) == 71
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory")
    assert captured.err.count("\n") == 1


def _cap_address_space():
    cap = 200 << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_out_of_memory_in_a_capped_child_exits_71(tmp_path, hook_file):
    # a Graph holds one row per vertex: even when every row is the shared
    # empty tuple, the list its rows are gathered in and the tuple that keeps
    # them take one 8-byte pointer per vertex each.  At n = 2^25 either alone
    # is 256 MiB, so parsing this edgeless graph runs out under a 200 MiB cap
    g = _write(tmp_path, "g.txt", f"{1 << 25} 0\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(catspire.__file__).resolve().parents[1])}
    child = subprocess.run(
        [sys.executable, "-m", "catspire.cli", "certify", "--graph", g, "--tree", hook_file,
         "--epsilon", "1/30000", "--p", "2"],
        capture_output=True, text=True, env=env, preexec_fn=_cap_address_space, timeout=120,
    )
    assert child.returncode == 71
    assert child.stdout == ""
    assert child.stderr.startswith("error: out of memory")
    assert child.stderr.count("\n") == 1
