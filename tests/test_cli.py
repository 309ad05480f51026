import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stabkit
from stabkit.cli import build_parser, main
from stabkit.serialize import dumps


@pytest.fixture
def lattice_file(tmp_path):
    path = tmp_path / "k3d2.json"
    path.write_text(dumps({"rank": 1, "gram": [["2"]], "ample": ["1"], "k3": True}))
    return str(path)


def run(tmp_path, *argv):
    """Exit code and parsed output of one command. The output text must be
    the canonical text of its own JSON, byte for byte."""
    out = tmp_path / "out.json"
    code = main([*argv, "--out", str(out)])
    if code != 0:
        return code, None
    text = out.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, separators=(", ", ": "),
                              indent=1) + "\n"
    return code, doc


def test_pairing(tmp_path, lattice_file):
    code, doc = run(tmp_path, "pairing", "--lattice", lattice_file,
                    "--v", "1,0,1", "--w", "1,0,1")
    assert code == 0
    assert doc["result"]["value"] == "-2"
    assert "manifest" in doc and doc["manifest"]["input_hashes"]["lattice"]


def test_manifest_records_argv_given_to_main(tmp_path, lattice_file, monkeypatch):
    """An in-process caller's argv, not the host process's, is the command."""
    monkeypatch.setattr("sys.argv", ["python", "-c", "unrelated"])
    out = str(tmp_path / "out.json")
    argv = ["pairing", "--lattice", lattice_file, "--v", "1,0,1", "--w", "1,0,1",
            "--out", out]
    assert main(argv) == 0
    with open(out, encoding="utf-8") as f:
        assert json.load(f)["manifest"]["command"] == " ".join(argv)


def test_charge(tmp_path, lattice_file):
    code, doc = run(tmp_path, "charge", "--lattice", lattice_file,
                    "--v", "1,0,-1", "--beta", "0", "--omega", "2")
    assert code == 0
    assert doc["result"] == {"im": "0", "re": "5"}


def test_phase_compare_and_heart(tmp_path):
    code, doc = run(tmp_path, "phase-compare", "--z1", "-1,0", "--z2", "0,1")
    assert code == 0 and doc["result"]["order"] == "GT"
    code, doc = run(tmp_path, "heart", "--slopes", "inf,3")
    assert code == 0 and doc["result"]["position"] == "IN_T"
    code, doc = run(tmp_path, "heart", "--slopes", "0")
    assert code == 0 and doc["result"]["position"] == "IN_F"


def test_hn_command(tmp_path):
    cat = {
        "objects": [{"id": "0", "class": ["0", "0"]},
                    {"id": "S1", "class": ["0", "1"]},
                    {"id": "S2", "class": ["1", "0"]},
                    {"id": "A", "class": ["1", "1"]}],
        "edges": [{"sub": "S2", "ambient": "A", "quotient": "S1"}],
        "zero": "0",
    }
    charge = [["-1", "0"], ["0", "1"]]
    catf = tmp_path / "cat.json"
    chf = tmp_path / "charge.json"
    catf.write_text(dumps(cat))
    chf.write_text(dumps(charge))
    code, doc = run(tmp_path, "hn", "--category", str(catf),
                    "--charge", str(chf), "--object", "A")
    assert code == 0
    assert doc["result"]["steps"] == ["0", "S2", "A"]
    assert doc["result"]["factor_classes"] == [["1", "0"], ["0", "1"]]
    assert doc["result"]["seesaw_violations"] == []


def test_hn_invalid_category_exit_code(tmp_path):
    cat = {"objects": [{"id": "0", "class": ["0"]},
                       {"id": "A", "class": ["1"]}],
           "edges": [], "zero": "0"}
    charge = [["1", "0"]]  # invalid: positive real axis
    catf = tmp_path / "cat.json"
    chf = tmp_path / "charge.json"
    catf.write_text(dumps(cat))
    chf.write_text(dumps(charge))
    code = main(["hn", "--category", str(catf), "--charge", str(chf),
                 "--object", "A", "--out", str(tmp_path / "x.json")])
    assert code == 1


def test_support_command(tmp_path, lattice_file):
    code, doc = run(tmp_path, "support", "--lattice", lattice_file,
                    "--beta", "0", "--omega", "2")
    assert code == 0
    res = doc["result"]
    assert res["kernel_basis"] == [["1", "0", "4"]]
    assert res["root_search"]["c_squared"] == "9/8"
    assert res["root_search"]["witness"] == ["-1", ["0"], "-1"]
    assert res["roundtrip"]["all_pass"] is True


def test_support_builds_q_z_once(tmp_path, lattice_file, monkeypatch):
    """A successful support job builds the Q_Z Gram once: the payload, the
    roundtrip and the discreteness walk all read that one Gram."""
    from stabkit.support import build_q_z
    calls = []

    def counting(*args):
        calls.append(args)
        return build_q_z(*args)

    monkeypatch.setattr("stabkit.cli.build_q_z", counting)
    monkeypatch.setattr("stabkit.support.build_q_z", counting)
    code, doc = run(tmp_path, "support", "--lattice", lattice_file,
                    "--beta", "0", "--omega", "2")
    assert code == 0 and doc["result"]["discreteness_sample"]["classes"] > 0
    assert len(calls) == 1


def test_walls_chambers_plot_pipeline(tmp_path, lattice_file):
    wallsf = tmp_path / "walls.json"
    code = main(["walls", "--lattice", lattice_file, "--v", "1,0,-1",
                 "--beta0", "0", "--b", "-3:0", "--t", "1/10:4", "--bound", "5",
                 "--out", str(wallsf)])
    assert code == 0
    doc = json.loads(wallsf.read_text())
    kinds = {w["kind"] for w in doc["result"]["walls"]}
    assert "VERTICAL_LINE" in kinds
    assert doc["result"]["nesting"]["violations"] == 0

    code, chdoc = run(tmp_path, "chambers", "--walls", str(wallsf),
                      "--b", "-1", "--t", "1/10:4")
    assert code == 0
    assert chdoc["result"]["chambers"] == len(chdoc["result"]["crossings"]) + 1
    for c in chdoc["result"]["crossings"]:
        assert "." in c["t"] and len(c["t"].split(".")[1]) == 30

    svgf = tmp_path / "walls.svg"
    code = main(["plot", "--walls", str(wallsf), "--out", str(svgf)])
    assert code == 0
    svg = svgf.read_text()
    assert svg.startswith("<?xml") and "<svg" in svg and "W0" in svg


def test_nef_command(tmp_path, lattice_file):
    code, doc = run(tmp_path, "nef", "--lattice", lattice_file,
                    "--v", "1,0,-1", "--beta", "0", "--omega", "2")
    assert code == 0
    res = doc["result"]
    assert res["omega_class"] == ["0", "2/5", "0"]
    assert res["bb_square"] == "8/25"
    assert res["moduli_dimension"] == 4


def test_classify_wall_command(tmp_path, lattice_file):
    code, doc = run(tmp_path, "classify-wall", "--lattice", lattice_file,
                    "--v", "1,0,-1", "--w", "0,0,1", "--beta0", "0",
                    "--point", "0,1")
    assert code == 0
    res = doc["result"]
    assert res["hw_gram"] == [["2", "-1"], ["-1", "0"]]
    assert res["hints"]["has_isotropic"] is True
    assert res["point_residual"] == "0"


def test_lagrangian_command(tmp_path, lattice_file):
    code, doc = run(tmp_path, "lagrangian", "--lattice", lattice_file,
                    "--v", "1,0,-1", "--bound", "6")
    assert code == 0
    assert doc["result"]["candidates"] == [["1", ["-1"], "1"], ["1", ["1"], "1"]]


def test_gieseker_command(tmp_path):
    for p, q, order in (("1,2,1", "0,2,1", "GT"), ("1,1", "0,0,1", "LT")):
        code, doc = run(tmp_path, "gieseker", "--p", p, "--q", q)
        assert code == 0 and doc["result"]["order"] == order


def test_exit_codes(tmp_path, lattice_file):
    # bad lattice path -> input error
    assert main(["pairing", "--lattice", str(tmp_path / "nope.json"),
                 "--v", "1,0,1", "--w", "1,0,1"]) == 1
    # degenerate wall -> computation error
    assert main(["classify-wall", "--lattice", lattice_file, "--v", "1,0,-1",
                 "--w", "2,0,-2", "--beta0", "0",
                 "--out", str(tmp_path / "x.json")]) == 2


def test_classify_wall_empty_wall_exits_1(tmp_path, lattice_file, capsys):
    """A w whose conic 16((b - 1)^2 + t^2) has no point with t > 0 names no
    wall: an input error that names the conic."""
    assert main(["classify-wall", "--lattice", lattice_file, "--v", "3,1,-1",
                 "--w", "1,3,5", "--beta0", "0", "--point", "-1,1",
                 "--out", str(tmp_path / "x.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: w = (1, 3, 5) spans no wall with v")
    assert "(A, B, D) = (16, -32, 16) has no point with t > 0" in err


def test_zero_denominator_is_input_error(tmp_path, capsys):
    """A zero denominator in a JSON rational or in a flag exits 1."""
    cat = {"objects": [{"id": "0", "class": ["0", "0"]},
                       {"id": "S", "class": ["1", "0"]},
                       {"id": "T", "class": ["0", "1"]},
                       {"id": "A", "class": ["1", "1"]}],
           "edges": [{"sub": "S", "ambient": "A", "quotient": "T"}], "zero": "0"}
    catf, chf = tmp_path / "cat.json", tmp_path / "z.json"
    catf.write_text(dumps(cat))
    chf.write_text(dumps([["-1", "1/0"], ["0", "1"]]))
    out = str(tmp_path / "x.json")
    assert main(["validate-category", "--category", str(catf), "--charge", str(chf),
                 "--out", out]) == 1
    assert "input error: zero denominator in '1/0'" in capsys.readouterr().err
    assert main(["phase-compare", "--z1", "1/0,1", "--z2", "1,1", "--out", out]) == 1
    assert "input error: zero denominator in '1/0'" in capsys.readouterr().err


def test_failed_postcondition_exits_2(tmp_path, lattice_file, monkeypatch, capsys):
    """A violated postcondition is a stabkit error, not a traceback."""
    # a kernel "basis" that Z does not annihilate
    monkeypatch.setattr("stabkit.support.int_kernel", lambda rows, n: [[1, 0, 1]])
    assert main(["support", "--lattice", lattice_file, "--beta", "0",
                 "--omega", "2", "--out", str(tmp_path / "x.json")]) == 2
    assert "kernel basis vector not annihilated by Z" in capsys.readouterr().err


def test_cli_import_needs_no_mpmath():
    src = os.path.dirname(os.path.dirname(os.path.abspath(stabkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, stabkit.cli; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def strip_timestamps(text: str) -> str:
    doc = json.loads(text)
    doc["manifest"].pop("timestamp")
    return json.dumps(doc, sort_keys=True)


def test_determinism_three_runs(tmp_path, lattice_file):
    outs = []
    f = tmp_path / "run.json"  # same command each time: the manifest records --out
    for _ in range(3):
        assert main(["support", "--lattice", lattice_file, "--beta", "0",
                     "--omega", "2", "--out", str(f)]) == 0
        outs.append(strip_timestamps(f.read_text()))
    assert outs[0] == outs[1] == outs[2]


def test_one_parser_serves_repeated_commands(tmp_path, lattice_file):
    """main builds the parser once per process; a command rerun after
    another one gives the same output."""
    from stabkit.cli import build_parser
    support = ["support", "--lattice", lattice_file, "--beta", "0", "--omega", "2",
               "--out", str(tmp_path / "support.json")]
    walls = ["walls", "--lattice", lattice_file, "--v", "1,0,-1", "--beta0", "0",
             "--b", "-3:0", "--t", "1/10:4", "--bound", "4",
             "--out", str(tmp_path / "walls.json")]
    outs = []
    for argv in (support, walls, support):
        assert main(argv) == 0
        outs.append(strip_timestamps((tmp_path / "support.json").read_text()))
    assert outs[0] == outs[2]
    assert build_parser() is build_parser()


def test_chambers_rerun_identical_after_walls_rerun(tmp_path, lattice_file):
    """The chambers manifest hashes the walls result, not the walls file,
    whose timestamp changes with every walls run."""
    wallsf = tmp_path / "walls.json"
    outs = []
    for _ in range(2):
        assert main(["walls", "--lattice", lattice_file, "--v", "1,0,-1",
                     "--beta0", "0", "--b", "-3:0", "--t", "1/10:4",
                     "--bound", "4", "--out", str(wallsf)]) == 0
        code, doc = run(tmp_path, "chambers", "--walls", str(wallsf),
                        "--b", "-1", "--t", "1/10:4")
        assert code == 0
        outs.append(strip_timestamps(json.dumps(doc)))
    assert outs[0] == outs[1]


def test_validate_category_command(tmp_path):
    cat = {"objects": [{"id": "0", "class": ["0"]},
                       {"id": "A", "class": ["1"]}],
           "edges": [], "zero": "0"}
    charge = [["1", "0"]]
    catf, chf = tmp_path / "c.json", tmp_path / "z.json"
    catf.write_text(dumps(cat))
    chf.write_text(dumps(charge))
    code, doc = run(tmp_path, "validate-category", "--category", str(catf),
                    "--charge", str(chf))
    assert code == 0
    assert any(v["code"] == "invalid-charge" for v in doc["result"]["violations"])


@pytest.mark.parametrize("field", ["sub", "ambient", "quotient"])
def test_unknown_edge_id_is_a_violation(tmp_path, capsys, field):
    """An edge naming an unknown object, in any of its three fields, is an
    ``unknown-id`` violation: validate-category reports it and exits 0, and
    hn exits 1 naming it."""
    edge = {"sub": "S2", "ambient": "A", "quotient": "S1", field: "X"}
    cat = {"objects": [{"id": "0", "class": ["0", "0"]},
                       {"id": "S1", "class": ["0", "1"]},
                       {"id": "S2", "class": ["1", "0"]},
                       {"id": "A", "class": ["1", "1"]}],
           "edges": [edge], "zero": "0"}
    catf, chf = tmp_path / "c.json", tmp_path / "z.json"
    catf.write_text(dumps(cat))
    chf.write_text(dumps([["-1", "0"], ["0", "1"]]))
    code, doc = run(tmp_path, "validate-category", "--category", str(catf),
                    "--charge", str(chf))
    assert code == 0
    assert [(v["code"], v["subject"]) for v in doc["result"]["violations"]] == \
        [("unknown-id", "X")]
    assert main(["hn", "--category", str(catf), "--charge", str(chf),
                 "--object", "A", "--out", str(tmp_path / "x.json")]) == 1
    assert "[unknown-id] X:" in capsys.readouterr().err


def test_category_ids_read_as_strings(tmp_path):
    """Ids that are JSON numbers read as their str, so an unknown one is
    reported like any other and the output stays canonical JSON."""
    cat = {"objects": [{"id": 0, "class": ["0"]}, {"id": "A", "class": ["1"]}],
           "edges": [{"sub": 1.5, "ambient": "A", "quotient": "A"}], "zero": 0}
    catf, chf = tmp_path / "c.json", tmp_path / "z.json"
    catf.write_text(json.dumps(cat))
    chf.write_text(dumps([["0", "1"]]))
    code, doc = run(tmp_path, "validate-category", "--category", str(catf),
                    "--charge", str(chf))
    assert code == 0
    assert [(v["code"], v["subject"]) for v in doc["result"]["violations"]] == \
        [("unknown-id", "1.5")]


@pytest.mark.parametrize("ids", [[1, "1"], ["1", 1]])
def test_category_ids_equal_as_strings_are_duplicates(tmp_path, capsys, ids):
    """The presentation keys objects by str(id), so ids 1 and "1" name the
    same object: a duplicate, not a silent collapse to one object."""
    cat = {"objects": [{"id": "0", "class": ["0"]}] +
                      [{"id": i, "class": [str(k + 1)]} for k, i in enumerate(ids)],
           "edges": [], "zero": "0"}
    catf, chf = tmp_path / "c.json", tmp_path / "z.json"
    catf.write_text(json.dumps(cat))
    chf.write_text(dumps([["0", "1"]]))
    assert main(["validate-category", "--category", str(catf), "--charge", str(chf),
                 "--out", str(tmp_path / "x.json")]) == 1
    assert "input error: duplicate object id '1'" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [[1], {"a": 1}])
def test_category_rejects_container_id(tmp_path, capsys, bad):
    cat = {"objects": [{"id": "0", "class": ["0"]}, {"id": bad, "class": ["1"]}],
           "edges": [], "zero": "0"}
    catf, chf = tmp_path / "c.json", tmp_path / "z.json"
    catf.write_text(json.dumps(cat))
    chf.write_text(dumps([["0", "1"]]))
    assert main(["validate-category", "--category", str(catf), "--charge", str(chf),
                 "--out", str(tmp_path / "x.json")]) == 1
    assert "is not a string or number" in capsys.readouterr().err


@pytest.mark.parametrize("k3", ["false", "true", 0, 1, None])
def test_lattice_json_rejects_non_boolean_k3(tmp_path, capsys, k3):
    """``"k3": "false"`` used to read as true (any non-empty string is); a
    k3 flag that is not a JSON boolean is an input error. A boolean one
    selects the convention: support needs a K3 lattice."""
    lat = tmp_path / "lat.json"
    argv = ["support", "--lattice", str(lat), "--beta", "0", "--omega", "2",
            "--out", str(tmp_path / "x.json")]
    lat.write_text(json.dumps({"rank": 1, "gram": [["2"]], "ample": ["1"], "k3": k3}))
    assert main(argv) == 1
    assert f"k3 must be true or false, got {k3!r}" in capsys.readouterr().err
    lat.write_text(json.dumps({"rank": 1, "gram": [["2"]], "ample": ["1"], "k3": False}))
    assert main(argv) == 1
    assert "lattice is not flagged K3" in capsys.readouterr().err
    lat.write_text(json.dumps({"rank": 1, "gram": [["2"]], "ample": ["1"], "k3": True}))
    assert main(argv) == 0


def test_plot_rejects_float_in_region(tmp_path, lattice_file, capsys):
    """A JSON float in the walls region is an input error, not a traceback."""
    wallsf = tmp_path / "walls.json"
    assert main(["walls", "--lattice", lattice_file, "--v", "1,0,-1", "--beta0", "0",
                 "--b", "-3:0", "--t", "1/10:4", "--bound", "2",
                 "--out", str(wallsf)]) == 0
    doc = json.loads(wallsf.read_text())
    doc["result"]["region"]["b_min"] = -3.0
    wallsf.write_text(json.dumps(doc))
    assert main(["plot", "--walls", str(wallsf), "--out", str(tmp_path / "w.svg")]) == 1
    assert "input error:" in capsys.readouterr().err
    assert not (tmp_path / "w.svg").exists()


def test_svg_byte_stable(tmp_path, lattice_file):
    wallsf = tmp_path / "w.json"
    assert main(["walls", "--lattice", lattice_file, "--v", "1,0,-1",
                 "--beta0", "0", "--b", "-2:0", "--t", "1/2:2", "--bound", "4",
                 "--out", str(wallsf)]) == 0
    svgs = []
    for i in range(2):
        f = tmp_path / f"p{i}.svg"
        assert main(["plot", "--walls", str(wallsf), "--out", str(f)]) == 0
        lines = f.read_bytes().split(b"\n")
        svgs.append(b"\n".join(ln for ln in lines if b"generated" not in ln))
    assert svgs[0] == svgs[1]


def test_walls_with_oracle_flag(tmp_path, lattice_file):
    code, doc = run(tmp_path, "walls", "--lattice", lattice_file,
                    "--v", "1,0,-1", "--beta0", "0", "--b", "-2:0",
                    "--t", "1/2:2", "--bound", "4", "--grid", "60")
    assert code == 0
    assert doc["result"]["oracle"]["agrees"] is True


def test_charge_command_surface_convention(tmp_path):
    surf = tmp_path / "surf.json"
    surf.write_text(dumps({"rank": 1, "gram": [["2"]], "ample": ["1"],
                           "k3": False}))
    # point class on a surface: Z = -1 regardless of parameters
    code, doc = run(tmp_path, "charge", "--lattice", str(surf),
                    "--v", "0,0,1", "--beta", "1/2", "--omega", "3")
    assert code == 0
    assert doc["result"] == {"im": "0", "re": "-1"}


def test_support_start_bound_flag(tmp_path, lattice_file):
    code, doc = run(tmp_path, "support", "--lattice", lattice_file,
                    "--beta", "0", "--omega", "2", "--start-bound", "2")
    assert code == 0
    assert doc["result"]["root_search"]["c_squared"] == "9/8"


@pytest.mark.parametrize("start", ["0", "-1"])
def test_support_rejects_nonpositive_start_bound(tmp_path, lattice_file, start):
    """A start bound of 0 would double forever and a negative one would walk
    empty rounds forever: both are input errors."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stabkit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "stabkit.cli", "support", "--lattice", lattice_file,
         "--beta", "0", "--omega", "2", f"--start-bound={start}",
         "--out", str(tmp_path / "x.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert f"start bound must be positive, got {start}" in proc.stderr
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("cls", ["1,0", "1,0,1,5"])
def test_support_rejects_a_class_of_the_wrong_length(tmp_path, lattice_file, capsys, cls):
    """A roundtrip class has rho + 2 entries; a shorter or longer one is an
    input error, not a class cut or padded to fit."""
    out = tmp_path / "x.json"
    assert main(["support", "--lattice", lattice_file, "--beta", "0", "--omega", "2",
                 "--classes", "0,0,1", cls, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"class {cls} has {len(cls.split(','))} entries" in err
    assert "rho + 2 = 3" in err
    assert not out.exists()


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_support_rejects_a_nonpositive_budget(tmp_path, lattice_file, capsys, budget):
    """A budget of no nodes is an input error (exit 1), not a search that
    ran out (exit 2)."""
    out = tmp_path / "x.json"
    assert main(["support", "--lattice", lattice_file, "--beta", "0", "--omega", "2",
                 "--budget", budget, "--out", str(out)]) == 1
    assert f"budget must be positive, got {budget}" in capsys.readouterr().err
    assert not out.exists()


_BUDGETED_COMMANDS = {
    "walls": ["--v", "1,0,-1", "--beta0", "0", "--b", "-3:0", "--t", "1/10:4",
              "--bound", "2"],
    "lagrangian": ["--v", "1,0,-1", "--bound", "2"],
    "classify-wall": ["--v", "1,0,-1", "--w", "-8,1,5", "--beta0", "0"],
    "support": ["--beta", "0", "--omega", "2"],
}


@pytest.mark.parametrize("value", ["-5", "0", "abc"])
@pytest.mark.parametrize("command", sorted(_BUDGETED_COMMANDS))
def test_budget_env_must_be_a_positive_integer(tmp_path, lattice_file, monkeypatch,
                                               capsys, command, value):
    """A BRIDGELAND_BUDGET that is not a positive integer is an input error
    (exit 1) naming the variable, for every command that enumerates."""
    monkeypatch.setenv("BRIDGELAND_BUDGET", value)
    out = tmp_path / "x.json"
    assert main([command, "--lattice", lattice_file, *_BUDGETED_COMMANDS[command],
                 "--out", str(out)]) == 1
    assert f"BRIDGELAND_BUDGET must be a positive integer, got '{value}'" in \
        capsys.readouterr().err
    assert not out.exists()


def test_support_skewed_walk_runs_out_where_it_did(tmp_path, capsys):
    """The skewed rank-3 basis that exhausts a root search of 20000 nodes:
    the walk stops at the same node, with the same message."""
    lat = tmp_path / "skew3.json"
    lat.write_text(dumps({"rank": 3, "gram": [["636", "-88", "380"], ["-88", "8", "-48"],
                                              ["380", "-48", "222"]],
                          "ample": ["1", "-2", "-2"], "k3": True}))
    assert main(["support", "--lattice", str(lat), "--beta", "3,-1/2,-2/3",
                 "--omega", "2,-4,-4", "--budget", "20000",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err == (
        "computation error: root search budget of 20000 nodes exhausted before "
        "certification (bound reached 8)\n")


def test_chambers_labels_gieseker_end(tmp_path, lattice_file):
    wallsf = tmp_path / "w.json"
    assert main(["walls", "--lattice", lattice_file, "--v", "1,0,-1",
                 "--beta0", "0", "--b", "-2:0", "--t", "1/2:2", "--bound", "3",
                 "--out", str(wallsf)]) == 0
    code, doc = run(tmp_path, "chambers", "--walls", str(wallsf),
                    "--b", "-1", "--t", "1/2:2")
    assert code == 0
    assert "Gieseker" in doc["result"]["top_chamber"]


def test_classify_wall_bound_flag(tmp_path, lattice_file):
    code, doc = run(tmp_path, "classify-wall", "--lattice", lattice_file,
                    "--v", "1,0,-1", "--w", "0,0,1", "--beta0", "0",
                    "--bound", "6")
    assert code == 0
    # bound 6 admits the two roots of the worked example lattice
    assert len(doc["result"]["roots"]) == 2


# support payloads (the "result" block, without the manifest), pinned so that
# later work on the support layer keeps them byte for byte
K3D2_SUPPORT = {
    "discreteness_sample": {"classes": 52, "radius_sq": "9/2"},
    "kernel_basis": [["1", "0", "4"]],
    "norm_form": [["1/8", "0"], ["0", "1/8"]],
    "q_z": [["32/9", "0", "-17/9"], ["0", "50/9", "0"], ["-17/9", "0", "2/9"]],
    "root_search": {"bound_reached": "8", "c_squared": "9/8", "points_visited": 155,
                    "witness": ["-1", ["0"], "-1"]},
    "roundtrip": {"all_pass": True, "c_squared": "1/2", "classes_checked": 2, "k": "1",
                  "verdicts": [{"class": ["-1", "0", "-1"], "passed": True,
                                "q_value": "0", "skipped": False},
                               {"class": ["0", "0", "1"], "passed": True,
                                "q_value": "2/9", "skipped": False}]},
}

# Gram [[2, 1], [1, -2]] in the basis e'_1 = 3 e_1 + e_2, e'_2 = 2 e_1 + e_2;
# beta and omega are (-1/3, -1/2) and (3/2, -1/13) in the original basis
SKEW2_LATTICE = {"rank": 2, "gram": [["22", "15"], ["15", "10"]],
                 "ample": ["1", "-1"], "k3": True}
SKEW2_SUPPORT = {
    "discreteness_sample": {"classes": 36, "radius_sq": "19940/12951"},
    "kernel_basis": [["122694", "593476", "-854247", "0"],
                     ["549588", "-94978", "0", "1423745"]],
    "norm_form": [["338/1439", "0"], ["0", "338/1439"]],
    "q_z": [["56695841/6065748", "93613/5982", "73067/5982", "-17767/4985"],
            ["93613/5982", "163896/997", "115822/997", "17238/4985"],
            ["73067/5982", "115822/997", "81795/997", "2028/997"],
            ["-17767/4985", "17238/4985", "2028/997", "6084/4985"]],
    "root_search": {"bound_reached": "8", "c_squared": "4985/12951",
                    "points_visited": 148, "witness": ["0", ["-3", "4"], "2"]},
    "roundtrip": {"all_pass": True, "c_squared": "1/3", "classes_checked": 2, "k": "1/2",
                  "verdicts": [{"class": ["0", "-3", "4", "2"], "passed": True,
                                "q_value": "0", "skipped": False},
                               {"class": ["0", "0", "0", "1"], "passed": True,
                                "q_value": "6084/4985", "skipped": False}]},
}


@pytest.mark.parametrize("omega", ["1,3,1", "2,6,2"])
def test_support_names_the_root_with_zero_charge(tmp_path, capsys, omega):
    """On U + <-2> the class h = (1,3,1) has h^2 = 4 but is orthogonal to the
    root c = (0,-2,-1), so at beta = 0, omega = h or 2h the root
    delta = (0, c, 0) has Z(delta) = 0 and C^2 = 0: not a stability
    condition. The error names delta (exit 1) and writes nothing."""
    lat = tmp_path / "u2.json"
    lat.write_text(dumps({"rank": 3, "gram": [["0", "1", "0"], ["1", "0", "0"],
                                              ["0", "0", "-2"]],
                          "ample": ["1", "3", "1"], "k3": True}))
    out = tmp_path / "x.json"
    assert main(["support", "--lattice", str(lat), "--beta", "0,0,0", "--omega", omega,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "input error: (beta, omega) is not a stability condition: the root "
        "delta = (0, 0, -2, -1, 0) has Z(delta) = 0\n")
    assert not out.exists()


def test_support_payload_pinned(tmp_path, lattice_file):
    code, doc = run(tmp_path, "support", "--lattice", lattice_file,
                    "--beta", "0", "--omega", "2")
    assert code == 0 and doc["result"] == K3D2_SUPPORT
    skew = tmp_path / "skew2.json"
    skew.write_text(dumps(SKEW2_LATTICE))
    code, doc = run(tmp_path, "support", "--lattice", str(skew),
                    "--beta", "2/3,-7/6", "--omega", "43/26,-45/26")
    assert code == 0 and doc["result"] == SKEW2_SUPPORT
    # C^2 does not depend on the basis
    reduced = tmp_path / "red2.json"
    reduced.write_text(dumps({"rank": 2, "gram": [["2", "1"], ["1", "-2"]],
                              "ample": ["1", "0"], "k3": True}))
    code, doc = run(tmp_path, "support", "--lattice", str(reduced),
                    "--beta", "-1/3,-1/2", "--omega", "3/2,-1/13")
    assert code == 0
    assert doc["result"]["root_search"]["c_squared"] == "4985/12951"


def test_support_rank3_skewed_walk_pinned(tmp_path):
    """``points_visited`` counts the walk node for node: pinned, with the
    discreteness sample, on a skewed rank-3 basis (diag(2, -2, -2) moved by a
    unimodular matrix), beside the README example and the rank-2 skewed
    basis above."""
    lat = tmp_path / "skew3.json"
    lat.write_text(dumps({"rank": 3, "gram": [["-2", "0", "-8"], ["0", "0", "-2"],
                                              ["-8", "-2", "-28"]],
                          "ample": ["-3", "0", "1"], "k3": True}))
    code, doc = run(tmp_path, "support", "--lattice", str(lat), "--beta", "-1/3,1/5,1/7",
                    "--omega", "-9/2,1/13,3/2")
    assert code == 0
    res = doc["result"]
    assert res["root_search"] == {"bound_reached": "8", "c_squared": "416/46305",
                                  "points_visited": 165,
                                  "witness": ["0", ["-1", "1", "0"], "0"]}
    assert res["discreteness_sample"] == {"classes": 4, "radius_sq": "1664/46305"}


def test_support_output_same_under_python_O(tmp_path, lattice_file):
    """No postcondition rides on ``assert``, which ``python -O`` strips."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stabkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "support.json"
    outputs = []
    for flags in ([], ["-O"]):
        subprocess.run([sys.executable, *flags, "-m", "stabkit.cli", "support",
                        "--lattice", lattice_file, "--beta", "0", "--omega", "2",
                        "--out", str(out)], env=env, check=True, capture_output=True)
        outputs.append(strip_timestamps(out.read_text()))
    assert outputs[0] == outputs[1]


# classify-wall payloads, pinned so that work on the decomposition scan keeps
# them byte for byte. Decompositions are listed as (parts, slack).
def _decompositions(rows):
    return [{"m": len(parts), "parts": [list(p) for p in parts], "slack": slack}
            for parts, slack in rows]


_HINTS = {"admits_totally_semistable_candidate": True, "has_isotropic": False,
          "has_root": True, "provenance": "advisory numerical hints, not a classification"}

# the wall of v = (1,0,-1) on k3d2 through the skewed H_W basis (v, (-8,1,5))
K3D2_PROBE_WALL = {
    "decompositions": _decompositions([
        (((1, 0),), 0),
        (((-5, -1), (6, 1)), 0),
        (((-6, -1), (1, 0), (6, 1)), 0),
        (((-6, -1), (-5, -1), (6, 1), (6, 1)), 0),
    ]),
    "hints": _HINTS,
    "hw_basis": [["1", ["0"], "-1"], ["-8", ["1"], "5"]],
    "hw_gram": [["2", "-13"], ["-13", "82"]],
    "isotropic": "none",
    "roots": [["1", ["-1"], "2"], ["2", ["-1"], "1"], ["-2", ["1"], "-1"],
              ["-1", ["1"], "-2"]],
    "v_in_hw": [1, 0],
    "wall": {"center": "-3/2", "conic": ["2", "6", "0", "2"], "id": "W",
             "kind": "SEMICIRCLE", "radius_sq": "5/4", "v": ["1", ["0"], "-1"],
             "w": ["-8", ["1"], "5"]},
}

U2_LATTICE = {"rank": 2, "gram": [["2", "1"], ["1", "-2"]], "ample": ["1", "0"], "k3": True}
U2_WALL = {
    "decompositions": _decompositions([
        (((1, 0),), 0),
        (((-2, -1), (3, 1)), 0),
        (((-1, -1), (2, 1)), 4),
        (((0, -1), (1, 1)), 0),
        (((-5, -2), (1, 0), (5, 2)), 0),
        (((-3, -1), (-1, -1), (5, 2)), 0),
        (((-2, -5), (1, 0), (2, 5)), 0),
        (((-2, -1), (-2, -1), (5, 2)), 4),
        (((-2, -1), (1, 0), (2, 1)), 0),
        (((-1, -3), (1, 1), (1, 2)), 0),
        (((-1, -2), (0, 1), (2, 1)), 0),
        (((-1, -2), (1, 0), (1, 2)), 0),
        (((-1, -2), (1, 1), (1, 1)), 4),
        (((-1, -1), (1, 0), (1, 1)), 0),
        (((-5, -2), (-2, -1), (3, 1), (5, 2)), 0),
        (((-5, -2), (-1, -1), (2, 1), (5, 2)), 4),
        (((-5, -2), (0, -1), (1, 1), (5, 2)), 0),
        (((-2, -5), (-2, -1), (2, 5), (3, 1)), 0),
        (((-2, -5), (-1, -1), (2, 1), (2, 5)), 4),
        (((-2, -5), (0, -1), (1, 1), (2, 5)), 0),
        (((-2, -5), (1, 1), (1, 1), (1, 3)), 0),
        (((-2, -5), (1, 1), (1, 2), (1, 2)), 4),
        (((-2, -1), (-2, -1), (2, 1), (3, 1)), 0),
        (((-2, -1), (-1, -2), (1, 2), (3, 1)), 0),
        (((-2, -1), (-1, -1), (-1, 0), (5, 2)), 0),
        (((-2, -1), (-1, -1), (1, 1), (3, 1)), 0),
        (((-2, -1), (-1, -1), (2, 1), (2, 1)), 4),
        (((-2, -1), (0, -1), (1, 1), (2, 1)), 0),
        (((-1, -2), (-1, -2), (1, 3), (2, 1)), 0),
        (((-1, -2), (-1, -1), (1, 2), (2, 1)), 4),
        (((-1, -2), (-1, 0), (1, 1), (2, 1)), 0),
        (((-1, -2), (0, -1), (1, 1), (1, 2)), 0),
        (((-1, -1), (-1, -1), (1, 1), (2, 1)), 4),
        (((-1, -1), (0, -1), (1, 1), (1, 1)), 0),
    ]),
    "hints": _HINTS,
    "hw_basis": [["1", ["0", "0"], "-1"], ["-2", ["0", "1"], "1"]],
    "hw_gram": [["2", "-3"], ["-3", "2"]],
    "isotropic": "none",
    "point_residual": "785/24",
    "roots": [["0", ["0", "-1"], "1"], ["1", ["0", "-1"], "0"], ["-1", ["0", "1"], "0"],
              ["0", ["0", "1"], "-1"]],
    "v_in_hw": [1, 0],
    "wall": {"center": "-8/3", "conic": ["1", "16/3", "0", "44/9"], "id": "W",
             "kind": "SEMICIRCLE", "radius_sq": "20/9", "v": ["1", ["0", "0"], "-1"],
             "w": ["-2", ["0", "1"], "1"]},
}


def test_classify_wall_payload_pinned(tmp_path, lattice_file):
    code, doc = run(tmp_path, "classify-wall", "--lattice", lattice_file,
                    "--v", "1,0,-1", "--w", "-8,1,5", "--beta0", "0",
                    "--max-m", "4", "--box", "6")
    assert code == 0 and doc["result"] == K3D2_PROBE_WALL
    u2 = tmp_path / "u2.json"
    u2.write_text(dumps(U2_LATTICE))
    code, doc = run(tmp_path, "classify-wall", "--lattice", str(u2),
                    "--v", "1,0,0,-1", "--w", "-2,0,1,1", "--beta0", "1,-1/3",
                    "--max-m", "4", "--box", "5", "--point", "2,3/2")
    assert code == 0 and doc["result"] == U2_WALL


def test_classify_wall_rejects_empty_box(tmp_path, lattice_file, capsys):
    for box in ("0", "-1"):
        assert main(["classify-wall", "--lattice", lattice_file, "--v", "1,0,-1",
                     "--w", "-8,1,5", "--beta0", "0", "--box", box,
                     "--out", str(tmp_path / "x.json")]) == 1
        assert "box must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_classify_wall_budget_exits_2(tmp_path, lattice_file, monkeypatch, capsys):
    monkeypatch.setenv("BRIDGELAND_BUDGET", "441")
    assert main(["classify-wall", "--lattice", lattice_file, "--v", "1,0,-1",
                 "--w", "0,0,1", "--beta0", "0", "--max-m", "4",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert "decomposition scan exceeded budget of 441 nodes" in capsys.readouterr().err


def test_classify_wall_pairing_bound_over_budget_exits_2(tmp_path, lattice_file,
                                                       monkeypatch, capsys):
    """Bound 10^6 asks for 2 10^6 + 1 pairing values; the default budget of
    2^20 fits bound 524287, and the root search stops before it tries any."""
    monkeypatch.delenv("BRIDGELAND_BUDGET", raising=False)
    assert main(["classify-wall", "--lattice", lattice_file, "--v", "1,0,-1",
                 "--w", "0,0,1", "--beta0", "0", "--bound", "1000000",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert ("root search of 2000001 pairing values exceeds the budget of 1048576 "
            "(bound reached 524287)" in capsys.readouterr().err)
    assert not (tmp_path / "x.json").exists()


CLASSIFY = ["classify-wall", "--v", "1,0,-1", "--w", "0,0,1", "--beta0", "0"]
WALLS = ["walls", "--v", "1,0,-1", "--beta0", "0", "--b", "-3:0", "--t", "1/10:4"]


@pytest.mark.parametrize("argv, message", [
    ([*WALLS, "--bound", "1000000"],
     "wall box of 8000012000006000001 classes exceeds the budget of 1000 "
     "(bound reached 4)"),
    ([*WALLS, "--bound", "2", "--grid", "1000000000"],
     "oracle grid of 3000000003 values (3 loci) exceeds the budget of 1000 "
     "(grid reached 332)"),
    (["lagrangian", "--v", "1,0,-1", "--bound", "1000000"],
     "v-perp box of 4000004000001 heads exceeds the budget of 1000 (bound reached 15)"),
    ([*CLASSIFY, "--bound", "1000000000"],
     "root search of 2000000001 pairing values exceeds the budget of 1000 "
     "(bound reached 499)"),
    ([*CLASSIFY, "--max-m", "1", "--box", "400"],
     "decomposition box of 641601 points exceeds the budget of 1000 (bound reached 15)"),
    (["support", "--beta", "0", "--omega", "2", "--start-bound", str(10 ** 30)],
     f"root search budget of 1000 nodes exhausted before certification "
     f"(bound reached {10 ** 30})"),
], ids=["walls-box", "walls-grid", "lagrangian-box", "classify-pairing",
        "classify-box", "support-start"])
def test_oversized_searches_exit_2_at_once(tmp_path, lattice_file, argv, message):
    """Nothing hangs: under a budget of 1000, a search asked for far past
    it exits 2 within the timeout, writes no output, and names the search
    and the bound it reached. The decomposition box (641,601 points at box
    400) is refused before its pool is built."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stabkit.__file__)))
    out = tmp_path / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", "stabkit.cli", *argv, "--lattice", lattice_file,
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src, BRIDGELAND_BUDGET="1000"),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == f"computation error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["walls", "--lattice", "{lat}", "--v", "1,0,-1", "--beta0", "0", "--b", "-3",
      "--t", "1/10:4", "--out", "{out}"], "expected lo:hi range, got '-3'"),
    (["plot", "--walls", "{walls}"], "plot needs --out for the SVG file"),
    (["walls", "--lattice", "{lat}", "--v", "1,0,-1", "--beta0", "0", "--b", "-3:0",
      "--t", "1/10:4", "--grid", "1", "--out", "{out}"], "grid too coarse"),
    (["walls", "--lattice", "{surface}", "--v", "1,0,-1", "--beta0", "0", "--b", "-3:0",
      "--t", "1/10:4", "--out", "{out}"],
     "candidate enumeration uses the K3 square bounds; flag the lattice k3 or "
     "enumerate classes yourself"),
    (["chambers", "--walls", "{walls}", "--b", "-1", "--t", "0:4", "--out", "{out}"],
     "need 0 < t_lo <= t_hi"),
    (["classify-wall", "--lattice", "{lat}", "--v", "1,0,-1", "--w", "0,0,1",
      "--beta0", "0", "--bound", "-1", "--out", "{out}"],
     "pairing_bound must be nonnegative"),
    (["lagrangian", "--lattice", "{lat}", "--v", "1,0,1", "--out", "{out}"],
     "need (v, v) >= 0"),
    (["hn", "--category", "{category}", "--charge", "{charge}", "--object", "0",
      "--out", "{out}"], "need a nonzero object id, got '0'"),
], ids=["walls-range", "plot-out", "walls-grid", "walls-surface", "chambers-t",
        "classify-bound", "lagrangian-square", "hn-zero"])
def test_input_errors_exit_1(tmp_path, lattice_file, capsys, argv, message):
    surface = tmp_path / "surface.json"
    surface.write_text(dumps({"rank": 1, "gram": [["2"]], "ample": ["1"], "k3": False}))
    category = tmp_path / "cat.json"
    category.write_text(dumps({"objects": [{"id": "0", "class": ["0"]},
                                           {"id": "A", "class": ["1"]}],
                               "edges": [], "zero": "0"}))
    charge = tmp_path / "charge.json"
    charge.write_text(dumps([["-1", "1"]]))
    walls = tmp_path / "walls.json"
    assert main(["walls", "--lattice", lattice_file, "--v", "1,0,-1", "--beta0", "0",
                 "--b", "-3:0", "--t", "1/10:4", "--bound", "3", "--out", str(walls)]) == 0
    out = tmp_path / "x.json"
    files = {"lat": lattice_file, "surface": surface, "walls": walls,
             "category": category, "charge": charge, "out": out}
    capsys.readouterr()
    assert main([a.format(**files) for a in argv]) == 1
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


def test_lagrangian_budget_exits_2(tmp_path, lattice_file, monkeypatch, capsys):
    """The 13^2 heads of the bound-6 box exceed a budget of 50 before any
    work; 7^2 = 49 fits, so the error names bound 3."""
    monkeypatch.setenv("BRIDGELAND_BUDGET", "50")
    assert main(["lagrangian", "--lattice", lattice_file, "--v", "1,0,-1",
                 "--bound", "6", "--out", str(tmp_path / "x.json")]) == 2
    assert ("v-perp box of 169 heads exceeds the budget of 50 (bound reached 3)"
            in capsys.readouterr().err)
    assert not (tmp_path / "x.json").exists()


# walls payloads, pinned so that work on the box scan keeps them byte for
# byte. Walls are listed as (w, (A, B, D), kind, center, radius_sq).
def _walls(v, rows):
    out = []
    for i, (w, (a, b, d), kind, center, radius_sq) in enumerate(rows):
        wall = {"conic": [a, b, "0", d], "id": f"W{i}", "v": v,
                "w": [str(w[0]), [str(x) for x in w[1:-1]], str(w[-1])],
                "kind": {"S": "SEMICIRCLE", "V": "VERTICAL_LINE"}[kind],
                "center": center}
        if radius_sq is not None:
            wall["radius_sq"] = radius_sq
        out.append(wall)
    return out


_WALLS_NOTE = ("potential walls (charge alignment); actual-wall "
               "certification is object-level and out of scope")
K3D2_WALLS = {
    "beta0": ["0"],
    "nesting": {"pairs_checked": 78, "touching": 0, "violations": 0},
    "note": _WALLS_NOTE,
    "oracle": {"agrees": True, "detected": 13, "grid": 24},
    "region": {"b_max": "0", "b_min": "-3", "t_max": "4", "t_min": "1/10"},
    "v": ["1", ["0"], "-1"],
    "walls": _walls(["1", ["0"], "-1"], [
        ((-8, 0, 0), ("0", "16", "0"), "V", "0", None),
        ((-8, 1, 0), ("2", "16", "2"), "S", "-4", "15"),
        ((-8, 1, 1), ("2", "14", "2"), "S", "-7/2", "45/4"),
        ((-8, 1, 2), ("2", "12", "2"), "S", "-3", "8"),
        ((-8, 1, 3), ("2", "10", "2"), "S", "-5/2", "21/4"),
        ((-8, 1, 4), ("2", "8", "2"), "S", "-2", "3"),
        ((-8, 2, 1), ("4", "14", "4"), "S", "-7/4", "33/16"),
        ((-8, 1, 5), ("2", "6", "2"), "S", "-3/2", "5/4"),
        ((-8, 3, 0), ("6", "16", "6"), "S", "-4/3", "7/9"),
        ((-8, 2, 3), ("4", "10", "4"), "S", "-5/4", "9/16"),
        ((-8, 3, 1), ("6", "14", "6"), "S", "-7/6", "13/36"),
        ((-8, 4, -1), ("8", "18", "8"), "S", "-9/8", "17/64"),
        ((-8, 5, -3), ("10", "22", "10"), "S", "-11/10", "21/100"),
    ]),
}

U2_WALLS = {
    "beta0": ["1", "-1/3"],
    "note": _WALLS_NOTE,
    "oracle": {"agrees": True, "detected": 17, "grid": 24},
    "region": {"b_max": "0", "b_min": "-4", "t_max": "3", "t_min": "1/4"},
    "v": ["1", ["0", "0"], "-1"],
    "walls": _walls(["1", ["0", "0"], "-1"], [
        ((-3, -1, 2, 2), ("0", "16/3", "40/9"), "V", "-5/6", None),
        ((-3, 0, 1, 0), ("1", "28/3", "74/9"), "S", "-14/3", "122/9"),
        ((-3, 0, 1, 1), ("1", "22/3", "59/9"), "S", "-11/3", "62/9"),
        ((-3, 1, -1, 0), ("1", "6", "49/9"), "S", "-3", "32/9"),
        ((-3, 0, 1, 2), ("1", "16/3", "44/9"), "S", "-8/3", "20/9"),
        ((-3, 1, 0, 0), ("2", "28/3", "26/3"), "S", "-7/3", "10/9"),
        ((-3, 0, 2, 2), ("2", "26/3", "73/9"), "S", "-13/6", "23/36"),
        ((-3, 1, 1, 0), ("3", "38/3", "107/9"), "S", "-19/9", "40/81"),
        ((-3, 1, -1, 1), ("1", "4", "34/9"), "S", "-2", "2/9"),
        ((-3, -3, 1, -2), ("-5", "10/3", "5/9"), "S", "1/3", "2/9"),
        ((-3, -2, 1, 0), ("-3", "8/3", "8/9"), "S", "4/9", "40/81"),
        ((-3, -2, 2, 2), ("-2", "2", "7/9"), "S", "1/2", "23/36"),
        ((-3, -1, 0, 0), ("-2", "8/3", "4/3"), "S", "2/3", "10/9"),
        ((-3, -2, 2, 1), ("-2", "4", "22/9"), "S", "1", "20/9"),
        ((-3, 0, -1, 0), ("-1", "8/3", "16/9"), "S", "4/3", "32/9"),
        ((-3, -1, 1, 1), ("-1", "4", "26/9"), "S", "2", "62/9"),
        ((-3, -1, 1, 0), ("-1", "6", "41/9"), "S", "3", "122/9"),
    ]),
}


def test_walls_payload_pinned(tmp_path, lattice_file):
    code, doc = run(tmp_path, "walls", "--lattice", lattice_file, "--v", "1,0,-1",
                    "--beta0", "0", "--b", "-3:0", "--t", "1/10:4", "--bound", "8",
                    "--grid", "24")
    assert code == 0 and doc["result"] == K3D2_WALLS
    u2 = tmp_path / "u2.json"
    u2.write_text(dumps(U2_LATTICE))
    code, doc = run(tmp_path, "walls", "--lattice", str(u2), "--v", "1,0,0,-1",
                    "--beta0", "1,-1/3", "--b", "-4:0", "--t", "1/4:3", "--bound", "3",
                    "--grid", "24")
    assert code == 0 and doc["result"] == U2_WALLS


def test_walls_box_budget_exits_2(tmp_path, lattice_file, monkeypatch, capsys):
    """A box of 7^3 classes over a budget of 100 stops before the walk; the
    largest box that fits is bound 1 (3^3 classes)."""
    monkeypatch.setenv("BRIDGELAND_BUDGET", "100")
    argv = ["walls", "--lattice", lattice_file, "--v", "1,0,-1", "--beta0", "0",
            "--b", "-3:0", "--t", "1/10:4", "--out", str(tmp_path / "x.json")]
    assert main([*argv, "--bound", "3"]) == 2
    assert ("wall box of 343 classes exceeds the budget of 100 (bound reached 1)"
            in capsys.readouterr().err)
    assert main([*argv, "--bound", "0"]) == 1
    assert "search_bound must be positive" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()
    assert main([*argv, "--bound", "1"]) == 0


def test_walls_grid_budget_exits_2(tmp_path, lattice_file, monkeypatch, capsys):
    """The bound-8 box has 25 distinct loci: grid 400 needs 401 * 25 = 10025
    oracle values, over a budget of 10000, and grid 399 is the largest that
    fits (400 * 25 = 10000)."""
    monkeypatch.setenv("BRIDGELAND_BUDGET", "10000")
    out = tmp_path / "x.json"
    argv = ["walls", "--lattice", lattice_file, "--v", "1,0,-1", "--beta0", "0",
            "--b", "-3:0", "--t", "1/10:4", "--bound", "8", "--out", str(out)]
    assert main([*argv, "--grid", "400"]) == 2
    assert ("oracle grid of 10025 values (25 loci) exceeds the budget of 10000 "
            "(grid reached 399)" in capsys.readouterr().err)
    assert not out.exists()
    assert main([*argv, "--grid", "399"]) == 0


def test_lattice_json_rejects_non_integral_entries(tmp_path, capsys):
    lat = tmp_path / "lat.json"
    lat.write_text(dumps({"rank": 1, "gram": [["5/2"]], "ample": ["1"], "k3": True}))
    assert main(["pairing", "--lattice", str(lat), "--v", "1,0,1", "--w", "1,0,1",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert "expected an integer, got '5/2'" in capsys.readouterr().err
    # an integral rational still reads as its integer
    lat.write_text(dumps({"rank": 1, "gram": [["4/2"]], "ample": ["1"], "k3": True}))
    code, doc = run(tmp_path, "pairing", "--lattice", str(lat),
                    "--v", "0,1,0", "--w", "0,1,0")
    assert code == 0 and doc["result"]["value"] == "2"


def test_walls_json_rejects_non_integral_class(tmp_path, lattice_file, capsys):
    wallsf = tmp_path / "walls.json"
    assert main(["walls", "--lattice", lattice_file, "--v", "1,0,-1", "--beta0", "0",
                 "--b", "-3:0", "--t", "1/10:4", "--bound", "2",
                 "--out", str(wallsf)]) == 0
    doc = json.loads(wallsf.read_text())
    doc["result"]["walls"][0]["w"][1][0] = "1/2"
    wallsf.write_text(dumps(doc))
    assert main(["chambers", "--walls", str(wallsf), "--b", "-1", "--t", "1/10:4",
                 "--out", str(tmp_path / "c.json")]) == 1
    assert "expected an integer, got '1/2'" in capsys.readouterr().err


def _edited_walls_run(tmp_path, lattice_file, edit, b="-1"):
    """Exit code of ``chambers`` on the README example's walls file at bound
    2 (W0 the vertical line b = 0, W1 a semicircle) after ``edit`` changes
    its walls."""
    wallsf = tmp_path / "walls.json"
    assert main(["walls", "--lattice", lattice_file, "--v", "1,0,-1", "--beta0", "0",
                 "--b", "-3:0", "--t", "1/10:4", "--bound", "2",
                 "--out", str(wallsf)]) == 0
    doc = json.loads(wallsf.read_text())
    walls = doc["result"]["walls"]
    assert [w["kind"] for w in walls] == ["VERTICAL_LINE", "SEMICIRCLE"]
    edit(walls)
    wallsf.write_text(dumps(doc))
    return main(["chambers", "--walls", str(wallsf), "--b", b, "--t", "1/10:4",
                 "--out", str(tmp_path / "c.json")])


@pytest.mark.parametrize("edit, b, message", [
    # a semicircle without center used to end in a TypeError traceback
    (lambda ws: ws[1].pop("center"), "-1",
     "wall 'W1': a SEMICIRCLE wall carries center and radius_sq"),
    # a line without center used to be reported as not coincident at b = 0
    (lambda ws: ws[0].pop("center"), "0",
     "wall 'W0': a VERTICAL_LINE wall carries center and no radius_sq"),
    (lambda ws: ws[0].update(radius_sq="1"), "-1",
     "wall 'W0': a VERTICAL_LINE wall carries center and no radius_sq"),
    (lambda ws: ws[1]["conic"].pop(2), "-1",
     "wall 'W1': the conic needs 4 entries, got ['2', '6', '2']"),
    (lambda ws: ws[1]["conic"].__setitem__(2, "1/3"), "-1",
     "wall 'W1': the third conic entry must be 0"),
], ids=["semicircle-without-center", "line-without-center", "line-with-radius",
        "three-entry-conic", "nonzero-third-entry"])
def test_chambers_rejects_a_wall_that_does_not_fit_its_kind(tmp_path, lattice_file, capsys,
                                                            edit, b, message):
    assert _edited_walls_run(tmp_path, lattice_file, edit, b) == 1
    assert f"input error: {message}" in capsys.readouterr().err


def test_chambers_reads_the_walls_it_was_given(tmp_path, lattice_file):
    """The unedited file: the line is coincident at b = 0, and the
    semicircle of center -3/2 and radius^2 5/4 is crossed at b = -1."""
    assert _edited_walls_run(tmp_path, lattice_file, lambda ws: None, b="0") == 0
    doc = json.loads((tmp_path / "c.json").read_text())["result"]
    assert [w["kind"] for w in doc["coincident_walls"]] == ["VERTICAL_LINE"]
    assert _edited_walls_run(tmp_path, lattice_file, lambda ws: None) == 0
    doc = json.loads((tmp_path / "c.json").read_text())["result"]
    assert [c["t_squared"] for c in doc["crossings"]] == ["1"]


def test_chambers_rejects_float_in_walls_result(tmp_path, lattice_file, capsys):
    """The walls result is hashed in canonical form; a JSON float anywhere
    in it is an input error, not a traceback."""
    wallsf = tmp_path / "walls.json"
    assert main(["walls", "--lattice", lattice_file, "--v", "1,0,-1", "--beta0", "0",
                 "--b", "-3:0", "--t", "1/10:4", "--bound", "2",
                 "--out", str(wallsf)]) == 0
    doc = json.loads(wallsf.read_text())
    doc["result"]["nesting"]["pairs_checked"] = 1.5
    wallsf.write_text(json.dumps(doc))
    assert main(["chambers", "--walls", str(wallsf), "--b", "-1", "--t", "1/10:4",
                 "--out", str(tmp_path / "c.json")]) == 1
    assert ("input error: walls result is not stabkit JSON: "
            "not a canonical JSON value: 1.5" in capsys.readouterr().err)


def test_category_json_rejects_non_integral_class(tmp_path, capsys):
    cat = {"objects": [{"id": "0", "class": ["0", "0"]},
                       {"id": "S1", "class": ["0", "1"]},
                       {"id": "S2", "class": ["1/2", "0"]},
                       {"id": "A", "class": ["1", "1"]}],
           "edges": [{"sub": "S2", "ambient": "A", "quotient": "S1"}],
           "zero": "0"}
    catf = tmp_path / "cat.json"
    chf = tmp_path / "charge.json"
    catf.write_text(dumps(cat))
    chf.write_text(dumps([["-1", "0"], ["0", "1"]]))
    assert main(["hn", "--category", str(catf), "--charge", str(chf),
                 "--object", "A", "--out", str(tmp_path / "x.json")]) == 1
    assert "expected an integer, got '1/2'" in capsys.readouterr().err


# hn and validate-category payloads, pinned so that work on the HN layer
# keeps them byte for byte: an interval tower on four simples where X12 and
# X23 lie on one ray (the HN step above X01 must take the larger X03), and
# a charge with three invalid objects whose messages print exact rationals


def interval_tower(m):
    objects = [{"id": "0", "class": ["0"] * m}]
    for i in range(m):
        for j in range(i + 1, m + 1):
            objects.append({"id": f"X{i}{j}",
                            "class": [str(int(i <= k < j)) for k in range(m)]})
    edges = [{"sub": f"X{i}{j}", "ambient": f"X{i}{k}", "quotient": f"X{j}{k}"}
             for i in range(m) for j in range(i + 1, m + 1) for k in range(j + 1, m + 1)]
    return {"objects": objects, "edges": edges, "zero": "0"}


TOWER_CHARGE = [["-5/2", "0"], ["-1", "1"], ["-2/3", "2/3"], ["1", "2/5"]]
TOWER_BAD_CHARGE = [["-5/2", "0"], ["1/2", "-3/7"], ["1/3", "1"], ["5/4", "0"]]
TOWER_HN = {
    "X04": {"factor_classes": [["1", "0", "0", "0"], ["0", "1", "1", "0"],
                               ["0", "0", "0", "1"]],
            "factor_ids": ["X01", "X13", "X34"], "notes": [], "seesaw_violations": [],
            "steps": ["0", "X01", "X03", "X04"]},
    "X13": {"factor_classes": [["0", "1", "1", "0"]], "factor_ids": ["X13"],
            "notes": [], "seesaw_violations": [], "steps": ["0", "X13"]},
}
TOWER_VIOLATIONS = {"violations": [
    {"code": "invalid-charge", "subject": "X02",
     "message": "Z(X02) = -2-3/7i outside the upper half-plane union R_{<0}"},
    {"code": "invalid-charge", "subject": "X12",
     "message": "Z(X12) = 1/2-3/7i outside the upper half-plane union R_{<0}"},
    {"code": "invalid-charge", "subject": "X34",
     "message": "Z(X34) = 5/4+0i outside the upper half-plane union R_{<0}"},
]}


def test_hn_payloads_pinned(tmp_path):
    catf, chf, badf = tmp_path / "cat.json", tmp_path / "z.json", tmp_path / "bad.json"
    catf.write_text(dumps(interval_tower(4)))
    chf.write_text(dumps(TOWER_CHARGE))
    badf.write_text(dumps(TOWER_BAD_CHARGE))
    for obj, want in TOWER_HN.items():
        code, doc = run(tmp_path, "hn", "--category", str(catf), "--charge", str(chf),
                        "--object", obj)
        assert code == 0 and doc["result"] == want
    code, doc = run(tmp_path, "validate-category", "--category", str(catf),
                    "--charge", str(chf))
    assert code == 0 and doc["result"] == {"violations": []}
    code, doc = run(tmp_path, "validate-category", "--category", str(catf),
                    "--charge", str(badf))
    assert code == 0 and doc["result"] == TOWER_VIOLATIONS


# one presentation that triggers every violation code: the zero object has a
# nonzero class (so every implied edge fails additivity), an edge names the
# unknown X, an edge from zero and a reflexive edge have wrong quotients, B
# and C contain each other, and Z(B) lies in the lower half-plane
EVERY_VIOLATION_CATEGORY = {
    "objects": [{"id": "0", "class": ["0", "1"]}, {"id": "A", "class": ["1", "0"]},
                {"id": "B", "class": ["-1", "2"]}, {"id": "C", "class": ["0", "2"]}],
    "edges": [{"sub": s, "ambient": a, "quotient": q} for s, a, q in (
        ("A", "C", "B"), ("A", "B", "X"), ("C", "B", "0"), ("B", "C", "0"),
        ("0", "A", "B"), ("A", "A", "C"))],
    "zero": "0"}
NOT_ADDITIVE = "class(ambient) != class(sub) + class(quotient)"
EVERY_VIOLATION = [
    ("zero-class", "0", "zero object has nonzero class"),
    ("additivity", "A", f"edge 0 < A / A: {NOT_ADDITIVE}"),
    ("additivity", "A", f"edge 0 < A / B: {NOT_ADDITIVE}"),
    ("zero-edge", "A", "edge from zero must have quotient = ambient"),
    ("additivity", "B", f"edge 0 < B / B: {NOT_ADDITIVE}"),
    ("additivity", "C", f"edge 0 < C / C: {NOT_ADDITIVE}"),
    ("additivity", "A", f"edge A < A / 0: {NOT_ADDITIVE}"),
    ("additivity", "A", f"edge A < A / C: {NOT_ADDITIVE}"),
    ("reflexive-edge", "A", "reflexive edge must have quotient = zero"),
    ("unknown-id", "X", "edge Edge(sub='A', ambient='B', quotient='X') references unknown id"),
    ("additivity", "B", f"edge B < B / 0: {NOT_ADDITIVE}"),
    ("additivity", "C", f"edge B < C / 0: {NOT_ADDITIVE}"),
    ("additivity", "B", f"edge C < B / 0: {NOT_ADDITIVE}"),
    ("additivity", "C", f"edge C < C / 0: {NOT_ADDITIVE}"),
    ("cycle", "B", "subobject relation is not a partial order: 0 < A < B < C < B"),
    ("invalid-charge", "B", "Z(B) = -2-1i outside the upper half-plane union R_{<0}"),
]


def test_validate_category_payload_pinned_for_every_code(tmp_path):
    catf, chf = tmp_path / "cat.json", tmp_path / "z.json"
    catf.write_text(dumps(EVERY_VIOLATION_CATEGORY))
    chf.write_text(dumps([["1", "1"], ["-1/2", "0"]]))
    code, doc = run(tmp_path, "validate-category", "--category", str(catf),
                    "--charge", str(chf))
    assert code == 0
    assert dumps(doc["result"]) == dumps({"violations": [
        {"code": c, "message": m, "subject": s} for c, s, m in EVERY_VIOLATION]})


@pytest.mark.parametrize("charge, entries", [([["-1", "1"]], 1),
                                             ([["-1", "1"], ["0", "1"], ["1", "1"]], 3)])
def test_charge_row_length_must_match_classes(tmp_path, capsys, charge, entries):
    cat = {"objects": [{"id": "0", "class": ["0", "0"]},
                       {"id": "S", "class": ["1", "0"]},
                       {"id": "T", "class": ["0", "1"]},
                       {"id": "A", "class": ["1", "1"]}],
           "edges": [{"sub": "S", "ambient": "A", "quotient": "T"}], "zero": "0"}
    catf, chf = tmp_path / "cat.json", tmp_path / "z.json"
    catf.write_text(dumps(cat))
    chf.write_text(dumps(charge))
    for argv in (["hn", "--category", str(catf), "--charge", str(chf), "--object", "A"],
                 ["validate-category", "--category", str(catf), "--charge", str(chf)]):
        assert main([*argv, "--out", str(tmp_path / "x.json")]) == 1
        err = capsys.readouterr().err
        assert f"charge row has {entries} entries but the class of '0' has 2 coordinates" in err


def test_charge_json_rejects_float(tmp_path):
    """A JSON float in a charge file is an input error, not a traceback."""
    cat = {"objects": [{"id": "0", "class": ["0", "0"]},
                       {"id": "S", "class": ["1", "0"]},
                       {"id": "T", "class": ["0", "1"]},
                       {"id": "A", "class": ["1", "1"]}],
           "edges": [{"sub": "S", "ambient": "A", "quotient": "T"}], "zero": "0"}
    catf, chf = tmp_path / "cat.json", tmp_path / "z.json"
    catf.write_text(dumps(cat))
    chf.write_text(json.dumps([[-1.5, 0], [0, 1]]))
    src = os.path.dirname(os.path.dirname(os.path.abspath(stabkit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "stabkit.cli", "hn", "--category", str(catf),
         "--charge", str(chf), "--object", "A", "--out", str(tmp_path / "x.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "input error: expected a rational, got -1.5" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_flags_are_the_parser_options():
    """The README's Flags: line lists every option string of every
    subcommand, and nothing else."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Flags: `([^`]*)`", readme).group(1).split()
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    defined = {opt for p in sub.choices.values() for a in p._actions
               for opt in a.option_strings if opt not in ("-h", "--help")}
    assert sorted(listed) == sorted(defined)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """The record types are named tuples: importing the CLI builds no
    dataclass, so neither module is loaded at start-up."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stabkit.__file__)))
    code = "import sys, stabkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv, message", [
    (["walls", "--v", "1,0,-1", "--beta0", "0", "--b", "-3:0"],
     "stabkit walls: error: the following arguments are required: --t"),
    (["walls", "--v", "1,0,-1", "--beta0", "0", "--b", "-3:0", "--t", "1:2", "--bound", "x"],
     "stabkit walls: error: argument --bound: invalid int value: 'x'"),
    (["pairing", "--v", "1,0,1", "--w", "1,0,1", "--zork"],
     "stabkit: error: unrecognized arguments: --zork"),
])
def test_usage_errors_exit_1(tmp_path, lattice_file, capsys, argv, message):
    """A usage error is an input error: exit 1, with argparse's message."""
    out = tmp_path / "x.json"
    assert main([*argv, "--lattice", lattice_file, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_support_start_bound_may_start_with_a_dash(tmp_path, lattice_file, capsys):
    """A negative start bound reaches the library's check, not argparse."""
    out = tmp_path / "x.json"
    assert main(["support", "--lattice", lattice_file, "--beta", "0", "--omega", "2",
                 "--start-bound", "-1/2", "--out", str(out)]) == 1
    assert "input error: start bound must be positive, got -1/2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("classes", [["-1,0,1"], ["1,0,1", "-1,0,1"]])
def test_support_classes_may_start_with_a_dash(tmp_path, lattice_file, classes):
    """Every value after --classes is a class, one with a negative first
    entry too; the manifest keeps the command as given."""
    argv = ["support", "--lattice", lattice_file, "--beta", "0", "--omega", "2",
            "--classes", *classes, "--start-bound", "2"]
    code, doc = run(tmp_path, *argv)
    assert code == 0
    verdicts = doc["result"]["roundtrip"]["verdicts"]
    assert [",".join(v["class"]) for v in verdicts] == classes
    assert doc["manifest"]["command"] == " ".join([*argv, "--out", str(tmp_path / "out.json")])


def test_values_may_start_with_a_dash(tmp_path, monkeypatch):
    """Every option but --classes and --help takes the next token as its
    value, an object id ``-A`` and an output file ``-w.json`` too."""
    cat = {"objects": [{"id": "0", "class": ["0"]}, {"id": "-A", "class": ["1"]}],
           "edges": [], "zero": "0"}
    (tmp_path / "cat.json").write_text(dumps(cat))
    (tmp_path / "charge.json").write_text(dumps([["0", "1"]]))
    monkeypatch.chdir(tmp_path)
    assert main(["hn", "--category", "cat.json", "--charge", "charge.json",
                 "--object", "-A", "--out", "-w.json"]) == 0
    doc = json.loads((tmp_path / "-w.json").read_text())
    assert doc["result"]["steps"] == ["0", "-A"]
    assert doc["manifest"]["command"] == ("hn --category cat.json --charge charge.json "
                                          "--object -A --out -w.json")


@pytest.mark.parametrize("kind, doc, message", [
    ("lattice", [1], "a lattice is a JSON object, got [1]"),
    ("lattice", {"rank": "1", "gram": 2, "ample": ["1"]}, "gram must be a list of rows, got 2"),
    ("lattice", {"rank": "1", "gram": [["2"]], "ample": 1}, "ample must be a list, got 1"),
    ("category", [1], "a category is a JSON object, got [1]"),
    ("category", {"objects": [1], "zero": "0"}, "objects must be a list of JSON objects"),
    ("category", {"objects": [{"id": "0", "class": 5}], "zero": "0"},
     "the class of '0' must be a list, got 5"),
    ("charge", [1], "a charge row is a list of [re, im] pairs, got [1]"),
])
def test_wrong_shaped_json_is_an_input_error(tmp_path, lattice_file, capsys, kind, doc, message):
    """A file of the wrong JSON shape exits 1 with an input error, not a
    traceback."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    cat = tmp_path / "cat.json"
    cat.write_text(dumps({"objects": [{"id": "0", "class": ["0"]}], "zero": "0"}))
    charge = tmp_path / "z.json"
    charge.write_text(dumps([["-1", "1"]]))
    argv = {"lattice": ["pairing", "--lattice", str(path), "--v", "1,0,1", "--w", "1,0,1"],
            "category": ["validate-category", "--category", str(path), "--charge", str(charge)],
            "charge": ["validate-category", "--category", str(cat), "--charge", str(path)]}
    assert main([*argv[kind], "--out", str(tmp_path / "x.json")]) == 1
    assert f"input error: {message}" in capsys.readouterr().err


def _first_wall(doc, **fields):
    doc["result"]["walls"][0].update(fields)
    return doc


@pytest.mark.parametrize("command, edit, message", [
    ("chambers", lambda doc: {"result": 5},
     "a walls file is a JSON object whose result is an object"),
    ("chambers", lambda doc: {"result": {"walls": [1]}}, "a wall is a JSON object, got 1"),
    ("chambers", lambda doc: {"result": {"walls": 5}}, "walls must be a list of walls, got 5"),
    ("chambers", lambda doc: _first_wall(doc, v=5),
     "wall 'W0': a class is [r, [c_1, ...], s], got 5"),
    ("chambers", lambda doc: _first_wall(doc, w=["1", "0", "1"]),
     "wall 'W0': a class is [r, [c_1, ...], s], got ['1', '0', '1']"),
    ("plot", lambda doc: [doc], "a walls file is a JSON object whose result is an object"),
    ("plot", lambda doc: {"result": 5},
     "a walls file is a JSON object whose result is an object"),
    ("plot", lambda doc: {**doc, "result": {**doc["result"], "region": 5}},
     "region must be a JSON object, got 5"),
])
def test_wrong_shaped_walls_file_is_an_input_error(tmp_path, lattice_file, capsys,
                                                   command, edit, message):
    """A walls file of the wrong JSON shape exits 1 with an input error, not
    a traceback, in chambers and in plot."""
    wallsf = tmp_path / "walls.json"
    assert main(["walls", "--lattice", lattice_file, "--v", "1,0,-1", "--beta0", "0",
                 "--b", "-3:0", "--t", "1/10:4", "--bound", "2", "--out", str(wallsf)]) == 0
    wallsf.write_text(json.dumps(edit(json.loads(wallsf.read_text()))))
    capsys.readouterr()
    extra = {"chambers": ["--b", "-1", "--t", "1/10:4"], "plot": []}[command]
    assert main([command, "--walls", str(wallsf), *extra,
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"input error: {message}" in err and "Traceback" not in err


def test_each_input_file_is_read_once(tmp_path, lattice_file, monkeypatch):
    """The lattice file is opened once, and the manifest's hash is that of
    the bytes the command parsed."""
    import builtins
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, doc = run(tmp_path, "pairing", "--lattice", lattice_file, "--v", "1,0,1",
                    "--w", "1,0,-1")
    assert code == 0
    assert opened.count(lattice_file) == 1
    digest = hashlib.sha256(Path(lattice_file).read_bytes()).hexdigest()
    assert doc["manifest"]["input_hashes"] == {"lattice": digest}


@pytest.mark.parametrize("data", [b"\xef\xbb\xbf" + b'{"rank": 1}', b'{"rank": "\xff"}'])
def test_lattice_bytes_that_are_not_plain_utf8_json_are_an_input_error(tmp_path, capsys, data):
    """A UTF-8 BOM and a byte that is not UTF-8 are input errors (exit 1)."""
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert main(["pairing", "--lattice", str(path), "--v", "1,0,1", "--w", "1,0,1",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert "input error:" in capsys.readouterr().err
