import json
import os
import subprocess
import sys

import pytest

from robsat import cli
from robsat.cli import EXIT_DECIDED, EXIT_INTERNAL, EXIT_PARSE, EXIT_UNKNOWN, EXIT_USAGE, main

INSTANCE_DIR = os.path.join(os.path.dirname(__file__), "..", "instances")


def instance(name):
    return os.path.join(INSTANCE_DIR, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestDecide:
    def test_robust_yes(self, capsys):
        code, doc = run(capsys, "decide", "-i", instance("path_3_-1_3.json"))
        assert code == EXIT_DECIDED
        assert doc["verdict"] == "RobustYes"
        assert "timings" in doc

    def test_alpha_override(self, capsys):
        code, doc = run(capsys, "decide", "-i", instance("path_3_-1_3.json"),
                        "--alpha", "3")
        assert code == EXIT_DECIDED
        assert doc["verdict"] == "RobustNo"

    def test_witness_flag(self, capsys):
        code, doc = run(capsys, "decide", "-i", instance("path_identity.json"),
                        "--alpha", "2", "--witness", "--seed", "3")
        assert doc["verdict"] == "RobustNo"
        assert doc["witness"] is not None

    def test_parser_reuse_carries_no_arguments_over(self, capsys):
        """main() parses with one parser per process: a call after a
        --witness call and a usage error starts from the defaults again."""
        code, doc = run(capsys, "decide", "-i", instance("path_identity.json"),
                        "--alpha", "2", "--witness", "--seed", "3")
        assert code == EXIT_DECIDED and doc["witness"] is not None
        assert main(["decide", "--alpha", "2"]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err
        code, doc = run(capsys, "decide", "-i", instance("path_identity.json"),
                        "--alpha", "2")
        assert code == EXIT_DECIDED and doc["verdict"] == "RobustNo"
        assert doc["witness"] is None

    def test_inequality_instance(self, capsys):
        code, doc = run(capsys, "decide", "-i", instance("path_with_inequality.json"))
        assert code == EXIT_DECIDED
        assert doc["verdict"] == "RobustNo"

    def test_inequality_witness_is_on_the_instance(self, capsys, tmp_path):
        path = tmp_path / "ineq.json"
        path.write_text(json.dumps({
            "version": 1, "n": 1, "norm": "linf", "alpha": "1",
            "vertices": [{"id": i, "f": ["5"], "g": [g]} for i, g in enumerate(["-2", "0", "-2"])],
            "simplices": [[0, 1], [1, 2]],
        }))
        code, doc = run(capsys, "decide", "-i", str(path))
        assert code == EXIT_DECIDED and doc["verdict"] == "RobustNo"
        assert doc["witness"] is None
        code, doc = run(capsys, "decide", "-i", str(path), "--witness")
        assert sorted(doc["witness"]) == ["0", "1", "2"]

    def test_overdetermined(self, capsys):
        code, doc = run(capsys, "decide", "-i", instance("overdetermined_path.json"))
        assert doc["verdict"] == "RobustNo"


class TestRobustness:
    def test_value(self, capsys):
        code, doc = run(capsys, "robustness", "-i", instance("path_3_-1_3.json"))
        assert code == EXIT_DECIDED
        assert doc["result"] == "Value" and doc["value"] == "1"

    def test_l2_instance(self, capsys):
        code, doc = run(capsys, "robustness", "-i", instance("l2_triangle.json"))
        assert code == EXIT_DECIDED
        assert doc["result"] in ("Value", "Unsatisfiable")

    def test_tetrahedron_needs_a_third_extremal_pass(self, capsys, tmp_path):
        # The derived pass leaves cones whose minimum is below every vertex
        # twice in a row here; the extremal subdivision must keep going.
        path = tmp_path / "tetrahedron.json"
        path.write_text(json.dumps({
            "version": 1, "n": 2, "norm": "l2",
            "vertices": [{"id": 0, "f": ["-1", "-5"]}, {"id": 1, "f": ["-5", "4"]},
                         {"id": 2, "f": ["5", "-4"]}, {"id": 3, "f": ["2", "-4"]}],
            "simplices": [[0, 1, 2, 3]], "alpha": "1"}))
        code, doc = run(capsys, "decide", "-i", str(path))
        assert code == EXIT_DECIDED
        assert doc["verdict"] == "RobustNo"  # f vanishes at the midpoint of edge 1-2
        code, doc = run(capsys, "robustness", "-i", str(path))
        assert code == EXIT_DECIDED
        assert doc["result"] == "Value" and doc["value"] == "0"


class TestExtend:
    def test_not_extends(self, capsys):
        code, doc = run(capsys, "extend", "-i", instance("annulus_w1.json"))
        assert code == EXIT_DECIDED
        assert doc["verdict"] == "NotExtends"

    def test_extends_with_certificate(self, capsys):
        code, doc = run(capsys, "extend", "-i", instance("annulus_w0.json"))
        assert code == EXIT_DECIDED
        assert doc["verdict"] == "Extends"
        assert "w" in doc["certificate"]

    def test_unknown_exit_code(self, capsys):
        code, doc = run(capsys, "extend", "-i", instance("unknown_dim4_n3.json"))
        assert code == EXIT_UNKNOWN
        assert doc["verdict"] == "Unknown"


class TestOtherCommands:
    def test_degree(self, capsys):
        code, doc = run(capsys, "degree", "-i", instance("disk_degree1.json"),
                        "--cycle", "[[[0,1],1],[[1,2],1],[[2,3],1],[[0,3],-1]]")
        assert code == EXIT_DECIDED and doc["degree"] == 1

    def test_critical_values(self, capsys):
        code, doc = run(capsys, "critical-values", "-i", instance("square_identity.json"))
        assert doc["critical_values"] == ["0", "1/2", "1"]

    def test_components(self, capsys):
        code, doc = run(capsys, "components", "-i", instance("two_paths.json"))
        assert len(doc["components"]) == 2
        assert all(c["verdict"] == "RobustYes" for c in doc["components"])

    def test_sample_grid(self, capsys):
        code, doc = run(capsys, "sample-grid", "--vars", "x",
                        "--expr", "x**2+1", "--box=-2:2",
                        "--alpha", "1/2", "--epsilon", "1/10")
        assert code == EXIT_DECIDED
        assert doc["decision"] == "ExistsAlphaPlusEpsNoRoot"

    def test_gen_fixture_roundtrip(self, capsys, tmp_path):
        out = str(tmp_path / "fixture.json")
        code, doc = run(capsys, "gen-fixture", "-i", instance("disk_degree1.json"),
                        "-o", out)
        assert code == EXIT_DECIDED and os.path.exists(out)
        code2, doc2 = run(capsys, "decide", "-i", out)
        assert doc2["verdict"] == "RobustYes"


class TestErrorPaths:
    def test_parse_error_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "version": 1, "n": 1, "norm": "linf",
            "vertices": [{"id": 0, "f": ["1.5"]}],
            "simplices": [[0]],
        }))
        code = main(["decide", "-i", str(bad)])
        capsys.readouterr()
        assert code == EXIT_PARSE

    def test_missing_file_exit(self, capsys):
        code = main(["decide", "-i", "/nonexistent.json"])
        capsys.readouterr()
        assert code == EXIT_PARSE

    def test_usage_error_exit(self, capsys):
        code = main(["decide"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_missing_alpha_is_usage_error(self, capsys):
        code = main(["decide", "-i", instance("annulus_w0.json")])
        capsys.readouterr()
        assert code in (EXIT_USAGE, EXIT_PARSE)

    @pytest.mark.parametrize("command, doc, extra, want", [
        # a list where the sphere map object belongs
        ("extend", {"version": 1, "n": 1, "norm": "linf",
                    "vertices": [{"id": 0}, {"id": 1}], "simplices": [[0, 1]],
                    "a_simplices": [[0]], "sphere_map": []}, [], EXIT_PARSE),
        # a string where the list of components belongs
        ("decide", {"version": 1, "n": 2, "norm": "linf",
                    "vertices": [{"id": 0, "f": "12"}], "simplices": [[0]],
                    "alpha": "1"}, [], EXIT_PARSE),
        # a negative alpha stored in the file is bad input ...
        ("decide", {"version": 1, "n": 1, "norm": "linf",
                    "vertices": [{"id": 0, "f": ["1"]}], "simplices": [[0]],
                    "alpha": "-1"}, [], EXIT_PARSE),
        # ... and a negative --alpha is a usage error
        ("decide", {"version": 1, "n": 1, "norm": "linf",
                    "vertices": [{"id": 0, "f": ["1"]}], "simplices": [[0]]},
         ["--alpha", "-1"], EXIT_USAGE),
    ])
    def test_malformed_instances(self, capsys, tmp_path, command, doc, extra, want):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        code = main([command, "-i", str(path), *extra])
        err = json.loads(capsys.readouterr().err)
        assert code == want
        assert err["error"] == ("parse" if want == EXIT_PARSE else "usage")

    def test_nonpositive_witness_step_is_usage_error(self):
        # Run apart, with a timeout: a zero step once looped forever.
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        for step in ("0", "-1/4"):
            proc = subprocess.run(
                [sys.executable, "-m", "robsat.cli", "decide", "-i", instance("path_identity.json"),
                 "--alpha", "2", "--witness", f"--step={step}"],
                env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == EXIT_USAGE, proc.stderr
            assert json.loads(proc.stderr)["error"] == "usage"

    @pytest.mark.parametrize("argv, want", [
        (["decide", "-i", "{dir}"], EXIT_PARSE),
        (["degree", "-i", instance("disk_degree1.json"), "--cycle", "@{dir}/missing.json"],
         EXIT_PARSE),
        (["gen-fixture", "-i", instance("disk_degree1.json"), "-o", "{dir}/missing/out.json"],
         EXIT_USAGE),
    ])
    def test_unreadable_or_unwritable_path(self, capsys, tmp_path, argv, want):
        code = main([a.format(dir=tmp_path) for a in argv])
        err = json.loads(capsys.readouterr().err)
        assert code == want
        assert err["error"] == ("parse" if want == EXIT_PARSE else "usage")

    @pytest.mark.parametrize("argv", [
        ["decide", "-i", "{bad}"],
        ["degree", "-i", instance("disk_degree1.json"), "--cycle", "@{bad}"],
    ])
    def test_non_utf8_file_is_parse_error(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        code = main([a.format(bad=bad) for a in argv])
        err = json.loads(capsys.readouterr().err)
        assert code == EXIT_PARSE
        assert err["error"] == "parse"

    @pytest.mark.parametrize("cycle, message", [
        # a cycle on vertices that are not in A
        ("[[[100,101],1],[[101,102],1],[[100,102],-1]]", "not in the domain"),
        # a 2-chain where the 1-cycle of an n = 2 instance belongs
        ("[[[0,1,2],1]]", "cochain degree 1"),
        ("[[[0,0],1]]", "repeated vertex in (0, 0)"),
    ])
    def test_bad_degree_cycle_is_parse_error(self, capsys, cycle, message):
        code = main(["degree", "-i", instance("disk_degree1.json"), "--cycle", cycle])
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert code == EXIT_PARSE and captured.out == ""
        assert err["error"] == "parse" and message in err["message"]

    @pytest.mark.parametrize("cycle", [
        "[[[0,1],1.5],[[1,2],1.5],[[2,3],1.5],[[0,3],-1.5]]",  # once truncated to 1
        "[[[0,1],true],[[1,2],1],[[2,3],1],[[0,3],-1]]",
        '[[[0,1],"1"],[[1,2],1],[[2,3],1],[[0,3],-1]]',
        '[[["0",1],1],[[1,2],1],[[2,3],1],[[0,3],-1]]',
        "[[[0,1.0],1],[[1,2],1],[[2,3],1],[[0,3],-1]]",
        "{}",
        '{"0": 1}',
        "1",
        '[["01",1]]',
        "[[[0,1],1,1]]",
    ])
    def test_degree_cycle_needs_integers_in_a_list(self, capsys, cycle):
        code = main(["degree", "-i", instance("disk_degree1.json"), "--cycle", cycle])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE and captured.out == ""
        assert json.loads(captured.err)["error"] == "parse"

    def test_degree_cycle_orientation_follows_vertex_order(self, capsys):
        # [1,0] with -1 and [3,0] with 1 are the README's cycle, reoriented
        for cycle in ("[[[0,1],1],[[1,2],1],[[2,3],1],[[0,3],-1]]",
                      "[[[1,0],-1],[[1,2],1],[[2,3],1],[[3,0],1]]",
                      "[[[0,1],1],[[1,2],1],[[2,3],2],[[3,2],1],[[0,3],-1]]"):
            code, doc = run(capsys, "degree", "-i", instance("disk_degree1.json"), "--cycle", cycle)
            assert code == EXIT_DECIDED and doc["degree"] == 1

    def test_bad_degree_cycle_names_the_vertex_list(self, capsys):
        # every --cycle message names a simplex as a plain vertex list
        main(["degree", "-i", instance("disk_degree1.json"), "--cycle", "[[[0,1,2],1]]"])
        message = json.loads(capsys.readouterr().err)["message"]
        assert "simplex [0, 1, 2] has dim 2" in message and "Simplex(" not in message

    def test_internal_error_is_a_json_document(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "decide_robsat", broken)
        code = main(["decide", "-i", instance("path_3_-1_3.json")])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "internal" and "boom" in err["message"]
