import json
import os

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

    def test_inequality_instance(self, capsys):
        code, doc = run(capsys, "decide", "-i", instance("path_with_inequality.json"))
        assert code == EXIT_DECIDED
        assert doc["verdict"] == "RobustNo"

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
