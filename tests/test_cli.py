import json
import subprocess
import sys
from pathlib import Path

import pytest

from qforms.cli import main
from qforms.compose import OrientedClassGroup
from qforms.cube import Cube
from qforms.lattice import pair_from_dict, plane_from_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def readme_examples():
    """The `qforms ...` lines of the README's command-line block, without --json."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = (line.split("#", 1)[0].split() for line in block.splitlines())
    return [" ".join(a for a in words[1:] if a != "--json")
            for words in lines if words[:1] == ["qforms"]]


# stdout of each README example in both modes; any changed byte is a changed output
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("cmd", readme_examples())
def test_readme_example_golden(capsys, cmd, mode):
    argv = cmd.split() + (["--json"] if mode == "json" else [])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == GOLDEN[cmd][mode]


class TestBasicCommands:
    def test_reduce(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "4", "-11", "9")
        assert code == 0 and out == "2 -1 3\n"

    def test_compose_golden(self, capsys):
        code, out, _ = run_cli(capsys, "compose", "2", "1", "3", "2", "1", "3")
        assert code == 0 and out == "2 -1 3\n"

    def test_classgroup_text(self, capsys):
        code, out, _ = run_cli(capsys, "classgroup", "-23")
        assert code == 0
        assert out.splitlines() == ["-2 -1 -3", "-2 1 -3", "-1 -1 -6",
                                    "1 1 6", "2 -1 3", "2 1 3"]

    def test_classgroup_json(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "classgroup", "-23", "--json",
                               "--cache-dir", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["disc"] == -23 and len(doc["elements"]) == 6
        assert doc["elements"][doc["identity"]] == [1, 1, 6]
        group = OrientedClassGroup.from_dict(doc)
        assert group.order == 6

    def test_disc_flag_form(self, capsys):
        code1, out1, _ = run_cli(capsys, "classgroup", "--disc=-23")
        code2, out2, _ = run_cli(capsys, "classgroup", "-23")
        assert code1 == code2 == 0 and out1 == out2

    def test_normal_form(self, capsys):
        code, out, _ = run_cli(capsys, "normal-form", "5", "9", "13", "4")
        assert code == 0 and out == "4\n"

    def test_special_squares(self, capsys):
        code, out, _ = run_cli(capsys, "special-squares", "-23", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["disc"] == -23
        assert {"witness": [2, 3], "class": [2, 1, 3], "square": [2, -1, 3]} in doc["squares"]


class TestSeifert:
    def test_exists_false(self, capsys):
        code, out, _ = run_cli(capsys, "seifert", "exists", "-11")
        assert code == 0 and out == "false\n"

    def test_exists_true_with_witness(self, capsys):
        code, out, _ = run_cli(capsys, "seifert", "exists", "-23")
        assert code == 0 and out == "true\n2 3\n"

    def test_pair(self, capsys):
        code, out, _ = run_cli(capsys, "seifert", "pair", "-23",
                               "-1", "-1", "-6", "-2", "1", "-3", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["exists"] is True
        assert doc["pairs"][0]["b4_distinguishable"] is True

    def test_pairs_counts(self, capsys):
        code, out, _ = run_cli(capsys, "seifert", "pairs", "-23", "--json")
        doc = json.loads(out)
        pairs = doc["pairs"]
        assert len(pairs) == 12
        assert sum(p["s1"] != p["s2"] for p in pairs) == 6
        assert sum(p["b4_distinguishable"] for p in pairs) == 4

    def test_feher(self, capsys):
        code, out, _ = run_cli(capsys, "seifert", "feher", "2", "3", "1", "5", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["q_plane"] == [6, -3, 5]
        pair_from_dict(doc["pair"])  # parses back


class TestKleinAndCube:
    def test_klein_plane(self, capsys):
        code, out, _ = run_cli(capsys, "klein", "--plane",
                               "1", "1", "0", "0", "1", "0", "-1", "-6", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["pair"]["a1"] == [[-1, 12], [-2, 1]]
        assert doc["class"] == [1, 1, 6]
        assert doc["composition_identity"]["holds"] is True
        plane_from_dict(doc["plane"])
        plane_from_dict(doc["orth_complement"])

    def test_klein_pair(self, capsys):
        code, out, _ = run_cli(capsys, "klein", "--pair",
                               "-1", "12", "-2", "1", "-1", "12", "-2", "1", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["class"] == [1, 1, 6]

    def test_cube_from_forms(self, capsys):
        code, out, _ = run_cli(capsys, "cube", "--from-forms",
                               "2", "1", "3", "2", "1", "3", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["law"] is True
        assert doc["classes"][1] == [2, 1, 3] and doc["classes"][2] == [2, 1, 3]
        Cube.from_dict(doc)

    def test_cube_slice(self, capsys):
        code, out, _ = run_cli(capsys, "cube", "--slice",
                               "1", "-6", "1", "0", "0", "-6", "1", "-1", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["disc"] == -23 and doc["law"] is True


class TestErrorsAndModes:
    def test_domain_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "reduce", "1", "2", "1")
        assert code == 1 and "zero-discriminant" in err

    def test_domain_error_json(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "classgroup", "7")
        assert code == 1
        assert json.loads(out)["error"] == "not-a-discriminant"

    def test_json_flag_both_positions(self, capsys):
        _, out1, _ = run_cli(capsys, "--json", "reduce", "2", "1", "3")
        _, out2, _ = run_cli(capsys, "reduce", "2", "1", "3", "--json")
        assert out1 == out2 and json.loads(out1) == {"class": [2, 1, 3], "disc": -23}

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "1", "2"])
        assert exc.value.code == 2

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["classgroup", "-23", "--frobnicate"])
        assert exc.value.code == 2

    def test_determinism(self, capsys):
        a = run_cli(capsys, "seifert", "pairs", "-23", "--json")
        b = run_cli(capsys, "seifert", "pairs", "-23", "--json")
        assert a == b

    def test_cache_does_not_change_output(self, capsys, tmp_path):
        _, cold, _ = run_cli(capsys, "classgroup", "905", "--json",
                             "--cache-dir", str(tmp_path / "c"))
        _, warm, _ = run_cli(capsys, "classgroup", "905", "--json",
                             "--cache-dir", str(tmp_path / "c"))
        _, none, _ = run_cli(capsys, "classgroup", "905", "--json",
                             "--cache-dir", str(tmp_path / "never"))
        assert cold == warm == none

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QFORMS_CACHE_DIR", str(tmp_path / "envcache"))
        run_cli(capsys, "classgroup", "-23")
        assert (tmp_path / "envcache" / "classgroup_-23.json").exists()

    def test_entry_point(self):
        out = subprocess.run([sys.executable, "-m", "qforms.cli", "compose",
                              "2", "1", "3", "2", "1", "3"],
                             capture_output=True, text=True)
        assert out.returncode == 0 and out.stdout == "2 -1 3\n"

    @pytest.mark.parametrize("cmd", ["reduce", "compose", "classgroup",
                                     "special-squares", "klein", "cube",
                                     "seifert", "normal-form"])
    def test_help_per_subcommand(self, capsys, cmd):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("qforms ")
