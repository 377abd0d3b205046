import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from qforms.cli import main
from qforms.compose import OrientedClassGroup, class_group
from qforms.forms import FormClass
from qforms.lattice import klein_inverse, plane_to_dict, symplectic_complement
from qforms.seifert import feher_klein_pair
from conftest import cube_from_dict, pair_from_dict, plane_from_dict
from test_forms import time_limit


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


def _forged_classgroup_entry() -> str:
    """A classgroup_-23.json in the format older versions cached: the true
    elements and identity with a consistent but false table (Z/6 in another
    labelling)."""
    entry = class_group(-23).to_dict()
    h, e = 6, entry["identity"]
    label = [e] + [i for i in range(h) if i != e]
    forged = [[0] * h for _ in range(h)]
    for x in range(h):
        for y in range(h):
            forged[label[x]][label[y]] = label[(x + y) % h]
    assert forged != entry["table"]
    return json.dumps({**entry, "table": forged, "schema": 1})


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("cmd", readme_examples())
def test_no_file_is_read_or_written(capsys, tmp_path, monkeypatch, cmd, mode):
    # a forged entry where --cache-dir, $QFORMS_CACHE_DIR and the working
    # directory's .qforms-cache point changes no output, and nothing is written
    planted = [tmp_path / d / "classgroup_-23.json" for d in ("flag", "env", ".qforms-cache")]
    forged = _forged_classgroup_entry()
    for path in planted:
        path.parent.mkdir()
        path.write_text(forged)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QFORMS_CACHE_DIR", raising=False)
    argv = cmd.split() + (["--json"] if mode == "json" else [])
    expected = (0, GOLDEN[cmd][mode])
    assert run_cli(capsys, *argv)[:2] == expected
    monkeypatch.setenv("QFORMS_CACHE_DIR", str(tmp_path / "env"))
    assert run_cli(capsys, *argv)[:2] == expected
    assert run_cli(capsys, *argv, "--cache-dir", str(tmp_path / "flag"))[:2] == expected
    assert sorted(p for p in tmp_path.rglob("*") if not p.is_dir()) == sorted(planted)


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
        assert doc == class_group(-23).to_dict()

    def test_disc_flag_form(self, capsys):
        code1, out1, _ = run_cli(capsys, "classgroup", "--disc=-23")
        code2, out2, _ = run_cli(capsys, "classgroup", "-23")
        assert code1 == code2 == 0 and out1 == out2

    @pytest.mark.parametrize("cmd", [["classgroup"], ["special-squares"],
                                     ["seifert", "exists"], ["seifert", "pairs"]])
    def test_conflicting_discs_are_a_usage_error(self, capsys, cmd):
        for argv, problem in ((cmd + ["-23", "--disc=5"], "different values"), (cmd, "required")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            out = capsys.readouterr()
            assert exc.value.code == 2 and out.out == "" and problem in out.err
        # the same value given both ways is not a conflict
        assert run_cli(capsys, *cmd, "-23", "--disc=-23") == run_cli(capsys, *cmd, "-23")

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

    # D in [-8, 9]: D = 0 and D = 2, 3 mod 4 are not discriminants
    @pytest.mark.parametrize("D", range(-8, 10))
    def test_pairs_error_codes(self, capsys, D):
        expected = ("not-one-mod-4" if D in (-8, -4, 4, 8)
                    else None if D in (-7, -3, 1, 5, 9) else "not-a-discriminant")
        code, out, _ = run_cli(capsys, "seifert", "pairs", "--json", "--", str(D))
        assert (code, json.loads(out).get("error")) == (0 if expected is None else 1, expected)

    def test_pairs_budget_before_witness_search(self, capsys, monkeypatch):
        # -39999999999999 is past the class_group budget: no divisor of
        # (1 - D)/4 = 10^13 is tried before it exits.  compose lists every
        # witness, so its binding is the one refused
        def refuse(m):
            raise RuntimeError(f"divisor_pairs({m}) was called")

        monkeypatch.setattr("qforms.compose.divisor_pairs", refuse)
        code, out, _ = run_cli(capsys, "seifert", "pairs", "--json", "--", "-39999999999999")
        assert code == 1 and json.loads(out)["error"] == "too-large"

    def test_pairs_budget_before_cycle_walk(self, capsys, monkeypatch):
        # 584637511777 is past the class_group budget, and its principal
        # cycle has 485,404 forms: the budget refuses before any walk.
        # compose and seifert bind _walk by name, so every binding is refused
        def refuse(*args, **kwargs):
            raise RuntimeError("a cycle was walked")

        monkeypatch.setattr("qforms.forms._walk", refuse)
        monkeypatch.setattr("qforms.compose._walk", refuse)
        monkeypatch.setattr("qforms.seifert._walk", refuse)
        code, out, _ = run_cli(capsys, "seifert", "pairs", "--json", "584637511777")
        assert code == 1 and json.loads(out)["error"] == "too-large"

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

    @pytest.mark.parametrize("mode", ["text", "json"])
    def test_klein_pair_symplectic(self, capsys, mode):
        # the pair `seifert feher 2 3 1 5` prints; its plane is symplectic
        argv = ["klein", "--pair", "3", "6", "-20", "-3", "1", "4", "-28", "-1"]
        code, out, _ = run_cli(capsys, *argv, *(["--json"] if mode == "json" else []))
        pair, _, t2 = feher_klein_pair(2, 3, 1, 5)
        basis = plane_to_dict(symplectic_complement(klein_inverse(pair)))["basis"]
        q_complement = list(FormClass.of(t2).coeffs())
        assert code == 0 and q_complement == [5, 3, 6]
        if mode == "json":
            doc = json.loads(out)
            assert doc["symplectic"] is True
            assert doc["symplectic_complement"]["basis"] == basis
            assert doc["q_symplectic_complement"] == q_complement
        else:
            lines = out.splitlines()
            assert "symplectic: true" in lines
            assert "symplectic complement: " + " | ".join(
                " ".join(map(str, v)) for v in basis) in lines
            assert "q of symplectic complement: 5 3 6" in lines

    def test_cube_from_forms(self, capsys):
        code, out, _ = run_cli(capsys, "cube", "--from-forms",
                               "2", "1", "3", "2", "1", "3", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["law"] is True
        assert doc["classes"][1] == [2, 1, 3] and doc["classes"][2] == [2, 1, 3]
        cube_from_dict(doc)

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

    def test_entry_point(self):
        out = subprocess.run([sys.executable, "-m", "qforms.cli", "compose",
                              "2", "1", "3", "2", "1", "3"],
                             capture_output=True, text=True)
        assert out.returncode == 0 and out.stdout == "2 -1 3\n"

    # the checks the commands make on their arguments: (1, 1, -1) has
    # discriminant 5, not -23, and disc(9, 13, 4) = 5^2, not 7^2
    @pytest.mark.parametrize("mode", ["text", "json"])
    @pytest.mark.parametrize("cmd, error", [
        ("seifert pair -23 1 1 6 1 1 -1", "mismatched-discriminant"),
        ("normal-form 7 9 13 4", "not-square-discriminant"),
    ])
    def test_argument_checks(self, capsys, cmd, error, mode):
        code, out, err = run_cli(capsys, *cmd.split(), *(["--json"] if mode == "json" else []))
        assert code == 1
        if mode == "json":
            assert json.loads(out)["error"] == error
        else:
            assert err.startswith(f"error[{error}]")

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


class TestCache:
    """`--cache-dir` is accepted and ignored: no command reads or writes there."""

    @pytest.mark.parametrize("mode", ["text", "json"])
    def test_readme_examples_cold_then_warm(self, capsys, tmp_path, mode):
        for cmd in readme_examples():
            argv = cmd.split() + ["--cache-dir", str(tmp_path)] + (["--json"] if mode == "json" else [])
            for _ in ("cold", "warm"):
                assert run_cli(capsys, *argv)[:2] == (0, GOLDEN[cmd][mode])
        assert list(tmp_path.iterdir()) == []  # nothing is written

    def test_cache_is_pure_optimization(self, capsys, tmp_path):
        argv = ["classgroup", "905", "--json", "--cache-dir", str(tmp_path)]
        _, fresh, _ = run_cli(capsys, *argv)
        (tmp_path / "classgroup_905.json").write_text("{not json")
        assert run_cli(capsys, *argv)[:2] == (0, fresh)
        assert (tmp_path / "classgroup_905.json").read_text() == "{not json"  # not rewritten

    def test_planted_entry_does_not_change_seifert_pairs(self, capsys, tmp_path):
        planted = tmp_path / "classgroup_-23.json"
        planted.write_text(json.dumps({"disc": -23, "elements": [[1, 1, 6]], "identity": 0}))
        for mode in ("text", "json"):
            argv = ["seifert", "pairs", "-23", "--cache-dir", str(tmp_path)] + (["--json"] if mode == "json" else [])
            assert run_cli(capsys, *argv)[:2] == (0, GOLDEN["seifert pairs -23"][mode])
        assert list(tmp_path.iterdir()) == [planted]  # seifert pairs writes no cache file

    def test_failed_write_leaves_no_temp_file(self, capsys, tmp_path):
        (tmp_path / "classgroup_-23.json").mkdir()  # a directory where an entry file would go
        for _ in range(2):
            code, out, _ = run_cli(capsys, "classgroup", "-23", "--cache-dir", str(tmp_path))
            assert code == 0 and out == GOLDEN["classgroup -23"]["text"]
        assert [p.name for p in tmp_path.iterdir()] == ["classgroup_-23.json"]


class TestBudgetsAndStartup:
    def test_table_budget(self, capsys):
        # -100000007 passes the class_group budget with h = 14,506 classes,
        # whose table would take 1.05 * 10^8 compositions
        def expire(signum, frame):
            raise TimeoutError("classgroup -100000007 ran over 10 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            code, out, _ = run_cli(capsys, "classgroup", "--json", "--", "-100000007")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 1 and json.loads(out)["error"] == "too-large"

    def test_classgroup_text_builds_no_table(self, capsys, monkeypatch):
        # the text output lists the elements only, so it needs no table and
        # is not held to the table budget that --json hits above
        def table(self):
            raise AssertionError("classgroup built a table in text mode")

        monkeypatch.setattr(OrientedClassGroup, "table", table)
        with time_limit(1.0):
            code, out, _ = run_cli(capsys, "classgroup", "--", "-100000007")
        assert code == 0 and len(out.splitlines()) == 14506

    def test_start_up_imports_no_unused_module(self):
        # lattice, cube and seifert are imported by the commands that use them
        script = ("import sys, qforms.cli; loaded = sorted(sys.modules); import qforms.seifert; "
                  "print(*[m for m in ('qforms.cube', 'qforms.lattice', 'qforms.seifert') "
                  "if m in loaded], 'qforms.lattice' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert out.returncode == 0 and out.stdout == "False\n"
