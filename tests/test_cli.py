import json
import subprocess
import sys
from pathlib import Path

import pytest

from qforms.cli import main
from qforms.compose import class_group
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


def _entry(D):
    """The cache entry `qforms classgroup D` writes."""
    return {**class_group(D).to_dict(), "schema": 1}


def _holds_entry(path, D):
    # json.dumps tells 1 from 1.0 and true, which == does not
    return json.dumps(json.loads(path.read_text()), sort_keys=True) == json.dumps(_entry(D), sort_keys=True)


def _others(entry):
    return [i for i in range(len(entry["elements"])) if i != entry["identity"]]


def _swap_in_row(entry):
    # rows stay permutations, two columns get a repeated entry
    r, c1, c2 = _others(entry)[:3]
    table = [list(row) for row in entry["table"]]
    table[r][c1], table[r][c2] = table[r][c2], table[r][c1]
    return {**entry, "table": table}


def _swap_rows(entry):
    # still a Latin square, but the identity's column is no longer the identity
    r1, r2 = _others(entry)[:2]
    table = list(entry["table"])
    table[r1], table[r2] = table[r2], table[r1]
    return {**entry, "table": table}


def _swap_columns(entry):
    # still a Latin square, but the identity's row is no longer the identity
    c1, c2 = _others(entry)[:2]
    table = [list(row) for row in entry["table"]]
    for row in table:
        row[c1], row[c2] = row[c2], row[c1]
    return {**entry, "table": table}


def _swap_in_column(entry):
    # columns stay permutations, two rows get a repeated entry
    r1, r2, c = _others(entry)[:3]
    table = [list(row) for row in entry["table"]]
    table[r1][c], table[r2][c] = table[r2][c], table[r1][c]
    return {**entry, "table": table}


def _move_identity(entry):
    # a consistent table whose neutral element is a non-identity class
    e, j = entry["identity"], _others(entry)[0]
    swap = {e: j, j: e}
    relabel = [swap.get(i, i) for i in range(len(entry["elements"]))]
    table = [[0] * len(relabel) for _ in relabel]
    for x, row in enumerate(entry["table"]):
        for y, v in enumerate(row):
            table[relabel[x]][relabel[y]] = relabel[v]
    return {**entry, "table": table, "identity": j}


def _swap_elements(entry):
    # out of order; identity and table untouched
    i, j = _others(entry)[:2]
    elements = list(entry["elements"])
    elements[i], elements[j] = elements[j], elements[i]
    return {**entry, "elements": elements}


# each turns the valid entry for D = -23 into one the checks must reject
CORRUPT = {
    "element-list": lambda e: {**e, "elements": [[1, 1, 6]]},
    "element-order": _swap_elements,
    "element-of-other-disc": lambda e: {**e, "elements": [[-3, 0, 0]] + e["elements"][1:]},
    "other-disc": lambda e: {**e, "elements": [[1, 1, 6]], "table": [[0]], "identity": 0, "disc": -27},
    "table-zz": lambda e: {**e, "table": "zz"},
    "table-shifted": lambda e: {**e, "table": [row[1:] + row[:1] for row in e["table"]]},
    "table-not-latin": lambda e: {**e, "table": [[0] * 6] * 6},
    "column-repeats": _swap_in_row,
    "row-repeats": _swap_in_column,
    "table-floats": lambda e: {**e, "table": [[float(v) for v in row] for row in e["table"]]},
    "rows-swapped": _swap_rows,
    "columns-swapped": _swap_columns,
    "identity-wrong-index": lambda e: {**e, "identity": (e["identity"] + 1) % 6},
    "identity-not-the-identity-class": _move_identity,
    "identity-out-of-range": lambda e: {**e, "identity": 6},
    "identity-bool": lambda e: {**e, "identity": True},
    "float-coefficients": lambda e: {**e, "elements": [[float(v) for v in t] for t in e["elements"]]},
    "missing-schema": lambda e: {k: v for k, v in e.items() if k != "schema"},
    "schema-2": lambda e: {**e, "schema": 2},
    "schema-bool": lambda e: {**e, "schema": True},
    "extra-key": lambda e: {**e, "extra": 0},
    "not-an-object": lambda e: [e],
}


class TestCache:
    @pytest.mark.parametrize("mode", ["text", "json"])
    def test_readme_examples_cold_then_warm(self, capsys, tmp_path, mode):
        for cmd in readme_examples():
            argv = cmd.split() + ["--cache-dir", str(tmp_path)] + (["--json"] if mode == "json" else [])
            for _ in ("cold", "warm"):
                assert run_cli(capsys, *argv)[:2] == (0, GOLDEN[cmd][mode])
        # only classgroup caches
        assert [p.name for p in tmp_path.iterdir()] == ["classgroup_-23.json"]

    def test_table_round_trip(self, capsys, tmp_path):
        argv = ["classgroup", "-23", "--json", "--cache-dir", str(tmp_path)]
        _, cold, _ = run_cli(capsys, *argv)
        entry = tmp_path / "classgroup_-23.json"
        assert _holds_entry(entry, -23)
        assert json.loads(cold) == class_group(-23).to_dict()
        mtime = entry.stat().st_mtime_ns
        _, warm, _ = run_cli(capsys, *argv)
        assert warm == cold and entry.stat().st_mtime_ns == mtime  # read, not rewritten

    def test_cache_is_pure_optimization(self, capsys, tmp_path):
        argv = ["classgroup", "905", "--json", "--cache-dir", str(tmp_path)]
        _, fresh, _ = run_cli(capsys, *argv)
        (tmp_path / "classgroup_905.json").write_text("{not json")
        assert run_cli(capsys, *argv)[:2] == (0, fresh)
        assert _holds_entry(tmp_path / "classgroup_905.json", 905)

    def test_valid_entry_is_printed_as_read(self, capsys, tmp_path):
        # the checks are integer checks on the shape, not the group law: a
        # consistent forged table (Z/6 in another labelling) is printed
        entry = _entry(-23)
        h, e = 6, entry["identity"]
        label = [e] + [i for i in range(h) if i != e]
        forged = [[0] * h for _ in range(h)]
        for x in range(h):
            for y in range(h):
                forged[label[x]][label[y]] = label[(x + y) % h]
        assert forged != entry["table"]
        (tmp_path / "classgroup_-23.json").write_text(json.dumps({**entry, "table": forged}))
        _, out, _ = run_cli(capsys, "classgroup", "-23", "--json", "--cache-dir", str(tmp_path))
        assert json.loads(out)["table"] == forged

    @pytest.mark.parametrize("corrupt", list(CORRUPT))
    @pytest.mark.parametrize("mode", ["text", "json"])
    def test_corrupt_entry_is_recomputed_and_rewritten(self, capsys, tmp_path, corrupt, mode):
        path = tmp_path / "classgroup_-23.json"
        path.write_text(json.dumps(CORRUPT[corrupt](_entry(-23))))
        argv = ["classgroup", "-23", "--cache-dir", str(tmp_path)] + (["--json"] if mode == "json" else [])
        assert run_cli(capsys, *argv)[:2] == (0, GOLDEN["classgroup -23"][mode])
        assert _holds_entry(path, -23)

    def test_truncated_entry_is_recomputed_and_rewritten(self, capsys, tmp_path):
        path = tmp_path / "classgroup_-23.json"
        path.write_text(json.dumps(_entry(-23))[:-7])
        argv = ["classgroup", "-23", "--json", "--cache-dir", str(tmp_path)]
        assert run_cli(capsys, *argv)[:2] == (0, GOLDEN["classgroup -23"]["json"])
        assert _holds_entry(path, -23)

    def test_planted_entry_does_not_change_seifert_pairs(self, capsys, tmp_path):
        planted = tmp_path / "classgroup_-23.json"
        planted.write_text(json.dumps({"disc": -23, "elements": [[1, 1, 6]], "identity": 0}))
        for mode in ("text", "json"):
            argv = ["seifert", "pairs", "-23", "--cache-dir", str(tmp_path)] + (["--json"] if mode == "json" else [])
            assert run_cli(capsys, *argv)[:2] == (0, GOLDEN["seifert pairs -23"][mode])
        assert list(tmp_path.iterdir()) == [planted]  # seifert pairs writes no cache file

    def test_failed_write_leaves_no_temp_file(self, capsys, tmp_path):
        (tmp_path / "classgroup_-23.json").mkdir()  # the final rename cannot replace a directory
        for _ in range(2):
            code, out, _ = run_cli(capsys, "classgroup", "-23", "--cache-dir", str(tmp_path))
            assert code == 0 and out == GOLDEN["classgroup -23"]["text"]
        assert [p.name for p in tmp_path.iterdir()] == ["classgroup_-23.json"]
