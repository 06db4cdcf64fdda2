"""Command line surface: golden outputs, determinism, exit codes."""

import json
import shlex
from pathlib import Path

import pytest

from particat.cli import (
    EXIT_BOUNDS,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNDECIDABLE,
    run,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def run_error(capsys, argv):
    """Exit code of a failing request; it must print nothing on stdout and
    one JSON error document on stderr."""
    code = run(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["schema"] == "particat/1" and doc["error"]
    return code


class TestFuse:
    def test_word_fusion_golden(self, capsys):
        code, doc = run_json(
            capsys,
            ["fuse", "--category", "nceven", "--left", "01", "--right", "10"],
        )
        assert code == EXIT_OK
        assert doc["schema"] == "particat/1"
        assert doc["result"] == ["", "0", "00", "000", "0110"]

    def test_number_fusion_golden(self, capsys):
        code, doc = run_json(
            capsys, ["fuse", "--category", "nc", "--left", "2", "--right", "3"]
        )
        assert code == EXIT_OK
        assert doc["result"] == [1, 2, 3, 4, 5]

    def test_partition_inputs(self, capsys):
        code, doc = run_json(
            capsys,
            ["fuse", "--category", "nc", "--left", "a:a", "--right", "a:a"],
        )
        assert code == EXIT_OK
        assert doc["result"] == [0, 1, 2]

    def test_alternating_runs(self, capsys):
        code, doc = run_json(
            capsys,
            ["fuse", "--category", "ucol", "--left", "1w", "--right", "1b"],
        )
        assert code == EXIT_OK
        assert doc["result"] == ["", "wb"]

    def test_generic_category_returns_partitions(self, capsys):
        code, doc = run_json(
            capsys,
            ["fuse", "--category", "p", "--left", "a:a", "--right", "a:a"],
        )
        assert code == EXIT_OK
        # ordered by through-block count, then serialization
        assert doc["result"] == ["aa:bb", "aa:aa", "ab:ab"]

    def test_negative_label_rejected(self, capsys):
        argv = ["fuse", "--category", "nc", "--left", "-3", "--right", "2"]
        assert run_error(capsys, argv) == EXIT_PARSE

    def test_mixing_cap_exit(self, capsys):
        # two 6-strand identities in p would need 291,793 mixing diagrams
        six = "abcdef:abcdef"
        argv = ["fuse", "--category", "p", "--left", six, "--right", six]
        assert run_error(capsys, argv) == EXIT_BOUNDS


class TestMember:
    def test_true_false(self, capsys):
        code, doc = run_json(
            capsys, ["member", "--category", "nc2", "--partition", "ab:ab"]
        )
        assert code == EXIT_OK and doc["result"] is True
        code, doc = run_json(
            capsys, ["member", "--category", "nc2", "--partition", "ab:ba"]
        )
        assert code == EXIT_OK and doc["result"] is False

    def test_undecidable_exit(self, capsys, tmp_path):
        gens = tmp_path / "g.txt"
        gens.write_text("aa:aa\n", encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_points": 4}), encoding="utf-8")
        code = run(
            [
                "--config", str(cfg),
                "member",
                "--category", f"gen:{gens}",
                "--partition", "abc:abc",
            ]
        )
        assert code == EXIT_UNDECIDABLE

    def test_closure_cap_exit(self, capsys, tmp_path):
        # without --config the closure runs to 10 points: 3,562 words of
        # ncb, above categories.CLOSURE_CAP
        gens = tmp_path / "g.txt"
        gens.write_text(":a\n", encoding="utf-8")
        argv = ["member", "--category", f"gen:{gens}", "--partition", "a:a"]
        assert run_error(capsys, argv) == EXIT_BOUNDS

    def test_parse_error_exit(self, capsys):
        assert (
            run(["member", "--category", "nc", "--partition", "a1b"])
            == EXIT_PARSE
        )

    def test_bounds_exit(self, capsys):
        assert (
            run(["decompose", "--category", "p", "--power", "6"])
            == EXIT_BOUNDS
        )


class TestDecompose:
    def test_with_ranks_golden(self, capsys):
        code, doc = run_json(
            capsys,
            ["decompose", "--category", "nc", "--power", "2", "--N", "4"],
        )
        assert code == EXIT_OK
        assert sum(row["rank_class"] for row in doc["result"]) == 16
        assert [row["multiplicity"] for row in doc["result"]] == [2, 3, 1]

    def test_without_ranks(self, capsys):
        code, doc = run_json(
            capsys, ["decompose", "--category", "nceven", "--power", "2"]
        )
        assert code == EXIT_OK
        assert [row["label"] for row in doc["result"]] == ["", "0", "11"]

    def test_negative_power_rejected(self, capsys):
        argv = ["decompose", "--category", "nc", "--power", "-1"]
        assert run_error(capsys, argv) == EXIT_PARSE


class TestVerify:
    def test_functor_suite(self, capsys):
        code, doc = run_json(
            capsys,
            ["verify", "--suite", "functor", "--max-points", "6", "--N", "3"],
        )
        assert code == EXIT_OK
        assert doc["result"]["passed"] is True
        assert doc["stats"]["checks"] > 0


class TestBrauer:
    def test_kernel_mode(self, capsys):
        code, doc = run_json(
            capsys, ["brauer", "--category", "p2", "--k", "2", "--N", "4"]
        )
        assert code == EXIT_OK
        assert doc["result"] == {"kernel_dim": 0}

    def test_product_mode(self, capsys):
        code, doc = run_json(
            capsys,
            [
                "brauer", "--category", "p2", "--N", "3",
                "--left", "aa:bb", "--right", "aa:bb",
            ],
        )
        assert code == EXIT_OK
        assert doc["result"] == [
            {"partition": "aa:bb", "coefficient": "1/3"}
        ]


class TestSym:
    def test_full_symmetric_group(self, capsys):
        code, doc = run_json(
            capsys, ["sym", "--category", "p", "--partition", "abc:abc"]
        )
        assert code == EXIT_OK
        assert doc["result"]["order"] == 6


class TestTable:
    def test_step_two_table(self, capsys):
        code, doc = run_json(
            capsys, ["table", "--category", "nc2", "--max-label", "2"]
        )
        assert code == EXIT_OK
        rows = {(r["left"], r["right"]): r["result"] for r in doc["result"]}
        assert rows[(1, 1)] == [0, 2]
        assert rows[(2, 2)] == [0, 2, 4]


class TestOutputContract:
    def test_byte_identical_runs(self, capsys):
        argv = ["fuse", "--category", "nceven", "--left", "01", "--right", "10"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_schema_fields(self, capsys):
        _, doc = run_json(
            capsys, ["member", "--category", "nc", "--partition", "a:a"]
        )
        assert set(doc) == {"schema", "command", "inputs", "result", "stats"}
        assert set(doc["stats"]) == {"elapsed_ms", "checks"}
        assert doc["stats"]["elapsed_ms"] == 0

    def test_pretty_mode(self, capsys):
        code = run(
            ["--pretty", "fuse", "--category", "nc", "--left", "1", "--right", "1"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("command: fuse")


def _readme_command_blocks():
    """Fenced blocks whose first line invokes the tool; the remaining lines
    are the expected stdout."""
    blocks = []
    lines = README.read_text(encoding="utf-8").splitlines()
    inside = False
    current: list[str] = []
    for line in lines:
        if line.startswith("```"):
            if inside and current and current[0].startswith("particat "):
                blocks.append(current)
            inside = not inside
            current = []
        elif inside:
            current.append(line)
    return blocks


def test_readme_examples(capsys):
    """Every documented invocation runs and prints exactly what is shown."""
    blocks = _readme_command_blocks()
    assert len(blocks) >= 8
    for block in blocks:
        argv = shlex.split(block[0])[1:]
        expected = "\n".join(block[1:]).strip()
        code = run(argv)
        out = capsys.readouterr().out.strip()
        assert code == EXIT_OK, block[0]
        assert out == expected, block[0]
