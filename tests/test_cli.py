"""Command line surface: golden outputs, determinism, exit codes."""

import json
import shlex
import sys
from pathlib import Path

import pytest

from particat import cli, structure
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

    @pytest.mark.parametrize(
        "category, bad, good, error",
        [
            ("nc", "x", "1", "expected a number label, got 'x'"),
            ("nc", "1_0", "1", "expected a number label, got '1_0'"),
            ("nc2", " 1", "1", "expected a number label, got ' 1'"),
            ("nceven", "012", "0", "expected a 0/1 word label, got '012'"),
            ("ucol", "2x", "1w", "bad alternating word '2x'"),
            ("ucol", "0w", "w", "bad alternating word '0w'"),
            ("p", "1", "a:a",
             "'1' is not a diagram and the category has no label scheme"),
        ],
    )
    def test_bad_label_stderr(self, capsys, category, bad, good, error):
        """fusion's label check writes the error, whichever operand is bad
        and whether the other one is a label or a diagram."""
        want = json.dumps({"schema": "particat/1", "error": error}) + "\n"
        for left, right in ((bad, good), (good, bad), (bad, "a:a"), ("a:a", bad)):
            argv = ["fuse", "--category", category, "--left", left, "--right", right]
            assert run(argv) == EXIT_PARSE
            assert capsys.readouterr() == ("", want)

    @pytest.mark.parametrize(
        "category, left, right",
        [
            ("nc", "1000000", "1000000"),
            ("nceven", "0" * 3000, "0" * 3000),
            ("ucol", "3000w", "3000b"),
        ],
        ids=["nc", "nceven", "ucol"],
    )
    def test_label_answer_cap_exit(self, capsys, category, left, right):
        # these answers would print 9 to 18 MB
        argv = ["fuse", "--category", category, "--left", left, "--right", right]
        assert run_error(capsys, argv) == EXIT_BOUNDS

    def test_letter_grammar_bound(self, capsys):
        # a graft of 52 strands and one has 53 blocks, past the 52 letters
        # its sort key needs: exit 3, where 51 strands are still answered
        argv = ["fuse", "--category", "nc", "--right", "a:a", "--left"]
        code, doc = run_json(capsys, argv + ["51"])
        assert code == EXIT_OK and doc["result"] == [50, 51, 52]
        assert run_error(capsys, argv + ["52"]) == EXIT_BOUNDS

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
        error = "abc:abc has 6 points, beyond the bound 4 of the generated category"
        want = json.dumps({"schema": "particat/1", "error": error}) + "\n"
        assert capsys.readouterr() == ("", want)

    def test_closure_cap_exit(self, capsys, tmp_path):
        # without --config the closure runs to 10 points: 3,562 words of
        # ncb, above categories.CLOSURE_CAP
        gens = tmp_path / "g.txt"
        gens.write_text(":a\n", encoding="utf-8")
        argv = ["member", "--category", f"gen:{gens}", "--partition", "a:a"]
        assert run_error(capsys, argv) == EXIT_BOUNDS

    @pytest.mark.parametrize("bound, code", [(2, EXIT_PARSE), (4, EXIT_OK)])
    def test_generator_beyond_bound_exit(self, capsys, tmp_path, bound, code):
        # a generator larger than the bound is refused, not silently dropped
        gens = tmp_path / "g.txt"
        gens.write_text(":aaa\n", encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_points": bound}), encoding="utf-8")
        argv = ["--config", str(cfg), "member", "--category", f"gen:{gens}",
                "--partition", ":a"]
        if code == EXIT_OK:
            got, doc = run_json(capsys, argv)
            assert got == EXIT_OK and doc["result"] is True
        else:
            assert run_error(capsys, argv) == code

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

    def test_missing_config_exit(self, capsys, tmp_path):
        argv = ["--config", str(tmp_path / "missing.json"),
                "member", "--category", "nc", "--partition", "a:a"]
        assert run_error(capsys, argv) == EXIT_PARSE

    def test_missing_generator_file_exit(self, capsys, tmp_path):
        argv = ["member", "--category", f"gen:{tmp_path / 'missing.txt'}",
                "--partition", "a:a"]
        assert run_error(capsys, argv) == EXIT_PARSE

    @pytest.mark.parametrize(
        "data", [{"max_points": None}, {"max_points": "8"}, 8]
    )
    def test_bad_config_exit(self, capsys, tmp_path, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data), encoding="utf-8")
        argv = ["--config", str(cfg),
                "member", "--category", "nc", "--partition", "a:a"]
        assert run_error(capsys, argv) == EXIT_PARSE


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

    def test_projection_cap_exit(self, capsys):
        argv = ["decompose", "--category", "nc", "--power", "5", "--N", "5"]
        assert run_error(capsys, argv) == EXIT_BOUNDS

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--category", "nc", "--power", "7", "--N", "4"],
            ["brauer", "--category", "nc", "--k", "4", "--N", "9"],
            ["verify", "--suite", "functor", "--max-points", "30"],
        ],
        ids=["decompose", "brauer", "verify-functor"],
    )
    def test_rows_cap_exit(self, capsys, argv):
        # a row of more than MATRIX_ROWS_CAP assignments is a bound
        assert run_error(capsys, argv) == EXIT_BOUNDS

    @pytest.mark.parametrize("category, power", [("nc", 9), ("ucol", 7)])
    def test_projectives_cap_exit(self, capsys, category, power):
        # 610,182 and 1,819,392 candidates, past PROJECTIVES_CAP
        argv = ["decompose", "--category", category, "--power", str(power)]
        assert run_error(capsys, argv) == EXIT_BOUNDS

    def test_classes_formed_once(self, capsys, monkeypatch):
        # the labels and the ranks are read off one grouping of the
        # projectives, wherever the grouping routine is bound
        real = structure._equivalence_classes
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        for module in list(sys.modules.values()):
            if getattr(module, "_equivalence_classes", None) is real:
                monkeypatch.setattr(module, "_equivalence_classes", counting)
        argv = ["decompose", "--category", "nc", "--power", "3", "--N", "2"]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_OK and len(doc["result"]) == 4
        assert len(calls) == 1


class TestVerify:
    def test_functor_suite(self, capsys):
        code, doc = run_json(
            capsys,
            ["verify", "--suite", "functor", "--max-points", "6", "--N", "3"],
        )
        assert code == EXIT_OK
        assert doc["result"]["passed"] is True
        assert doc["stats"]["checks"] > 0

    def test_structure_cap_exit(self, capsys):
        argv = ["verify", "--suite", "structure", "--max-points", "12"]
        assert run_error(capsys, argv) == EXIT_BOUNDS


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

    def test_kernel_mode_refuses_colored(self, capsys):
        # the maps ignore colors, so a colored family would alias
        argv = ["brauer", "--category", "ucol", "--k", "2", "--N", "2"]
        assert run_error(capsys, argv) == EXIT_PARSE


class TestSym:
    def test_full_symmetric_group(self, capsys):
        code, doc = run_json(
            capsys, ["sym", "--category", "p", "--partition", "abc:abc"]
        )
        assert code == EXIT_OK
        assert doc["result"]["order"] == 6

    def test_search_cap_exit(self, capsys):
        # nine through-blocks are past structure.SYM_SEARCH_CAP = 8
        argv = ["sym", "--category", "p", "--partition", "abcdefghi:abcdefghi"]
        assert run(argv) == EXIT_BOUNDS
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error == "through-block count 9 exceeds the search cap 8"


class TestTable:
    def test_step_two_table(self, capsys):
        code, doc = run_json(
            capsys, ["table", "--category", "nc2", "--max-label", "2"]
        )
        assert code == EXIT_OK
        rows = {(r["left"], r["right"]): r["result"] for r in doc["result"]}
        assert rows[(1, 1)] == [0, 2]
        assert rows[(2, 2)] == [0, 2, 4]

    @pytest.mark.parametrize(
        "category, max_label",
        [("ucol", 8), ("nceven", 8), ("nc", 256), ("nc", 46), ("nceven", 5)],
    )
    def test_row_cap_exit(self, capsys, category, max_label):
        # 511 words make 261,121 rows; 257 numbers make 66,049; the answers
        # of 47 numbers may hold 69,231 entries, of 63 words 346,509
        argv = ["table", "--category", category, "--max-label", str(max_label)]
        assert run_error(capsys, argv) == EXIT_BOUNDS


class TestInputsEcho:
    """``inputs`` echoes the options the subcommand was given, defaults
    included and unset options left out: the JSON document sorts its keys,
    ``--pretty`` lists them in the subcommand's declaration order."""

    @pytest.mark.parametrize(
        "argv, inputs",
        [
            (["fuse", "--right", "a:a", "--left", "2", "--category", "nc"],
             [("category", "nc"), ("left", "2"), ("right", "a:a")]),
            (["member", "--category", "nc2", "--partition", "ab:ab"],
             [("category", "nc2"), ("partition", "ab:ab")]),
            (["sym", "--category", "p", "--partition", "ab:ab"],
             [("category", "p"), ("partition", "ab:ab")]),
            (["decompose", "--category", "nc", "--power", "2"],
             [("category", "nc"), ("power", 2)]),
            (["decompose", "--N", "3", "--category", "nc", "--power", "2"],
             [("category", "nc"), ("power", 2), ("N", 3)]),
            (["brauer", "--N", "3", "--right", "aa:bb", "--left", "ab:ab",
              "--category", "p2"],
             [("category", "p2"), ("left", "ab:ab"), ("right", "aa:bb"),
              ("N", 3)]),
            (["brauer", "--N", "4", "--k", "2", "--category", "p2"],
             [("category", "p2"), ("k", 2), ("N", 4)]),
            (["verify", "--suite", "fusion", "--max-points", "2"],
             [("suite", "fusion"), ("N", 3), ("max_points", 2)]),
            (["table", "--category", "nc2"],
             [("category", "nc2"), ("max_label", 3)]),
        ],
        ids=[
            "fuse", "member", "sym", "decompose", "decompose-N",
            "brauer-product", "brauer-kernel", "verify-default-N", "table",
        ],
    )
    def test_json_and_pretty(self, capsys, argv, inputs):
        code = run(["--timing", *argv])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert json.loads(out)["inputs"] == dict(inputs)
        assert f'"inputs": {json.dumps(dict(inputs), sort_keys=True)}' in out
        assert run(["--pretty", *argv]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1 : len(inputs) + 2] == [
            *(f"  {key}: {val}" for key, val in inputs), "result:"
        ]


class TestNonsenseInputs:
    """Negative sizes, N < 1 and non-projective symmetry requests are
    refused with exit 2 rather than answered or ended in a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--category", "nc", "--max-label", "-1"],
            ["verify", "--suite", "structure", "--max-points", "-1"],
            ["verify", "--suite", "functor", "--max-points", "-4"],
            ["brauer", "--category", "p2", "--N", "0",
             "--left", "aa:bb", "--right", "aa:bb"],
            ["brauer", "--category", "p2", "--N", "-1",
             "--left", "ab:ab", "--right", "aa:bb"],
            ["brauer", "--category", "p2", "--k", "-1", "--N", "2"],
            ["brauer", "--category", "p2", "--left", "ab:ab", "--right", "ab:ab",
             "--k", "2", "--N", "2"],
            ["sym", "--category", "p", "--partition", "ab:ba"],
            ["sym", "--category", "nc", "--partition", "aab:acc"],
        ],
        ids=[
            "table-max-label",
            "verify-structure-max-points",
            "verify-functor-max-points",
            "brauer-product-N0",
            "brauer-product-N-negative",
            "brauer-kernel-k-negative",
            "brauer-product-k",
            "sym-crossing",
            "sym-non-projective-nc",
        ],
    )
    def test_exit_parse(self, capsys, argv):
        assert run_error(capsys, argv) == EXIT_PARSE


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


def test_parser_built_once(capsys):
    """One process answers a parse error, --help, the README examples and an
    unknown category from one parser, each with its code and bytes."""

    def fresh(argv):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser.__wrapped__().parse_args(argv)
        return exc.value.code, capsys.readouterr()

    cli._build_parser.cache_clear()
    for argv, code in ((["verify", "--suite", "nope"], EXIT_PARSE), (["--help"], EXIT_OK)):
        want = fresh(argv)
        assert run(argv) == code == want[0]
        assert capsys.readouterr() == want[1]
    blocks = _readme_command_blocks()
    for block in blocks:
        assert run(shlex.split(block[0])[1:]) == EXIT_OK, block[0]
        assert capsys.readouterr().out.strip() == "\n".join(block[1:]).strip()
    assert run(["member", "--category", "nope", "--partition", "a:a"]) == EXIT_PARSE
    assert capsys.readouterr() == (
        "",
        '{"schema": "particat/1", "error": "unknown category \'nope\'; expected '
        'one of p, p2, nc, nc2, ncb, nceven, ucol or gen:<file>"}\n',
    )
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(blocks) + 2)
