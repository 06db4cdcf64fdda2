"""Command line surface: golden outputs, determinism, exit codes, and the
option table's reading against the argparse parser it replaced."""

import argparse
import io
import json
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from particat import cli, structure
from particat.cli import (
    EXIT_BOUNDS,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNDECIDABLE,
    run,
)
from particat.verify import SUITES

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

    def test_closure_cap_exit_repeats(self, capsys, tmp_path):
        # a refused closure is kept in the closure cache: asked again in one
        # process, the request exits 3 with the same error
        gens = tmp_path / "g.txt"
        gens.write_text("ab:ba\n", encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_points": 12}), encoding="utf-8")
        error = (
            "the closure of 1 generator(s) within 12 points exceeds the cap "
            "of 1000 one-row words"
        )
        want = json.dumps({"schema": "particat/1", "error": error}) + "\n"
        for partition in ("ab:ba", "a:a", "ab:ba"):
            argv = ["--config", str(cfg), "member", "--category",
                    f"gen:{gens}", "--partition", partition]
            assert run(argv) == EXIT_BOUNDS
            assert capsys.readouterr() == ("", want)

    @pytest.mark.parametrize("bound, code", [(2, EXIT_PARSE), (4, EXIT_OK)])
    def test_generator_beyond_bound_exit(self, capsys, tmp_path, bound, code):
        # a generator larger than the bound is refused, not silently dropped,
        # whatever the query: one beyond the bound is no undecidable exit 4
        gens = tmp_path / "g.txt"
        gens.write_text(":aaa\n", encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_points": bound}), encoding="utf-8")
        for partition in (":a", ":aaa"):
            argv = ["--config", str(cfg), "member", "--category",
                    f"gen:{gens}", "--partition", partition]
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

    @pytest.mark.parametrize(
        "category, k, N, code, error",
        [
            ("p", 6, 5, EXIT_BOUNDS, "enumeration of 12 points exceeds the cap 10"),
            ("p", 6, 0, EXIT_BOUNDS, "enumeration of 12 points exceeds the cap 10"),
            ("nc", 5, 6, EXIT_BOUNDS,
             "matrix would have more than 4096 rows or columns"),
            ("nc", 0, 0, EXIT_PARSE, "N must be at least 1"),
            ("ucol", 2, 0, EXIT_PARSE,
             "diagram-map ranks need an uncolored category"),
        ],
    )
    def test_kernel_mode_refusals(self, capsys, category, k, N, code, error):
        # the color mode first, then the enumeration's cap, then a bad N
        # and the rows cap, each with its exact JSON error
        argv = ["brauer", "--category", category, "--k", str(k), "--N", str(N)]
        assert run(argv) == code
        want = json.dumps({"schema": "particat/1", "error": error}) + "\n"
        assert capsys.readouterr() == ("", want)


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


def test_parser_built_once(capsys, monkeypatch):
    """One process answers a usage error, --help, the README examples and an
    unknown category from the option table built at import, each with its
    code and bytes; no request builds a lookup of its own."""

    def refuse(*args):
        raise AssertionError("a request built option lookups")

    monkeypatch.setattr(cli, "_level", refuse)
    assert run(["verify", "--suite", "nope"]) == EXIT_PARSE
    assert capsys.readouterr() == (
        "",
        '{"schema": "particat/1", "error": "verify: --suite must be functor, '
        'structure, fusion or all, got \'nope\'"}\n',
    )
    assert run(["--help"]) == EXIT_OK
    assert capsys.readouterr() == (cli._help_text(cli._GLOBAL) + "\n", "")
    for block in _readme_command_blocks():
        assert run(shlex.split(block[0])[1:]) == EXIT_OK, block[0]
        assert capsys.readouterr().out.strip() == "\n".join(block[1:]).strip()
    assert run(["member", "--category", "nope", "--partition", "a:a"]) == EXIT_PARSE
    assert capsys.readouterr() == (
        "",
        '{"schema": "particat/1", "error": "unknown category \'nope\'; expected '
        'one of p, p2, nc, nc2, ncb, nceven, ucol or gen:<file>"}\n',
    )


# ---------------------------------------------------------------------------
# the option table against the argparse parser it replaced


def argparse_oracle() -> argparse.ArgumentParser:
    """The argparse parser the command line was read with before its option
    table; the oracle of the one-pass reader."""
    top = argparse.ArgumentParser(
        prog="particat",
        description="exact diagram calculus for categories of set partitions",
    )
    top.add_argument("--config", help="JSON config file setting size caps")
    top.add_argument(
        "--pretty", action="store_true", help="human-readable rendering"
    )
    top.add_argument(
        "--json", action="store_true", help="JSON output (the default)"
    )
    top.add_argument(
        "--timing", action="store_true",
        help="report real elapsed milliseconds (breaks byte-identical output)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    fuse = sub.add_parser("fuse", help="fusion of two labels or diagrams")
    fuse.add_argument("--category", required=True)
    fuse.add_argument("--left", required=True)
    fuse.add_argument("--right", required=True)

    member = sub.add_parser("member", help="category membership of a diagram")
    member.add_argument("--category", required=True)
    member.add_argument("--partition", required=True)

    sym = sub.add_parser("sym", help="symmetry group of a projective diagram")
    sym.add_argument("--category", required=True)
    sym.add_argument("--partition", required=True)

    dec = sub.add_parser("decompose", help="classes of a tensor power")
    dec.add_argument("--category", required=True)
    dec.add_argument("--power", type=int, required=True)
    dec.add_argument("--N", type=int)

    br = sub.add_parser("brauer", help="twisted diagram algebra computations")
    br.add_argument("--category", required=True)
    br.add_argument("--k", type=int)
    br.add_argument("--left")
    br.add_argument("--right")
    br.add_argument("--N", type=int, required=True)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", choices=SUITES, required=True)
    ver.add_argument("--N", type=int, default=3)
    ver.add_argument("--max-points", type=int, default=6, dest="max_points")

    tab = sub.add_parser("table", help="fusion table of a labelled category")
    tab.add_argument("--category", required=True)
    tab.add_argument("--max-label", type=int, default=3, dest="max_label")
    return top


ORACLE = argparse_oracle()
GLOBAL_DESTS = ("config", "pretty", "json", "timing")


def oracle_read(argv):
    """argparse's reading of argv: ("help",), ("refused",), or ("read",
    command, global flags, inputs), the inputs in declaration order."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            args = vars(ORACLE.parse_args(argv))
    except SystemExit as exc:
        return ("help",) if exc.code == 0 else ("refused",)
    flags = [(key, args.pop(key)) for key in GLOBAL_DESTS]
    command = args.pop("command")
    return "read", command, flags, [(k, v) for k, v in args.items() if v is not None]


def table_read(argv):
    """The option table's reading of argv, in the form of ``oracle_read``."""
    try:
        command, flags, options = cli._read(argv)
    except cli._HelpRequested:
        return ("help",)
    except ValueError:
        return ("refused",)
    inputs = [(k, v) for k, v in options.items() if v is not None]
    return "read", command, list(flags.items()), inputs


def assert_reads_alike(argv):
    """Both parsers read argv alike; a refusal prints one JSON error line and
    help prints on stdout, each with its exit code."""
    want = oracle_read(argv)
    assert table_read(argv) == want, argv
    if want[0] == "read":
        return want
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    if want[0] == "help":
        assert code == EXIT_OK and out.startswith("usage: particat") and not err
    else:
        assert code == EXIT_PARSE and out == "" and err.count("\n") == 1, argv
        assert json.loads(err)["schema"] == "particat/1"
    return want


MEMBER = ["member", "--category", "nc", "--partition", "a:a"]


@pytest.mark.parametrize(
    "argv, outcome",
    [
        (["fuse", "--category=nc", "--left=2", "--right=a:a"], "read"),
        (["--pre", "--t", "--j", "--conf", "c.json", *MEMBER], "read"),
        (["--config=c.json", "member", "--cat", "nc", "--p", "a:a"], "read"),
        (["verify", "--s", "functor", "--max", "2", "--N", "2"], "read"),
        (["table", "--category", "nc", "--max", "1"], "read"),
        (["decompose", "--category", "nc", "--power", "-2"], "read"),
        (["brauer", "--category", "p", "--left=-3", "--right", "-1",
          "--N", "2"], "read"),
        (["decompose", "--category", "nc", "--power", " 2", "--N", "2 "], "read"),
        (["decompose", "--category", "nc", "--power", "1_0"], "read"),
        (["decompose", "--power", "1", "--category", "p", "--power", "2",
          "--category", "nc"], "read"),
        (["member", "--category", "nc", "--partition", "-x y"], "read"),
        (["member", "--category", "", "--partition=-x"], "read"),
        (["member", "--category", "nc", "--partition", "a", "--c", "b"], "read"),
        (["--config", "-1", *MEMBER], "read"),
        (["--help"], "help"),
        (["-h", "bogus"], "help"),
        (["--he"], "help"),
        (["-hh"], "help"),
        (["--bogus", "decompose", "--help"], "help"),
        (["decompose", "-h"], "help"),
        (["decompose", "--category", "nc", "--po", "2", "--help"], "help"),
        ([*MEMBER, "extra", "--help"], "help"),
        (["verify", "--suite", "nope", "--help"], "refused"),
        (["decompose", "--help", "--=x"], "refused"),
        (["bogus", "--help"], "refused"),
        (["-hx"], "refused"),
        (["--help=x"], "refused"),
        (["--pretty=", "member"], "refused"),
        (["--", *MEMBER], "refused"),
        ([*MEMBER, "--"], "refused"),
        (["member", "--category", "nc", "--partition", "--", "a:a"], "refused"),
        (["member", "--category", "nc", "--partition", "-h x"], "refused"),
        (["member", "--category", "nc", "-partition", "a:a"], "refused"),
        ([*MEMBER, "-1"], "refused"),
        (["--config", "--help"], "refused"),
    ],
)
def test_reads_like_argparse(argv, outcome):
    assert assert_reads_alike(argv)[0] == outcome


GLOBAL_CHUNKS = (
    ["--pretty"], ["--json"], ["--timing"], ["--pre"], ["--t"], ["--j"],
    ["--config", "c.json"], ["--config=c.json"], ["--conf", "c.json"],
    ["--c", "-1"], ["--config"], ["--pretty=x"], ["-h"], ["--help"],
    ["--bogus"], ["-hh"],
)
STR_VALUES = (
    "nc", "p", "a:a", "2", "-2", "-1.5", " 2", "x", "-x", "-", "", "a b",
    "--x y", "-h x", "-hh", "--p", "-3\n",
)
INT_VALUES = ("2", "0", "-2", " 2", "2 ", "2.0", "x", "1_0", "+1", "", "-x")
JUNK = (
    "extra", "--bogus", "--bogus=1", "--=x", "--", "-1", "-h", "--help",
    "--he", "-hh", "-hx", "--help=x", "--pretty", "--config", "-x", "=", "-",
    "-h=h", "--pre", "--c",
)


@st.composite
def option_chunks(draw, options, values):
    """Token groups giving some of the options, each by its flag or by a
    prefix of it, its value separate or after ``=``; required options
    usually, others sometimes, and any of them twice now and then."""
    chunks = []
    for option in options:
        low = 1 if option.required and draw(st.integers(0, 9)) else 0
        for _ in range(draw(st.integers(low, 2 if low else 1))):
            cut = draw(st.integers(3, len(option.flag)))
            flag = draw(st.sampled_from((option.flag, option.flag[:cut])))
            value = draw(st.sampled_from(values(option)))
            if draw(st.booleans()):
                chunks.append([flag, value])
            else:
                chunks.append([f"{flag}={value}"])
    return chunks


def differential_values(option):
    if option.choices:
        return (*option.choices, "nope", "")
    return INT_VALUES if option.type is int else STR_VALUES


@st.composite
def any_argv(draw, global_chunks, commands, values, junk):
    argv = []
    for chunk in draw(st.lists(st.sampled_from(global_chunks), max_size=2)):
        argv += chunk
    command = draw(commands)
    argv.append(command)
    chunks = []
    if command in cli._COMMANDS:
        chunks = draw(option_chunks(cli._COMMANDS[command].options, values))
    chunks += [[token] for token in draw(st.lists(st.sampled_from(junk), max_size=2))]
    for chunk in draw(st.permutations(chunks)):
        argv += chunk
    return argv


@settings(max_examples=600, deadline=None)
@given(any_argv(
    GLOBAL_CHUNKS,
    st.sampled_from((*cli._COMMANDS, "bogus", "--", "-h")),
    differential_values,
    JUNK,
))
def test_reads_like_argparse_on_generated_argv(argv):
    assert_reads_alike(argv)


@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "command"),
        (["--pretty"], "command"),
        (["bogus", "--category", "nc"], "bogus"),
        (["decompose", "--category", "nc"], "--power"),
        (["fuse", "--category", "nc", "--left", "1"], "--right"),
        (["member", "--category", "nc", "--bogus", "--partition", "a:a"],
         "--bogus"),
        (["--bogus", *MEMBER], "--bogus"),
        (["--=x", *MEMBER], "--=x"),
        ([*MEMBER, "--cat=nc=nc", "--=x"], "--=x"),
        (["member", "--category", "nc", "--partition"], "--partition"),
        (["member", "--category", "--partition", "a:a"], "--category"),
        (["fuse", "--category", "nc", "--left", "-x", "--right", "1"], "--left"),
        (["--config"], "--config"),
        (["decompose", "--category", "nc", "--power", "2.0"], "--power"),
        (["brauer", "--category", "p2", "--N", "x", "--k", "1"], "--N"),
        (["verify", "--suite", "nope"], "--suite"),
        ([*MEMBER, "extra"], "member"),
        (["member", "--pretty", "--category", "nc", "--partition", "a:a"],
         "--pretty"),
        (["--pretty=1", *MEMBER], "--pretty"),
    ],
    ids=[
        "no-command", "flag-only", "unknown-command", "missing-required",
        "missing-second-required", "unknown-option", "unknown-global",
        "ambiguous-global", "ambiguous-after-command", "missing-value",
        "value-is-a-flag", "value-starts-with-dash", "missing-config-value",
        "non-integer", "non-integer-N", "bad-choice", "stray-positional",
        "global-after-command", "flag-with-value",
    ],
)
def test_usage_error_json(capsys, argv, named):
    """Every usage error exits 2 with one JSON error line naming the command
    or option, where argparse printed its usage text."""
    assert oracle_read(argv) == ("refused",)
    assert run(argv) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    doc = json.loads(err)
    assert set(doc) == {"schema", "error"} and doc["schema"] == "particat/1"
    assert named in doc["error"]


# small sizes only, so that no request is heavy
SMALL_VALUES = {
    "category": ("nc", "p", "p2", "nc2", "ncb", "nceven", "ucol", "nope",
                 "gen:missing.txt"),
    "left": ("0", "1", "2", "01", "1w", "a:a", "ab:ab", "x", "-1"),
    "right": ("0", "2", "10", "1b", "a:a", "aa:", ":", "-2"),
    "partition": ("a:a", "ab:ba", "ab:ab", "abc:abc", ":", "a1", "ab@w:ab"),
    "power": ("0", "1", "2", "-1", "x"),
    "N": ("-1", "0", "1", "2", "3", "2.0"),
    "k": ("-1", "0", "1", "2"),
    "max_points": ("-1", "0", "1", "2"),
    "max_label": ("-1", "0", "1", "2"),
    "suite": ("functor", "structure", "fusion", "all", "nope"),
}
SMALL_GLOBALS = (
    ["--pretty"], ["--json"], ["--timing"], ["--t"], ["--config", "missing.json"],
    ["--bogus"],
)
# nothing here reads as -h or --help, whose text is no document
SMALL_JUNK = ("extra", "--bogus", "--=x", "--", "-1", "--pretty", "-x", "-", "")


@settings(max_examples=200, deadline=None)
@given(any_argv(
    SMALL_GLOBALS,
    st.sampled_from((*cli._COMMANDS, "bogus")),
    lambda option: SMALL_VALUES[option.dest],
    SMALL_JUNK,
))
def test_any_argv_gets_one_document(argv):
    """Whatever argv holds, run exits 0, 2, 3 or 4 without an exception; a
    refusal prints one JSON error document on stderr and nothing on stdout,
    and an answer prints one document on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_BOUNDS, EXIT_UNDECIDABLE), argv
    if code:
        assert out == "" and err.count("\n") == 1, argv
        assert set(json.loads(err)) == {"schema", "error"}
    elif out.startswith("command: "):
        assert err == "" and "\nresult:\n" in out, argv
    else:
        assert err == "" and out.count("\n") == 1, argv
        assert json.loads(out)["schema"] == "particat/1"
