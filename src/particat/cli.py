"""
Command line surface.

Every command reads its inputs, runs one computation, and writes a single
JSON document to standard output (schema id ``particat/1``); ``--pretty``
switches to a human-readable rendering.  Output is byte-identical across
runs for identical inputs: the ``elapsed_ms`` field stays 0 unless
``--timing`` is passed.  Environment variables are never consulted; an
optional JSON config file can raise or lower the size caps.

Exit codes: 0 success, 2 parse or usage error (an unreadable input file
included), 3 bounds exceeded, 4 undecidable membership in a bounded
generated category.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass

from .partition import (
    ArityError,
    ColorError,
    GrammarError,
    Partition,
    parse_partition,
    serialize,
)
from .structure import sym_group
from .categories import (
    BoundsExceededError,
    DEFAULT_MAX_POINTS,
    UndecidableMembershipError,
    category_from_name,
    membership,
)
from .matrix_model import (
    brauer_element,
    brauer_kernel_dim,
    brauer_product,
    class_projection,
)
from .fusion import (
    LABELLED_IDS,
    decompose_power,
    fusion,
    label_for,
    label_to_partition,
    labelled_fusion,
    runs_decode,
)
from .verify import SUITES, run_suite

__all__ = ["main", "run"]

SCHEMA = "particat/1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BOUNDS = 3
EXIT_UNDECIDABLE = 4


@dataclass
class Config:
    max_points: int = DEFAULT_MAX_POINTS

    @staticmethod
    def load(path: str | None) -> "Config":
        cfg = Config()
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("the config file must hold a JSON object")
            if "max_points" in data:
                value = data["max_points"]
                if type(value) is not int:
                    raise ValueError("max_points must be a JSON integer")
                cfg.max_points = value
        return cfg


def _parse_label_or_partition(text: str, scheme: str | None):
    """A CLI operand: a diagram in the grammar, or a label where the
    category has a labelling scheme."""
    if ":" in text:
        return parse_partition(text)
    if scheme in ("S", "O", "B"):
        try:
            return int(text)
        except ValueError as exc:
            raise GrammarError(f"expected a number label, got {text!r}") from exc
    if scheme == "H":
        if set(text) <= {"0", "1"}:
            return text
        raise GrammarError(f"expected a 0/1 word label, got {text!r}")
    if scheme == "U":
        try:
            return runs_decode(text)
        except ValueError as exc:
            raise GrammarError(str(exc)) from exc
    raise GrammarError(
        f"{text!r} is not a diagram and the category has no label scheme"
    )


def _cmd_fuse(args, cfg: Config) -> tuple[dict, dict]:
    spec = category_from_name(args.category, cfg.max_points)
    scheme = LABELLED_IDS.get(spec.builtin or "")
    left = _parse_label_or_partition(args.left, scheme)
    right = _parse_label_or_partition(args.right, scheme)
    inputs = {
        "category": args.category,
        "left": args.left,
        "right": args.right,
    }
    if scheme and not isinstance(left, Partition) and not isinstance(right, Partition):
        labels = labelled_fusion(scheme, left, right)
        return inputs, {"result": labels, "checks": len(labels)}
    pl = left if isinstance(left, Partition) else label_to_partition(scheme, left)
    pr = right if isinstance(right, Partition) else label_to_partition(scheme, right)
    res = fusion(spec, pl, pr)
    if scheme:
        rendered = [label_for(spec, m).render() for m in res.partitions]
    else:
        rendered = [serialize(m) for m in res.partitions]
    return inputs, {"result": rendered, "checks": len(rendered)}


def _cmd_member(args, cfg: Config) -> tuple[dict, dict]:
    spec = category_from_name(args.category, cfg.max_points)
    p = parse_partition(args.partition)
    verdict = membership(spec, p)
    inputs = {"category": args.category, "partition": args.partition}
    if verdict is None:
        raise UndecidableMembershipError(
            f"{args.partition} is beyond the bound of the generated category"
        )
    return inputs, {"result": verdict, "checks": 1}


def _cmd_sym(args, cfg: Config) -> tuple[dict, dict]:
    spec = category_from_name(args.category, cfg.max_points)
    p = parse_partition(args.partition)
    group = sym_group(spec, p)
    inputs = {"category": args.category, "partition": args.partition}
    return inputs, {
        "result": {
            "order": len(group),
            "permutations": [list(sigma) for sigma in group],
        },
        "checks": len(group),
    }


def _cmd_decompose(args, cfg: Config) -> tuple[dict, dict]:
    spec = category_from_name(args.category, cfg.max_points)
    records = decompose_power(spec, args.power)
    inputs = {"category": args.category, "power": args.power}
    rows = []
    ranks = {}
    if args.N is not None:
        inputs["N"] = args.N
        for rec in class_projection(spec, args.power, args.N):
            ranks[rec["representative"]] = rec
    for rec in records:
        row = {
            "representative": serialize(rec["representative"]),
            "label": rec["label"].render(),
            "t": rec["t"],
            "class_size": len(rec["members"]),
        }
        if rec["representative"] in ranks:
            mrec = ranks[rec["representative"]]
            row["rank_class"] = mrec["rank_class"]
            row["rank_rep"] = mrec["rank_rep"]
            row["multiplicity"] = mrec["multiplicity"]
        rows.append(row)
    return inputs, {"result": rows, "checks": len(rows)}


def _cmd_brauer(args, cfg: Config) -> tuple[dict, dict]:
    spec = category_from_name(args.category, cfg.max_points)
    if args.left or args.right:
        if not (args.left and args.right):
            raise GrammarError("product mode needs both --left and --right")
        x = brauer_element(parse_partition(args.left))
        y = brauer_element(parse_partition(args.right))
        prod = brauer_product(x, y, args.N)
        inputs = {
            "category": args.category,
            "left": args.left,
            "right": args.right,
            "N": args.N,
        }
        terms = [
            {"partition": serialize(p), "coefficient": str(c)}
            for p, c in prod.terms
        ]
        return inputs, {"result": terms, "checks": len(terms)}
    if args.k is None:
        raise GrammarError("kernel mode needs --k")
    dim = brauer_kernel_dim(spec, args.k, args.N)
    inputs = {"category": args.category, "k": args.k, "N": args.N}
    return inputs, {"result": {"kernel_dim": dim}, "checks": 1}


def _cmd_verify(args, cfg: Config) -> tuple[dict, dict]:
    report = run_suite(args.suite, N=args.N, max_points=args.max_points)
    inputs = {
        "suite": args.suite,
        "N": args.N,
        "max_points": args.max_points,
    }
    return inputs, {
        "result": {"passed": report["passed"], "failures": report["failures"]},
        "checks": report["checks"],
    }


def _cmd_table(args, cfg: Config) -> tuple[dict, dict]:
    spec = category_from_name(args.category, cfg.max_points)
    scheme = LABELLED_IDS.get(spec.builtin or "")
    if not scheme:
        raise GrammarError("fusion tables need a labelled category")
    if args.max_label < 0:
        raise ValueError("--max-label must be nonnegative")
    if scheme in ("S", "O", "B"):
        labels: list = list(range(args.max_label + 1))
    else:
        alphabet = ("0", "1") if scheme == "H" else ("w", "b")
        labels = [""]
        frontier = [""]
        for _ in range(args.max_label):
            frontier = [w + ch for w in frontier for ch in alphabet]
            labels.extend(frontier)
    rows = []
    for a in labels:
        for b in labels:
            rows.append(
                {"left": a, "right": b, "result": labelled_fusion(scheme, a, b)}
            )
    inputs = {"category": args.category, "max_label": args.max_label}
    return inputs, {"result": rows, "checks": len(rows)}


_COMMANDS = {
    "fuse": _cmd_fuse,
    "member": _cmd_member,
    "sym": _cmd_sym,
    "decompose": _cmd_decompose,
    "brauer": _cmd_brauer,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
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
    br.add_argument("--N", type=int, required=True)
    br.add_argument("--k", type=int)
    br.add_argument("--left")
    br.add_argument("--right")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", choices=SUITES, required=True)
    ver.add_argument("--N", type=int, default=3)
    ver.add_argument("--max-points", type=int, default=6, dest="max_points")

    tab = sub.add_parser("table", help="fusion table of a labelled category")
    tab.add_argument("--category", required=True)
    tab.add_argument("--max-label", type=int, default=3, dest="max_label")
    return top


def _pretty_render(doc: dict) -> str:
    lines = [f"command: {doc['command']}"]
    for key, val in doc["inputs"].items():
        lines.append(f"  {key}: {val}")
    lines.append("result:")
    result = doc["result"]
    if isinstance(result, list):
        for item in result:
            lines.append(f"  - {json.dumps(item, sort_keys=True)}")
    else:
        lines.append(f"  {json.dumps(result, sort_keys=True)}")
    lines.append(f"checks: {doc['stats']['checks']}")
    return "\n".join(lines)


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        cfg = Config.load(args.config)
        start = time.monotonic()
        inputs, payload = _COMMANDS[args.command](args, cfg)
        elapsed = int((time.monotonic() - start) * 1000) if args.timing else 0
    except (GrammarError, ColorError, ArityError, ValueError, OSError) as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}), file=sys.stderr)
        return EXIT_PARSE
    except BoundsExceededError as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}), file=sys.stderr)
        return EXIT_BOUNDS
    except UndecidableMembershipError as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}), file=sys.stderr)
        return EXIT_UNDECIDABLE
    doc = {
        "schema": SCHEMA,
        "command": args.command,
        "inputs": inputs,
        "result": payload["result"],
        "stats": {"elapsed_ms": elapsed, "checks": payload["checks"]},
    }
    if args.pretty:
        print(_pretty_render(doc))
    else:
        print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
