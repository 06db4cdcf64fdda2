"""
Command line surface.

Every command reads its inputs, runs one computation, and writes a single
JSON document to standard output (schema id ``particat/1``) whose ``inputs``
echo the subcommand's options as given; ``--pretty`` switches to a
human-readable rendering.  Labels go as text to :mod:`particat.fusion`,
which parses and checks them.  Output is byte-identical across runs for
identical inputs: the ``elapsed_ms`` field stays 0 unless ``--timing`` is
passed.  Environment variables are never consulted; an optional JSON config
file sets ``max_points``, the closure bound of ``gen:`` categories.

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

from .partition import GrammarError, parse_partition, serialize
from .structure import sym_group
from .categories import (
    BoundsExceededError,
    CategorySpec,
    DEFAULT_MAX_POINTS,
    UndecidableMembershipError,
    category_from_name,
    contains,
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
    labels_up_to,
)
from .verify import SUITES, run_suite

__all__ = ["main", "run"]

SCHEMA = "particat/1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BOUNDS = 3
EXIT_UNDECIDABLE = 4

# every other refusal (ValueError, which covers the grammar, color and arity
# errors, or OSError) exits EXIT_PARSE
_REFUSAL_EXITS = {
    BoundsExceededError: EXIT_BOUNDS,
    UndecidableMembershipError: EXIT_UNDECIDABLE,
}


def _max_points(path: str | None) -> int:
    """The closure bound: ``max_points`` of the JSON config file, if any."""
    if not path:
        return DEFAULT_MAX_POINTS
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("the config file must hold a JSON object")
    value = data.get("max_points", DEFAULT_MAX_POINTS)
    if type(value) is not int:
        raise ValueError("max_points must be a JSON integer")
    return value


def _cmd_fuse(args, spec: CategorySpec | None) -> dict:
    scheme = LABELLED_IDS.get(spec.builtin or "")
    operands = (args.left, args.right)
    if not any(":" in text for text in operands):
        labels = labelled_fusion(scheme, *operands)
        return {"result": labels, "checks": len(labels)}
    pl, pr = (
        parse_partition(text) if ":" in text else label_to_partition(scheme, text)
        for text in operands
    )
    # members of a category without a label scheme render as diagrams
    rendered = [label_for(spec, m).render() for m in fusion(spec, pl, pr).partitions]
    return {"result": rendered, "checks": len(rendered)}


def _cmd_member(args, spec: CategorySpec | None) -> dict:
    return {"result": contains(spec, parse_partition(args.partition)), "checks": 1}


def _cmd_sym(args, spec: CategorySpec | None) -> dict:
    group = sym_group(spec, parse_partition(args.partition))
    return {
        "result": {
            "order": len(group),
            "permutations": [list(sigma) for sigma in group],
        },
        "checks": len(group),
    }


def _cmd_decompose(args, spec: CategorySpec | None) -> dict:
    if args.N is None:
        records = decompose_power(spec, args.power)
    else:
        records = class_projection(spec, args.power, args.N)
    ranks = ("rank_class", "rank_rep", "multiplicity")
    rows = [
        {
            "representative": serialize(rec["representative"]),
            "label": rec["label"].render(),
            "t": rec["t"],
            "class_size": len(rec["members"]),
            **{key: rec[key] for key in ranks if key in rec},
        }
        for rec in records
    ]
    return {"result": rows, "checks": len(rows)}


def _cmd_brauer(args, spec: CategorySpec | None) -> dict:
    if args.left is not None or args.right is not None:
        if args.left is None or args.right is None:
            raise GrammarError("product mode needs both --left and --right")
        if args.k is not None:
            raise GrammarError("product mode takes no --k")
        x = brauer_element(parse_partition(args.left))
        y = brauer_element(parse_partition(args.right))
        terms = [
            {"partition": serialize(p), "coefficient": str(c)}
            for p, c in brauer_product(x, y, args.N).terms
        ]
        return {"result": terms, "checks": len(terms)}
    if args.k is None:
        raise GrammarError("kernel mode needs --k")
    dim = brauer_kernel_dim(spec, args.k, args.N)
    return {"result": {"kernel_dim": dim}, "checks": 1}


def _cmd_verify(args, spec: CategorySpec | None) -> dict:
    report = run_suite(args.suite, N=args.N, max_points=args.max_points)
    return {
        "result": {"passed": report["passed"], "failures": report["failures"]},
        "checks": report["checks"],
    }


def _cmd_table(args, spec: CategorySpec | None) -> dict:
    scheme = LABELLED_IDS.get(spec.builtin or "")
    if not scheme:
        raise GrammarError("fusion tables need a labelled category")
    if args.max_label < 0:
        raise ValueError("--max-label must be nonnegative")
    labels = labels_up_to(scheme, args.max_label)
    rows = [
        {"left": a, "right": b, "result": labelled_fusion(scheme, a, b)}
        for a in labels
        for b in labels
    ]
    return {"result": rows, "checks": len(rows)}


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        max_points = _max_points(args.config)
        start = time.monotonic()
        spec = None
        if "category" in args:
            spec = category_from_name(args.category, max_points)
        payload = _COMMANDS[args.command](args, spec)
        elapsed = int((time.monotonic() - start) * 1000) if args.timing else 0
    except (ValueError, OSError, *_REFUSAL_EXITS) as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}), file=sys.stderr)
        return _REFUSAL_EXITS.get(type(exc), EXIT_PARSE)
    # the subcommand's options as given, in declaration order
    shared = {action.dest for action in parser._actions}
    inputs = {
        key: val
        for key, val in vars(args).items()
        if key not in shared and val is not None
    }
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
