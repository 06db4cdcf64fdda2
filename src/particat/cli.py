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

Arguments are read from one option table.  ``_GLOBALS`` lists the flags that
go before the command, and ``_COMMANDS`` lists each command with its
options in declaration order: flag, dest, type (``str``, ``int``, or
``bool`` for a flag that takes no value), whether it is required, default
and choices.  One pass over argv reads the global flags, then the command,
then its options; the same table builds ``inputs`` (declaration order,
defaults included, unset options left out) and the ``-h``/``--help`` text.
The reading is that of the standard library's argument parser, which the
tests keep as an oracle: an option is given as ``--opt value``, as
``--opt=value`` or by an unambiguous prefix of its flag (``--cat``); a
repeated option keeps its last value; a separate value may start with
``-`` only if it reads as a negative number or holds a space; and ``-h``
or ``--help`` prints the help of the global flags or of the command it
follows and exits 0 as soon as it is read, unless a usage error came
before it or an ambiguous prefix stands anywhere.

Exit codes: 0 success, 2 parse or usage error (an unreadable input file
included), 3 bounds exceeded, 4 undecidable membership in a bounded
generated category.  Every refusal prints one JSON document
``{"schema": "particat/1", "error": ...}`` on standard error and nothing on
standard output.
"""

from __future__ import annotations

import json
import re
import sys
import time
from typing import Callable, NamedTuple, Optional

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


def _cmd_fuse(opts: dict, spec: CategorySpec | None) -> dict:
    scheme = LABELLED_IDS.get(spec.builtin or "")
    operands = (opts["left"], opts["right"])
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


def _cmd_member(opts: dict, spec: CategorySpec | None) -> dict:
    return {"result": contains(spec, parse_partition(opts["partition"])), "checks": 1}


def _cmd_sym(opts: dict, spec: CategorySpec | None) -> dict:
    group = sym_group(spec, parse_partition(opts["partition"]))
    return {
        "result": {
            "order": len(group),
            "permutations": [list(sigma) for sigma in group],
        },
        "checks": len(group),
    }


def _cmd_decompose(opts: dict, spec: CategorySpec | None) -> dict:
    if opts["N"] is None:
        records = decompose_power(spec, opts["power"])
    else:
        records = class_projection(spec, opts["power"], opts["N"])
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


def _cmd_brauer(opts: dict, spec: CategorySpec | None) -> dict:
    if opts["left"] is not None or opts["right"] is not None:
        if opts["left"] is None or opts["right"] is None:
            raise GrammarError("product mode needs both --left and --right")
        if opts["k"] is not None:
            raise GrammarError("product mode takes no --k")
        x = brauer_element(parse_partition(opts["left"]))
        y = brauer_element(parse_partition(opts["right"]))
        terms = [
            {"partition": serialize(p), "coefficient": str(c)}
            for p, c in brauer_product(x, y, opts["N"]).terms
        ]
        return {"result": terms, "checks": len(terms)}
    if opts["k"] is None:
        raise GrammarError("kernel mode needs --k")
    dim = brauer_kernel_dim(spec, opts["k"], opts["N"])
    return {"result": {"kernel_dim": dim}, "checks": 1}


def _cmd_verify(opts: dict, spec: CategorySpec | None) -> dict:
    report = run_suite(opts["suite"], N=opts["N"], max_points=opts["max_points"])
    return {
        "result": {"passed": report["passed"], "failures": report["failures"]},
        "checks": report["checks"],
    }


def _cmd_table(opts: dict, spec: CategorySpec | None) -> dict:
    scheme = LABELLED_IDS.get(spec.builtin or "")
    if not scheme:
        raise GrammarError("fusion tables need a labelled category")
    if opts["max_label"] < 0:
        raise ValueError("--max-label must be nonnegative")
    labels = labels_up_to(scheme, opts["max_label"])
    rows = [
        {"left": a, "right": b, "result": labelled_fusion(scheme, a, b)}
        for a in labels
        for b in labels
    ]
    return {"result": rows, "checks": len(rows)}


class _Option(NamedTuple):
    """One row of the option table.  ``type`` is ``str`` or ``int``, or
    ``bool`` for a flag that takes no value and reads True when given."""

    flag: str
    dest: str
    type: type = str
    required: bool = False
    default: object = None
    choices: Optional[tuple[str, ...]] = None
    help: str = ""


class _Command(NamedTuple):
    run: Callable[[dict, Optional[CategorySpec]], dict]
    help: str
    options: tuple[_Option, ...]


_GLOBALS = (
    _Option("--config", "config", help="JSON config file setting size caps"),
    _Option("--pretty", "pretty", bool, default=False,
            help="human-readable rendering"),
    _Option("--json", "json", bool, default=False,
            help="JSON output (the default)"),
    _Option("--timing", "timing", bool, default=False,
            help="report real elapsed milliseconds (breaks byte-identical output)"),
)

_CATEGORY = _Option("--category", "category", required=True)
_PARTITION = _Option("--partition", "partition", required=True)

_COMMANDS = {
    "fuse": _Command(_cmd_fuse, "fusion of two labels or diagrams", (
        _CATEGORY,
        _Option("--left", "left", required=True),
        _Option("--right", "right", required=True),
    )),
    "member": _Command(_cmd_member, "category membership of a diagram", (
        _CATEGORY, _PARTITION,
    )),
    "sym": _Command(_cmd_sym, "symmetry group of a projective diagram", (
        _CATEGORY, _PARTITION,
    )),
    "decompose": _Command(_cmd_decompose, "classes of a tensor power", (
        _CATEGORY,
        _Option("--power", "power", int, required=True),
        _Option("--N", "N", int),
    )),
    "brauer": _Command(_cmd_brauer, "twisted diagram algebra computations", (
        _CATEGORY,
        _Option("--k", "k", int),
        _Option("--left", "left"),
        _Option("--right", "right"),
        _Option("--N", "N", int, required=True),
    )),
    "verify": _Command(_cmd_verify, "run a verification suite", (
        _Option("--suite", "suite", required=True, choices=SUITES),
        _Option("--N", "N", int, default=3),
        _Option("--max-points", "max_points", int, default=6),
    )),
    "table": _Command(_cmd_table, "fusion table of a labelled category", (
        _CATEGORY,
        _Option("--max-label", "max_label", int, default=3),
    )),
}

_HELP = _Option("--help", "help", bool, help="show this help and exit")


class _Level(NamedTuple):
    """What a pass needs of the global flags or of one command's options."""

    command: Optional[str]  # None for the global flags
    options: tuple[_Option, ...]
    flags: dict[str, _Option]  # by flag, -h and --help included
    shared: frozenset[str]  # prefixes of two or more long flags
    defaults: dict[str, object]  # by dest, in declaration order


def _level(command: Optional[str], options: tuple[_Option, ...]) -> _Level:
    flags = {"-h": _HELP, "--help": _HELP, **{o.flag: o for o in options}}
    longs = [flag for flag in flags if flag.startswith("--")]
    prefixes = {flag[:i] for flag in longs for i in range(2, len(flag))}
    shared = frozenset(
        prefix
        for prefix in prefixes
        if prefix not in flags and sum(f.startswith(prefix) for f in longs) > 1
    )
    defaults = {o.dest: o.default for o in options}
    return _Level(command, options, flags, shared, defaults)


_GLOBAL = _level(None, _GLOBALS)
_LEVELS = {name: _level(name, cmd.options) for name, cmd in _COMMANDS.items()}


def _listing(names) -> str:
    *head, last = names
    return f"{', '.join(head)} or {last}"


# what the standard parser takes for a negative number, so for a value
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _HelpRequested(Exception):
    """-h or --help was read; the argument is the help text."""


def _help_text(level: _Level) -> str:
    """The help of the global flags or of one command, read off the table."""
    rows = []
    usage = ["usage: particat", level.command or "[global flags] <command> [options]"]
    for o in level.options:
        spec = o.flag
        if o.choices:
            spec += " {" + ",".join(o.choices) + "}"
        elif o.type is not bool:
            spec += " " + o.dest.upper()
        notes = [o.help] if o.help else []
        if o.type is int:
            notes.append("an integer")
        if o.required:
            notes.append("required")
        elif o.type is not bool and o.default is not None:
            notes.append(f"default {o.default}")
        rows.append((spec, ", ".join(notes)))
        if level.command:
            usage.append(spec if o.required else f"[{spec}]")
    rows.append(("-h, --help", _HELP.help))
    width = max(len(spec) for spec, _ in rows)
    options = [f"  {spec:<{width}}  {notes}".rstrip() for spec, notes in rows]
    if level.command:
        summary = _COMMANDS[level.command].help
        return "\n".join([" ".join(usage), "", summary, "", "options:", *options])
    width = max(map(len, _COMMANDS))
    return "\n".join([
        " ".join(usage),
        "",
        "exact diagram calculus for categories of set partitions",
        "",
        "commands:",
        *(f"  {name:<{width}}  {cmd.help}" for name, cmd in _COMMANDS.items()),
        "",
        "global flags, given before the command:",
        *options,
        "",
        "particat <command> --help lists the options of a command.",
    ])


def _refuse_shared(argv: list[str], start: int, level: _Level) -> None:
    """Refuse a token from argv[start:], up to any ``--``, whose flag part is
    a prefix that two or more of the level's flags share: like the standard
    parser, before any option is read."""
    for token in argv[start:]:
        if token == "--":
            return
        prefix = token.partition("=")[0]
        if prefix in level.shared:
            matches = ", ".join(f for f in level.flags if f.startswith(prefix))
            raise ValueError(f"ambiguous option {token}: could match {matches}")


def _classify(token: str, level: _Level):
    """How the standard parser reads one token at this level: None for a
    value, else the option (None for an unknown one) and the value attached
    to it (None if none)."""
    if token[:1] != "-" or token == "-":
        return None
    flags = level.flags
    option = flags.get(token)
    if option is not None:
        return option, None
    name, eq, attached = token.partition("=")
    if eq and name in flags:
        return flags[name], attached
    if token[1] == "-":
        # one match at most: shared prefixes were refused before the pass
        for flag in flags:
            if flag.startswith(name):
                return flags[flag], attached if eq else None
    elif token[:2] in flags:
        # a short flag with a value attached, as in -hx
        return flags[token[:2]], token[2:]
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def _value(option: _Option, text: str, where: str):
    value = text
    if option.type is int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(
                f"{where}{option.flag} expects an integer, got {text!r}"
            ) from None
    if option.choices and value not in option.choices:
        raise ValueError(
            f"{where}{option.flag} must be {_listing(option.choices)}, got {text!r}"
        )
    return value


def _read_options(
    argv: list[str], i: int, level: _Level, values: dict, unknown: list[str]
) -> int:
    """Read the level's options from argv[i:] into values, by dest, up to
    the first token that is no option, and return that token's index.
    Unknown options are refused after the pass, so they go to unknown."""
    where = f"{level.command}: " if level.command else ""
    n = len(argv)
    while i < n and argv[i] != "--":
        token = argv[i]
        read = _classify(token, level)
        if read is None:
            break
        option, attached = read
        i += 1
        if option is None:
            unknown.append(token)
        elif option is _HELP:
            # -hh reads as -h -h; any other attached value is refused
            if attached is None or (
                token[1] != "-" and attached and not attached.strip("h")
            ):
                raise _HelpRequested(_help_text(level))
            raise ValueError(f"{where}{token} takes no value")
        elif option.type is bool:
            if attached is not None:
                raise ValueError(f"{where}{option.flag} takes no value")
            values[option.dest] = True
        else:
            if attached is None:
                if i == n or argv[i] == "--" or _classify(argv[i], level):
                    raise ValueError(f"{where}{option.flag} expects a value")
                attached = argv[i]
                i += 1
            values[option.dest] = _value(option, attached, where)
    return i


def _read(argv: list[str]) -> tuple[str, dict, dict]:
    """The command that argv names, the global flags by dest, and the
    command's options by dest in declaration order, unset ones None.
    Raises ValueError on a usage error and _HelpRequested on -h/--help."""
    _refuse_shared(argv, 0, _GLOBAL)
    flags = dict(_GLOBAL.defaults)
    unknown: list[str] = []
    i = _read_options(argv, 0, _GLOBAL, flags, unknown)
    if i == len(argv):
        raise ValueError(f"expected a command: {_listing(_COMMANDS)}")
    command = argv[i]
    level = _LEVELS.get(command)
    if level is None:
        raise ValueError(
            f"unknown command {command!r}; expected one of {_listing(_COMMANDS)}"
        )
    _refuse_shared(argv, i + 1, level)
    options = dict(level.defaults)
    i = _read_options(argv, i + 1, level, options, unknown)
    while i < len(argv):
        if argv[i] == "--":
            # everything after -- is a stray value
            unknown += argv[i:]
            break
        unknown.append(argv[i])
        i = _read_options(argv, i + 1, level, options, unknown)
    missing = [o.flag for o in level.options if o.required and options[o.dest] is None]
    if missing:
        raise ValueError(f"{command}: missing {', '.join(missing)}")
    if unknown:
        raise ValueError(f"{command}: unrecognized arguments: {' '.join(unknown)}")
    return command, flags, options


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
        command, flags, options = _read(argv)
        max_points = _max_points(flags["config"])
        start = time.monotonic()
        spec = None
        if "category" in options:
            spec = category_from_name(options["category"], max_points)
        payload = _COMMANDS[command].run(options, spec)
        elapsed = int((time.monotonic() - start) * 1000) if flags["timing"] else 0
    except _HelpRequested as request:
        print(request.args[0])
        return EXIT_OK
    except (ValueError, OSError, *_REFUSAL_EXITS) as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}), file=sys.stderr)
        return _REFUSAL_EXITS.get(type(exc), EXIT_PARSE)
    doc = {
        "schema": SCHEMA,
        "command": command,
        # the command's options as given, in declaration order
        "inputs": {key: val for key, val in options.items() if val is not None},
        "result": payload["result"],
        "stats": {"elapsed_ms": elapsed, "checks": payload["checks"]},
    }
    if flags["pretty"]:
        print(_pretty_render(doc))
    else:
        print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
