"""The four benchmark workloads.

Each workload has three parts:

* ``prepare(seed, workdir)`` builds the inputs in pure Python (no particat
  call, so no library cache is filled during set-up);
* ``run(plan, timer)`` makes the workload's fixed set of public calls, each
  one timed as an op through ``timer.op``;
* ``check(plan, outputs)`` runs after the timed region and returns the
  indices of the ops whose output failed its check, with a message each.

All four are a closed loop with a single caller.
"""

from __future__ import annotations

import bisect
import io
import itertools
import json
import math
import random
import signal
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable

import particat.categories as cat
import particat.cli as cli
import particat.fusion as fus
import particat.matrix_model as mm
import particat.partition as part
import particat.verify as ver
import yardstick

LETTERS = "abcdefghijklmnopqrstuvwxyz"


PROBE_EVERY_S = 0.25
EDGE_PROBES = 2  # yardstick slices before the first op and after the last


class OpTimer:
    """Times every op of one pass and records the ops that raised.

    While the pass runs, a timer signal runs a yardstick slice about every
    ``PROBE_EVERY_S``, between two bytecodes of whatever runs then, so also
    inside long ops.  The probes cut the pass into gaps; time spent in a gap
    is scaled to reference seconds by the median of the ``2 * EDGE_PROBES``
    probes around it, and time spent in a probe does not count.  So drift of
    host speed within a pass, or within one op, cancels.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.op_ns: list[tuple[int, int]] = []  # per op: start, end
        self.probe_ns: list[tuple[int, int]] = []  # per probe: start, end
        self.raised: dict[int, str] = {}
        self.started_monotonic: float | None = None
        self.probe_total_ns = 0
        self._probing = False
        if tracer is not None:
            tracer.clock = self.clock

    def clock(self) -> float:
        """``time.perf_counter`` stopped while a probe runs, for the tracer."""
        return (time.perf_counter_ns() - self.probe_total_ns) / 1e9

    def _probe(self, *_signal) -> None:
        if self._probing:  # a slow slice outlasted the timer period
            return
        self._probing = True
        start = time.perf_counter_ns()
        yardstick.run_slice()
        end = time.perf_counter_ns()
        self.probe_ns.append((start, end))
        self.probe_total_ns += end - start
        self._probing = False

    def start(self, probe: bool = True) -> None:
        """Open the timed region; the set-up ends here.

        Without ``probe`` only the edge probes run.
        """
        self.started_monotonic = time.monotonic()
        for _ in range(EDGE_PROBES):
            self._probe()
        self.start_ns = time.perf_counter_ns()
        if probe:
            signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        """Close the timed region."""
        # the handler stays, so a signal already raised still finds it
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.stop_ns = time.perf_counter_ns()
        for _ in range(EDGE_PROBES):
            self._probe()

    def op(self, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` as one op; returns (op index, result or None)."""
        index = len(self.op_ns)
        span = self.tracer.begin_op(index, name) if self.tracer else None
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        except Exception as exc:  # an op that raises counts as failed
            result = None
            self.raised[index] = f"{name}: {type(exc).__name__}: {exc}"
        self.op_ns.append((start, time.perf_counter_ns()))
        if span is not None:
            self.tracer.end_op(span)
        return index, result

    @property
    def ops(self) -> int:
        return len(self.op_ns)

    def setup_scale(self) -> float:
        first = [end - start for start, end in self.probe_ns[:EDGE_PROBES]]
        return yardstick.REFERENCE_S * 1e9 / statistics.median(first)

    def reference(self) -> tuple[float, list[float], float]:
        """Wall time (s) and op samples (ms) in reference units, and raw wall."""
        probes = self.probe_ns
        took = [end - start for start, end in probes]
        # gap j runs from the end of probe j to the start of probe j + 1
        gaps = [
            (
                probes[j][1],
                probes[j + 1][0],
                yardstick.REFERENCE_S
                * 1e9
                / statistics.median(took[j - EDGE_PROBES + 1 : j + EDGE_PROBES + 1]),
            )
            for j in range(EDGE_PROBES - 1, len(probes) - EDGE_PROBES)
        ]
        starts = [lo for lo, _, _ in gaps]

        def scaled_ns(a: int, b: int, raw: bool = False) -> float:
            total = 0.0
            j = max(0, bisect.bisect_right(starts, a) - 1)
            while j < len(gaps) and gaps[j][0] < b:
                lo, hi, factor = gaps[j]
                total += max(0, min(b, hi) - max(a, lo)) * (1.0 if raw else factor)
                j += 1
            return total

        wall_s = scaled_ns(self.start_ns, self.stop_ns) / 1e9
        samples_ms = [scaled_ns(a, b) / 1e6 for a, b in self.op_ns]
        raw_wall_s = scaled_ns(self.start_ns, self.stop_ns, raw=True) / 1e9
        return wall_s, samples_ms, raw_wall_s


# ---------------------------------------------------------------------------
# pure-Python input helpers


def _random_blocks(rng: random.Random, n: int) -> list[int]:
    """A random set partition of n points as a restricted growth string."""
    rgs: list[int] = []
    used = 0
    for _ in range(n):
        g = rng.randrange(used + 1)
        rgs.append(g)
        used = max(used, g + 1)
    return rgs


def _random_diagram_text(rng: random.Random, n: int) -> str:
    rgs = _random_blocks(rng, n)
    k = rng.randrange(n + 1)
    word = "".join(LETTERS[g] for g in rgs)
    return f"{word[:k]}:{word[k:]}"


def _set_partitions(n: int) -> list[list[list[int]]]:
    """Every set partition of range(n), as lists of blocks (no library call)."""
    out: list[list[list[int]]] = [[]]
    for x in range(n):
        nxt = []
        for blocks in out:
            for i in range(len(blocks)):
                nxt.append(blocks[:i] + [blocks[i] + [x]] + blocks[i + 1 :])
            nxt.append(blocks + [[x]])
        out = nxt
    return out


def _through_count(k: int, blocks: list[list[int]]) -> int:
    return sum(1 for b in blocks if min(b) < k <= max(b))


def _identity_text(k: int, colors: str | None = None) -> str:
    word = LETTERS[:k]
    if colors is None:
        return f"{word}:{word}"
    return f"{word}@{colors}:{word}@{colors}"


def _runs_encode(word: str) -> str:
    out = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        out.append(f"{j - i}{word[i]}")
        i = j
    return "".join(out)


def _labels_of(spec, members) -> list:
    return sorted(fus.label_for(spec, m).value for m in members)


# ---------------------------------------------------------------------------
# fusion: mixing graft, domination and composition under load

FUSION_CATEGORIES = ("nc", "nc2", "ncb", "nceven", "ucol")
FUSION_ORACLE_POOLS = (("ncb", 3), ("nc", 2), ("nc2", 2), ("nceven", 2))
FUSION_LADDER = (2, 3, 4, 5)


def fusion_prepare(seed: int, workdir: Path) -> dict:
    return {"seed": seed}


def fusion_run(plan: dict, s: OpTimer) -> dict:
    rng = random.Random(plan["seed"])
    specs = {name: cat.CategorySpec.named(name) for name in FUSION_CATEGORIES}
    pools: dict[tuple[str, int], list] = {}
    for name in FUSION_CATEGORIES:
        for k in range(4):
            _, got = s.op("projectives", cat.projectives, specs[name], k)
            pools[(name, k)] = got or []
    pairs = []
    for name in FUSION_CATEGORIES:
        pool = [p for k in range(4) for p in pools[(name, k)]]
        pairs.extend((name, p, q) for p in pool for q in pool)
    rng.shuffle(pairs)
    sweep = []
    for name, p, q in pairs:
        index, res = s.op("fusion", fus.fusion, specs[name], p, q)
        sweep.append((index, name, p, q, res))

    nc = specs["nc"]
    ladder = []
    for t in FUSION_LADDER:
        strands = part.identity(t)
        index, res = s.op("fusion", fus.fusion, nc, strands, strands)
        ladder.append((index, t, res))

    oracle_pairs = []
    for name, max_k in FUSION_ORACLE_POOLS:
        pool = [p for k in range(max_k + 1) for p in pools[(name, k)]]
        oracle_pairs.extend((name, p, q) for p in pool for q in pool)
    rng.shuffle(oracle_pairs)
    oracle = []
    for name, p, q in oracle_pairs:
        index, res = s.op(
            "fusion_brute_force", fus.fusion_brute_force, specs[name], p, q
        )
        oracle.append((index, name, p, q, res))
    return {"specs": specs, "sweep": sweep, "ladder": ladder, "oracle": oracle}


def fusion_check(plan: dict, out: dict) -> dict[int, str]:
    bad: dict[int, str] = {}
    specs = out["specs"]
    fast = {}
    for index, name, p, q, res in out["sweep"]:
        if res is None:
            continue
        fast[(name, p, q)] = res.members
        spec = specs[name]
        scheme = fus.LABELLED_IDS[name]
        want = sorted(
            fus.labelled_fusion(
                scheme, fus.label_for(spec, p).value, fus.label_for(spec, q).value
            )
        )
        if _labels_of(spec, res.partitions) != want:
            bad[index] = f"fusion labels differ from closed form at {name} {p} x {q}"
    for index, t, res in out["ladder"]:
        if res is not None and _labels_of(specs["nc"], res.partitions) != list(
            range(2 * t + 1)
        ):
            bad[index] = f"nc identity ladder wrong at t={t}"
    for index, name, p, q, res in out["oracle"]:
        if res is not None and fast.get((name, p, q)) != res.members:
            bad[index] = f"fusion differs from the oracle at {name} {p} x {q}"
    return bad


# ---------------------------------------------------------------------------
# closure: the two-row fixed point, no fusion and no matrix work

# (generator text, point bound, built-in it must equal or recorded size),
# ordered so that the membership rounds between them fall at spread-out times
CLOSURE_JOBS = (
    ("ab:ba", 6, "p2"),
    (":a", 7, "ncb"),
    ("abc:cba", 6, 56),
    ("aa:aa", 8, "nceven"),
    ("", 8, "nc2"),
    ("ab@wb:ba@bw", 6, 907),
)
# generated specs that membership queries go to: (generators, bound, oracle)
MEMBERSHIP_SPECS = (
    (":a", 6, "ncb"),
    ("aa:aa", 6, "nceven"),
    ("ab:ba", 6, "p2"),
    ("abc:cba", 6, None),
    ("", 6, "nc2"),
)
MEMBERSHIP_QUERIES = 5000
# Each query is sent this many times after every closure job.  One round of
# microsecond queries lasts a few milliseconds, so its latency percentiles
# would sample the machine at a single instant; repeated rounds spread over
# the pass sample it throughout.
MEMBERSHIP_REPEATS = 4


def closure_prepare(seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    queries = []
    for _ in range(MEMBERSHIP_QUERIES):
        spec_index = rng.randrange(len(MEMBERSHIP_SPECS))
        bound = MEMBERSHIP_SPECS[spec_index][1]
        n = rng.randrange(bound + 3)  # two point counts beyond the bound
        queries.append((spec_index, _random_diagram_text(rng, n)))
    return {"queries": queries}


def _member_query(spec, text: str):
    return cat.membership(spec, part.parse_partition(text))


def closure_run(plan: dict, s: OpTimer) -> dict:
    specs = [
        cat.CategorySpec(
            generators=(part.parse_partition(g),) if g else (), max_points=bound
        )
        for g, bound, _ in MEMBERSHIP_SPECS
    ]
    closures = []
    rounds = []  # (op index of the first query, answers in query order)
    for gen_text, bound, expect in CLOSURE_JOBS:
        gens = (part.parse_partition(gen_text),) if gen_text else ()
        index, res = s.op("closure", cat.closure, gens, bound)
        closures.append((index, gen_text, bound, expect, res))
        for _ in range(MEMBERSHIP_REPEATS):
            first = s.ops
            answers = [
                s.op("membership", _member_query, specs[i], text)[1]
                for i, text in plan["queries"]
            ]
            rounds.append((first, answers))
    return {"closures": closures, "rounds": rounds}


def _builtin_upto(name: str, bound: int) -> frozenset:
    spec = cat.CategorySpec.named(name)
    return frozenset(
        p
        for n in range(bound + 1)
        for k in range(n + 1)
        for p in cat.enumerate_in(spec, k, n - k)
    )


def closure_check(plan: dict, out: dict) -> dict[int, str]:
    bad: dict[int, str] = {}
    by_job = {}
    for index, gen_text, bound, expect, res in out["closures"]:
        if res is None:
            continue
        by_job[(gen_text, bound)] = res
        if isinstance(expect, int):
            ok = len(res) == expect
        else:
            ok = res == _builtin_upto(expect, bound)
        if not ok:
            bad[index] = f"closure of {gen_text!r} at {bound} has {len(res)} members"
    oracles = []
    for g, bound, builtin in MEMBERSHIP_SPECS:
        if builtin is None:
            oracles.append(by_job.get((g, bound), frozenset()))
        else:
            oracles.append(_builtin_upto(builtin, bound))
    expected = []
    for spec_index, text in plan["queries"]:
        p = part.parse_partition(text)
        bound = MEMBERSHIP_SPECS[spec_index][1]
        expected.append(None if p.n_points > bound else p in oracles[spec_index])
    for first, answers in out["rounds"]:
        for offset, (res, want) in enumerate(zip(answers, expected)):
            if res is not want:
                spec_index, text = plan["queries"][offset]
                bad[first + offset] = (
                    f"membership of {text} in spec {spec_index} is {res}"
                )
    return bad


# ---------------------------------------------------------------------------
# matrix: numpy signatures, Fraction elimination and the sparse echelon

MATRIX_MAX_POINTS = 9
MATRIX_MAX_ROW = 5
MATRIX_INDEPENDENCE = (
    ("nc", 3, 2),
    ("p", 2, 2),
    ("p", 3, 3),
    ("p2", 3, 2),
    ("p2", 2, 4),
)


def matrix_prepare(seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    diagrams = []
    for n in range(MATRIX_MAX_POINTS + 1):
        partitions = _set_partitions(n)
        for k in range(max(0, n - MATRIX_MAX_ROW), min(MATRIX_MAX_ROW, n) + 1):
            for blocks in partitions:
                for N in (2, 3):
                    diagrams.append((k, n - k, blocks, N))
    rng.shuffle(diagrams)
    return {"seed": seed, "diagrams": diagrams}


def _rank_products(nc, N: int) -> bool:
    """Acceptance 6c: rank(p) rank(q) is the rank sum over fusion(p, q)."""
    reps = []
    for k in (1, 2):
        reps.extend(r["representative"] for r in mm.class_projection(nc, k, N))
    ranks: dict = {}

    def rank_of(m) -> int:
        if m not in ranks:
            ranks[m] = mm.projection_rank(nc, m, N)
        return ranks[m]

    return all(
        rank_of(p) * rank_of(q)
        == sum(rank_of(m) for m in fus.fusion(nc, p, q).partitions)
        for p in reps
        for q in reps
    )


def matrix_run(plan: dict, s: OpTimer) -> dict:
    first = s.ops
    ranks = [
        s.op("t_map_rank", mm.t_map_rank, part.Partition.make(k, l, blocks), N)[1]
        for k, l, blocks, N in plan["diagrams"]
    ]
    functor = s.op(
        "suite_functor", ver.suite_functor, 3, 6, 500, plan["seed"]
    )
    nc = cat.CategorySpec.named("nc")
    proj_ranks = []
    for k in range(5):
        _, pool = s.op("projectives", cat.projectives, nc, k)
        for p in pool or []:
            index, res = s.op("projection_rank", mm.projection_rank, nc, p, 3)
            proj_ranks.append((index, p, res))
    classes = [
        (s.op("class_projection", mm.class_projection, nc, k, N), k, N)
        for k, N in ((2, 4), (3, 2))
    ]
    kernels = []
    for name, k, N in MATRIX_INDEPENDENCE:
        spec = cat.CategorySpec.named(name)
        ind = s.op("independent", mm.independent, spec, k, N)
        ker = s.op("brauer_kernel_dim", mm.brauer_kernel_dim, spec, k, N)
        kernels.append((ind, ker))
    products = s.op("rank_products", _rank_products, nc, 4)
    return {
        "ranks": (first, ranks),
        "functor": functor,
        "proj_ranks": proj_ranks,
        "classes": classes,
        "kernels": kernels,
        "products": products,
    }


def matrix_check(plan: dict, out: dict) -> dict[int, str]:
    bad: dict[int, str] = {}
    first, ranks = out["ranks"]
    for offset, ((k, _, blocks, N), res) in enumerate(zip(plan["diagrams"], ranks)):
        if res is not None and res != N ** _through_count(k, blocks):
            bad[first + offset] = f"t_map_rank {res} at k={k} {blocks} N={N}"
    index, rep = out["functor"]
    if rep is not None and not rep["passed"]:
        bad[index] = f"functor suite failed: {rep['failures'][:1]}"
    for index, p, res in out["proj_ranks"]:
        if res is not None and not 0 <= res <= 3 ** part.stats(p).t:
            bad[index] = f"projection rank {res} out of range at {p}"
    for (index, recs), k, N in out["classes"]:
        if recs is not None and sum(r["rank_class"] for r in recs) != N**k:
            bad[index] = f"class ranks do not sum to {N}^{k}"
    for (i_ind, ind), (i_ker, ker) in out["kernels"]:
        if ind is not None and ker is not None and ker != ind["count"] - ind["rank"]:
            bad[i_ker] = f"kernel {ker} != {ind['count']} - {ind['rank']}"
    index, ok = out["products"]
    if ok is False:
        bad[index] = "rank products are not multiplicative at N=4"
    return bad


# ---------------------------------------------------------------------------
# queries: CLI requests through cli.run, caches warm across requests

# The README examples with their byte-exact output (schema particat/1).
README_EXAMPLES = (
    (
        "fuse --category nceven --left 01 --right 10",
        '{"command": "fuse", "inputs": {"category": "nceven", "left": "01", "right": "10"}, "result": ["", "0", "00", "000", "0110"], "schema": "particat/1", "stats": {"checks": 5, "elapsed_ms": 0}}',
    ),
    (
        "fuse --category nc --left 2 --right 3",
        '{"command": "fuse", "inputs": {"category": "nc", "left": "2", "right": "3"}, "result": [1, 2, 3, 4, 5], "schema": "particat/1", "stats": {"checks": 5, "elapsed_ms": 0}}',
    ),
    (
        "decompose --category nc --power 2 --N 4",
        '{"command": "decompose", "inputs": {"N": 4, "category": "nc", "power": 2}, "result": [{"class_size": 2, "label": 0, "multiplicity": 2, "rank_class": 2, "rank_rep": 1, "representative": "aa:bb", "t": 0}, {"class_size": 3, "label": 1, "multiplicity": 3, "rank_class": 9, "rank_rep": 3, "representative": "aa:aa", "t": 1}, {"class_size": 1, "label": 2, "multiplicity": 1, "rank_class": 5, "rank_rep": 5, "representative": "ab:ab", "t": 2}], "schema": "particat/1", "stats": {"checks": 3, "elapsed_ms": 0}}',
    ),
    (
        "member --category nc2 --partition ab:ba",
        '{"command": "member", "inputs": {"category": "nc2", "partition": "ab:ba"}, "result": false, "schema": "particat/1", "stats": {"checks": 1, "elapsed_ms": 0}}',
    ),
    (
        "sym --category p --partition abc:abc",
        '{"command": "sym", "inputs": {"category": "p", "partition": "abc:abc"}, "result": {"order": 6, "permutations": [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]]}, "schema": "particat/1", "stats": {"checks": 6, "elapsed_ms": 0}}',
    ),
    (
        "brauer --category p2 --k 2 --N 4",
        '{"command": "brauer", "inputs": {"N": 4, "category": "p2", "k": 2}, "result": {"kernel_dim": 0}, "schema": "particat/1", "stats": {"checks": 1, "elapsed_ms": 0}}',
    ),
    (
        "verify --suite functor --max-points 6 --N 3",
        '{"command": "verify", "inputs": {"N": 3, "max_points": 6, "suite": "functor"}, "result": {"failures": [], "passed": true}, "schema": "particat/1", "stats": {"checks": 1615, "elapsed_ms": 0}}',
    ),
    (
        "table --category nc2 --max-label 1",
        '{"command": "table", "inputs": {"category": "nc2", "max_label": 1}, "result": [{"left": 0, "result": [0], "right": 0}, {"left": 0, "result": [1], "right": 1}, {"left": 1, "result": [1], "right": 0}, {"left": 1, "result": [0, 2], "right": 1}], "schema": "particat/1", "stats": {"checks": 4, "elapsed_ms": 0}}',
    ),
)

SCHEMES = {"nc": "S", "nc2": "O", "ncb": "B", "nceven": "H", "ucol": "U"}


def _request(argv, code, check=None, want=None, known_defect=False) -> dict:
    return {
        "argv": list(argv),
        "code": code,
        "check": check,
        "want": want,
        "known_defect": known_defect,
    }


def _random_label(sizes: random.Random, scheme: str) -> str:
    if scheme in ("S", "O", "B"):
        return str(sizes.randrange(4))
    if scheme == "H":
        return "".join(sizes.choice("01") for _ in range(sizes.randrange(4)))
    word = "".join(sizes.choice("wb") for _ in range(sizes.randrange(1, 4)))
    return _runs_encode(word)


def _label_diagram(scheme: str, label: str) -> str:
    """Diagram text of a label's canonical representative."""
    if scheme in ("S", "O", "B"):
        k = int(label)
        if k == 0:
            return "a:b" if scheme == "S" else ":"
        return _identity_text(k)
    if scheme == "H":
        word = "".join(
            LETTERS[i] * (2 if ch == "0" else 1) for i, ch in enumerate(label)
        )
        return f"{word}:{word}"
    colors = "".join(ch * int(n) for n, ch in zip(label[0::2], label[1::2]))
    return _identity_text(len(colors), colors)


def _q_fuse(sizes, ctx):
    name = sizes.choice(tuple(SCHEMES))
    scheme = SCHEMES[name]
    left, right = _random_label(sizes, scheme), _random_label(sizes, scheme)
    if sizes.random() < 0.5:
        right = _label_diagram(scheme, right)  # runs fusion(), not the closed form
    argv = ["fuse", "--category", name, "--left", left, "--right", right]
    return _request(argv, 0, "fuse")


def _q_member(sizes, ctx):
    name = sizes.choice(("p", "p2", "nc", "nc2", "ncb", "nceven"))
    text = _random_diagram_text(ctx["rng"], sizes.randrange(7))
    argv = ["member", "--category", name, "--partition", text]
    return _request(argv, 0, "member_builtin")


def _q_member_gen(sizes, ctx):
    gen, config, bound, builtin = next(ctx["gen_specs"])
    n = sizes.randrange(bound + 3)  # two point counts beyond the bound
    text = _random_diagram_text(ctx["rng"], n)
    argv = ["--config", config, "member", "--category", f"gen:{gen}",
            "--partition", text]
    if n > bound:
        return _request(argv, 4)
    return _request(argv, 0, "member_gen", builtin)


def _q_sym(sizes, ctx):
    name = sizes.choice(("p", "p2", "nc", "nc2", "ncb"))
    k = sizes.randrange(1, 4)
    want = math.factorial(k) if name in ("p", "p2") else 1
    argv = ["sym", "--category", name, "--partition", _identity_text(k)]
    return _request(argv, 0, "sym", want)


def _q_decompose(sizes, ctx):
    name = sizes.choice(("p", "p2", "nc", "nc2", "ncb", "nceven", "ucol"))
    power = sizes.randrange(4)
    argv = ["decompose", "--category", name, "--power", str(power)]
    if name != "ucol" and sizes.random() < 0.5:
        N = sizes.choice((2, 3)) if power < 3 else 2
        return _request(argv + ["--N", str(N)], 0, "decompose_ranks", N**power)
    return _request(argv, 0, "decompose")


def _q_brauer(sizes, ctx):
    name = sizes.choice(("p", "p2", "nc", "nc2"))
    argv = ["brauer", "--category", name, "--N", str(sizes.randrange(2, 5))]
    if sizes.random() < 0.3:
        words = ("ab:ab", "aa:bb") + (("ab:ba",) if name in ("p", "p2") else ())
        argv += ["--left", sizes.choice(words), "--right", sizes.choice(words)]
        return _request(argv, 0, "brauer_product")
    k = sizes.randrange(1, 3) if name == "p" else sizes.randrange(1, 4)
    return _request(argv + ["--k", str(k)], 0, "brauer_kernel")


def _q_table(sizes, ctx):
    name = sizes.choice(tuple(SCHEMES))
    m = sizes.randrange(1, 4)
    labels = m + 1 if SCHEMES[name] in ("S", "O", "B") else 2 ** (m + 1) - 1
    argv = ["table", "--category", name, "--max-label", str(m)]
    return _request(argv, 0, "table", labels**2)


# The small verify runs, sent in turn.
VERIFY_RUNS = (
    ["verify", "--suite", "functor", "--max-points", "2", "--N", "2"],
    ["verify", "--suite", "structure", "--max-points", "4"],
    ["verify", "--suite", "fusion", "--max-points", "2"],
)


def _q_verify(sizes, ctx):
    return _request(next(ctx["verify_runs"]), 0, "verify")


INVALID = (
    (["member", "--category", "nc", "--partition", "a1:b"], 2),
    (["member", "--category", "nc", "--partition", "abc"], 2),
    (["member", "--category", "nc", "--partition", "ab@w:ab@wb"], 2),
    (["fuse", "--category", "nosuch", "--left", "1", "--right", "1"], 2),
    (["fuse", "--category", "nc", "--left", "x", "--right", "1"], 2),
    (["decompose", "--category", "nc"], 2),
    (["brauer", "--category", "p", "--k", "6", "--N", "2"], 3),
)


def _q_invalid(sizes, ctx):
    return _request(*sizes.choice(INVALID))


def _q_known_defect(sizes, which: int):
    # Both must exit 2 under the README contract; neither does today.
    if which == 0:
        power = str(-sizes.randrange(1, 4))
        argv = ["decompose", "--category", "nc", "--power", power]
    else:
        left, right = str(-sizes.randrange(1, 6)), str(sizes.randrange(4))
        argv = ["fuse", "--category", "nc", "--left", left, "--right", right]
    return _request(argv, 2, known_defect=True)


# Generated categories that `member --category gen:<file>` requests go to:
# (generator lines, max_points of the config, built-in the closure equals).
# Each one misses `_CLOSURE_CACHE` on its first request only, so the cold
# closures are 22 of the 1000 requests of a pass: more than 1%, so a change
# in closure cost reaches `op_p99_ms`.
GEN_SPECS = (
    ("", 6, "nc2"),
    ("a:a", 6, "nc2"),
    ("ab:ab", 6, "nc2"),
    (":aa", 6, "nc2"),
    ("aa:", 6, "nc2"),
    ("abc:abc", 6, "nc2"),
    ("ab:ab\na:a", 6, "nc2"),
    ("aa:aa", 6, "nceven"),
    (":aaaa", 6, "nceven"),
    ("aaaa:", 6, "nceven"),
    ("aa:aa\na:a", 6, "nceven"),
    ("ab:ba", 6, "p2"),
    ("ab:ba\na:a", 6, "p2"),
    ("abc:cab", 6, "p2"),
    ("ab:ba\n:aa", 6, "p2"),
    (":a", 5, "ncb"),
    ("a:", 5, "ncb"),
    (":a\na:a", 5, "ncb"),
    ("a:\n:aa", 5, "ncb"),
    (":a", 4, "ncb"),
    ("a:", 4, "ncb"),
    ("aa:aa", 4, "nceven"),
)

# Requests per pass of each kind.  Each of the seven subcommands that the CLI
# offers and the README documents gets the same share, SHARE requests;
# `member` splits its share evenly between built-in and `gen:` categories.
# With the README examples, the invalid slice and the known defects they make
# 1000 requests.  The request functions draw categories, labels and sizes
# from a fixed-seed generator, so every seed sends the same multiset of
# request sizes; the workload seed picks the diagrams of `member` requests
# (through ctx["rng"]) and the order.
SHARE = 138
INVALID_REQUESTS = 16
KNOWN_DEFECTS = 10
QUERY_MIX = (
    (SHARE, _q_fuse),
    (SHARE // 2, _q_member),
    (SHARE // 2, _q_member_gen),
    (SHARE, _q_sym),
    (SHARE, _q_decompose),
    (SHARE, _q_brauer),
    (SHARE, _q_table),
    (SHARE, _q_verify),
    (INVALID_REQUESTS, _q_invalid),
)


def queries_prepare(seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    sizes = random.Random(0)
    workdir.mkdir(parents=True, exist_ok=True)
    gen_specs = []
    for i, (lines, bound, builtin) in enumerate(GEN_SPECS):
        gen = workdir / f"gen-{i}.txt"
        gen.write_text(lines + "\n", encoding="utf-8")
        config = workdir / f"max_points_{bound}.json"
        config.write_text(json.dumps({"max_points": bound}), encoding="utf-8")
        gen_specs.append((str(gen), str(config), bound, builtin))
    ctx = {
        "rng": rng,
        "gen_specs": itertools.cycle(gen_specs),
        "verify_runs": itertools.cycle(VERIFY_RUNS),
    }
    stream = [_q_known_defect(sizes, i % 2) for i in range(KNOWN_DEFECTS)]
    for count, build in QUERY_MIX:
        stream.extend(build(sizes, ctx) for _ in range(count))
    rng.shuffle(stream)
    readme = [
        _request(cmd.split(), 0, "readme", out + "\n") for cmd, out in README_EXAMPLES
    ]
    return {"requests": readme + stream}


def _cli_call(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def queries_run(plan: dict, s: OpTimer) -> dict:
    replies = []
    for req in plan["requests"]:
        argv = req["argv"]
        command = argv[2] if argv[0] == "--config" else argv[0]
        replies.append(s.op(command, _cli_call, argv))
    return {"replies": replies}


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _reply_problem(req: dict, code: int, stdout: str, stderr: str) -> str | None:
    if code != req["code"]:
        return f"exit {code}, expected {req['code']}"
    if code != 0:
        return "error exit wrote to stdout" if stdout else None
    kind, argv, want = req["check"], req["argv"], req["want"]
    if kind == "readme":
        return None if stdout == want else "README output differs"
    doc = json.loads(stdout)
    if doc.get("schema") != "particat/1":
        return "missing schema"
    result = doc["result"]
    if kind == "fuse":
        name = _option(argv, "--category")
        scheme = SCHEMES[name]
        right = _option(argv, "--right")
        diagram_path = ":" in right
        if diagram_path:
            rep = part.parse_partition(right)
            right = fus.label_for(cat.CategorySpec.named(name), rep).value
        want = fus.labelled_fusion(scheme, _option(argv, "--left"), right)
        if scheme == "U" and diagram_path:
            # labels of fusion() members are printed in run-length form,
            # closed-form results as plain words
            want = [_runs_encode(w) for w in want]
        ok = sorted(result) == sorted(want)
    elif kind in ("member_builtin", "member_gen"):
        name = _option(argv, "--category") if kind == "member_builtin" else want
        p = part.parse_partition(_option(argv, "--partition"))
        ok = result is cat.membership(cat.CategorySpec.named(name), p)
    elif kind == "sym":
        ok = result["order"] == want
    elif kind == "decompose_ranks":
        ok = sum(row["rank_class"] for row in result) == want
    elif kind == "decompose":
        ok = bool(result) and all("label" in row for row in result)
    elif kind == "brauer_kernel":
        ok = result["kernel_dim"] >= 0
    elif kind == "brauer_product":
        ok = bool(result)
    elif kind == "table":
        ok = len(result) == want
    elif kind == "verify":
        ok = result["passed"]
    else:
        ok = True
    return None if ok else f"unexpected result {result}"


def queries_check(plan: dict, out: dict) -> dict[int, str]:
    bad: dict[int, str] = {}
    for req, (index, reply) in zip(plan["requests"], out["replies"]):
        if reply is None:
            continue
        problem = _reply_problem(req, *reply)
        if problem:
            bad[index] = f"{' '.join(req['argv'])}: {problem}"
    return bad


def known_defect_ops(plan: dict, out: dict) -> set[int]:
    """Op indices of the requests kept in the stream as known defects."""
    if "requests" not in plan:
        return set()
    return {
        index
        for req, (index, _) in zip(plan["requests"], out["replies"])
        if req["known_defect"]
    }


WORKLOADS = {
    "fusion": (fusion_prepare, fusion_run, fusion_check),
    "closure": (closure_prepare, closure_run, closure_check),
    "matrix": (matrix_prepare, matrix_run, matrix_check),
    "queries": (queries_prepare, queries_run, queries_check),
}
