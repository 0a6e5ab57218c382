"""Build the checked-in pools of inputs and reference verdicts.

    python3 perfbench/reference.py [workload ...]

Writes ``perfbench/reference/<workload>.json`` for each named workload
(all four by default).  Candidates come from a fixed pool seed per
workload; which of them are kept depends on their measured cost (below),
so a rebuild on other hardware may keep other inputs.

Each expected verdict comes from independent routes through ldk, and the
routes must agree before an entry is kept:

* ``check`` workloads: ``full`` and ``facet_reduced`` assembly for every
  modulus (``full`` is skipped where it cannot finish: past the path limit,
  and for R1, which is referenced through ``facet_reduced``); brute-force
  ``enumerate_solutions`` over Z_2 and Z_3 where the balanced identity has
  at most 8 variables; for ``--self-dual`` inputs, the dual identity's
  verdict as well.
* ``normalize``: ldk's balanced identity must be 1-balanced and have the
  number of variables that an independent count of the input predicts
  (after absorption, a variable with u left and v right occurrences
  becomes u*v variables), and replaying ldk's trace must reproduce it.

Known-defect inputs are referenced with a raised recursion limit on a large
thread stack, so their verdicts are the ones a fixed program must give.

Random candidates are timed in-process (best of three interleaved rounds,
each time corrected for machine speed as the benchmark does) and only
used to group inputs of similar cost into narrow strata around evenly
spaced quantiles of each class; the ``cost`` field holds that time in
nominal ms.  So every seed draws the same cost profile, and the pool follows
the generator's own distribution up to its 95th-percentile stratum.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
import threading
from collections import Counter

import corpus
import run
from speed import NOMINAL_S, Speed

REPO = corpus.HERE.parent
sys.path.insert(0, str(REPO / "src"))

from ldk.balance import one_balance, replay  # noqa: E402
from ldk.decision import build_problem, check_identity  # noqa: E402
from ldk.linsolve import assemble_system, enumerate_solutions  # noqa: E402
from ldk.pbg import dual_problem  # noqa: E402
from ldk.planegraph import PathLimitExceededError, maximal_paths  # noqa: E402
from ldk.terms import (  # noqa: E402
    dual_identity,
    is_one_balanced,
    parse_identity,
    pretty_identity,
    variables,
)

POOL_SEEDS = {"balanced": 101, "selfdual": 202, "normalize": 303, "cli": 404}
PATH_LIMIT = 10_000
# selfdual candidates above this many control paths in some problem are the
# path-explosion regime that R1 stands for; see README.md
SELFDUAL_PATH_CAP = 42
# normalize candidates with more variables than this on one side only are
# the absorption blow-up (each absorption doubles the other side); see
# README.md
NORMALIZE_ABSORB_CAP = 3
PER_STRATUM = 3
TIMING_ROUNDS = 3


def _paths(graph) -> int:
    try:
        return len(maximal_paths(graph, limit=PATH_LIMIT))
    except PathLimitExceededError:
        return PATH_LIMIT + 1


def _agree(a, b, *what) -> None:
    if a != b:
        raise RuntimeError(f"reference routes disagree: {what}: {a!r} != {b!r}")


def _routes(text: str, mods, self_dual: bool, full: bool = True) -> dict:
    ident = parse_identity(text)[0]
    balanced, _ = one_balance(ident)
    small = len(variables(balanced.lhs)) <= 8
    holds, routes = {}, {"facet_reduced"}
    for m in mods:
        verdict = check_identity(ident, m, mode="facet_reduced").holds
        if full:
            try:
                other = check_identity(ident, m, mode="full",
                                       path_limit=PATH_LIMIT).holds
                routes.add("full")
                _agree(other, verdict, text, m, "full")
            except PathLimitExceededError:
                pass
        if small and m in (2, 3):
            problem = build_problem(balanced, m)
            _agree(bool(enumerate_solutions(problem)), verdict, text, m, "enumerate")
            routes.add("enumerate")
        if self_dual:
            dual = check_identity(dual_identity(ident), m,
                                  mode="facet_reduced").holds
            _agree(dual, verdict, text, m, "dual")
            routes.add("dual")
        holds[str(m)] = verdict
    return {"expect": {"holds": holds}, "routes": sorted(routes)}


def _deep(fn, *args):
    """``fn(*args)`` on a large thread stack with a raised recursion limit,
    for the known-defect inputs whose terms nest hundreds of levels deep."""
    result = []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200_000)
    threading.stack_size(512 * 1024 * 1024)
    try:
        worker = threading.Thread(target=lambda: result.append(fn(*args)))
        worker.start()
        worker.join()
    finally:
        threading.stack_size(0)
        sys.setrecursionlimit(limit)
    if not result:
        raise RuntimeError("reference computation failed")
    return result[0]


def _entry(cls: str, text: str, cost: int, defect=None, **ref) -> dict:
    return {"class": cls, "text": text, "cost": cost, "defect": defect, **ref}


def _best_ms(texts, argv) -> dict:
    """Best-of-TIMING_ROUNDS in-process op time per text in nominal ms, as
    the benchmark corrects it (speed.py), rounds interleaved so that a slow
    spell of the machine does not land on one input."""
    runner = run.InProcess()
    calibration = Speed()
    best = {text: math.inf for text in texts}
    for _ in range(TIMING_ROUNDS):
        for text in texts:
            before = calibration.sample()
            op = runner.run([argv[0], text] + argv[1:], 60.0)
            factor = (before + calibration.sample()) / (2 * NOMINAL_S)
            best[text] = min(best[text], round(op.seconds * 1e3 / factor, 2))
    return best


def _quantile_strata(texts, picks: int, argv):
    """Time the candidate ops; keep the PER_STRATUM neighbours in time
    order around each quantile (s + 0.5) / picks.  Each stratum is then
    narrow in cost, and the strata follow the candidates' own distribution."""
    best = _best_ms(texts, argv)
    ranked = sorted((cost, text) for text, cost in best.items())
    chosen = []
    for s in range(picks):
        centre = int((s + 0.5) / picks * len(ranked))
        low = min(max(0, centre - PER_STRATUM // 2), len(ranked) - PER_STRATUM)
        chosen += ranked[low:low + PER_STRATUM]
    return chosen


def build_balanced(rng: random.Random) -> dict:
    sizes = (16, 24, 32, 40, 48)
    picks, limit_picks, candidates = 32, 3, 150
    entries = []
    for n in sizes:
        ok, limited = [], []
        while len(ok) < candidates or (
                n == 48 and len(limited) < limit_picks * PER_STRATUM):
            text = corpus.balanced_identity(rng, n)
            paths = _paths(build_problem(parse_identity(text)[0], 0).control)
            if paths <= PATH_LIMIT:
                ok.append(text)
            elif n == 48:
                limited.append(text)
        for cost, text in _quantile_strata(ok[:candidates], picks, ["check"]):
            entries.append(_entry(f"n{n}", text, cost,
                                  **_routes(text, [0], False)))
        for text in limited[:limit_picks * PER_STRATUM]:
            entries.append(_entry("limit", text, 0, "path_limit",
                                  **_routes(text, [0], False, full=False)))
    classes = {f"n{n}": {"picks": picks} for n in sizes}
    classes["limit"] = {"picks": limit_picks}
    return {"argv": ["check"], "classes": classes, "entries": entries}


def _within_path_cap(text: str) -> bool:
    """Every problem a ``--self-dual`` check solves stays at or below
    SELFDUAL_PATH_CAP maximal control paths."""
    ident = parse_identity(text)[0]
    primal = build_problem(one_balance(ident)[0], 0)
    dual = build_problem(one_balance(dual_identity(ident))[0], 0)
    return all(_paths(p.control) <= SELFDUAL_PATH_CAP
               for p in (primal, dual, dual_problem(primal)))


def build_selfdual(rng: random.Random) -> dict:
    mods = [0, 2, 3, 4, 6]
    argv = ["check", "--mod", ",".join(map(str, mods)), "--self-dual"]
    picks, candidates = 90, 600
    entries = [_entry("golden", g, 0, **_routes(g, mods, True))
               for g in corpus.GOLDENS]
    entries.append(_entry("r1", corpus.R1, 0, "deadline",
                          **_routes(corpus.R1, mods, True, full=False)))
    pool = []
    while len(pool) < candidates:
        text = corpus.repeated_identity(rng, rng.randint(2, 5),
                                        rng.randint(2, 5), rng.choice((3, 4)))
        if _within_path_cap(text):
            pool.append(text)
    for cost, text in _quantile_strata(pool, picks, argv):
        entries.append(_entry("random", text, cost, **_routes(text, mods, True)))
    classes = {"random": {"picks": picks},
               "golden": {"picks": 3, "fixed": True},
               "r1": {"picks": 1, "fixed": True}}
    return {"argv": argv, "classes": classes, "entries": entries}


def _count_sides(text: str):
    lhs, rhs = text.split("<=")
    return (Counter(map(int, re.findall(r"x(\d+)", lhs))),
            Counter(map(int, re.findall(r"x(\d+)", rhs))))


def _one_sided(text: str) -> int:
    left, right = _count_sides(text)
    return len(set(left) ^ set(right))


def _absorbed_counts(left: Counter, right: Counter):
    """Occurrence counts after the absorption law: a variable x on the left
    only turns the right side r into r \\/ (r /\\ x), which doubles every
    count on the right and puts x there once; left-only variables go
    first, then right-only ones, each in ascending order."""
    left_only = sorted(set(left) - set(right))
    right_only = sorted(set(right) - set(left))
    for x in left_only:
        right = Counter({v: 2 * c for v, c in right.items()})
        right[x] = 1
    for x in right_only:
        left = Counter({v: 2 * c for v, c in left.items()})
        left[x] = 1
    return left, right


def _normalize_ref(text: str) -> dict:
    ident = parse_identity(text)[0]
    balanced, trace = one_balance(ident)
    _agree(is_one_balanced(balanced), True, text, "1-balanced")
    _agree(replay(ident, trace), balanced, text, "replay")
    out = pretty_identity(balanced)
    left, right = _absorbed_counts(*_count_sides(text))
    predicted = sum(left[v] * right[v] for v in left)
    produced_left, produced_right = _count_sides(out)
    _agree(produced_left, produced_right, text, "occurrences")
    _agree(set(produced_left.values()), {1}, text, "occurrences")
    _agree(len(produced_left), predicted, text, "vars_out")
    return {"expect": {"balanced_sha256": corpus.sha256(out), "vars_out": predicted},
            "routes": ["one_balance", "replay", "occurrence_count"]}


def build_normalize(rng: random.Random) -> dict:
    # 65 ops a block: the p50 and p90 ranks fall in the middle of a
    # stratum, not between two of different cost
    picks, deep_picks, candidates = 63, 2, 900
    pool = []
    while len(pool) < candidates:
        leaves = rng.randint(64, 192)
        nvars = rng.randint(8, 24)
        left = leaves // 2 + rng.randint(-leaves // 8, leaves // 8)
        text = corpus.repeated_identity(rng, left, leaves - left, nvars)
        if _one_sided(text) <= NORMALIZE_ABSORB_CAP:
            pool.append(text)
    entries = []
    for cost, text in _quantile_strata(pool, picks, ["normalize"]):
        entries.append(_entry("random", text, cost, **_normalize_ref(text)))
    for _ in range(deep_picks * PER_STRATUM):
        depth = rng.randint(600, 900)
        text = corpus.deep_identity(rng, depth)
        entries.append(_entry("deep", text, depth, "recursion",
                              **_deep(_normalize_ref, text)))
    classes = {"random": {"picks": picks}, "deep": {"picks": deep_picks}}
    return {"argv": ["normalize"], "classes": classes, "entries": entries}


def build_cli(rng: random.Random) -> dict:
    mods = [0, 2, 3]
    picks = 16
    entries = [_entry("golden", g, 0, **_routes(g, mods, False))
               for g in corpus.GOLDENS]
    # p <= p holds in every lattice; ldk's own routes would need a Smith
    # form of a 1001 x 1000 matrix here
    chain = corpus.chain_identity(1000)
    entries.append(_entry("chain", chain, 0, "recursion",
                          expect={"holds": {str(m): True for m in mods}},
                          routes=["reflexivity"]))
    for _ in range(picks * PER_STRATUM):
        n = rng.randint(2, 8)
        text = corpus.balanced_identity(rng, n)
        entries.append(_entry("small", text, n, **_routes(text, mods, False)))
    classes = {"small": {"picks": picks},
               "golden": {"picks": 3, "fixed": True},
               "chain": {"picks": 1, "fixed": True}}
    return {"argv": ["check", "--mod", ",".join(map(str, mods))],
            "classes": classes, "entries": entries}


BUILDERS = {"balanced": build_balanced, "selfdual": build_selfdual,
            "normalize": build_normalize, "cli": build_cli}


def build(workload: str) -> dict:
    pool = BUILDERS[workload](random.Random(POOL_SEEDS[workload]))
    return {"workload": workload, "pool_seed": POOL_SEEDS[workload], **pool}


def _main(names) -> None:
    corpus.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        pool = build(name)
        path = corpus.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")
        print(f"{path.name}: {len(pool['entries'])} entries")


if __name__ == "__main__":
    _main(sys.argv[1:] or list(BUILDERS))
