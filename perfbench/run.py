"""The ldk benchmark: one seeded workload per run, measured from outside.

    python3 perfbench/run.py --workload balanced --seed 1 --seconds 15 --trace 0

Run from the root of an ldk checkout (the program is imported from
``src/``).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
exit code is 0 only when every output check passed.  ``--smoke`` runs one
small block with a single set-up probe, in seconds.  See README.md for the
workloads, the metrics and the rules behind them.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import corpus
from spans import LAYERS, Tracer
from speed import Speed

REPO = corpus.HERE.parent
SRC = REPO / "src"
OUT = corpus.HERE / "out"

# deadline_s: the per-op deadline (README.md, "Deadline")
WORKLOADS = {
    "balanced": {"deadline_s": 20.0, "child": False},
    "selfdual": {"deadline_s": 8.0, "child": False},
    "normalize": {"deadline_s": 10.0, "child": False},
    "cli": {"deadline_s": 10.0, "child": True},
}
MIN_OPS = 100          # so that ten samples lie beyond op_p90_ms
SETUP_PROBES = 5
INTERP_PROBES = 5
SMOKE_SCALE = 8
WARMUP = (corpus.REFLEXIVE, corpus.MODULAR)

END_TO_END = (("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("ops_per_s", "1/s"),
              ("failed_frac", "frac"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
COUNTS = (("terms.leaves", "count"), ("balance.splits", "count"),
          ("balance.vars_out", "count"), ("planegraph.control_paths", "count"),
          ("planegraph.validations", "count"), ("pbg.problems", "count"),
          ("linsolve.factorizations", "count"), ("linsolve.rows", "count"),
          ("linsolve.useful_rows", "count"), ("linsolve.rank", "count"),
          ("linsolve.nonunit_factors", "count"), ("decision.checks", "count"))
# per-layer time metric -> the span names whose self time it sums
TIMES = {"terms.self_ms": ("terms.",), "balance.self_ms": ("balance.",),
         "planegraph.self_ms": ("planegraph.",), "pbg.self_ms": ("pbg.",),
         "linsolve.assemble_ms": ("linsolve.assemble",),
         "linsolve.snf_ms": ("linsolve.snf",),
         "linsolve.solve_ms": ("linsolve.solve",),
         "decision.self_ms": ("decision.",), "cli.self_ms": ("cli.",)}


class Deadline(BaseException):
    """Raised by SIGALRM in the middle of an op that ran too long."""


def _on_alarm(signum, frame):
    raise Deadline()


@dataclass
class Op:
    entry: int                 # index into the block
    seconds: float
    error: Optional[str]       # None, "exit N", "deadline" or an exception name
    stdout: str = ""
    import_s: float = 0.0      # child import time, traced cli ops only
    traced: bool = False
    failed: bool = False
    start: float = 0.0
    nominal: float = 0.0       # seconds / the speed factor around the op
    rss_kb: int = 0            # the child's peak RSS, cli ops only


# ---------------------------------------------------------------------------
# runners: one op in this process, or one op in a fresh child process

class InProcess:
    def __init__(self) -> None:
        start = time.perf_counter()
        import ldk.cli
        self.import_s = time.perf_counter() - start
        self.cli = ldk.cli
        signal.signal(signal.SIGALRM, _on_alarm)

    def run(self, argv: List[str], deadline: float,
            tracer: Optional[Tracer] = None) -> Op:
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.span("cli.main", self.cli.main, argv)
            if code:
                error = f"exit {code}"
        except Deadline:
            error = "deadline"
        except Exception as exc:  # an op that raises is a failed op
            error = type(exc).__name__
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
        return Op(-1, seconds, error, out.getvalue())


class Child:
    """``python -m ldk.cli`` from ``src/``, with the environment as it is."""

    def run(self, argv: List[str], deadline: float,
            tracer: Optional[Tracer] = None) -> Op:
        command = [sys.executable] + (["-X", "importtime"] if tracer else [])
        command += ["-m", "ldk.cli"] + argv
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=SRC, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        out, err, killed = _read_all(proc, start + deadline)
        # reaped here rather than by Popen, for this child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        error = "deadline" if killed else (
            f"exit {proc.returncode}" if proc.returncode else None)
        op = Op(-1, seconds, error, out, _import_seconds(err) if tracer else 0.0)
        op.rss_kb = usage.ru_maxrss
        return op


def _read_all(proc: subprocess.Popen, until: float) -> tuple:
    """(stdout, stderr, killed): both pipes of ``proc`` read to their end;
    the process is killed if it is still writing at ``until``."""
    chunks = {proc.stdout: [], proc.stderr: []}
    killed = False
    with selectors.DefaultSelector() as selector:
        for pipe in chunks:
            selector.register(pipe, selectors.EVENT_READ)
        while selector.get_map():
            left = until - time.perf_counter()
            if left <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in selector.select(None if killed else left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
    for pipe in chunks:
        pipe.close()
    out, err = (b"".join(chunks[pipe]).decode() for pipe in chunks)
    return out, err, killed


def _import_seconds(stderr: str) -> float:
    """Cumulative ``-X importtime`` of the top-level imports from ``ldk`` on."""
    total, seen = 0, False
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        seen = seen or name.strip().startswith("ldk")
        if seen and not name.startswith("  ") and cumulative.strip().isdigit():
            total += int(cumulative)
    return total / 1e6


def _bare_interpreter_s() -> float:
    times = []
    for _ in range(INTERP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# set-up, shared by the set-up probes and the measured run

@dataclass
class Setup:
    workload: str
    pool: dict
    block: List[dict]
    runner: object
    argvs: List[List[str]]


def _argv(pool: dict, text: str) -> List[str]:
    return [pool["argv"][0], text] + pool["argv"][1:]


def set_up(workload: str, seed: int, smoke: bool) -> Setup:
    pool = corpus.load_pool(workload)
    block = corpus.draw_block(pool, seed, SMOKE_SCALE if smoke else 1)
    runner = Child() if WORKLOADS[workload]["child"] else InProcess()
    for text in WARMUP[:1] if WORKLOADS[workload]["child"] else WARMUP:
        runner.run(_argv(pool, text), WORKLOADS[workload]["deadline_s"])
    return Setup(workload, pool, block, runner,
                 [_argv(pool, entry["text"]) for entry in block])


def _setup_probes(args, count: int) -> float:
    """Median nominal seconds from spawning a fresh workload process to its
    being ready for the first timed op."""
    times, speed = [], Speed(spawn=True)
    for _ in range(count):
        speed.sample()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"]
            + (["--smoke"] if args.smoke else []),
            stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    speed.sample()
    return statistics.median(times) / speed.factor


# ---------------------------------------------------------------------------
# the closed loop

def measure(setup: Setup, seconds: float, min_ops: int,
            tracer: Optional[Tracer]) -> tuple:
    """Whole passes over the block until ``seconds`` and ``min_ops`` are
    reached.  With a tracer, passes alternate untraced / traced.  Returns
    (ops, wall seconds, speed, first stdout per entry, stdout mismatches);
    the wall time leaves out the calibration samples taken between ops."""
    deadline = WORKLOADS[setup.workload]["deadline_s"]
    ops: List[Op] = []
    first: Dict[int, str] = {}
    mismatched: List[int] = []
    speed = Speed(spawn=isinstance(setup.runner, Child))
    speed.sample(5)
    start = time.perf_counter()
    calibrating = 0.0
    passes = 0
    while True:
        traced = tracer is not None and passes % 2 == 1
        if traced and isinstance(setup.runner, InProcess):
            tracer.install()
        for i, argv in enumerate(setup.argvs):
            if traced:
                tracer.begin_op(len(ops))
            began = time.perf_counter()
            op = setup.runner.run(argv, deadline, tracer if traced else None)
            op.entry, op.traced, op.start = i, traced, began
            if op.error is None:
                if i not in first:
                    first[i] = op.stdout
                elif op.stdout != first[i]:
                    mismatched.append(i)
            op.stdout = ""
            ops.append(op)
            calibrating += speed.sample()
        if traced:
            tracer.uninstall()
        passes += 1
        elapsed = time.perf_counter() - start - calibrating
        done = elapsed >= seconds and len(ops) >= min_ops
        if done and (tracer is None or passes % 2 == 0):
            for op in ops:  # the deadline fires after the same time at any speed
                op.nominal = (deadline if op.error == "deadline"
                              else op.seconds / speed.factor_at(op.start))
            return ops, elapsed, speed, first, mismatched


# ---------------------------------------------------------------------------
# output checks

def _defect_error(defect: str, child: bool) -> str:
    """The error a known-defect input of kind ``defect`` gives at seed."""
    from ldk.cli import EXIT_LIMIT
    errors = {"deadline": "deadline", "path_limit": f"exit {EXIT_LIMIT}",
              # an uncaught exception ends a child with exit code 1
              "recursion": "exit 1" if child else "RecursionError"}
    return errors[defect]


def _verdict_problem(pool: dict, entry: dict, stdout: str) -> Optional[str]:
    """Why ``stdout`` disagrees with the reference, or None."""
    try:
        report = json.loads(stdout)
        if report["status"] != "ok":
            return f"status {report['status']}"
        expect = entry["expect"]
        if pool["argv"][0] == "normalize":
            balanced = report["outputs"][0]["balanced"]
            digest = corpus.sha256(balanced)
            return None if digest == expect["balanced_sha256"] else "balanced identity"
        seen = set()
        for out in report["outputs"]:
            holds = expect["holds"][str(out["modulus"])]
            seen.add(str(out["modulus"]))
            if out["holds"] != holds:
                return f"verdict over Z_{out['modulus']}"
            if any(flag != holds for flag in out.get("self_duality", {}).values()):
                return f"self-duality flags over Z_{out['modulus']}"
        return None if seen == set(expect["holds"]) else "moduli"
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report ({type(exc).__name__})"


def _solution_problem(stdout: str) -> Optional[str]:
    """Every "holds" particular solution must pass ``pbg.is_solution``."""
    from ldk.decision import build_problem
    from ldk.pbg import is_solution
    from ldk.terms import parse_identity
    for out in json.loads(stdout).get("outputs", []):
        if not out.get("holds"):
            continue
        balanced = parse_identity(out["balanced"])[0]
        problem = build_problem(balanced, out["modulus"])
        particular = (out.get("solution") or {}).get("particular")
        if particular is None or not is_solution(problem, particular):
            return f"particular solution over Z_{out['modulus']}"
    return None


def check_outputs(setup: Setup, ops: List[Op], first: Dict[int, str],
                  mismatched: List[int]) -> List[str]:
    """Mark failed ops; return the output-check problems found."""
    problems = [f"stdout differs between executions: {setup.block[i]['text'][:60]}"
                for i in sorted(set(mismatched))]
    bad: Dict[int, str] = {}
    for i, stdout in first.items():
        why = _verdict_problem(setup.pool, setup.block[i], stdout)
        if why is None and setup.pool["argv"][0] == "check":
            why = _solution_problem(stdout)
        if why is not None:
            bad[i] = why
    runs = {}
    for op in ops:
        runs[op.entry] = runs.get(op.entry, 0) + (op.error is None)
    deadline = WORKLOADS[setup.workload]["deadline_s"]
    for i, count in runs.items():
        if count == 1:  # executed once: run it again, outside the timed loop
            again = setup.runner.run(setup.argvs[i], deadline)
            if again.error is not None or again.stdout != first[i]:
                problems.append(f"second execution differs: {setup.block[i]['text'][:60]}")
    child = isinstance(setup.runner, Child)
    for op in ops:
        entry = setup.block[op.entry]
        op.failed = op.error is not None or op.entry in bad
        if op.error is None and op.entry in bad:
            problems.append(f"{bad[op.entry]}: {entry['text'][:60]}")
        elif op.error is not None and (
                entry["defect"] is None
                or op.error != _defect_error(entry["defect"], child)):
            problems.append(f"{op.error}: {entry['text'][:60]}")
    return sorted(set(problems))


# ---------------------------------------------------------------------------
# metrics

def _percentile_ms(ops: List[Op], q: float, deadline: float) -> float:
    """Nearest-rank percentile of nominal op times; a failed op ranks
    slower than every success and, if the rank lands on one, reads as the
    deadline."""
    ranked = sorted((op.failed, op.nominal) for op in ops)
    failed, seconds = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
    return 1e3 * (deadline if failed else seconds)


def end_to_end(setup: Setup, ops: List[Op], peak_kb: int,
               setup_s: float) -> dict:
    """Times in nominal units: each op's measured time divided by the
    speed factor around it."""
    deadline = WORKLOADS[setup.workload]["deadline_s"]
    ok = sum(not op.failed for op in ops)
    values = {"op_p50_ms": _percentile_ms(ops, 0.5, deadline),
              "op_p90_ms": _percentile_ms(ops, 0.9, deadline),
              "ops_per_s": ok / sum(op.nominal for op in ops),
              "failed_frac": (len(ops) - ok) / len(ops),
              "peak_rss_mb": peak_kb / 1024,
              "setup_s": setup_s}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _src_lines() -> Dict[str, int]:
    return {layer: len((SRC / "ldk" / f"{layer}.py").read_text().splitlines())
            for layer in LAYERS}


def per_layer(setup: Setup, ops: List[Op], tracer: Tracer,
              interp_s: float, speed: float) -> dict:
    """Means per successful traced op; times in nominal units."""
    traced = [op for op in ops if op.traced and not op.failed]
    n = max(1, len(traced))
    ids = {i for i, op in enumerate(ops) if op.traced and not op.failed}
    self_s = tracer.self_times(ids)
    values: Dict[str, Optional[float]] = {}
    for name, prefixes in TIMES.items():
        values[name] = 1e3 * sum(s for span, s in self_s.items()
                                 if span.startswith(prefixes)) / n
    totals: Dict[str, float] = {}
    for i in ids:
        for key, count in tracer.counts.get(i, {}).items():
            totals[key] = totals.get(key, 0) + count
    for name, _ in COUNTS:
        values[name] = totals.get(name, 0) / n
    rows = totals.get("linsolve.rows", 0)
    values["linsolve.useful_row_ratio"] = totals.get("linsolve.useful_rows", 0) / rows if rows else 0.0
    values["cli.interp_ms"] = 1e3 * interp_s
    if isinstance(setup.runner, Child):
        values["cli.import_ms"] = 1e3 * sum(op.import_s for op in traced) / n
        values["cli.self_ms"] = 1e3 * (sum(op.seconds - op.import_s for op in traced) / n - interp_s)
    else:
        values["cli.import_ms"] = 1e3 * setup.runner.import_s
    # passes alternate untraced / traced and end on a traced one
    plain_s = sum(op.nominal for op in ops if not op.traced and not op.failed)
    traced_s = sum(op.nominal for op in traced)
    values["trace.overhead_frac"] = traced_s / plain_s - 1 if plain_s else 0.0
    for name, unit in PER_LAYER:
        if unit == "ms":
            values[name] /= speed
    for layer, lines in _src_lines().items():
        values[f"{layer}.src_lines"] = lines
    for layer, hook in tracer.missing_layers().items():
        sys.stderr.write(f"trace: {hook} is missing; {layer} metrics read null\n")
        for name in values:
            if name.startswith(layer + ".") and not name.endswith(".src_lines"):
                values[name] = None
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


PER_LAYER = tuple(
    [(name, "ms") for name in TIMES] + list(COUNTS)
    + [("linsolve.useful_row_ratio", "ratio"), ("cli.interp_ms", "ms"),
       ("cli.import_ms", "ms"), ("trace.overhead_frac", "frac")]
    + [(f"{layer}.src_lines", "lines") for layer in LAYERS])


# ---------------------------------------------------------------------------

def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small block and one set-up probe")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "ldk" / "cli.py").is_file():
        sys.stderr.write(f"no ldk sources under {SRC}; run from an ldk checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        set_up(args.workload, args.seed, args.smoke)
        print("ready", flush=True)
        return 0
    setup_s = _setup_probes(args, 1 if args.smoke else SETUP_PROBES)
    interp_s = _bare_interpreter_s() if args.trace else 0.0
    setup = set_up(args.workload, args.seed, args.smoke)
    tracer = Tracer() if args.trace else None
    seconds, min_ops = (0.0, 1) if args.smoke else (args.seconds, MIN_OPS)
    if tracer is not None:
        min_ops = 1  # per-layer means need no tail
    ops, wall, speed, first, mismatched = measure(setup, seconds, min_ops, tracer)
    if isinstance(setup.runner, Child):
        peak_kb = max(op.rss_kb for op in ops)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = check_outputs(setup, ops, first, mismatched)
    if tracer is None:
        metrics = end_to_end(setup, ops, peak_kb, setup_s)
    else:
        metrics = per_layer(setup, ops, tracer, interp_s, speed.factor)
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "ops": [[op.entry, op.traced, op.seconds, op.error] for op in ops],
             **tracer.to_json()}))
    failed = sum(op.failed for op in ops)
    for problem in problems:
        sys.stderr.write(f"check failed: {problem}\n")
    sys.stderr.write(f"{args.workload} seed {args.seed}: {len(ops)} ops, "
                     f"{failed} failed in {wall:.1f} s; speed factor "
                     f"{speed.factor:.3f}; block {corpus.block_summary(setup.block)}\n")
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
