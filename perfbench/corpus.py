"""Seeded identity text for the ldk benchmark.

Everything here is plain Python and independent of ldk: identities are
generated as text in ldk's fully parenthesized syntax, so the program under
test only ever sees generated input.  A workload's pool (the candidates
with their reference verdicts, checked in under ``reference/``) is built
once from a fixed pool seed; a run's ``--seed`` then draws one block of
operations from that pool by stratified sampling, so that every seed sees
the same mix of sizes and costs but different identities.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

MODULAR = r"(x1 /\ (x2 \/ (x1 /\ x3))) <= ((x1 /\ x2) \/ (x1 /\ x3))"
DISTRIBUTIVE = r"(x1 /\ (x2 \/ x3)) <= ((x1 /\ x2) \/ (x1 /\ x3))"
REFLEXIVE = "x1 <= x1"
GOLDENS = (MODULAR, DISTRIBUTIVE, REFLEXIVE)
# balances to ~1800 control paths; ~57 s per modulus in full mode at seed
R1 = r"(((x3 \/ (x3 /\ (x1 \/ x1))) \/ (x2 \/ x4)) /\ x1) <= (x1 /\ x1)"


# ---------------------------------------------------------------------------
# text generators

def _tree(rng: random.Random, labels: Sequence[int]) -> str:
    """Random binary term over ``labels`` in leaf order, random operators."""
    if len(labels) == 1:
        return f"x{labels[0]}"
    k = rng.randint(1, len(labels) - 1)
    op = rng.choice(("\\/", "/\\"))
    return f"({_tree(rng, labels[:k])} {op} {_tree(rng, labels[k:])})"


def balanced_identity(rng: random.Random, n: int) -> str:
    """1-balanced: each side uses x1..xn exactly once, in random shapes."""
    sides = []
    for _ in range(2):
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        sides.append(_tree(rng, labels))
    return f"{sides[0]} <= {sides[1]}"


def repeated_identity(rng: random.Random, left: int, right: int,
                      nvars: int) -> str:
    """Leaves drawn uniformly from x1..x{nvars}; a variable may occur on
    one side only, so balancing both absorbs and splits."""
    sides = [_tree(rng, [rng.randint(1, nvars) for _ in range(count)])
             for count in (left, right)]
    return f"{sides[0]} <= {sides[1]}"


def deep_identity(rng: random.Random, depth: int) -> str:
    """1-balanced identity whose left side nests ``depth`` levels deep: a
    right-leaning spine of alternating operators over distinct variables,
    against a flat join chain of the same variables on the right."""
    n = depth + 1
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    text = f"x{labels[-1]}"
    for i in range(n - 2, -1, -1):
        op = "/\\" if i % 2 else "\\/"
        text = f"(x{labels[i]} {op} {text})"
    rng.shuffle(labels)
    return f"{text} <= " + " \\/ ".join(f"x{i}" for i in labels)


def chain_identity(n: int) -> str:
    """``x1 \\/ ... \\/ xn`` on both sides: flat to parse, but n levels
    deep once parsed (joins associate to the left)."""
    chain = " \\/ ".join(f"x{i}" for i in range(1, n + 1))
    return f"{chain} <= {chain}"


# ---------------------------------------------------------------------------
# pools and sampling

def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_pool(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def draw_block(pool: dict, seed: int, scale: int = 1) -> List[dict]:
    """One block of operations for ``seed``.

    For each stratified class of the pool, its entries (sorted by cost) are
    cut into ``picks`` consecutive strata and one entry is drawn from each,
    so every seed gets the same spread of costs.  Fixed classes (goldens,
    known-defect inputs) enter whole.  ``scale`` divides every pick count
    (smoke runs); the block order is shuffled by the seed.
    """
    rng = random.Random(seed)
    block: List[dict] = []
    for name, spec in pool["classes"].items():
        entries = [e for e in pool["entries"] if e["class"] == name]
        picks = max(1, spec["picks"] // scale)
        if spec.get("fixed"):
            block += entries[:picks]
            continue
        entries.sort(key=lambda e: (e["cost"], e["text"]))
        size = len(entries) // picks
        for s in range(picks):
            block.append(rng.choice(entries[s * size:(s + 1) * size]))
    rng.shuffle(block)
    return block


def block_summary(block: Sequence[dict]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for entry in block:
        counts[entry["class"]] = counts.get(entry["class"], 0) + 1
    return counts
