"""Shared random generators and corpora for the test suite.

All randomness is seeded, so every run sees the same corpus.
"""

import random

import pytest

from ldk.planegraph import Edge, PlaneGraph
from ldk.terms import Identity, Join, Meet, Variable


def three_edge_fragment() -> PlaneGraph:
    """Two parallel arcs s -> v1 (indices 9 and 10) and one arc v1 -> t
    (index 15); the inner facet sits between the parallel arcs."""
    return PlaneGraph(
        vertices=frozenset(("s", "v1", "t")),
        edges={
            9: Edge("s", "v1", "L", "F"),
            10: Edge("s", "v1", "F", "R"),
            15: Edge("v1", "t", "L", "R"),
        },
        facets=frozenset(("L", "F", "R")),
        source="s", sink="t", outer_left="L", outer_right="R",
    )


def two_parallel_edges_json() -> dict:
    """A well-formed graph file that is not a valid plane graph: two
    parallel edges with the same two facets, so V - E + F = 2."""
    return {
        "vertices": [1, 2],
        "edges": [
            {"id": 1, "tail": 1, "head": 2, "left": "L", "right": "R"},
            {"id": 2, "tail": 1, "head": 2, "left": "L", "right": "R"},
        ],
        "source": 1, "sink": 2, "outer_left": "L", "outer_right": "R",
    }


def random_tree(rng: random.Random, labels):
    """Random binary tree whose leaves are ``labels`` in order."""
    if len(labels) == 1:
        return Variable(labels[0])
    k = rng.randint(1, len(labels) - 1)
    op = rng.choice((Join, Meet))
    return op(random_tree(rng, labels[:k]), random_tree(rng, labels[k:]))


def random_repetition_free_term(rng: random.Random, n: int):
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return random_tree(rng, labels)


def random_balanced_identity(rng: random.Random, n: int) -> Identity:
    """A 1-balanced identity: both sides use x1..xn exactly once each."""
    return Identity(random_repetition_free_term(rng, n),
                    random_repetition_free_term(rng, n))


def random_repeating_term(rng: random.Random, leaf_count: int, var_pool):
    labels = [rng.choice(var_pool) for _ in range(leaf_count)]
    return random_tree(rng, labels)


@pytest.fixture(scope="session")
def balanced_corpus():
    """200 random 1-balanced identities, 2..12 variables per side."""
    rng = random.Random(20250809)
    sizes = [2 + (i % 11) for i in range(200)]
    return [random_balanced_identity(rng, n) for n in sizes]


@pytest.fixture(scope="session")
def term_corpus():
    """200 random repetition-free terms with 1..12 leaves."""
    rng = random.Random(91827)
    sizes = [1 + (i % 12) for i in range(200)]
    return [random_repetition_free_term(rng, n) for n in sizes]
