"""Shared fixtures: a deterministic corpus of small valid Seifert matrices."""

import random

import pytest

from dihedral import SeifertMatrix, analyze, connected_sum, knot_determinant, twist_knot

CORPUS_SEED = 20260819
CORPUS_SIZE = 220

_corpus_cache = None


def build_corpus():
    """Rejection-sample genus 1 and 2 matrices with entries in [-2, 2].

    Kept: det(V - V^T) = 1 and knot determinant <= 2000. Seeded, so
    every run sees the same corpus.
    """
    global _corpus_cache
    if _corpus_cache is not None:
        return _corpus_cache
    rng = random.Random(CORPUS_SEED)
    out = []
    while len(out) < CORPUS_SIZE:
        size = rng.choice((2, 4))
        rows = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)]
        try:
            v = SeifertMatrix(rows)
        except ValueError:
            continue
        if knot_determinant(v) <= 2000:
            out.append(v)
    _corpus_cache = tuple(out)
    return _corpus_cache


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def corpus_reports(corpus):
    """analyze() of every corpus knot, in corpus order."""
    return tuple(analyze(v) for v in corpus)


def scrambled(v, seed, ops):
    """v moved to another basis by ops seeded elementary congruences:
    row i += s row j, then column i += s column j, s = +-1."""
    rng = random.Random(seed)
    m = v.matrix.to_lists()
    for _ in range(ops):
        i, j = rng.sample(range(len(m)), 2)
        s = rng.choice((1, -1))
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]
        for row in m:
            row[i] += s * row[j]
    return SeifertMatrix(m)


@pytest.fixture(scope="session")
def scrambled_genus4():
    """The twist sum 2#5#8#-1 after 16 elementary congruences: 52 of the
    64 entries of V + V^T are nonzero, against 12 before."""
    v = twist_knot(2)
    for m in (5, 8, -1):
        v = connected_sum(v, twist_knot(m))
    return scrambled(v, 2025, 16)
