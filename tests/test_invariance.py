"""Answers are invariants of the knot: a change of surface basis and an
algebraic enlargement leave every answer unchanged that does not name a
basis (Trotter 1973; Tristram 1969; Levine 1969)."""

import random

import pytest

from conftest import scrambled
from dihedral import (SeifertMatrix, SignatureIndeterminateError, analyze, connected_sum,
                      tristram_levine, twist_knot)

# every (k, n) of the Tristram-Levine sweep
OMEGAS = [(k, n) for n in (2, 3, 5, 9) for k in range(1, n)]

TWIST_SUMS = [(-1, -1, -1), (2, 5, 8, -1), (11, -4, 3), (-1, 2, -1, 2, 5)]


def enlarged(v, xi):
    """[[V, xi, 0], [0, 0, 0], [0, 1, 0]]: V with a band pair added whose
    linking with the old bands is the column xi. det(V - V^T) stays 1."""
    m = v.matrix.to_lists()
    rows = [row + [x, 0] for row, x in zip(m, xi)]
    return SeifertMatrix(rows + [[0] * (len(m) + 2), [0] * len(m) + [1, 0]])


def invariants(v):
    """What analyze and tristram_levine say about v that no basis names:
    the determinant, the invariant factors, and per n the class counts,
    the multiset of (extends, orbit size), the characteristic classes'
    values mod n^2 and their passing count; then every signature of
    OMEGAS, None where it is refused."""
    r = analyze(v)
    blocks = [(b.n, b.quotient_class_count, b.extendable_class_count,
               sorted((c.extends, len(c.members)) for c in b.classes),
               sorted(c.form_value_mod_n2 for c in b.char_classes),
               sum(c.passes_criterion for c in b.char_classes)) for b in r.blocks]
    signatures = []
    for omega in OMEGAS:
        try:
            signatures.append(tristram_levine(v, omega))
        except SignatureIndeterminateError:
            signatures.append(None)
    return r.determinant, r.invariant_factors, blocks, signatures


def variants(v, seed):
    """v moved by seeded elementary congruences, enlarged by a seeded
    column, and enlarged then moved."""
    rng = random.Random(seed)
    big = enlarged(v, [rng.randint(-2, 2) for _ in range(v.size)])
    return scrambled(v, seed, 2 * v.size), big, scrambled(big, seed + 1, 2 * big.size)


def twist_sum(params):
    v = twist_knot(params[0])
    for m in params[1:]:
        v = connected_sum(v, twist_knot(m))
    return v


def test_enlargement_keeps_the_knot():
    v = twist_knot(2)
    big = enlarged(v, [1, -2])
    assert big.matrix.to_lists() == [[-1, 1, 1, 0], [0, 2, -2, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
    assert invariants(big) == invariants(v)


def test_corpus_answers_are_invariants(corpus):
    for i, v in enumerate(corpus):
        want = invariants(v)
        for w in variants(v, 1000 + i):
            assert invariants(w) == want, (i, w)


@pytest.mark.parametrize("params", TWIST_SUMS)
def test_twist_sum_answers_are_invariants(params):
    v = twist_sum(params)
    want = invariants(v)
    assert want[2], "a twist sum with no n block checks nothing"
    for seed in (7, 8):
        for w in variants(v, seed):
            assert invariants(w) == want, (params, seed, w)
