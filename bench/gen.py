"""Seeded input generators for the benchmark.

Everything here is plain Python with its own exact arithmetic, so the
inputs never depend on the code being measured. The same seed always
gives byte-identical inputs: every random choice comes from a
`random.Random` seeded with a string built from the benchmark seed.
"""

import random
from fractions import Fraction

# The rejection sampler of tests/conftest.py: genus 1 or 2, entries in
# [-2, 2], det(V - V^T) = 1 and knot determinant <= 2000. With this seed
# and 220 rows it reproduces the test corpus exactly.
CORPUS_SEED = 20260819
CORPUS_SIZE = 220
MAX_DETERMINANT = 2000

NINE_37 = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, -2, 1), (-1, -1, 0, -1))

MALFORMED_KINDS = ("token", "ragged", "odd-size", "det")
MALFORMED_ROWS = 5  # about 2% of the 220 good rows


def det(rows):
    """Exact determinant by Fraction Gaussian elimination; det of 0x0 is 1."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    out = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return int(out)


def transpose(rows):
    return [list(c) for c in zip(*rows)]


def add(a, b, sign=1):
    return [[x + sign * y for x, y in zip(r, s)] for r, s in zip(a, b)]


def matmul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(r, c)) for c in bt] for r in a]


def symmetrized(v):
    return add(v, transpose(v))


def knot_determinant(v):
    return abs(det(symmetrized(v)))


def is_seifert(v):
    return len(v) % 2 == 0 and det(add(v, transpose(v), -1)) == 1


def render(rows):
    """Brace form, the text `dihedral analyze --matrix` takes."""
    return "{" + ",".join("{" + ",".join(str(x) for x in r) + "}" for r in rows) + "}"


def block_diag(*blocks):
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    at = 0
    for b in blocks:
        for i, r in enumerate(b):
            out[at + i][at:at + len(r)] = list(r)
        at += len(b)
    return out


def twist_knot(m):
    return [[-1, 1], [0, m]]


def twist_sum(ms):
    return block_diag(*(twist_knot(m) for m in ms))


def congruence(v, p):
    """P^T V P: the same knot in another surface basis."""
    return matmul(matmul(transpose(p), v), p)


def signed_permutation(size, rng):
    perm = list(range(size))
    rng.shuffle(perm)
    p = [[0] * size for _ in range(size)]
    for col, row in enumerate(perm):
        p[row][col] = rng.choice((-1, 1))
    return p


def sample_corpus(seed, count):
    """Rows drawn by the conftest rejection sampler."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        size = rng.choice((2, 4))
        rows = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)]
        if is_seifert(rows) and knot_determinant(rows) <= MAX_DETERMINANT:
            out.append(rows)
    return out


def _malformed(kind, rng):
    """Matrix text that `dihedral scan` must turn into an error record."""
    size = rng.choice((2, 4))
    rows = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)]
    if kind == "token":
        text = render(rows)
        digits = [i for i, ch in enumerate(text) if ch.isdigit()]
        at = rng.choice(digits)
        return text[:at] + rng.choice(("x", "1.5", "e")) + text[at + 1:]
    if kind == "ragged":
        rows[rng.randrange(size)].pop()
        return render(rows)
    if kind == "odd-size":
        size = rng.choice((1, 3))
        return render([[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)])
    while is_seifert(rows):
        rows = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)]
    return render(rows)


CENSUS_SHARDS = 15


def census(seed):
    """The census for `dihedral scan` in CENSUS_SHARDS CSV files, and what
    each row must give.

    The knots are the test corpus. Knot i goes to shard i mod
    CENSUS_SHARDS for every seed, so a shard's scan costs about the same
    whatever the seed; when the seed dealt the rows, the spread of the
    shard times between seeds was larger than any useful bound on their
    percentiles. The seed moves each knot to another surface basis by a
    signed permutation congruence (entries stay in [-2, 2], so every row
    is still in the sampler's support), shuffles the rows within each
    shard, and places the malformed rows. Returns a list of (text, rows)
    per shard, where rows lists (name, matrix or None, malformed kind or
    None) in file order.
    """
    rng = random.Random(f"census:{seed}")
    shards = [[] for _ in range(CENSUS_SHARDS)]
    for i, v in enumerate(sample_corpus(CORPUS_SEED, CORPUS_SIZE)):
        shards[i % CENSUS_SHARDS].append(
            (f"k{i:03d}", congruence(v, signed_permutation(len(v), rng)), None))
    for rows in shards:
        rng.shuffle(rows)
    kinds = list(MALFORMED_KINDS) + [rng.choice(MALFORMED_KINDS)
                                     for _ in range(MALFORMED_ROWS - len(MALFORMED_KINDS))]
    for j, kind in enumerate(kinds):
        rows = shards[rng.randrange(CENSUS_SHARDS)]
        rows.insert(rng.randrange(len(rows) + 1), (f"bad{j}", _malformed(kind, rng), kind))
    out = []
    for rows in shards:
        lines = ["name,seifert"]
        for name, payload, kind in rows:
            text = payload if kind else render(payload)
            lines.append(f'{name},"{text}"')
        out.append(("\n".join(lines) + "\n", [(n, None if k else v, k) for n, v, k in rows]))
    return out


# Twist-knot sums for large-groups. Each term m = 2 mod 3 adds a Z/(4m+1)
# factor divisible by 3 (m = -1 adds Z/3), so H[3] stays small while |H|
# grows: the first has |H| = 18711 and |H[3]| = 81, the second
# |H| = 1103855445 and |H[3]| = 729.
MID_TWISTS = (2, 5, 8, -1)
BIG_TWISTS = (2, 5, 8, 11, 14, 17)


def large_groups(seed):
    """(name, matrix, argv tail) for the three large-groups knots. The
    seed moves each twist sum to another basis by a signed permutation
    congruence. A congruence by a product of elementary operations made
    the cost depend on the seed: across five seeds `wall_s` spread 10%
    (IQR over median), against 5% for five runs of one seed."""
    rng = random.Random(f"large-groups:{seed}")
    nine = [list(r) for r in NINE_37]
    out = [("9_37#9_37", block_diag(nine, nine), [])]
    for name, ms in (("twist-2-5-8-m1", MID_TWISTS), ("twist-2-to-17", BIG_TWISTS)):
        v = twist_sum(ms)
        out.append((name, congruence(v, signed_permutation(len(v), rng)), ["--n", "3"]))
    return out


SIGNATURE_CENSUS = {2: 48, 4: 12}
SIGNATURE_TWISTS = ((-4, 2, 5), (3, -5, 1, 6, -2, 4))  # genus 3 and 6


def signature_set(seed):
    """Matrices for signature-sweep: (name, matrix, twist terms or None).

    Sixty knots of the test corpus, its first 48 of genus 1 and first 12
    of genus 2, and the twist sums SIGNATURE_TWISTS, whose terms are kept
    for the additivity check. Each is moved to another basis by a seeded
    signed permutation congruence. The knots are the same for every seed:
    drawing new ones per seed made `call_p95_ms` follow the few census
    knots whose evaluations take ten times the others. A signed
    permutation is orthogonal, so it leaves the eigenvalue problem's
    difficulty alone; a seeded unimodular congruence moved the genus-3
    sum's evaluation time between 2.1 and 5.4 ms.
    """
    rng = random.Random(f"signature-sweep:{seed}")
    taken = {size: 0 for size in SIGNATURE_CENSUS}
    small = []
    for v in sample_corpus(CORPUS_SEED, CORPUS_SIZE):
        if taken[len(v)] < SIGNATURE_CENSUS[len(v)]:
            taken[len(v)] += 1
            small.append(congruence(v, signed_permutation(len(v), rng)))
    out = [(f"c{i:02d}", v, None) for i, v in enumerate(small)]
    for ms in SIGNATURE_TWISTS:
        v = congruence(twist_sum(ms), signed_permutation(2 * len(ms), rng))
        out.append((f"twist-g{len(ms)}", v, ms))
    return out


def signature_omegas():
    """Every (k, n) with n odd, 3 <= n <= 15, 0 < k < n."""
    return [(k, n) for n in range(3, 16, 2) for k in range(1, n)]
