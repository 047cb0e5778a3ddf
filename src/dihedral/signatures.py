"""Signature invariants and the ribbon obstruction.

The Tristram-Levine signature at w = exp(2 pi i k / n) is the inertia of
the Hermitian form H(w) = (1 - w) V + (1 - conj(w)) V^T, computed exactly
by Sylvester's law of inertia. H(w) = (conj(w) - 1) B(w) with
B(x) = x V - V^T, and one fraction-free symmetric elimination of B over
Z[x] yields the polynomials p_j whose values give the nested principal
minors D_j = (conj(w) - 1)^j p_j(w) of H(w). A pivot is taken only where
it is nonzero at w. The norm of the algebraic integer p_j(w) bounds it
away from 0 unless it is 0, so one evaluation at a width set by that
bound decides this exactly; no tolerance enters. The elimination thus
depends only on the order d of w, not on k: it runs once per (matrix, d),
the last 8 pairs are kept, and only the sign pass reads k. The one
refusal is a singular H(w), exactly when w is a root of the Alexander
polynomial det(x V - V^T). Each sign is read from one exact integer sum
over a fixed-point cosine table at 2^bits scale with a proven error
bound; bits doubles until it excludes zero, at most to that width.
No floats and no dependency enter.

On top of it sits the xi invariant of a dihedral quotient: a linking-form
term, a cover-signature correction sigma(W) known only up to sign in
general, and a sum of signatures of the characteristic knot. The ribbon
test compares |xi| against a rank bound.
"""

import math
from functools import lru_cache

from .errors import (NonSquareFreeError, SignatureIndeterminateError, _check_int, _Record,
                     _setattr, require_dihedral_order)
from .seifert import SeifertMatrix, _characteristic_value, twist_knot

__all__ = [
    "RIBBON_CONSISTENT",
    "RIBBON_OBSTRUCTED",
    "DEFAULT_PRECISION_BITS",
    "SigmaWBound",
    "XiValue",
    "tristram_levine",
    "xi_n",
    "twist_xi3",
    "ribbon_test",
]

RIBBON_CONSISTENT = "consistent-with-ribbon"
RIBBON_OBSTRUCTED = "not-ribbon"

DEFAULT_PRECISION_BITS = 128
# The largest starting precision. A table at p bits costs about p / log p
# products of p-bit integers, so a start far above what a sign needs is
# slow; the doubling stops at _settle's cap, which may lie past this bound.
_MAX_PRECISION_BITS = 4096


def tristram_levine(v, omega, *, precision_bits=DEFAULT_PRECISION_BITS):
    """Signature of (1 - w) V + (1 - conj(w)) V^T at w = exp(2 pi i k / n).

    omega is the pair (k, n) with 0 < k < n. The inertia is exact, with
    zero tests decided by a norm bound; raises SignatureIndeterminateError
    exactly when the form is singular at w, that is when w is a root of
    the Alexander polynomial det(x V - V^T). precision_bits is the
    starting precision of the fixed-point sign evaluation, in [2, 4096];
    it is doubled until the sign is certain, so it never changes the
    answer. The elimination is shared by every k of one order
    d = n / gcd(k, n); only the sign pass runs per call.
    """
    if not isinstance(v, SeifertMatrix):
        raise TypeError("tristram_levine expects a SeifertMatrix")
    k, n = omega
    _check_int(k, "omega exponent k")
    _check_int(n, "omega order n")
    if not 0 < k < n:
        raise ValueError(f"omega exponent must satisfy 0 < k < n, got k={k}, n={n}")
    if not 2 <= _check_int(precision_bits, "precision_bits") <= _MAX_PRECISION_BITS:
        raise ValueError(f"precision_bits must be in [2, {_MAX_PRECISION_BITS}], "
                         f"got {precision_bits}")
    g = math.gcd(k, n)
    k, d = k // g, n // g
    sign = 1  # sign of the nested minor D_depth; D_0 = 1
    negatives = 0
    for pivot in _minor_chain(v, d):
        if pivot is _SINGULAR:
            raise SignatureIndeterminateError(
                f"signature indeterminate: exp(2 pi i {k}/{d}) is a root of the "
                f"Alexander polynomial det(x V - V^T), so the form is singular there"
            )
        s = -sign if pivot is _PAIR else _real_sign(*pivot, k, d, precision_bits)
        negatives += s != sign
        sign = s
    return v.size - 2 * negatives


# The markers of _minor_chain for a 2x2 pivot and for a singular form.
_PAIR, _SINGULAR = "pair", "singular"


@lru_cache(maxsize=8)
def _minor_chain(v, d):
    """The pivots of a Bareiss elimination of B(x) = x V - V^T with
    symmetric pivoting, taken where nonzero at the primitive d-th roots
    of unity: (coefficients, depth) of the nested minor p = D_depth for a
    1x1 pivot, _PAIR for a 2x2 one, and a final _SINGULAR when no entry
    left is nonzero there. None of it depends on which primitive root w
    is, so the chain serves every k prime to d; eight entries hold every
    order of one sweep over n <= 15.

    Every entry is a polynomial in Z[x] packed into one integer as its
    value at x = 2^bits, with bits wide enough for any minor of B, so
    products and the exact divisions are integer operations. After the
    pivots S, entry (i, j) is the minor of B on rows S + {i}, columns
    S + {j}, and prev is the minor on S. A 1x1 pivot r gives the next
    nested minor p = a[r][r]. When every remaining diagonal entry
    vanishes at w, the remaining Hermitian block has zero diagonal, and a
    2x2 pivot on an entry (t, u) nonzero at w adds one positive and one
    negative eigenvalue; its new entries are the bordered 3x3
    determinants divided by prev^2.
    """
    rows = v.matrix.to_lists()
    size = len(rows)
    bits = _coefficient_bits(rows)
    a = [[(rows[i][j] << bits) - rows[j][i] for j in range(size)] for i in range(size)]
    live = list(range(size))
    prev = 1
    depth = 0
    chain = []
    while live:
        for r in live:
            coeffs = _unpack(a[r][r], bits)
            if not _vanishes(coeffs, d):
                break
        else:
            r = None
        if r is not None:
            depth += 1
            chain.append((tuple(coeffs), depth))
            live.remove(r)
            p, row_r = a[r][r], a[r]
            for i in live:
                row_i = a[i]
                air = row_i[r]
                for j in live:
                    row_i[j] = _exact_quotient(p * row_i[j] - air * row_r[j], prev)
            prev = p
            continue
        t, u = next(((t, u) for t in live for u in live
                     if t != u and not _vanishes(_unpack(a[t][u], bits), d)), (None, None))
        if t is None:
            chain.append(_SINGULAR)
            break
        depth += 2
        chain.append(_PAIR)
        live.remove(t)
        live.remove(u)
        row_t, row_u = a[t], a[u]
        att, atu, aut, auu = row_t[t], row_t[u], row_u[t], row_u[u]
        det2 = att * auu - atu * aut
        prev2 = prev * prev
        for i in live:
            row_i = a[i]
            ait, aiu = row_i[t], row_i[u]
            for j in live:
                atj, auj = row_t[j], row_u[j]
                bordered = (row_i[j] * det2 + ait * (atu * auj - atj * auu)
                            - aiu * (att * auj - atj * aut))
                row_i[j] = _exact_quotient(bordered, prev2)
        prev = _exact_quotient(det2, prev)
    return tuple(chain)


def _coefficient_bits(rows):
    """Bits per packed coefficient, sign included, that hold every
    coefficient of every minor of x V - V^T. A coefficient is at most
    the polynomial's maximum on |x| = 1, which Hadamard's inequality
    bounds by the product of the row norms of |V| + |V^T|."""
    size = len(rows)
    bound = 1
    for i in range(size):
        bound *= max(1, sum((abs(rows[i][j]) + abs(rows[j][i])) ** 2 for j in range(size)))
    # bound is the square of the Hadamard bound
    return (bound.bit_length() + 1) // 2 + 2


def _unpack(packed, bits):
    """Coefficients, constant term first, of the polynomial f with
    f(2^bits) = packed and every |coefficient| < 2^(bits - 1). The last
    coefficient is nonzero; the zero polynomial gives []."""
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    coeffs = []
    while packed:
        c = ((packed + half) & mask) - half
        coeffs.append(c)
        packed = (packed - c) >> bits
    return coeffs


def _exact_quotient(num, den):
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("fraction-free elimination: a division that must be exact is not")
    return q


def _vanishes(coeffs, d):
    """Whether the polynomial vanishes at the primitive d-th roots of
    unity. Their minimal polynomial Phi_d is irreducible of degree phi(d),
    so a nonzero polynomial with at most phi(d) coefficients does not;
    any other is evaluated at exp(2 pi i / d) by _settle."""
    if len(coeffs) <= _totient(d):
        return not coeffs
    turns = [4 * j % (4 * d) for j in range(len(coeffs))]
    return _settle(coeffs, turns, sum(map(abs, coeffs)), d, DEFAULT_PRECISION_BITS) is None


def _real_sign(coeffs, depth, k, d, precision_bits):
    """Sign of D = (conj(w) - 1)^depth f(w), w = exp(2 pi i k / d), for
    the polynomial f with these coefficients and f(w) != 0.

    conj(w) - 1 = 2 sin(theta / 2) exp(-i (theta + pi) / 2) with
    theta = 2 pi k / d, so up to a positive factor D is the sum of
    c_j exp(i pi t_j / (2 d)) with t_j = 4 j k - depth (2 k + d), which
    _settle evaluates from precision_bits. D is a minor of a Hermitian
    matrix, so it is real: an imaginary part that is certainly nonzero
    raises ArithmeticError, and so does f(w) = 0, which the zero test
    should have refused as a pivot.
    """
    turns = [(4 * j * k - depth * (2 * k + d)) % (4 * d) for j in range(len(coeffs))]
    total = sum(map(abs, coeffs))
    settled = _settle(coeffs, turns, total, d, precision_bits)
    if settled is None:
        raise ArithmeticError(f"a pivot is zero at exp(2 pi i {k}/{d}), "
                              f"but the zero test _vanishes passed it")
    re, im, bits = settled
    if abs(im) > total:
        raise ArithmeticError(f"a minor of H(w) has imaginary part {im} / 2^{bits}: "
                              f"the form is not Hermitian")
    return 1 if re > 0 else -1


def _settle(coeffs, turns, total, d, bits):
    """(re, im, bits): the sum of c_j exp(i pi t_j / (2 d)) over the cosine
    table of _unit_circle at the first width, doubling from bits, where
    max(|re|, |im|) > S = total = sum |c_j|; None when it is exactly 0.
    The sine at t is the cosine at t - d, a quarter turn back, which a
    negative index reads from the table's last quadrant.

    Each entry is within one unit, so re and im are within S units of the
    true parts at scale 2^bits. The sum is u f(w) with |u| = 1; a nonzero
    f(w) in Z[zeta_d] has a nonzero integer norm and conjugates of modulus
    <= S, so |f(w)| >= S^(1 - phi(d)), and bits >= phi(d) bitlen(S) + 2
    settles it. phi(d) and a table cost O(d); that cap is reached only on 0.
    """
    while True:
        cos = _unit_circle(d, bits)
        re = im = 0
        for c, t in zip(coeffs, turns):
            if c:
                re += c * cos[t]
                im += c * cos[t - d]
        if abs(re) > total or abs(im) > total:
            return re, im, bits
        if bits >= _totient(d) * total.bit_length() + 2:
            return None
        bits *= 2


@lru_cache(maxsize=64)
def _totient(d):
    return sum(math.gcd(j, d) == 1 for j in range(d))


@lru_cache(maxsize=64)
def _unit_circle(d, bits):
    """A tuple of integers within one unit of 2^bits cos(pi t / 2d), for
    t in [0, 4d).

    Everything runs at p = bits + g working bits, g = 2 bitlen(bits + d)
    + 8 guard bits, so 2^(g - 1) > 128 (bits + d)^2. Machin's pi =
    16 atan(1/5) - 4 atan(1/239) is within 5p + 40 units (_atan_inv), so
    the step y = pi / 2d is within 3p + 21, and cos y and sin y move by
    at most that. The Taylor terms 2^p y^i / i! are each truncated once
    after a factor below 2, so each carries under 2 units; they stop at
    the first zero term, within p + 3 terms and with a tail below 4
    units, so each sum adds under p + 8 units. The step z = exp(i y) is
    thus within E = 6p + 42 units as a complex number. Each power
    z^(r + 1) = z^r z adds under E + 2 units to the error of z^r and
    scales it by |z| <= 1 + E / 2^p, so z^r for r < d is within
    2 d (E + 2) <= d (12p + 88) < 2^(g - 1) units, and each of its parts
    within one unit once rounded to scale 2^bits. The other quadrants
    are quarter turns of the first: cos(x + pi / 2) = -sin x.
    """
    guard = 2 * (bits + d).bit_length() + 8
    p = bits + guard
    y = (16 * _atan_inv(5, p) - 4 * _atan_inv(239, p)) // (2 * d)
    parts = [0, 0, 0, 0]  # the Taylor terms with i = 0, 1, 2, 3 mod 4
    term, i = 1 << p, 0
    while term:
        parts[i % 4] += term
        i += 1
        term = (term * y >> p) // i
    step_c, step_s = parts[0] - parts[2], parts[1] - parts[3]
    half = 1 << (guard - 1)
    cos, sin, c, s = [], [], 1 << p, 0
    for _ in range(d):
        cos.append((c + half) >> guard)
        sin.append((s + half) >> guard)
        c, s = (c * step_c - s * step_s) >> p, (s * step_c + c * step_s) >> p
    return tuple(cos + [-x for x in sin] + [-x for x in cos] + sin)


def _atan_inv(x, p):
    """2^p atan(1/x) for an integer x > 1, within p/4 + 2 units: each term
    floor(2^p / ((2i + 1) x^(2i + 1))) is an exact floor, and the
    alternating tail is below the first term that floors to zero."""
    total, power, i = 0, (1 << p) // x, 1
    while power:
        total += power // i if i % 4 == 1 else -(power // i)
        power //= x * x
        i += 2
    return total


class SigmaWBound(_Record):
    """A cover-signature correction known only through |sigma(W)| <= magnitude."""

    __slots__ = _fields = ("magnitude",)

    def __init__(self, magnitude):  # checks its fields, so not shared
        _setattr(self, "magnitude", magnitude)
        if _check_int(magnitude, "magnitude") < 0:
            raise ValueError(f"magnitude must be nonnegative, got {magnitude}")

    @property
    def range(self):
        return (-self.magnitude, self.magnitude)


class XiValue(_Record):
    """The xi invariant, kept as the two candidates its sign ambiguity
    allows: value = linking_term + sigma_w + signature_sum with sigma_w
    anywhere in sigma_w_range; value_low and value_high are the sums at
    its ends. Exact rationals throughout."""

    __slots__ = _fields = ("linking_term", "sigma_w_range", "signature_sum")

    # checks its fields, so not shared
    def __init__(self, linking_term, sigma_w_range, signature_sum):
        _setattr(self, "linking_term", linking_term)
        _setattr(self, "sigma_w_range", sigma_w_range)
        _setattr(self, "signature_sum", signature_sum)
        lo, hi = sigma_w_range
        if lo > hi:
            raise ValueError(f"sigma range {sigma_w_range} is reversed")

    @property
    def value_low(self):
        return self.linking_term + self.sigma_w_range[0] + self.signature_sum

    @property
    def value_high(self):
        return self.linking_term + self.sigma_w_range[1] + self.signature_sum

    @property
    def candidates(self):
        """The possible values; one entry when sigma(W) is known exactly."""
        if self.is_exact:
            return (self.value_low,)
        return (self.value_low, self.value_high)

    @property
    def is_exact(self):
        return self.sigma_w_range[0] == self.sigma_w_range[1]


def xi_n(v, beta, beta_knot, n, sigma_w, *, precision_bits=DEFAULT_PRECISION_BITS):
    """The xi invariant of the dihedral quotient picked out by beta.

    beta is a characteristic class on v (any integer lift); beta_knot
    is a Seifert matrix for the characteristic knot it represents.
    sigma_w is the cover-signature correction: an exact int, or a
    SigmaWBound when only its magnitude is known. The result is the
    linking term (n^2 - 1)/(6n) * beta^T A beta, plus sigma_w, plus
    the characteristic knot's signatures at all n-th roots of unity,
    each from the starting precision_bits, in [2, 4096]. The knot is
    eliminated once per order d dividing n, d > 1, not once per root.
    """
    require_dihedral_order(n)
    if not isinstance(v, SeifertMatrix):
        raise TypeError("xi_n expects a SeifertMatrix")
    coords = tuple(beta)
    value = _characteristic_value(v, coords, n)
    if value is None:
        raise ValueError(f"class {list(coords)} is not characteristic and primitive mod {n}")
    if not isinstance(beta_knot, SeifertMatrix):
        raise TypeError("the characteristic knot must come as a SeifertMatrix")
    if isinstance(sigma_w, SigmaWBound):
        sigma_w_range = sigma_w.range
    else:
        sigma_w_range = (_check_int(sigma_w, "sigma_w"),) * 2

    from fractions import Fraction  # here only, so that no other command loads fractions
    linking_term = Fraction((n * n - 1) * value, 6 * n)

    # sigma(k, n) = sigma(n - k, n), and n is odd: sum k <= (n - 1)/2, doubled
    sig_sum = 2 * sum(tristram_levine(beta_knot, (k, n), precision_bits=precision_bits)
                      for k in range(1, (n + 1) // 2))
    return XiValue(linking_term=linking_term, sigma_w_range=sigma_w_range,
                   signature_sum=sig_sum)


def twist_xi3(m):
    """xi_3 for the twist-family member with parameter m = 2 mod 3.

    On this family everything external is pinned: the characteristic
    knot is unknotted (its signatures vanish), the branched cover of
    the correction piece has rank-one homology so sigma(W) = +-1, and
    the class is (-1, 1).
    """
    if _check_int(m, "twist parameter") % 3 != 2:
        raise ValueError(f"twist parameter {m} has no order-3 dihedral quotient")
    v = twist_knot(m)
    return xi_n(v, (-1, 1), SeifertMatrix(()), 3, SigmaWBound(1))


def ribbon_test(xi, rank_h1_cover, n):
    """Compare xi against the ribbon bound rank + (n - 1)/2.

    n must be odd and square-free. Verdict is RIBBON_OBSTRUCTED only
    when every candidate value violates the bound; with the sign of
    sigma(W) unresolved, a single surviving candidate keeps the verdict
    at RIBBON_CONSISTENT.
    """
    require_dihedral_order(n)
    d = 3
    nn = n
    while d * d <= nn:
        if nn % (d * d) == 0:
            raise NonSquareFreeError(f"ribbon bound needs square-free n, got {n}")
        if nn % d == 0:
            nn //= d
        else:
            d += 2
    if not isinstance(xi, XiValue):
        raise TypeError("ribbon_test expects an XiValue")
    if _check_int(rank_h1_cover, "rank") < 0:
        raise ValueError(f"rank must be nonnegative, got {rank_h1_cover}")
    # |c| > rank + (n - 1)/2, doubled, for c = p/q with q > 0
    bound = 2 * rank_h1_cover + n - 1
    if all(2 * abs(c.numerator) > bound * c.denominator for c in xi.candidates):
        return RIBBON_OBSTRUCTED
    return RIBBON_CONSISTENT
