"""Tristram-Levine signatures, the xi invariant, ribbon verdicts."""

import functools
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

import dihedral
from conftest import scrambled
from dihedral import signatures
from dihedral import (
    CharKnotClass,
    NonSquareFreeError,
    RIBBON_CONSISTENT,
    RIBBON_OBSTRUCTED,
    SeifertMatrix,
    SigmaWBound,
    SignatureIndeterminateError,
    XiValue,
    characteristic_knot_classes,
    connected_sum,
    ribbon_test,
    tristram_levine,
    twist_knot,
    twist_xi3,
    xi_n,
)

TREFOIL = twist_knot(-1)
# An unknot: a stabilizing band pair with both framings zero. Every
# diagonal entry of x V - V^T is zero, so the elimination needs its 2x2
# pivot.
ZERO_FRAMED_BANDS = SeifertMatrix([[0, 1], [0, 0]])

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dihedral.__file__)))


def eigh_signature(v, omega, precision_bits=128, zero_tolerance=1e-9):
    """The reference route: the signature from Hermitian eigenvalues at the
    given precision, refusing when an eigenvalue lies within
    zero_tolerance of zero."""
    k, n = omega
    size = v.size
    if size == 0:
        return 0
    with mpmath.workprec(precision_bits):
        w = mpmath.expjpi(mpmath.mpf(2 * k) / n)
        cw = 1 - w
        cwbar = 1 - mpmath.conj(w)
        m = mpmath.matrix(size, size)
        for i in range(size):
            for j in range(size):
                m[i, j] = cw * v.matrix[i, j] + cwbar * v.matrix[j, i]
        eigenvalues = mpmath.eigh(m, eigvals_only=True)
        if any(abs(lam) < zero_tolerance for lam in eigenvalues):
            raise SignatureIndeterminateError(f"eigenvalue within {zero_tolerance} of zero")
        return sum(1 if lam > 0 else -1 for lam in eigenvalues)


def _or_none(route, v, omega, **kwargs):
    try:
        return route(v, omega, **kwargs)
    except SignatureIndeterminateError:
        return None


# (1, 2) and every primitive (k, n) with n odd <= 15 and 2k < n; the
# rest follow from sigma(k, n) = sigma(n - k, n) and reduction of k/n.
ORACLE_OMEGAS = [(1, 2)] + [(k, n) for n in range(3, 16, 2) for k in range(1, n)
                            if math.gcd(k, n) == 1 and 2 * k < n]


def _near_isotropic(s):
    """A genus-2 Seifert matrix with entries near s^2 whose second nested
    minor N x^2 + (s^2 - 2N) x + N is tiny at exp(2 pi i / 5): at that
    root it is proportional to s^2 - N (5 - sqrt 5) / 2, and N is the
    integer nearest s^2 (5 + sqrt 5) / 10. Floats cannot tell its sign
    from zero."""
    with mpmath.workprec(4 * s.bit_length() + 64):
        n = int(mpmath.nint(mpmath.mpf(s) ** 2 * (5 + mpmath.sqrt(5)) / 10))
    return SeifertMatrix([[1, s, 1, 0], [0, n, 0, -1], [0, 0, 1, 0], [0, 0, 0, 1]])


@functools.lru_cache(maxsize=None)
def cyclotomic(d):
    """Phi_d, constant term first: x^d - 1 divided by Phi_e for every
    proper divisor e of d, each division exact."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly, rem = divmod_monic(poly, cyclotomic(e))
            assert not any(rem), (d, e)
    return tuple(poly)


def divmod_monic(num, div):
    """Quotient and remainder of integer polynomials, constant term first,
    by a monic divisor."""
    deg = len(div) - 1
    rem = list(num)
    quot = [0] * max(0, len(rem) - deg)
    for top in range(len(rem) - 1, deg - 1, -1):
        c = quot[top - deg] = rem[top]
        for j in range(deg + 1):
            rem[top - deg + j] -= c * div[j]
    return quot, rem[:deg]


def phi_divides(coeffs, d):
    """The reference zero test: whether Phi_d divides the polynomial,
    that is whether it vanishes at the primitive d-th roots of unity."""
    return not any(divmod_monic(coeffs, cyclotomic(d))[1])


def pivot_candidates(monkeypatch, v, d):
    """(coeffs, verdict) for every polynomial the elimination of v at
    order d zero-tests, by a fresh elimination."""
    seen = []
    real = signatures._vanishes

    def spy(coeffs, d):
        seen.append((tuple(coeffs), real(coeffs, d)))
        return seen[-1][1]

    monkeypatch.setattr(signatures, "_vanishes", spy)
    signatures._minor_chain.__wrapped__(v, d)
    monkeypatch.undo()
    return seen


class TestTristramLevine:
    def test_trefoil_at_minus_one(self):
        assert tristram_levine(TREFOIL, (1, 2)) == -2

    def test_granny_additivity(self):
        granny = connected_sum(TREFOIL, TREFOIL)
        assert tristram_levine(granny, (1, 2)) == -4

    def test_unknot(self):
        assert tristram_levine(SeifertMatrix([]), (1, 2)) == 0

    def test_figure_eight(self):
        assert tristram_levine(twist_knot(1), (1, 2)) == 0

    def test_additive_on_corpus(self, corpus):
        for v1, v2 in zip(corpus[:6], corpus[6:12]):
            s = connected_sum(v1, v2)
            lhs = tristram_levine(s, (1, 2))
            assert lhs == tristram_levine(v1, (1, 2)) + tristram_levine(v2, (1, 2))

    def test_precision_agreement(self, corpus):
        for v in corpus[:10]:
            a = tristram_levine(v, (1, 2), precision_bits=128)
            b = tristram_levine(v, (1, 2), precision_bits=256)
            assert a == b

    def test_parity(self, corpus):
        # nonsingular Hermitian matrix of even size: signature is even
        for v in corpus[:10]:
            assert tristram_levine(v, (1, 2)) % 2 == 0

    def test_indeterminate_at_alexander_root(self):
        # the trefoil's Alexander polynomial vanishes at primitive sixth
        # roots of unity, so the form degenerates there; (5, 6) refuses
        # from the chain that (1, 6) left in the cache, naming its own k
        signatures._minor_chain.cache_clear()
        for omega in ((1, 6), (5, 6)):
            with pytest.raises(SignatureIndeterminateError, match=rf"exp\(2 pi i {omega[0]}/6\)"):
                tristram_levine(TREFOIL, omega)
        info = signatures._minor_chain.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert tristram_levine(TREFOIL, (2, 6)) == tristram_levine(TREFOIL, (1, 3))

    def test_two_step_pivot(self):
        for omega in ((1, 2), (1, 3), (2, 5), (4, 9)):
            assert tristram_levine(ZERO_FRAMED_BANDS, omega) == 0
        # the 2x2 pivot after a 1x1 one, and before one
        assert tristram_levine(connected_sum(ZERO_FRAMED_BANDS, TREFOIL), (1, 2)) == -2
        assert tristram_levine(connected_sum(TREFOIL, ZERO_FRAMED_BANDS), (1, 2)) == -2
        both = connected_sum(ZERO_FRAMED_BANDS, connected_sum(TREFOIL, ZERO_FRAMED_BANDS))
        assert tristram_levine(both, (2, 5)) == eigh_signature(both, (2, 5))

    @pytest.mark.parametrize("rows", [
        # two 1x1 pivots, then a 2x2 one with two rows left to update
        [[0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0], [0, 0, -1, 1, 0, 0], [0, 0, 0, 3, 0, 0],
         [1, -1, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0]],
        # two 1x1 pivots, then two 2x2 ones, where the first off-diagonal
        # entry left vanishes at w, so the pair must be searched for
        [[-1, 2, 0, 0, 0, 0], [1, -3, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0],
         [0, 0, 1, 1, 0, 1], [0, 0, 0, -1, 0, 0]],
        # at a sixth root, a 2x2 pivot on a diagonal minor that vanishes
        # there but is not 0: the bordered update must stay exact
        [[-1, 2, 0, 0, 0, 1], [1, -3, 0, -1, 0, -1], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, -1],
         [0, 0, 0, -1, 0, 1], [1, -2, 0, 0, 0, -1]],
    ], ids=["rows-after-pair", "pair-searched", "vanishing-minor"])
    def test_two_step_pivot_inside(self, rows):
        v = SeifertMatrix(rows)
        for omega in [(1, 6)] + ORACLE_OMEGAS:
            assert _or_none(tristram_levine, v, omega) == _or_none(eigh_signature, v, omega)

    def test_reduced_root(self, corpus):
        # (3, 9) and (5, 15) are the root (1, 3)
        for v in (TREFOIL,) + corpus[:20]:
            want = tristram_levine(v, (1, 3))
            assert tristram_levine(v, (3, 9)) == want
            assert tristram_levine(v, (5, 15)) == want

    def test_cached_chain_matches_fresh_elimination(self, corpus):
        # one elimination per (matrix, order of w) serves every k; the
        # answers must not depend on whether the chain was cached
        genus6 = functools.reduce(connected_sum, map(twist_knot, (3, -5, 1, 6, -2, 4)))
        omegas = [(k, n) for n in range(3, 16, 2) for k in range(1, n)]
        knots = corpus[:20] + (genus6,)
        signatures._minor_chain.cache_clear()
        swept = [_or_none(tristram_levine, v, omega) for v in knots for omega in omegas]
        fresh = []
        for v in knots:
            for omega in omegas:
                signatures._minor_chain.cache_clear()
                fresh.append(_or_none(tristram_levine, v, omega))
        assert fresh == swept

    def test_one_chain_per_order(self, corpus):
        # at n = 15, k = 1..14 reach the orders 15, 5 and 3
        signatures._minor_chain.cache_clear()
        for k in range(1, 15):
            _or_none(tristram_levine, corpus[0], (k, 15))
        assert signatures._minor_chain.cache_info().misses == 3

    def test_conjugate_root(self, corpus):
        for v in corpus[:20]:
            for n in (3, 5, 7, 9, 15):
                for k in range(1, n):
                    assert tristram_levine(v, (k, n)) == tristram_levine(v, (n - k, n))

    def test_agrees_with_eigenvalue_route(self, corpus):
        for v in corpus[:60]:
            for omega in ORACLE_OMEGAS:
                want = _or_none(eigh_signature, v, omega)
                got = _or_none(tristram_levine, v, omega)
                if want is not None or got is None:
                    assert got == want, (v, omega)

    def test_large_entries_double_precision(self, monkeypatch):
        v = _near_isotropic(10 ** 12)
        want = eigh_signature(v, (1, 5), precision_bits=256)
        assert want == 2
        # the chain's zero tests build tables too: build it first, so the
        # spy sees only the sign pass; each sign's cap is phi(5) bitlen(S) + 2
        chain = signatures._minor_chain(v, 5)
        cap = max(4 * sum(map(abs, coeffs)).bit_length() + 2 for coeffs, _ in chain)
        tables = []
        table = signatures._unit_circle

        def spy(d, bits):
            tables.append(bits)
            return table(d, bits)

        monkeypatch.setattr(signatures, "_unit_circle", spy)
        # the starting precision never changes the answer
        for bits in (2, 16, 128, 1024):
            tables.clear()
            assert tristram_levine(v, (1, 5), precision_bits=bits) == want
            # each sign's search starts at precision_bits and doubles, and
            # never from a width at or past the norm bound's cap
            assert all(b == bits or b == 2 * a for a, b in zip(tables, tables[1:]))
            assert all(a < cap for a, b in zip(tables, tables[1:]) if b == 2 * a)
            if bits == 2:
                # the second minor needs more bits than a float carries
                assert max(tables) >= 128
            if bits == 1024:
                assert tables == [1024] * 4  # one table per sign

    def test_large_entries_leave_mpmath_out(self):
        rows = _near_isotropic(10 ** 12).matrix.to_lists()
        code = ("import ast, sys; sys.path.insert(0, sys.argv[1]); import dihedral; "
                "v = dihedral.SeifertMatrix(ast.literal_eval(sys.argv[2])); "
                "print(dihedral.tristram_levine(v, (1, 5), precision_bits=2), 'mpmath' in sys.modules)")
        done = subprocess.run([sys.executable, "-I", "-c", code, SRC, repr(rows)],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["2", "False"]

    def test_unit_circle_table_within_one_unit(self):
        # the long table at d = 1001, sampled, needs every guard bit
        cases = [(d, bits) for bits in (64, 128, 1024) for d in range(1, 31)] + [(1001, 1001)]
        for d, bits in cases:
            with mpmath.workprec(2 * bits):
                cos = signatures._unit_circle(d, bits)
                assert len(cos) == 4 * d
                for t in range(0, 4 * d, 1 + d // 100):
                    x = mpmath.mpf(t) / (2 * d)
                    assert abs(cos[t] - mpmath.ldexp(mpmath.cospi(x), bits)) < 1, (d, bits, t)
                    # _settle reads the sine a quarter turn back
                    assert abs(cos[t - d] - mpmath.ldexp(mpmath.sinpi(x), bits)) < 1, (d, bits, t)

    def test_precision_bits_validation(self):
        with pytest.raises(TypeError):
            tristram_levine(TREFOIL, (1, 3), precision_bits=128.0)
        with pytest.raises(ValueError):
            tristram_levine(TREFOIL, (1, 3), precision_bits=1)

    def test_zero_test_agrees_with_cyclotomic_division(self, corpus, scrambled_genus4,
                                                       monkeypatch):
        # the norm-bound evaluation decides every pivot candidate of the
        # elimination as the exact remainder mod Phi_d does; 8 of the 4,841
        # candidates are nonzero polynomials that vanish at w
        params = (2, 5, 8, 11, -1, -4, 3, 6, 2, 5)
        genus10 = functools.reduce(connected_sum, map(twist_knot, params))
        cases = [(v, d) for v in corpus[:60] for d in range(2, 31)]
        cases += [(v, d) for v in (scrambled_genus4, scrambled(genus10, 10, 20))
                  for d in range(3, 16, 2)]
        zeros = total = 0
        for v, d in cases:
            for coeffs, verdict in pivot_candidates(monkeypatch, v, d):
                assert verdict == phi_divides(coeffs, d), (v, d, coeffs)
                zeros += verdict and bool(coeffs)
                total += 1
        assert zeros > 0 and total > 2000, (zeros, total)

    def test_large_order_decided_by_degree(self, monkeypatch):
        # every minor of the trefoil's form has at most phi(1001) = 720
        # coefficients, so none of them can vanish at d = 1001: the zero
        # tests build no table, and only the sign pass builds its own
        tables = []
        table = signatures._unit_circle

        def spy(d, bits):
            tables.append((d, bits))
            return table(d, bits)

        monkeypatch.setattr(signatures, "_unit_circle", spy)
        signatures._minor_chain.cache_clear()
        assert tristram_levine(TREFOIL, (1, 1001)) == 0
        assert tristram_levine(TREFOIL, (500, 1001)) == -2
        assert tables == [(1001, 128)] * 4  # one per sign

    @pytest.mark.parametrize("call", ["tristram_levine", "xi_n"])
    def test_starting_precision_bounded(self, call):
        # a start above 4,096 bits is refused; 4,096 itself still runs
        run = {
            "tristram_levine": lambda bits: tristram_levine(TREFOIL, (1, 15), precision_bits=bits),
            "xi_n": lambda bits: xi_n(twist_knot(2), (-1, 1), TREFOIL, 3, 0, precision_bits=bits),
        }[call]
        assert run(4096) == run(signatures.DEFAULT_PRECISION_BITS)
        with pytest.raises(ValueError, match=r"in \[2, 4096\], got 4097"):
            run(4097)

    @pytest.mark.parametrize("offset", [0, 1, -1, 2, -2, 3, -3])
    def test_hermitian_check_threshold(self, monkeypatch, offset):
        # D = (conj(w) - 1)^2 (2 x + 3 x^4) at w = exp(2 pi i / 3) is real:
        # both terms land on the angle pi, where the table is exact
        # (cos -2^bits, sin 0). The sine at the angle pi, t = 6, is read
        # from the entry at t - d = 3; off by u units it makes |im| = 5 |u|
        # against sum |c_j| = 5. The proof allows one unit per entry, so
        # |u| = 1 still decides the sign; |u| >= 2 is certainly not real
        # and must raise.
        table = signatures._unit_circle

        def shifted(d, bits):
            cos = table(d, bits)
            return cos[:3] + (cos[3] + offset,) + cos[4:]

        monkeypatch.setattr(signatures, "_unit_circle", shifted)
        coeffs, depth, k, d = [0, 2, 0, 0, 3], 2, 1, 3
        if abs(offset) <= 1:
            assert signatures._real_sign(coeffs, depth, k, d, 64) == -1
        else:
            with pytest.raises(ArithmeticError, match="not Hermitian"):
                signatures._real_sign(coeffs, depth, k, d, 64)

    def test_cap_passes_a_value_at_the_norm_bound(self):
        # at w = -1 the bound is tight: f = a + (a + 1) x has f(-1) = -1,
        # the least modulus of a nonzero value, with S = 2a + 1. The table
        # is exact at the angles 0 and pi, so the sum is exactly -2^bits and
        # settles only from bitlen(S) = 102 bits; a start of 100 or 101 is
        # below the cap, 104, and must double once more
        a = 2 ** 100
        for bits in (2, 100, 101):
            assert signatures._real_sign([a, a + 1], 0, 1, 2, bits) == -1
        with pytest.raises(ArithmeticError, match="the zero test _vanishes passed it"):
            signatures._real_sign([a, a], 0, 1, 2, 101)

    def test_internal_checks_raise_under_optimize(self):
        # the exact-division, Hermitian and vanishing-pivot checks are not
        # asserts; x + 1 is exactly zero at w = -1
        code = (
            "from dihedral import signatures as s\n"
            "for call in (lambda: s._exact_quotient(7, 2),\n"
            "             lambda: s._real_sign([1], 1, 1, 3, 64),\n"
            "             lambda: s._real_sign([1, 1], 0, 1, 2, 64)):\n"
            "    try:\n"
            "        call()\n"
            "    except ArithmeticError:\n"
            "        pass\n"
            "    else:\n"
            "        raise SystemExit('check skipped')\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stdout + done.stderr

    def test_vanishing_pivot_raises(self):
        # a zero test that passes every nonzero polynomial lets the
        # trefoil's Alexander polynomial, zero at exp(2 pi i / 6), through
        # as a pivot: its sign must raise at the norm bound, not search on
        code = (
            "import time\n"
            "from dihedral import signatures as s, twist_knot\n"
            "s._vanishes = lambda coeffs, d: not coeffs\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    s.tristram_levine(twist_knot(-1), (1, 6))\n"
            "except ArithmeticError as e:\n"
            "    print(time.perf_counter() - start, e)\n"
            "else:\n"
            "    raise SystemExit('no ArithmeticError')\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=10)
        assert done.returncode == 0, done.stderr
        seconds, message = done.stdout.split(" ", 1)
        assert float(seconds) < 1
        assert "the zero test _vanishes passed it" in message

    def test_cli_import_leaves_mpmath_out(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import dihedral.cli; "
                "print('mpmath' in sys.modules)")
        done = subprocess.run([sys.executable, "-I", "-c", code, SRC],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_takes_a_seifert_matrix(self):
        with pytest.raises(TypeError, match="tristram_levine expects a SeifertMatrix"):
            tristram_levine(TREFOIL.matrix, (1, 3))

    def test_omega_validation(self):
        with pytest.raises(ValueError):
            tristram_levine(TREFOIL, (0, 3))
        with pytest.raises(ValueError):
            tristram_levine(TREFOIL, (3, 3))
        with pytest.raises(TypeError):
            tristram_levine(TREFOIL, (1.0, 3))


class TestXi:
    def test_twist_formula(self):
        # family value: (4/9)(2m - 4) plus a sign from the cover term
        for m in (-7, -4, -1, 2, 5, 8, 11):
            val = twist_xi3(m)
            base = Fraction(4, 9) * (2 * m - 4)
            assert val.candidates == (base - 1, base + 1)
            assert val.linking_term == base
            assert val.signature_sum == 0
            assert not val.is_exact

    def test_twist_rejects_other_residues(self):
        with pytest.raises(ValueError, match="twist parameter 0 has no order-3 dihedral quotient"):
            twist_xi3(0)
        with pytest.raises(ValueError, match="twist parameter 3 has no order-3 dihedral quotient"):
            twist_xi3(3)

    def test_integrality_when_extending(self):
        for m in (2, 11, -7, 20):
            assert m % 9 == 2
            for c in twist_xi3(m).candidates:
                assert c.denominator == 1

    def test_exact_sigma(self):
        v = twist_knot(2)
        val = xi_n(v, (-1, 1), SeifertMatrix([]), 3, 1)
        assert val.is_exact
        assert val.candidates == (Fraction(1),)

    def test_signature_sum_term(self):
        # a trefoil characteristic knot contributes its two signatures
        v = connected_sum(TREFOIL, TREFOIL)
        beta = (1, 2, 0, 0)
        assert CharKnotClass(v, beta, 3).beta == beta
        val = xi_n(v, beta, TREFOIL, 3, SigmaWBound(0))
        want = tristram_levine(TREFOIL, (1, 3)) + tristram_levine(TREFOIL, (2, 3))
        assert val.signature_sum == want

    def test_signature_sum_uses_conjugate_roots(self, corpus, monkeypatch):
        # sigma(k, n) = sigma(n - k, n): xi_n evaluates k <= (n - 1)/2 only,
        # and its sum equals the sum over every k in 1..n-1
        calls = []
        real = signatures.tristram_levine

        def counted(v, omega, **kwargs):
            calls.append(omega)
            return real(v, omega, **kwargs)

        monkeypatch.setattr(signatures, "tristram_levine", counted)
        for n, m in ((3, 2), (5, 1), (7, -2), (9, 2), (15, -4)):
            v = twist_knot(m)
            beta = characteristic_knot_classes(v, n)[0].beta
            for knot in corpus[:10]:
                want = sum(real(knot, (k, n)) for k in range(1, n))
                calls.clear()
                assert xi_n(v, beta, knot, n, 0).signature_sum == want
                assert calls == [(k, n) for k in range(1, (n + 1) // 2)]

    def test_rejects_non_characteristic(self):
        with pytest.raises(ValueError):
            xi_n(twist_knot(2), (1, 1), SeifertMatrix([]), 3, 0)

    def test_values_read_off_parts(self):
        val = XiValue(linking_term=Fraction(8, 9), sigma_w_range=(-3, 1), signature_sum=4)
        assert (val.value_low, val.value_high) == (Fraction(17, 9), Fraction(53, 9))
        assert val.candidates == (val.value_low, val.value_high)
        assert not val.is_exact
        exact = XiValue(Fraction(1, 3), (2, 2), -2)
        assert exact.is_exact and exact.candidates == (Fraction(1, 3),)
        with pytest.raises(ValueError, match="reversed"):
            XiValue(Fraction(0), (1, -1), 0)

    @pytest.mark.parametrize("v, knot, message", [
        (twist_knot(2).matrix, SeifertMatrix([]), "xi_n expects a SeifertMatrix"),
        (twist_knot(2), [], "the characteristic knot must come as a SeifertMatrix"),
    ], ids=["surface", "characteristic-knot"])
    def test_takes_seifert_matrices(self, v, knot, message):
        with pytest.raises(TypeError, match=message):
            xi_n(v, (-1, 1), knot, 3, 0)

    def test_sigma_w_bound_nonnegative(self):
        with pytest.raises(ValueError, match="magnitude must be nonnegative, got -1"):
            SigmaWBound(-1)

    def test_sigma_w_type_checked(self):
        for bad in (True, 1.0, "1"):
            with pytest.raises(TypeError, match="sigma_w is not an integer"):
                xi_n(twist_knot(2), (-1, 1), SeifertMatrix([]), 3, bad)


class TestRibbon:
    def test_twist_verdicts(self):
        assert ribbon_test(twist_xi3(2), 0, 3) == RIBBON_CONSISTENT
        assert ribbon_test(twist_xi3(11), 0, 3) == RIBBON_OBSTRUCTED
        assert ribbon_test(twist_xi3(-1), 0, 3) == RIBBON_OBSTRUCTED

    def test_bound_scales_with_rank(self):
        val = twist_xi3(11)
        # candidates 7 and 9; bound (2 r + 2) / 2 = r + 1
        assert ribbon_test(val, 5, 3) == RIBBON_OBSTRUCTED
        assert ribbon_test(val, 6, 3) == RIBBON_CONSISTENT

    def test_square_free_required(self):
        val = twist_xi3(2)
        with pytest.raises(NonSquareFreeError):
            ribbon_test(val, 0, 9)

    @pytest.mark.parametrize("n, square_free", [
        (15, True), (105, True), (45, False), (75, False), (225, False),
        pytest.param(math.prod(p for p in range(3, 98, 2) if all(p % q for q in range(3, p, 2))),
                     True, id="odd-primes-to-97"),
    ])
    def test_square_free_scan_on_composite_n(self, n, square_free):
        # the scan divides out each prime it meets: 75 = 3 * 5^2 finds 5^2
        # only after dividing out 3, and the product of the odd primes up
        # to 97, about 1.2 * 10^36, is done at d = 97, not near sqrt(n)
        val = twist_xi3(2)  # candidates -1, 1, inside every bound here
        if square_free:
            assert ribbon_test(val, 0, n) == RIBBON_CONSISTENT
        else:
            with pytest.raises(NonSquareFreeError, match=f"got {n}"):
                ribbon_test(val, 0, n)

    @pytest.mark.parametrize("value, want", [
        (Fraction(2, 3), RIBBON_CONSISTENT), (Fraction(4, 3), RIBBON_OBSTRUCTED),
        (Fraction(-2, 3), RIBBON_CONSISTENT), (Fraction(-4, 3), RIBBON_OBSTRUCTED),
    ])
    def test_rational_candidates(self, value, want):
        # against rank + (n - 1)/2 = 1 at rank 0 and n = 3, without rounding
        assert ribbon_test(XiValue(value, (0, 0), 0), 0, 3) == want

    @pytest.mark.parametrize("xi, rank, error, message", [
        ((1, 1), 0, TypeError, "ribbon_test expects an XiValue"),
        (XiValue(Fraction(1), (0, 0), 0), -1, ValueError, "rank must be nonnegative, got -1"),
    ], ids=["not-an-XiValue", "negative-rank"])
    def test_rejects_malformed_arguments(self, xi, rank, error, message):
        with pytest.raises(error, match=message):
            ribbon_test(xi, rank, 3)

    def test_obstruction_needs_all_candidates_out(self):
        # one candidate inside the bound keeps the knot ribbon-possible
        val = twist_xi3(2)  # candidates -1, 1
        assert ribbon_test(val, 0, 3) == RIBBON_CONSISTENT
