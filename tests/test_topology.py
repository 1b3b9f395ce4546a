import gc
import random
from collections import Counter
from functools import partial
from itertools import chain, combinations, islice, product

import pytest
from hypothesis import given, settings

import strategies as sts
from brandt_omega.brandt import (
    BrandtElem, brandt_invert, brandt_multiply, fiber, restricted_universe, window,
)
from brandt_omega import brandt, equations, topology
from brandt_omega.core import ZERO
from brandt_omega.errors import InvalidElementError, NotInImageError
from brandt_omega.families import parse_family
from brandt_omega.report import VerificationReport
from brandt_omega.topology import (
    _first_miss,
    AcNbhd,
    Tau1Nbhd,
    ac_complement_size,
    check_continuity_tau1,
    check_inversion_ac,
    check_prop49_condition,
    check_shift_continuity_ac,
    find_zero_witness,
    phi,
    psi,
    tau1_annihilation_check,
    tau1_self_product_check,
)


# pairs past the bound and pairs with empty fibers among them
AC_EXCLUDED_SETS = [(), ((2, 5),), ((0, 0), (1, 9), (3, 1)), ((13, 4), (4, 40), (99, 99)),
                    ((3, 3), (6, 2), (12, 12), (12, 30)), tuple(product(range(6), repeat=2))]


class TestAcNbhd:
    def test_membership(self):
        u = AcNbhd(frozenset({(3, 4)}))
        assert BrandtElem(3, 1, 5) in u
        assert BrandtElem(3, 1, 4) not in u
        assert ZERO in u
        assert ZERO in AcNbhd(frozenset())

    def test_complement_size(self, fam013):
        assert ac_complement_size(AcNbhd(frozenset({(2, 5)})), fam013) == 2
        assert ac_complement_size(AcNbhd(frozenset()), fam013) == 0
        assert ac_complement_size(AcNbhd(frozenset({(0, 0), (1, 1)})), fam013) == 3

    @pytest.mark.parametrize("support", ["0,1,3", "0,2,+7", "2,5", "+4"])
    def test_complement_size_counts_the_fibers(self, support):
        f = parse_family(support)
        pairs = list(product(range(13), repeat=2))
        for r, c in pairs:
            assert ac_complement_size(AcNbhd({(r, c)}), f) == len(fiber(r, c, f)), (r, c)
        assert ac_complement_size(AcNbhd(pairs), f) == sum(len(fiber(r, c, f)) for r, c in pairs)

    def test_complement_size_of_a_far_pair_builds_no_fiber(self, monkeypatch):
        def no_fiber(*args):
            raise AssertionError("fiber built")

        monkeypatch.setattr(topology, "fiber", no_fiber)
        u = AcNbhd({(3000000, 3000000)})
        assert ac_complement_size(u, parse_family("0,+4")) == 2999998  # 0 and 4..3000000

    def test_complement_matches_enumeration(self, fam013):
        u = AcNbhd(frozenset({(2, 5), (1, 3)}))
        removed = [
            e for e in restricted_universe(fam013, 8)
            if e is not ZERO and e not in u
        ]
        assert len(removed) == ac_complement_size(u, fam013)

    @pytest.mark.parametrize("support", ["0,1,3", "0,2,+7", "2,5", "5"])
    def test_members_match_the_filtered_window(self, support):
        # oracle: the window filtered by the membership predicate
        f = parse_family(support)
        for bound in range(13):
            window = restricted_universe(f, bound)
            for excluded in AC_EXCLUDED_SETS:
                u = AcNbhd(frozenset(excluded))
                assert u.members(f, bound) == [e for e in window if e in u], (bound, excluded)

    def test_rejects_negative_pairs(self):
        with pytest.raises(InvalidElementError):
            AcNbhd(frozenset({(-1, 2)}))


class TestAcContinuity:
    def test_example(self, fam013):
        u = AcNbhd(frozenset({(2, 5)}))
        r = check_shift_continuity_ac(u, BrandtElem(3, 1, 4), fam013, 12)
        assert r.passed and r.checked > 0

    def test_whole_space(self, fam013):
        r = check_shift_continuity_ac(AcNbhd(frozenset()), BrandtElem(1, 0, 2), fam013, 10)
        assert r.passed

    def test_zero_fiber_exclusion(self, fam013):
        u = AcNbhd(frozenset({(0, 0)}))
        r = check_shift_continuity_ac(u, BrandtElem(0, 0, 0), fam013, 12)
        assert r.passed

    def test_rejects_zero_translator(self, fam013):
        with pytest.raises(InvalidElementError):
            check_shift_continuity_ac(AcNbhd(frozenset()), ZERO, fam013, 5)

    def test_inversion(self, fam013):
        assert check_inversion_ac(AcNbhd(frozenset({(2, 5)})), fam013, 12).passed
        symmetric = AcNbhd(frozenset({(1, 1), (2, 2)}))
        assert check_inversion_ac(symmetric, fam013, 10).passed
        assert check_inversion_ac(AcNbhd(frozenset({(0, 3), (1, 4)})), fam013, 12).passed


class TestTau1:
    def test_membership(self):
        u = Tau1Nbhd(3)
        assert BrandtElem(5, 1, 7) in u
        assert BrandtElem(5, 1, 4) not in u
        assert BrandtElem(2, 0, 9) not in u
        assert ZERO in u

    def test_predicate_matches_fiber_union(self, fam013):
        from brandt_omega.brandt import fiber

        bound = 8
        for n in (0, 1, 3):
            u = Tau1Nbhd(n)
            members = {
                e for e in restricted_universe(fam013, bound)
                if e is not ZERO and e in u
            }
            union = {
                e
                for i in range(n, bound + 1)
                for j in range(i + 1, bound + 1)
                for e in fiber(i, j, fam013)
            }
            assert members == union

    def test_members_are_the_zero_then_the_window_in_order(self, fam013):
        window = restricted_universe(fam013, 7)
        for u in (Tau1Nbhd(2), AcNbhd(frozenset({(2, 5), (3, 3)}))):
            members = u.members(fam013, 7)
            assert members[0] is ZERO
            assert members == [e for e in window if e in u]

    @pytest.mark.parametrize("support", ["0,1,3", "0,2,+7", "2,5", "5", "0,+4"])
    def test_generated_members_match_the_filtered_window(self, support):
        # oracle: the window filtered by the membership predicate
        f = parse_family(support)
        for bound in range(13):
            window = restricted_universe(f, bound)[1:]
            for n in range(bound + 3):
                u = Tau1Nbhd(n)
                want = [ZERO] + [e for e in window if e in u]
                assert u.members(f, bound) == want, (bound, n)

    def test_rejects_a_negative_threshold(self):
        with pytest.raises(InvalidElementError, match="^threshold must be a natural$"):
            Tau1Nbhd(-1)

    def test_members_reject_a_negative_bound(self, fam013):
        with pytest.raises(InvalidElementError, match="bound must be a natural"):
            Tau1Nbhd(0).members(fam013, -1)

    def test_annihilation_example(self, fam013):
        r = tau1_annihilation_check(BrandtElem(2, 1, 4), fam013, 15)
        assert r.passed and "n=5" in r.note

    def test_self_product_example(self, fam013):
        r = tau1_self_product_check(Tau1Nbhd(3), fam013, 12)
        assert r.passed

    def test_combined_and_zero(self, fam013):
        assert check_continuity_tau1(Tau1Nbhd(3), BrandtElem(2, 1, 4), fam013, 10).passed
        assert check_continuity_tau1(Tau1Nbhd(3), ZERO, fam013, 8).passed


@pytest.mark.parametrize("support", ["0,1,3", "0,2,+7", "2,5", "5", "0,+4"])
class TestRuns:
    """The window and each neighbourhood kind as one lazy stream of nonzero
    members: after the zero it is restricted_universe or `members`, and the
    window filtered by membership, in window order."""

    def test_window_runs_flatten_to_the_universe(self, support):
        f = parse_family(support)
        for bound in range(13):
            stream = window(f, bound)
            assert iter(stream) is stream
            naive = [BrandtElem(r, k, c) for r in range(bound + 1) for k in f.support.upto(r)
                     for c in range(k, bound + 1)]
            assert [ZERO, *stream] == restricted_universe(f, bound) == [ZERO, *naive], bound

    def test_tau1_runs_flatten_to_the_members(self, support):
        f = parse_family(support)
        for bound in range(13):
            univ = restricted_universe(f, bound)
            for n in range(bound + 3):
                u = Tau1Nbhd(n)
                got = [ZERO, *u.nonzero(f, bound)]
                assert got == u.members(f, bound) == [e for e in univ if e in u], (bound, n)

    def test_ac_runs_flatten_to_the_members(self, support):
        f = parse_family(support)
        for bound in range(13):
            univ = restricted_universe(f, bound)
            for excluded in AC_EXCLUDED_SETS:
                u = AcNbhd(frozenset(excluded))
                got = [ZERO, *u.nonzero(f, bound)]
                assert got == u.members(f, bound) == [e for e in univ if e in u], (bound, excluded)

    @pytest.mark.parametrize("bound", [-1, True, False, 2.0])
    def test_bad_bound_raises_on_the_call(self, support, bound):
        # a lazy stream must not defer the check to its first member, and the
        # window cache, whose keys equate True with 1 and 2.0 with 2, must
        # not answer for a bound equal to a cached natural
        f = parse_family(support)
        if bound != -1:
            restricted_universe(f, int(bound))
        for stream in (partial(restricted_universe, f), partial(window, f),
                       partial(Tau1Nbhd(0).nonzero, f), partial(AcNbhd({(2, 5)}).nonzero, f)):
            with pytest.raises(InvalidElementError, match="^bound must be a natural$"):
                stream(bound)

    def test_streams_build_only_the_members_drawn(self, monkeypatch, support):
        f = parse_family(support)
        built = []
        new = brandt._new
        for module in (brandt, topology):
            monkeypatch.setattr(module, "_new", lambda t: built.append(t) or new(t))
        # (2, 5)'s fiber lies past the first three members for every support here
        for stream in (window(f, 12), Tau1Nbhd(0).nonzero(f, 12), AcNbhd({(2, 5)}).nonzero(f, 12)):
            built.clear()
            first = list(islice(stream, 3))
            assert built == [tuple(e) for e in first] and len(first) == 3


class TestPhiPsi:
    def test_examples(self):
        assert phi(BrandtElem(3, 1, 5)) == BrandtElem(3, 1, 3)
        assert psi(BrandtElem(3, 1, 5)) == BrandtElem(5, 1, 5)
        assert phi(ZERO) is ZERO and psi(ZERO) is ZERO
        e = BrandtElem(4, 0, 4)
        assert phi(e) == e and psi(e) == e

    @given(sts.fam_and_brandt(n=1, allow_zero=False))
    def test_products_match(self, fe):
        from brandt_omega.brandt import brandt_invert, brandt_multiply

        _, (x,) = fe
        assert phi(x) == brandt_multiply(x, brandt_invert(x))
        assert psi(x) == brandt_multiply(brandt_invert(x), x)
        assert brandt_multiply(x, psi(x)) == x


class TestElementType:
    def test_results_are_brandt_elems(self, fam013):
        x = BrandtElem(3, 1, 5)
        tau1 = Tau1Nbhd(2).members(fam013, 6)
        ac = AcNbhd(frozenset({(2, 5)})).members(fam013, 6)
        assert tau1[0] is ZERO and ac[0] is ZERO
        assert {type(e) for e in [phi(x), psi(x), *tau1[1:], *ac[1:]]} == {BrandtElem}


class TestProp49:
    def test_tau1_violated(self, fam013):
        # (5,0,7) lies in U_1 and has phi-image (5,0,5)
        assert not check_prop49_condition(Tau1Nbhd(1), [BrandtElem(5, 0, 5)], fam013, 20)

    def test_excluding_row_col_5(self, fam013):
        pairs = {(5, j) for j in range(21)} | {(i, 5) for i in range(21)}
        u = AcNbhd(frozenset(pairs))
        assert check_prop49_condition(u, [BrandtElem(5, 0, 5)], fam013, 20)

    def test_empty_m(self, fam013):
        assert check_prop49_condition(Tau1Nbhd(1), [], fam013, 10)

    def test_rejects_non_idempotent(self, fam013):
        with pytest.raises(InvalidElementError):
            check_prop49_condition(Tau1Nbhd(1), [BrandtElem(1, 0, 2)], fam013, 5)
        with pytest.raises(InvalidElementError, match=r"^non-idempotent in M: \(1;0;2\)$"):
            check_prop49_condition(Tau1Nbhd(1), [BrandtElem(1, 0, 2)], fam013, 5)

    @pytest.mark.parametrize("m", [BrandtElem(5, 9, 5), BrandtElem(1, 3, 1), BrandtElem(5, 2, 5)])
    def test_rejects_elements_outside_the_family(self, fam013, m):
        with pytest.raises(NotInImageError, match=r"is not in the restricted subsemigroup$"):
            check_prop49_condition(Tau1Nbhd(1), [BrandtElem(5, 0, 5), m], fam013, 8)

    def test_rejects_negative_bound(self, fam013):
        # a negative bound sweeps nothing, so it would pass vacuously
        with pytest.raises(InvalidElementError, match="bound must be a natural"):
            check_prop49_condition(Tau1Nbhd(1), [BrandtElem(5, 0, 5)], fam013, -3)

    @pytest.mark.parametrize("u", [Tau1Nbhd(1), AcNbhd({(2, 5)})], ids=["t1", "ac"])
    @pytest.mark.parametrize("M", [[], [ZERO]], ids=["empty", "zero"])
    @pytest.mark.parametrize("bound", [-1, -3, True, False])
    def test_bad_bound_raises_whatever_m_holds(self, fam013, u, M, bound):
        # the answer is known before any run, but the bound is still checked
        with pytest.raises(InvalidElementError, match="^bound must be a natural$"):
            check_prop49_condition(u, M, fam013, bound)

    @pytest.mark.parametrize("u", [Tau1Nbhd(1), AcNbhd({(2, 5)})], ids=["t1", "ac"])
    def test_zero_in_m_answers_false_before_any_run(self, monkeypatch, fam013, u):
        drawn = []
        nonzero = type(u).nonzero
        monkeypatch.setattr(type(u), "nonzero", lambda self, f, bound: map(
            lambda e: drawn.append(e) or e, nonzero(self, f, bound)))
        for M in ([ZERO], [BrandtElem(5, 0, 5), ZERO]):
            assert check_prop49_condition(u, M, fam013, 8) is False
        assert drawn == []

    @pytest.mark.parametrize("support", ["0,1,3", "2,5", "0,+4", "5"])
    def test_bound_zero_matches_naive(self, support):
        f = parse_family(support)
        Ms = [[], [ZERO]] + ([[BrandtElem(0, 0, 0)]] if 0 in f.support else [])
        for M in Ms:
            for n in range(3):
                got = check_prop49_condition(Tau1Nbhd(n), M, f, 0)
                assert got == naive_prop49(lambda e: _t1_in(n, e), set(M), f, 0), (n, M)
            for excluded in ((), ((0, 0),), ((0, 1), (1, 0))):
                got = check_prop49_condition(AcNbhd(frozenset(excluded)), M, f, 0)
                assert got == naive_prop49(lambda e: _ac_in(set(excluded), e), set(M), f, 0)


class TestZeroWitness:
    def test_examples(self):
        a = BrandtElem(2, 1, 4)
        assert find_zero_witness(a, [BrandtElem(5, 0, 6), BrandtElem(4, 1, 7)]) == BrandtElem(5, 0, 6)
        assert find_zero_witness(a, [BrandtElem(4, 0, 2)]) is None
        assert find_zero_witness(a, []) is None

    def test_rejects_zero(self):
        with pytest.raises(InvalidElementError):
            find_zero_witness(ZERO, [BrandtElem(1, 0, 2)])
        # (5;0;6) is a witness for (2;1;4) and (4;0;2) is not: the zero is an
        # error wherever it sits
        for D in ([ZERO], [BrandtElem(5, 0, 6), ZERO], [BrandtElem(4, 0, 2), ZERO],
                  [ZERO, BrandtElem(5, 0, 6)]):
            with pytest.raises(InvalidElementError, match="^witness candidates must be nonzero$"):
                find_zero_witness(BrandtElem(2, 1, 4), D)

    @pytest.mark.parametrize("support, bound", [("0,1,3", 4), ("2,5", 5), ("0,+4", 3)])
    def test_missing_exactly_when_every_candidate_mirrors_a(self, support, bound):
        # a*d and d*a are both nonzero exactly when (row(d), col(d)) is
        # (col(a), row(a)), so the witness is the first d off that pair;
        # every nonzero a against every D of one or two window elements
        window = restricted_universe(parse_family(support), bound)[1:]
        for a in window:
            for D in chain(zip(window), combinations(window, 2)):
                want = next((d for d in D if (d.row, d.col) != (a.col, a.row)), None)
                assert find_zero_witness(a, list(D)) == want, (a, D)

    @given(sts.fam_and_brandt(n=5, span=8, allow_zero=False))
    @settings(max_examples=60)
    def test_succeeds_with_spread_rows_and_cols(self, fe):
        _, elems = fe
        a, D = elems[0], elems[1:]
        rows = {d.row for d in D}
        cols = {d.col for d in D}
        if len(rows) >= 2 and len(cols) >= 2:
            assert find_zero_witness(a, D) is not None


# --- sweeps against a naive enumeration -------------------------------------
#
# Each oracle filters restricted_universe with the membership predicate
# written inline and runs the sweep as a plain scan, so the library's
# neighbourhood members and closure sweep are pinned to (passed, checked,
# note) of the simplest reading of each check.

def _ac_in(excluded, e):
    return e is ZERO or (e.row, e.col) not in excluded


def _t1_in(n, e):
    return e is ZERO or n <= e.row < e.col


def _scan(items, bad):
    """(passed, checked) of a sweep that stops at the first bad item."""
    for i, item in enumerate(items):
        if bad(item):
            return False, i
    return True, len(items)


def naive_shift_ac(excluded, x, f, bound, mul=brandt_multiply):
    K = {x.row, x.col} | {c for pair in excluded for c in pair}
    members = [
        e for e in restricted_universe(f, bound)
        if e is ZERO or not (e.row in K and e.col in K)
    ]
    passed, checked = _scan(members, lambda e: not (
        _ac_in(excluded, mul(e, x)) and _ac_in(excluded, mul(x, e))
    ))
    note = f"U_K sweep with |K|={len(K)}, bound={bound}" if passed else "translate left the neighborhood"
    return passed, checked, note


def naive_inversion_ac(excluded, f, bound, inv=brandt_invert):
    transposed = {(c, r) for r, c in excluded}
    members = [e for e in restricted_universe(f, bound) if _ac_in(transposed, e)]
    passed, checked = _scan(members, lambda e: not _ac_in(excluded, inv(e)))
    return passed, checked, f"transposed sweep, bound={bound}" if passed else "inverse left the neighborhood"


def naive_annihilation(x, f, bound, mul=brandt_multiply):
    n = max(x.row, x.col) + 1
    members = [e for e in restricted_universe(f, bound) if _t1_in(n, e)]
    passed, checked = _scan(members, lambda e: not (
        mul(x, e) is ZERO and mul(e, x) is ZERO
    ))
    return passed, checked, f"n={n}, bound={bound}" if passed else f"translate by U_{n} member is nonzero"


def naive_self_product(n, f, bound, mul=brandt_multiply):
    members = [e for e in restricted_universe(f, bound) if _t1_in(n, e)]
    pairs = [(a, b) for a in members for b in members]
    passed, checked = _scan(pairs, lambda ab: not _t1_in(n, mul(*ab)))
    note = f"n={n}, {len(members)} members, bound={bound}" if passed else "self-product left the neighborhood"
    return passed, checked, note


def naive_prop49(contains, M, f, bound, phi=phi):
    return not any(
        contains(e) and (phi(e) in M or psi(e) in M) for e in restricted_universe(f, bound)
    )


def naive_shift_ac_counterexample(excluded, x, f, bound, mul=brandt_multiply):
    """The first (e, x, product) that leaves u, testing e*x before x*e."""
    K = {x.row, x.col} | {c for pair in excluded for c in pair}
    for e in restricted_universe(f, bound):
        if e is ZERO or not (e.row in K and e.col in K):
            for prod in (mul(e, x), mul(x, e)):
                if not _ac_in(excluded, prod):
                    return e, x, prod
    return None


def naive_inversion_ac_counterexample(excluded, f, bound, inv=brandt_invert):
    transposed = {(c, r) for r, c in excluded}
    for e in restricted_universe(f, bound):
        if _ac_in(transposed, e) and not _ac_in(excluded, inv(e)):
            return e, inv(e)
    return None


def naive_annihilation_counterexample(x, f, bound, mul=brandt_multiply):
    """The first (x, e, product) that is nonzero, testing x*e before e*x."""
    n = max(x.row, x.col) + 1
    for e in restricted_universe(f, bound):
        if _t1_in(n, e):
            for prod in (mul(x, e), mul(e, x)):
                if prod is not ZERO:
                    return x, e, prod
    return None


def _triple(r):
    return r.passed, r.checked, r.note


def _four(r):
    return r.passed, r.checked, r.counterexample, r.note


def _naive_four(triple, counterexample):
    passed, checked, note = triple
    return passed, checked, counterexample, note


SUPPORT_BOUNDS = [(s, b) for s in ("0,1,3", "0,2,+7", "2,5") for b in (3, 6, 10)]
EXCLUDED = [(), ((2, 5),), ((2, 5), (3, 4)), ((0, 0), (9, 3)), ((4, 4), (4, 6), (6, 4))]


def _translators(f):
    m = f.support.minimum  # at most 2 for these supports
    return [BrandtElem(3, m, 4), BrandtElem(9, m, 2), BrandtElem(4, m, 4), BrandtElem(2, m, 7)]


@pytest.mark.parametrize("support, bound", SUPPORT_BOUNDS)
class TestSweepsAgainstNaive:
    def test_shift_continuity_and_inversion_ac(self, support, bound):
        f = parse_family(support)
        for excluded in EXCLUDED:
            u = AcNbhd(frozenset(excluded))
            assert _triple(check_inversion_ac(u, f, bound)) == naive_inversion_ac(set(excluded), f, bound)
            for x in _translators(f):
                got = check_shift_continuity_ac(u, x, f, bound)
                assert _triple(got) == naive_shift_ac(set(excluded), x, f, bound), (excluded, x)

    def test_annihilation(self, support, bound):
        f = parse_family(support)
        for x in _translators(f) + [BrandtElem(0, 0, 1) if 0 in f.support else BrandtElem(2, 2, 3)]:
            assert _triple(tau1_annihilation_check(x, f, bound)) == naive_annihilation(x, f, bound), x

    def test_self_product_and_combined(self, support, bound):
        f = parse_family(support)
        x = _translators(f)[0]
        for n in (0, 1, 3, 8):
            want = naive_self_product(n, f, bound)
            assert _triple(tau1_self_product_check(Tau1Nbhd(n), f, bound)) == want, n
            first = naive_annihilation(x, f, bound)
            combined = (True, first[1] + want[1], f"{first[2]}; {want[2]}")
            assert _triple(check_continuity_tau1(Tau1Nbhd(n), x, f, bound)) == combined, n

    def test_prop49(self, support, bound):
        f = parse_family(support)
        m = f.support.minimum
        Ms = [[], [BrandtElem(5, m, 5)], [BrandtElem(2, m, 2), BrandtElem(7, m, 7)], [ZERO]]
        for M in Ms:
            for n in (0, 3, 6):
                got = check_prop49_condition(Tau1Nbhd(n), M, f, bound)
                assert got == naive_prop49(lambda e: _t1_in(n, e), set(M), f, bound), (n, M)
            for excluded in EXCLUDED + [tuple((5, j) for j in range(bound + 1))]:
                got = check_prop49_condition(AcNbhd(frozenset(excluded)), M, f, bound)
                assert got == naive_prop49(lambda e: _ac_in(set(excluded), e), set(M), f, bound)


class TestSeededDefects:
    """Each topology sweep against a defect seeded through a patched module
    global, pinned to the naive oracle above run with the same defect."""

    F, BOUND = parse_family("0,1,3"), 8

    def test_shift_continuity_ac(self, monkeypatch):
        u, x = AcNbhd(frozenset({(2, 5)})), BrandtElem(3, 1, 4)
        members = [e for e in restricted_universe(self.F, self.BOUND)
                   if e is ZERO or not {e.row, e.col} <= {2, 3, 4, 5}]
        p = members[len(members) // 2]
        mul = lambda a, b: BrandtElem(2, 0, 5) if (a, b) == (p, x) else brandt_multiply(a, b)
        monkeypatch.setattr(topology, "brandt_multiply", mul)
        r = check_shift_continuity_ac(u, x, self.F, self.BOUND)
        assert not r.passed and r.counterexample == (p, x, BrandtElem(2, 0, 5))
        assert _triple(r) == naive_shift_ac({(2, 5)}, x, self.F, self.BOUND, mul)

    def test_inversion_ac(self, monkeypatch):
        # the identity for inversion keeps (2, v, 5), which u excludes
        monkeypatch.setattr(topology, "brandt_invert", lambda e: e)
        r = check_inversion_ac(AcNbhd(frozenset({(2, 5)})), self.F, self.BOUND)
        assert not r.passed and r.counterexample == (BrandtElem(2, 0, 5),) * 2
        assert _triple(r) == naive_inversion_ac({(2, 5)}, self.F, self.BOUND, lambda e: e)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_annihilation(self, monkeypatch, side):
        x = BrandtElem(2, 1, 4)
        members = Tau1Nbhd(5).members(self.F, self.BOUND)
        p = members[len(members) // 3]
        pair = (x, p) if side == "left" else (p, x)
        mul = lambda a, b: p if (a, b) == pair else brandt_multiply(a, b)
        monkeypatch.setattr(topology, "brandt_multiply", mul)
        r = tau1_annihilation_check(x, self.F, self.BOUND)
        assert not r.passed and r.counterexample == (x, p, p)
        assert _triple(r) == naive_annihilation(x, self.F, self.BOUND, mul)

    def test_continuity_tau1_stops_at_annihilation(self, monkeypatch):
        # the first of the two sweeps fails, so its report is the result
        x = BrandtElem(2, 1, 4)
        members = Tau1Nbhd(5).members(self.F, self.BOUND)
        p = members[len(members) // 2]
        mul = lambda a, b: p if (a, b) == (p, x) else brandt_multiply(a, b)
        monkeypatch.setattr(topology, "brandt_multiply", mul)
        r = check_continuity_tau1(Tau1Nbhd(3), x, self.F, self.BOUND)
        assert not r.passed and r.counterexample == (x, p, p)
        assert _triple(r) == naive_annihilation(x, self.F, self.BOUND, mul)

    @pytest.mark.parametrize("seed", range(3))
    def test_continuity_tau1_stops_at_self_product(self, monkeypatch, seed):
        # annihilation passes (x is in no corrupted pair); the self-product fails
        x, u = BrandtElem(2, 1, 4), Tau1Nbhd(3)
        rng = random.Random(seed)
        members = u.members(self.F, self.BOUND)
        p, q = rng.choice(members), rng.choice(members)
        outside = BrandtElem(1, 5, 0)
        mul = lambda a, b: outside if (a, b) == (p, q) else brandt_multiply(a, b)
        monkeypatch.setattr(topology, "brandt_multiply", mul)
        r = check_continuity_tau1(u, x, self.F, self.BOUND)
        assert not r.passed and r.counterexample == (p, q)
        assert _triple(r) == naive_self_product(3, self.F, self.BOUND, mul)

    @pytest.mark.parametrize("u, contains, M", [
        (Tau1Nbhd(3), lambda e: _t1_in(3, e), [BrandtElem(2, 0, 2)]),
        (AcNbhd(frozenset({(5, j) for j in range(9)} | {(i, 5) for i in range(9)})),
         lambda e: e is ZERO or 5 not in (e.row, e.col), [BrandtElem(5, 0, 5)]),
    ], ids=["t1", "ac"])
    def test_prop49(self, monkeypatch, u, contains, M):
        # phi one row too low: a member with row 3 (t1) or 6 (ac) reaches M
        assert check_prop49_condition(u, M, self.F, self.BOUND) is True
        low = lambda e: ZERO if e is ZERO else BrandtElem(e.row - 1, e.val, e.row - 1)
        monkeypatch.setattr(topology, "phi", low)
        assert check_prop49_condition(u, M, self.F, self.BOUND) is False
        assert naive_prop49(contains, set(M), self.F, self.BOUND, low) is False


class TestFirstFailure:
    """The translate sweeps compute all products, then report the first
    member with a product outside the set; the inversion sweep tests each
    inverse as it is built and stops at the first one outside.  Seeded
    defects at chosen members, each pinned to (passed, checked,
    counterexample, note) of the naive scans."""

    F, BOUND = parse_family("0,1,3"), 8
    BAD, WORSE = BrandtElem(2, 0, 5), BrandtElem(2, 1, 5)  # both outside ac:(2,5)
    CASES = ["right only", "same value twice", "later left, earlier right",
             "both sides", "first member", "last member"]

    @staticmethod
    def _defects(case, members, left, right, bad, worse):
        """Corrupted products keyed by argument pair, and the member reported.
        left(e) and right(e) are the argument pairs of a member's two products."""
        p, q = members[len(members) // 3], members[2 * len(members) // 3]
        first, last = members[0], members[-1]
        return {
            "right only": ({right(p): bad}, p),
            "same value twice": ({left(p): bad, left(q): bad}, p),
            "later left, earlier right": ({left(q): bad, right(p): worse}, p),
            "both sides": ({left(p): bad, right(p): worse}, p),
            "first member": ({left(first): bad}, first),
            "last member": ({right(last): bad}, last),
        }[case]

    @staticmethod
    def _corrupt(monkeypatch, name, original, defects):
        def corrupted(*args):
            return defects[args] if args in defects else original(*args)
        monkeypatch.setattr(topology, name, corrupted)
        return corrupted

    @pytest.mark.parametrize("case", CASES)
    def test_shift_continuity_ac(self, monkeypatch, case):
        u, x = AcNbhd(frozenset({(2, 5)})), BrandtElem(3, 1, 4)
        members = AcNbhd(frozenset(product({2, 3, 4, 5}, repeat=2))).members(self.F, self.BOUND)
        defects, want = self._defects(case, members, lambda e: (e, x), lambda e: (x, e),
                                      self.BAD, self.WORSE)
        mul = self._corrupt(monkeypatch, "brandt_multiply", brandt_multiply, defects)
        r = check_shift_continuity_ac(u, x, self.F, self.BOUND)
        assert not r.passed and r.checked == members.index(want)
        assert _four(r) == _naive_four(naive_shift_ac({(2, 5)}, x, self.F, self.BOUND, mul),
                                       naive_shift_ac_counterexample({(2, 5)}, x, self.F, self.BOUND, mul))
        if case == "both sides":
            assert r.counterexample == (want, x, self.BAD)

    @pytest.mark.parametrize("case", CASES)
    def test_annihilation(self, monkeypatch, case):
        x = BrandtElem(2, 1, 4)
        members = Tau1Nbhd(5).members(self.F, self.BOUND)
        nonzero = BrandtElem(6, 0, 7)
        defects, want = self._defects(case, members, lambda e: (x, e), lambda e: (e, x),
                                      nonzero, x)
        mul = self._corrupt(monkeypatch, "brandt_multiply", brandt_multiply, defects)
        r = tau1_annihilation_check(x, self.F, self.BOUND)
        assert not r.passed and r.checked == members.index(want)
        assert _four(r) == _naive_four(naive_annihilation(x, self.F, self.BOUND, mul),
                                       naive_annihilation_counterexample(x, self.F, self.BOUND, mul))
        if case == "both sides":
            assert r.counterexample == (x, want, nonzero)

    @pytest.mark.parametrize("case", ["same value twice", "first member", "last member"])
    def test_inversion_ac(self, monkeypatch, case):
        u = AcNbhd(frozenset({(2, 5)}))
        members = AcNbhd(frozenset({(5, 2)})).members(self.F, self.BOUND)
        defects, want = self._defects(case, members, lambda e: (e,), lambda e: (e,),
                                      self.BAD, self.BAD)
        inv = self._corrupt(monkeypatch, "brandt_invert", brandt_invert, defects)
        r = check_inversion_ac(u, self.F, self.BOUND)
        assert not r.passed and r.checked == members.index(want)
        assert _four(r) == _naive_four(naive_inversion_ac({(2, 5)}, self.F, self.BOUND, inv),
                                       naive_inversion_ac_counterexample({(2, 5)}, self.F, self.BOUND, inv))

    def test_inversion_ac_stops_at_the_first_miss(self, monkeypatch):
        u = AcNbhd(frozenset({(2, 5)}))
        members = AcNbhd(frozenset({(5, 2)})).members(self.F, self.BOUND)
        i = len(members) // 3
        inverted = []

        def corrupted(e):
            inverted.append(e)
            return self.BAD if e == members[i] else brandt_invert(e)

        monkeypatch.setattr(topology, "brandt_invert", corrupted)
        r = check_inversion_ac(u, self.F, self.BOUND)
        assert (r.passed, r.checked, r.counterexample) == (False, i, (members[i], self.BAD))
        # each member up to the miss once, then the miss again for the counterexample
        assert inverted == members[:i + 1] + [members[i]]


class TestFirstMiss:
    def test_empty(self):
        assert _first_miss([], lambda item: False) == 0

    def test_no_miss(self):
        assert _first_miss([ZERO, 1, ZERO, 2], lambda item: True) == 4

    def test_miss_at_index_zero(self):
        assert _first_miss([3, ZERO, 3, 1], lambda item: item is ZERO) == 0

    def test_repeated_miss_value_runs_contains_once_per_distinct_item(self):
        seen = []

        def contains(item):
            seen.append(item)
            return item != 7

        assert _first_miss([ZERO, 1, 7, ZERO, 7, 5, 7], contains) == 2
        assert Counter(seen) == Counter({ZERO: 1, 1: 1, 7: 1, 5: 1})


class TestEveryProductComputed:
    """A faster sweep that checks less is not faster: a passing sweep calls
    the product, inverse, phi and psi exactly once per member and side."""

    F, BOUND = parse_family("0,1,3"), 8

    @staticmethod
    def _count(monkeypatch, name, original):
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(topology, name, counted)
        return calls

    def test_shift_continuity_ac(self, monkeypatch):
        u, x = AcNbhd(frozenset({(2, 5)})), BrandtElem(3, 1, 4)
        members = AcNbhd(frozenset(product({2, 3, 4, 5}, repeat=2))).members(self.F, self.BOUND)
        calls = self._count(monkeypatch, "brandt_multiply", brandt_multiply)
        r = check_shift_continuity_ac(u, x, self.F, self.BOUND)
        assert r.passed and r.checked == len(members) and len(calls) == 2 * len(members)
        assert Counter(calls) == Counter([(e, x) for e in members] + [(x, e) for e in members])

    def test_annihilation(self, monkeypatch):
        x = BrandtElem(2, 1, 4)
        members = Tau1Nbhd(5).members(self.F, self.BOUND)
        calls = self._count(monkeypatch, "brandt_multiply", brandt_multiply)
        r = tau1_annihilation_check(x, self.F, self.BOUND)
        assert r.passed and r.checked == len(members) and len(calls) == 2 * len(members)
        assert Counter(calls) == Counter([(x, e) for e in members] + [(e, x) for e in members])

    def test_inversion_ac(self, monkeypatch):
        members = AcNbhd(frozenset({(5, 2)})).members(self.F, self.BOUND)
        calls = self._count(monkeypatch, "brandt_invert", brandt_invert)
        r = check_inversion_ac(AcNbhd(frozenset({(2, 5)})), self.F, self.BOUND)
        assert r.passed and r.checked == len(calls) == len(members)
        assert Counter(calls) == Counter((e,) for e in members)

    @pytest.mark.parametrize("u, M", [
        (Tau1Nbhd(3), [BrandtElem(2, 0, 2)]),
        (AcNbhd(frozenset({(5, j) for j in range(9)} | {(i, 5) for i in range(9)})),
         [BrandtElem(5, 0, 5)]),
    ], ids=["t1", "ac"])
    def test_prop49(self, monkeypatch, u, M):
        members = u.members(self.F, self.BOUND)
        phis = self._count(monkeypatch, "phi", phi)
        psis = self._count(monkeypatch, "psi", psi)
        assert check_prop49_condition(u, M, self.F, self.BOUND) is True
        assert Counter(phis) == Counter(psis) == Counter((e,) for e in members)


class TestProp49EarlyStop:
    """A failing prop49 query stops at its first witness, the first member in
    window order whose phi- or psi-image lies in M: its phi and psi calls are
    the naive prefix that ends there, and exactly the nonzero members up to
    the witness are drawn from the neighbourhood's stream."""

    @pytest.mark.parametrize("support, bound", [("0,1,3", 6), ("0,1,3", 9), ("0,2,+7", 9), ("2,5", 8)])
    def test_calls_end_at_the_first_witness(self, monkeypatch, support, bound):
        f = parse_family(support)
        diag = [BrandtElem(p, k, p) for p in range(bound + 1) for k in f.support.upto(p)]
        rng = random.Random(bound)
        Ms = [[m] for m in diag] + [rng.sample(diag, 3) for _ in range(10)]
        nbhds = [Tau1Nbhd(n) for n in range(bound + 1)] + [AcNbhd(frozenset(e)) for e in EXCLUDED]
        # each query's members, the zero first, before the patches below
        queries = [(u, M, [e for e in restricted_universe(f, bound) if e in u])
                   for u in nbhds for M in Ms]

        calls, drawn = [], []
        for name, fn in (("phi", phi), ("psi", psi)):
            monkeypatch.setattr(topology, name, lambda e, name=name, fn=fn: calls.append((name, e)) or fn(e))
        for cls in (Tau1Nbhd, AcNbhd):
            def counted(self, f, bound, nonzero=cls.nonzero):
                return map(lambda e: drawn.append(e) or e, nonzero(self, f, bound))

            monkeypatch.setattr(cls, "nonzero", counted)

        failing = 0
        for u, M, members in queries:
            w = next((i for i, e in enumerate(members) if phi(e) in M or psi(e) in M), None)
            calls.clear()
            drawn.clear()
            assert check_prop49_condition(u, M, f, bound) is (w is None)
            if w is None:
                assert drawn == members[1:], (u, M)
                continue
            failing += 1
            assert calls == [(name, e) for e in members[:w + 1] for name in ("phi", "psi")], (u, M)
            assert drawn == members[1:w + 1], (u, M)
        assert failing > len(queries) // 2


class TestWindowCalls:
    """perfbench/child.py counts the calls each query makes to the module
    global `topology.restricted_universe`: reads of that name, not window
    builds, which the window cache behind it may spare.  Only the `ac`
    continuity and inversion sweeps read the window through that name,
    once per sweep; the τ1 sweeps generate their members, and prop49 draws
    the nonzero stream of either kind, so neither reads it."""

    @pytest.mark.parametrize("argv, calls", [
        (["ac-check", "--nbhd", "ac:(2,5)(3,4)", "--elem", "(3;1;4)"], 2),
        (["t1-check", "--n", "3", "--elem", "(2;1;4)"], 0),
        (["t1-check", "--n", "3"], 0),
        (["prop49", "--nbhd", "t1:3", "--m", "(2;0;2)"], 0),
        (["prop49", "--nbhd", "ac:(5,5)", "--m", "(5;0;5)"], 0),
    ], ids=["ac-check", "t1-check-elem", "t1-self-product", "prop49-t1", "prop49-ac"])
    def test_restricted_universe_calls_per_query(self, monkeypatch, capsys, argv, calls):
        from brandt_omega.cli import main

        seen = []
        original = topology.restricted_universe

        def counted(*args):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(topology, "restricted_universe", counted)
        main(["topo", *argv, "--family", "0,1,3", "--bound", "8"])
        capsys.readouterr()
        assert len(seen) == calls

    def test_ac_check_builds_its_window_once(self, capsys, window_builds):
        # its two sweeps read one window, which the cache builds once
        from brandt_omega.cli import main

        code = main(["topo", "ac-check", "--nbhd", "ac:(2,5)(3,4)", "--elem", "(3;1;4)",
                     "--family", "0,1,3", "--bound", "8"])
        capsys.readouterr()
        assert code == 0 and window_builds == [(parse_family("0,1,3"), 8)]


@pytest.fixture
def collector_restored():
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorPaused:
    """No window sweep changes the cyclic collector's state, whether it
    passes, fails or raises, and none holds enough new objects to run a
    collection.  (The class keeps the name it had when the sweeps paused
    the collector, so the test ids stay stable.)"""

    F = parse_family("0,1,3")
    D = BrandtElem(2, 0, 2)  # what a seeded defect returns: outside every u below
    # name -> (call at a bound, module and global a defect replaces)
    SWEEPS = {
        "check_shift_continuity_ac": (
            lambda f, b: check_shift_continuity_ac(AcNbhd({(2, 2)}), BrandtElem(3, 1, 4), f, b),
            topology, "brandt_multiply"),
        "check_inversion_ac": (
            lambda f, b: check_inversion_ac(AcNbhd({(2, 2)}), f, b), topology, "brandt_invert"),
        "tau1_annihilation_check": (
            lambda f, b: tau1_annihilation_check(BrandtElem(2, 1, 4), f, b),
            topology, "brandt_multiply"),
        "tau1_self_product_check": (
            lambda f, b: tau1_self_product_check(Tau1Nbhd(3), f, b), topology, "brandt_multiply"),
        "check_prop49_condition": (
            lambda f, b: check_prop49_condition(Tau1Nbhd(3), [BrandtElem(2, 0, 2)], f, b),
            topology, "phi"),
        "brute_force_solutions": (
            lambda f, b: equations.brute_force_solutions(
                BrandtElem(2, 1, 4), BrandtElem(2, 1, 5), "left", b, f),
            equations, "brandt_multiply"),
        # nested: runs two paused sweeps
        "check_continuity_tau1": (
            lambda f, b: check_continuity_tau1(Tau1Nbhd(3), BrandtElem(2, 1, 4), f, b),
            topology, "brandt_multiply"),
    }

    @staticmethod
    def _passed(result) -> bool:
        return result.passed if isinstance(result, VerificationReport) else bool(result)

    @pytest.mark.parametrize("outcome", ["pass", "defect", "raise"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("name", SWEEPS)
    def test_state_restored(self, monkeypatch, collector_restored, name, enabled, outcome):
        call, module, attr = self.SWEEPS[name]
        if outcome == "defect":
            monkeypatch.setattr(module, attr, lambda *args: self.D)
        (gc.enable if enabled else gc.disable)()
        if outcome == "raise":
            with pytest.raises(InvalidElementError):
                call(self.F, -1)
        else:
            assert self._passed(call(self.F, 8)) is (outcome == "pass")
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("name", ["check_inversion_ac", "check_shift_continuity_ac",
                                      "brute_force_solutions", "brute_force_solutions-right"])
    def test_no_collection_during_a_window_sweep(self, collector_restored, name):
        # Beyond the cached window a sweep holds no new objects, so on a warm
        # cache it runs no collection.  Filling the cache does collect, which
        # is why the cache readers run warm.  The oracle never reads the
        # cache, so its rows hold with the cache cold.
        f, u, x = parse_family("0,2,+7"), AcNbhd({(2, 5), (9, 3)}), BrandtElem(9, 2, 14)
        oracle = partial(equations.brute_force_solutions, x, BrandtElem(9, 2, 20))
        call = {
            "check_inversion_ac": lambda: check_inversion_ac(u, f, 25),
            "check_shift_continuity_ac": lambda: check_shift_continuity_ac(u, x, f, 25),
            "brute_force_solutions": lambda: oracle("left", 25, f),
            "brute_force_solutions-right": lambda: oracle("right", 25, f),
        }[name]
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        if not name.startswith("brute_force_solutions"):
            restricted_universe(f, 25)
        gc.enable()
        gc.collect()  # empty the young generation, so no collection falls due on entry
        gc.callbacks.append(hook)
        try:
            call()
        finally:
            gc.callbacks.remove(hook)
        assert starts == []
