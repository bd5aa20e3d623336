import itertools

import pytest

from chaingroup.riemann_hurwitz import (
    OrderBounds,
    RamificationData,
    format_rh,
    inequality6_holds,
    inequality7_holds,
    inequality8_holds,
    inequality10_holds,
    order_bounds,
    rh_check,
    rh_enumerate,
    section5_audit,
)


class TestRhCheck:
    def test_free_action(self):
        assert rh_check(RamificationData(-4, 2, (), -2))

    def test_six_branch_points_order_two(self):
        assert rh_check(RamificationData(-2, 2, (1,) * 6, 2))

    @pytest.mark.parametrize("chi_q", [1, -1, -3])
    def test_order_eight_single_point_infeasible(self, chi_q):
        assert not rh_check(RamificationData(-4, 8, (4,), chi_q))

    def test_branch_validation(self):
        with pytest.raises(ValueError):
            RamificationData(-4, 8, (3,), 1)
        with pytest.raises(ValueError):
            RamificationData(-4, 8, (8,), 1)


class TestRhEnumerate:
    def test_order_one_forces_equality(self):
        data = rh_enumerate(-4, 1, [-4])
        assert data == [RamificationData(-4, 1, (), -4)]
        assert rh_enumerate(-4, 1, [-2]) == []

    def test_hyperelliptic_datum(self):
        data = rh_enumerate(-2, 2, [2])
        assert data == [RamificationData(-2, 2, (1,) * 6, 2)]

    def test_order_eight_solutions(self):
        data = rh_enumerate(-4, 8, [1, -1, -3])
        branches = {d.branch for d in data}
        assert branches == {(2, 2), (4, 4, 4)}
        assert all(d.chi_quotient == 1 for d in data)
        assert (4,) not in branches

    def test_against_exhaustive_scan(self):
        chi, m, chis = -6, 4, [-1, 0, 1]
        expected = set()
        divisors = [o for o in range(1, m) if m % o == 0]
        for chi_q in chis:
            for length in range(0, 12):
                for combo in itertools.combinations_with_replacement(divisors, length):
                    if chi + sum(m - o for o in combo) == m * chi_q:
                        expected.add((tuple(sorted(combo)), chi_q))
        got = {(d.branch, d.chi_quotient) for d in rh_enumerate(chi, m, chis)}
        assert got == expected
        for d in rh_enumerate(chi, m, chis):
            assert rh_check(d)

    def test_against_exhaustive_scan_for_small_orders(self):
        """The sizes the CLI workloads draw: m 1-12, chi -8..-2, chi_q -2..1."""
        chis = [-2, -1, 0, 1]
        for m in range(1, 13):
            divisors = [o for o in range(1, m) if m % o == 0]
            for chi in range(-8, -1):
                expected = set()
                for chi_q in chis:
                    target = m * chi_q - chi
                    for length in range(0, target + 1 if divisors else 1):
                        for combo in itertools.combinations_with_replacement(divisors, length):
                            if chi + sum(m - o for o in combo) == m * chi_q:
                                expected.add((combo, chi_q))
                got = {(d.branch, d.chi_quotient) for d in rh_enumerate(chi, m, chis)}
                assert got == expected, (chi, m)

    def test_deficits_up_to_the_largest_target(self):
        """Only deficits m - o up to the largest target m*chi_q - chi are
        formed; a deficit equal to it still counts."""
        assert rh_enumerate(-6, 10**6, [0, -1]) == []
        assert rh_enumerate(-2, 4, [0]) == [RamificationData(-2, 4, (2,), 0)]
        assert rh_enumerate(-100, 200, [-1, 0]) == [RamificationData(-100, 200, (100,), 0)]

    def test_targets_are_bounded_by_their_sum(self):
        """Targets 128 and 256 are each admitted, and refused together."""
        assert len(rh_enumerate(-128, 2, [0])) == len(rh_enumerate(-128, 2, [64])) == 1
        with pytest.raises(ValueError, match="sum to 384, more than the 256 allowed"):
            rh_enumerate(-128, 2, [0, 64])


class TestOrderBounds:
    def test_closed_genus_two(self):
        assert order_bounds(2, 0) == OrderBounds(84, 10, None)

    def test_closed_genus_three(self):
        assert order_bounds(3, 0).finite_subgroup_max == 168

    def test_genus_one_table(self):
        values = [order_bounds(1, b).genus1_max for b in range(0, 7)]
        assert values == [6, 6, 6, 3, 2, 1, 1]

    def test_cyclic_below_full_bound(self):
        for g in range(2, 12):
            ob = order_bounds(g, 0)
            assert ob.cyclic_max <= ob.finite_subgroup_max

    def test_domain(self):
        with pytest.raises(ValueError):
            order_bounds(-1, 0)


class TestSectionFiveAudit:
    def test_small_periodic_case_fails_growth(self):
        rep = section5_audit(3, 3, 3)
        assert rep.ineq7_holds is False
        assert rep.ineq6_holds is False

    def test_m_four_case(self):
        rep = section5_audit(3, 4, 2)
        assert rep.ineq8_holds is False

    def test_inequality_sweeps(self):
        assert all(not inequality7_holds(r) for r in range(3, 11))
        assert all(not inequality8_holds(r) for r in range(3, 11))
        assert all(not inequality10_holds(g) for g in range(0, 31))
        assert not inequality6_holds(3, 3, 3)

    @pytest.mark.parametrize(
        "r,p,d,value",
        [(3, 3, 3, 9), (3, 4, 4, 16), (3, 5, 5, 25), (4, 3, 3, 27), (4, 4, 2, 32), (4, 4, 4, 64), (4, 5, 5, 125)],
    )
    def test_subgroup_orders_exceed_kernel_bound(self, r, p, d, value):
        rep = section5_audit(r, p, d)
        assert rep.subgroup_card == value
        assert rep.kernel_lower_bound == 3 * value
        assert rep.kernel_exceeds_bound

    def test_d_divides_m(self):
        with pytest.raises(ValueError):
            section5_audit(3, 4, 3)

    @pytest.mark.parametrize(
        "r, m, d",
        [(4668, 6, 3), (3502, 9, 3), (10**8, 6, 3), (3, 2**7000, 2**7000), (10**4300, 1, 1)],
        ids=["r4668-m6", "r3502-m9", "r1e8-m6", "r3-m2e7000", "r1e4300-m1"],
    )
    def test_report_numbers_bounded(self, r, m, d):
        with pytest.raises(ValueError, match="bits"):
            section5_audit(r, m, d)

    def test_unit_m_admits_any_r(self):
        rep = section5_audit(10**8, 1, 1)
        assert rep.subgroup_card == 1 and rep.chi_bound == 12 * 10**8 - 12


class TestTextFormat:
    def test_round_trip(self):
        d = RamificationData(-2, 2, (1, 1, 1, 1, 1, 1), 2)
        fields = dict(tok.split("=", 1) for tok in format_rh(d).split())
        branch = tuple(int(t) for t in fields["branch"].split(",") if t)
        chi, m, chiq = (int(fields[k]) for k in ("chi", "m", "chiq"))
        assert RamificationData(chi, m, branch, chiq) == d

    def test_empty_branch(self):
        assert format_rh(RamificationData(-4, 2, (), -2)) == "chi=-4 m=2 branch= chiq=-2"
