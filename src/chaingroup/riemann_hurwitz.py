"""Ramified-covering arithmetic and order bounds for periodic mapping classes.

A finite group of order m acting on a surface of Euler characteristic chi
with ramification points Q_i of o_i preimages each satisfies
chi + sum(m - o_i) = m * chi_quotient, with every o_i a proper divisor of m.
Feasibility checks, branch-data enumeration, the classic order bounds
84(g-1) and 4g+2 with the genus-1 table, and the inequality audits used to
rule out periodic and pseudo-Anosov generator images are all exact integer
arithmetic.
"""

from __future__ import annotations

from typing import Sequence

from . import PRINT_MAX_BITS, Record


class RamificationData(Record):
    """Covering data (chi_total, m, branch preimage counts, chi_quotient)."""

    chi_total: int
    m: int
    branch: tuple[int, ...]
    chi_quotient: int

    def __post_init__(self):
        object.__setattr__(self, "branch", tuple(sorted(self.branch)))
        if self.m < 1:
            raise ValueError("group order must be positive")
        for o in self.branch:
            if o < 1 or o >= self.m or self.m % o != 0:
                raise ValueError(
                    f"each preimage count must be a proper divisor of {self.m}, got {o}"
                )


def rh_check(d: RamificationData) -> bool:
    """True iff chi + sum(m - o_i) = m * chi_quotient holds exactly."""
    return d.chi_total + sum(d.m - o for o in d.branch) == d.m * d.chi_quotient


# At this bound the longest listing, one target of 256 with m = 12, has 5242
# branch data (0.47 MB) and takes about 0.25 s; at 512 it has 71 322 and takes
# 5.5 s (subprocess, 2 x86_64 cores, Python 3.11).
RH_ENUM_MAX_TARGET = 256


def rh_enumerate(
    chi_total: int, m: int, quotient_chis: Sequence[int]
) -> list[RamificationData]:
    """All branch multisets solving the covering equation for an allowed
    quotient characteristic. Output sorted, each datum passing rh_check.

    Each quotient characteristic chi_q leaves a target m*chi_q - chi to
    split into deficits m - o. Inputs whose nonnegative targets sum to more
    than RH_ENUM_MAX_TARGET are refused before anything is listed, and only
    the deficits up to the largest target are formed, so the work is
    bounded for every m.
    """
    if m < 1:
        raise ValueError("group order must be positive")
    targets = {chi_q: m * chi_q - chi_total for chi_q in set(quotient_chis)}
    total = sum(t for t in targets.values() if t > 0)
    if total > RH_ENUM_MAX_TARGET:
        raise ValueError(
            f"targets m*chi_q - chi sum to {total}, more than the {RH_ENUM_MAX_TARGET} allowed"
        )
    top = max(targets.values(), default=0)
    deficits = sorted({m - o for o in range(max(1, m - top), m) if m % o == 0})
    out = []
    for chi_q in sorted(targets):
        target = targets[chi_q]
        if target < 0:
            continue
        if target == 0:
            out.append(RamificationData(chi_total, m, (), chi_q))
            continue
        if not deficits:
            continue
        stack = [(target, 0, ())]
        while stack:
            remaining, start, acc = stack.pop()
            for idx in range(start, len(deficits)):
                val = deficits[idx]
                if val > remaining:
                    break
                if val == remaining:
                    branch = tuple(m - v for v in acc + (val,))
                    out.append(RamificationData(chi_total, m, branch, chi_q))
                else:
                    stack.append((remaining - val, idx, acc + (val,)))
    out.sort(key=lambda d: (d.chi_quotient, len(d.branch), d.branch))
    for d in out:
        if not rh_check(d):
            raise RuntimeError(f"enumerated branch data {d} fails the Riemann-Hurwitz equation")
    return out


class OrderBounds(Record):
    """Maximal orders of finite subgroups and periodic classes, when defined."""

    finite_subgroup_max: int | None
    cyclic_max: int | None
    genus1_max: int | None


def order_bounds(g: int, b: int) -> OrderBounds:
    """84(g-1) for closed genus >= 2, 4g+2 for closed cyclic, and the genus-1
    table: order <= 6 for b <= 2, otherwise the largest m <= 1 + 2/(b-2)."""
    if g < 0 or b < 0:
        raise ValueError("genus and boundary count must be nonnegative")
    finite_max = 84 * (g - 1) if g >= 2 and b == 0 else None
    cyclic_max = 4 * g + 2 if b == 0 and g >= 1 else None
    genus1_max = None
    if g == 1:
        if b <= 2:
            genus1_max = 6
        else:
            genus1_max = 1 + 2 // (b - 2)
    return OrderBounds(finite_max, cyclic_max, genus1_max)


def inequality6_holds(r: int, m: int, d: int) -> bool:
    """d * m^(r-1) <= 2m + 4r (fails throughout the relevant range)."""
    return d * m ** (r - 1) <= 2 * m + 4 * r


def inequality7_holds(r: int) -> bool:
    """3^r <= 6 + 4r (false for all r >= 3)."""
    return 3**r <= 6 + 4 * r


def inequality8_holds(r: int) -> bool:
    """2 * 4^(r-2) <= 2 + r (false for all r >= 3)."""
    return 2 * 4 ** (r - 2) <= 2 + r


def inequality10_holds(g: int) -> bool:
    """g >= 1 + 2^g (false for every nonnegative g)."""
    return g >= 1 + 2**g


class Section5Report(Record):
    """Exact evaluations of the abelian-subgroup size contradictions.

    subgroup_card is d * m^(r-2), the order of the difference subgroup on
    r-1 generators; the kernel bound multiplies it by 3 before comparing
    against 6 * (2r - 2), an upper bound for 6|chi|.
    """

    r: int
    m: int
    d: int
    ineq6_holds: bool
    ineq7_holds: bool | None
    ineq8_holds: bool | None
    subgroup_card: int
    kernel_lower_bound: int
    chi_bound: int
    kernel_exceeds_bound: bool


def section5_audit(r: int, m: int, d: int) -> Section5Report:
    """Evaluate the periodic and pseudo-Anosov contradiction inequalities.

    Refuses, before any power is computed, inputs whose report would hold a
    number of more than PRINT_MAX_BITS bits. As m <= 2^bitlen(m - 1), the
    kernel bound 3*d*m^(r-2) has at most bitlen(3d) + (r-2)*bitlen(m - 1)
    bits.
    """
    if r < 3 or m < 1 or d < 1:
        raise ValueError("need r >= 3 and positive m, d")
    if m % d != 0:
        raise ValueError("d must divide m")
    bits = max((3 * d).bit_length() + (r - 2) * (m - 1).bit_length(), (12 * r).bit_length())
    if bits > PRINT_MAX_BITS:
        raise ValueError(f"report numbers would exceed {PRINT_MAX_BITS} bits")
    card = d * m ** (r - 2)
    kernel = 3 * card
    chi_bound = 6 * (2 * r - 2)
    return Section5Report(
        r=r,
        m=m,
        d=d,
        ineq6_holds=inequality6_holds(r, m, d),
        ineq7_holds=inequality7_holds(r) if m == 3 else None,
        ineq8_holds=inequality8_holds(r) if m >= 4 else None,
        subgroup_card=card,
        kernel_lower_bound=kernel,
        chi_bound=chi_bound,
        kernel_exceeds_bound=kernel > chi_bound,
    )


def format_rh(d: RamificationData) -> str:
    branch = ",".join(map(str, d.branch))
    return f"chi={d.chi_total} m={d.m} branch={branch} chiq={d.chi_quotient}"
