"""The named verification suites, shared by `chaingroup suite` and the tests.

Each suite takes the enumeration budget and returns (label, verdict) items;
a verdict of None marks an item skipped because the budget is too small.
SUITES maps the suite names, in CLI order, to these functions. Each suite
imports the modules it runs, so loading this module loads no other.
"""

from __future__ import annotations

import random
from typing import Callable

Items = list[tuple[str, bool | None]]


def suite_identities(budget: int) -> Items:
    """Index-shift and half-twist conjugations, and the center, for n = 3..8."""
    from . import braids, oracle
    from .braids import BraidWord

    items: Items = []
    for n in range(3, 9):
        delta, half = braids.flip_delta(n), braids.garside(n)
        ok = all(
            oracle.are_equal(
                delta * braids.generator(n, i) * delta.inverse(), braids.generator(n, i + 1)
            )
            for i in range(n)
        )
        items.append((f"index-shift-conjugation n={n}", ok))
        ok = all(
            oracle.are_equal(half * BraidWord(n, (i,)) * half.inverse(), BraidWord(n, (n - i,)))
            for i in range(1, n)
        )
        items.append((f"half-twist-reversal n={n}", ok))
        items.append((f"center-generator n={n}", oracle.are_equal(delta**n, half**2)))
        # against each generator in turn, since oracle.is_central assumes it
        center = half**2
        ok = all(
            oracle.are_equal(center * BraidWord(n, (i,)), BraidWord(n, (i,)) * center)
            for i in range(1, n)
        )
        items.append((f"center-commutes n={n}", ok))
    return items


# Table 1 rows: ambient rank r, p = M = m, d, and the difference-subgroup order.
TABLE1 = [
    (3, 3, 3, 9),
    (3, 4, 4, 16),
    (3, 5, 5, 25),
    (4, 3, 3, 27),
    (4, 4, 2, 32),
    (4, 4, 4, 64),
    (4, 5, 5, 125),
]


def random_quotients_ok(seed: int) -> bool:
    """Fifty random valid quotient parameters all have order q * d * m^(r-1)."""
    from . import finite

    rng = random.Random(seed)
    done = 0
    all_ok = True
    while done < 50:
        r = rng.choice([3, 4, 5])
        m = rng.randint(1, 6)
        q = rng.randint(1, 3)
        d = rng.choice([dd for dd in range(1, m + 1) if m % dd == 0])
        s = m * rng.randint(0, 4)
        params = finite.LnParams(r, q * m, m, d, s)
        if not finite.validate_params(params):
            continue
        all_ok &= finite.ln_group(params).cardinality() == q * d * m ** (r - 1)
        done += 1
    return all_ok


def suite_table1(budget: int) -> Items:
    from . import finite

    items: Items = []
    for r_amb, p, d, expected in TABLE1:
        params = finite.LnParams(r_amb - 1, p, p, d, 0)
        ok = (
            finite.validate_params(params)
            and finite.ln_group(params).cardinality() == expected == d * p ** (r_amb - 2)
        )
        items.append((f"difference-subgroup-order r={r_amb} p={p} d={d} -> {expected}", ok))
    items.append(("random-quotients-match-cardinality-law x50", random_quotients_ok(20260808)))
    return items


def suite_graphs(budget: int) -> Items:
    """Edge-transitive graph actions; coverage items with more edges than budget skip."""
    from . import graphs

    items: Items = []
    for m in range(1, 9):
        if m > budget:
            items.append((f"bidirectional-coverage m={m} (skipped, budget={budget})", None))
            continue
        brute = graphs.brute_enumerate(m, budget=budget)
        classes = graphs.all_classes(m)
        keys_brute = {graphs.canonical_key(g) for g in brute}
        keys_gen = {graphs.canonical_key(graphs.generate(c, m)) for c in classes}
        ok = keys_brute == keys_gen and {graphs.classify(g) for g in brute} == set(classes)
        items.append((f"bidirectional-coverage m={m}", ok))
    for label, cls in (
        ("loop-rose-classification", graphs.TypeA(1, 1, 12)),
        ("two-orbit-bundles-classification", graphs.TypeB(1, 2, 6)),
        ("bipartite-3-4-classification", graphs.TypeB(1, 3, 4)),
    ):
        items.append((label, graphs.classify(graphs.generate(cls, 12)) == cls))
    special = graphs.generate(graphs.TypeB(3, 4, 1), 12)
    items.append(("equality-case-closed-genus-6", graphs.genus_audit(special, 6, 0).feasible))
    rejected = all(not graphs.genus_audit(special, 6, b).feasible for b in (1, 2, 3))
    items.append(("equality-case-rejected-with-boundary", rejected))
    return items


def all_cyclic(reps: list[finite.PermRep]) -> bool:
    return all(r.is_cyclic() for r in reps)


def first_equals_third(reps: list[finite.PermRep]) -> bool:
    return bool(reps) and all(r.images[0] == r.images[2] for r in reps)


def noncyclic_exists(reps: list[finite.PermRep]) -> bool:
    return any(not r.is_cyclic() for r in reps)


def suite_perm(budget: int) -> Items:
    """Braid-relation permutation tuples; symbol counts above the budget skip.

    Every tuple is conjugate to one whose first image is the least
    permutation of its cycle type, and each predicate is invariant under
    simultaneous conjugation, so it is evaluated on those tuples alone.
    """
    from . import finite

    cases = [(5, k, all_cyclic, f"n=5 k={k} all-cyclic") for k in range(1, 5)]
    cases += [(6, k, all_cyclic, f"n=6 k={k} all-cyclic") for k in range(1, 6)]
    cases += [
        (4, 3, first_equals_third, "n=4 k=3 first-equals-third"),
        (6, 6, noncyclic_exists, "n=6 k=6 noncyclic-exists"),
    ]
    items: Items = []
    for n, k, pred, label in cases:
        if k > budget:
            items.append((f"{label} (skipped, budget={budget})", None))
        else:
            classes = finite.perm_rep_classes(n, k, budget=budget)
            items.append((label, pred([rep for _, reps in classes for rep in reps])))
    return items


def suite_rh(budget: int) -> Items:
    from . import riemann_hurwitz as rh

    infeasible = all(
        not rh.rh_check(rh.RamificationData(-4, 8, (4,), chi_q)) for chi_q in (1, -1, -3)
    )
    ob = rh.order_bounds(2, 0)
    bounds = {g: rh.order_bounds(g, 0) for g in range(2, 10)}
    scale = all(
        (b.finite_subgroup_max, b.cyclic_max) == (84 * (g - 1), 4 * g + 2)
        for g, b in bounds.items()
    )
    g1 = [rh.order_bounds(1, b).genus1_max for b in (0, 1, 2, 3, 4, 5, 6)]
    return [
        ("order-8-single-branch-point-infeasible", infeasible),
        ("closed-genus-2-bounds", (ob.finite_subgroup_max, ob.cyclic_max) == (84, 10)),
        ("genus-bounds-scale", scale),
        ("genus-1-order-table", g1 == [6, 6, 6, 3, 2, 1, 1]),
        ("power-growth-r", all(not rh.inequality7_holds(r) for r in range(3, 11))),
        ("power-growth-r-large-m", all(not rh.inequality8_holds(r) for r in range(3, 11))),
        ("exponential-genus-growth", all(not rh.inequality10_holds(g) for g in range(31))),
    ]


SUITES: dict[str, Callable[[int], Items]] = {
    "identities": suite_identities,
    "table1": suite_table1,
    "graphs": suite_graphs,
    "perm": suite_perm,
    "rh": suite_rh,
}
