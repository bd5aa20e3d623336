"""`chaingroup perm`: the permutation representation search."""

from __future__ import annotations

import itertools

from . import _answer, _AtMost, _budget, _fields

# `perm enum --n 2000 --k 6 --summary` counts in about 0.15 s, and the listing
# writes 46 MB in about 4 s (subprocess, 2 x86_64 cores, Python 3.11).
PERM_MAX_STRANDS = 2000


def add_arguments(parser) -> None:
    ops = parser.add_subparsers(dest="op", required=True)
    q = ops.add_parser("enum")
    q.add_argument("--n", type=int, required=True, action=_AtMost, const=PERM_MAX_STRANDS)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--dedup", action="store_true")
    q.add_argument("--summary", action="store_true")


def _format_perm_images(rep: finite.PermRep) -> str:
    return " ; ".join(" ".join(f"{i + 1}->{x + 1}" for i, x in enumerate(g)) for g in rep.images)


def run(args) -> int:
    from .. import finite

    budget = _budget(finite.PERM_SEARCH_BUDGET)
    if args.summary and not args.dedup:
        count, cyclic = finite.count_perm_reps(args.n, args.k, budget=budget)
    else:
        reps = finite.enum_perm_reps(args.n, args.k, dedup_conjugacy=args.dedup, budget=budget)
        count, cyclic = len(reps), sum(1 for r in reps if r.is_cyclic())
    body = [_fields(count=count, cyclic=cyclic, noncyclic=count - cyclic)]
    if not args.summary:
        body = itertools.chain(body, (
            f"{'cyclic' if r.is_cyclic() else 'noncyclic'} : {_format_perm_images(r)}"
            for r in reps))
    return _answer(body, check="relation-search", n=args.n, k=args.k)
