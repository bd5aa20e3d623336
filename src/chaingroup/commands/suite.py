"""`chaingroup suite`: the named verification bundles of chaingroup.suites."""

from __future__ import annotations

from . import _budget, _verdict


def add_arguments(parser) -> None:
    # suites.SUITES's keys, in order, spelled out so that parsing imports no suite
    parser.add_argument("name", choices=("identities", "table1", "graphs", "perm", "rh"))


def run(args) -> int:
    from .. import suites

    items = suites.SUITES[args.name](_budget(8))
    failed = sum(ok is not None and not ok for _, ok in items)
    body = (f"[{'skip' if ok is None else 'pass' if ok else 'FAIL'}] {label}"
            for label, ok in items)
    return _verdict(failed == 0, body, suite=args.name, items=len(items), failed=failed)
