"""`chaingroup ln`: finite abelian quotients and Smith normal forms."""

from __future__ import annotations

from . import _answer, _fields, _read_input, _verdict
from .. import PRINT_MAX_BITS, parse_ints

# `ln snf` reads at most this many rows and columns: dense input of side
# 64 takes about 0.2 s (subprocess, 2 x86_64 cores, Python 3.11), and cost
# grows faster than cubic above it.
SNF_MAX_SIDE = 64


def add_arguments(parser) -> None:
    ops = parser.add_subparsers(dest="op", required=True)
    for name in ("validate", "card"):
        q = ops.add_parser(name)
        for flag in ("r", "M", "m", "d", "s"):
            q.add_argument(f"--{flag}", type=int, required=True)
    q = ops.add_parser("snf")
    q.add_argument("file")


def run(args) -> int:
    from .. import finite

    if args.op == "snf":
        lines = [ln.split() for ln in _read_input(args.file).splitlines() if ln.strip()]
        if len(lines) > SNF_MAX_SIDE or any(len(tokens) > SNF_MAX_SIDE for tokens in lines):
            raise ValueError(f"ln snf takes at most {SNF_MAX_SIDE} rows and columns")
        inv = finite.smith_normal_form([parse_ints(tokens, f"row {i}")
                                        for i, tokens in enumerate(lines, 1)])
        if max(inv.factors, default=0).bit_length() > PRINT_MAX_BITS:
            raise ValueError(f"invariant factors exceed {PRINT_MAX_BITS} bits")
        body = [_fields(factors=inv.factors), _fields(free_rank=inv.free_rank)]
        return _answer(body, check="invariant-factors")
    p = finite.LnParams(args.r, args.M, args.m, args.d, args.s)
    if args.op == "validate":
        ok = finite.validate_params(p)
        body = ["valid" if ok else "invalid"]
        return _verdict(ok, body, check="divisibility-constraints", result=ok)
    if args.op == "card":
        inv = finite.ln_group(p)
        return _answer([inv.cardinality()], check="quotient-cardinality", factors=inv.factors)
    raise AssertionError(args.op)
