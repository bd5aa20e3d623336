"""`chaingroup hom`: braid-to-braid homomorphisms, built and checked."""

from __future__ import annotations

from . import _AbsAtMost, _answer, _AtMost, _read_input, _verdict, _word

# `hom cable --k 64` takes about 0.4 s (subprocess, 2 x86_64 cores, Python 3.11).
CABLE_MAX_WIDTH = 64
# `hom theorem4` checks n - 1 images of about n^2 |k| letters against every
# relation, so its cost grows as n^4 |k|: `--n 12 --gamma 1 --k 12` takes about 0.6 s.
THEOREM4_MAX_STRANDS = 12
THEOREM4_MAX_TWIST = 12


def add_arguments(parser) -> None:
    ops = parser.add_subparsers(dest="op", required=True)
    q = ops.add_parser("verify")
    q.add_argument("file")
    q = ops.add_parser("theorem4")
    q.add_argument("--n", type=int, required=True, action=_AtMost, const=THEOREM4_MAX_STRANDS)
    q.add_argument("--gamma", default="")
    q.add_argument("--eps", type=int, default=1)
    q.add_argument("--k", type=int, default=0, action=_AbsAtMost, const=THEOREM4_MAX_TWIST)
    q = ops.add_parser("cable")
    q.add_argument("--k", type=int, required=True, action=_AtMost, const=CABLE_MAX_WIDTH)
    q = ops.add_parser("cyclic")
    q.add_argument("file")


def run(args) -> int:
    from .. import homs, oracle

    if args.op == "verify":
        h = homs.parse_hom(_read_input(args.file))
        ok = oracle.verify_candidate_hom(h.n, {i + 1: w for i, w in enumerate(h.images)})
        body = ["homomorphism" if ok else "relation-failed"]
        return _verdict(ok, body, check="generator-relations", n=h.n, m=h.m, result=ok)
    if args.op == "theorem4":
        h = homs.theorem4_endo(args.n, _word(args.n, args.gamma, "--gamma"), args.eps, args.k)
        return _answer([homs.format_hom(h)], check="conjugated-power-endomorphism", n=args.n,
                       eps=args.eps, k=args.k)
    if args.op == "cable":
        body = [homs.format_hom(homs.cabling_b3(args.k))]
        return _answer(body, check="cable-half-twist", k=args.k, target=3 * args.k)
    if args.op == "cyclic":
        h = homs.parse_hom(_read_input(args.file))
        homs.BraidHom.checked(h.n, h.m, h.images)
        ok = homs.cyclic_test(h)
        return _verdict(ok, ["cyclic" if ok else "noncyclic"], check="all-images-equal", result=ok)
    raise AssertionError(args.op)
