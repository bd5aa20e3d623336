"""`chaingroup rh`: ramified covering arithmetic and order bounds."""

from __future__ import annotations

from . import _answer, _fields, _ints, _verdict


def add_arguments(parser) -> None:
    ops = parser.add_subparsers(dest="op", required=True)
    q = ops.add_parser("check")
    q.add_argument("--chi", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--branch", default="")
    q.add_argument("--chiq", type=int, required=True)
    q = ops.add_parser("enum")
    q.add_argument("--chi", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--chiqs", required=True)
    q = ops.add_parser("bounds")
    q.add_argument("--genus", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q = ops.add_parser("audit5")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--d", type=int, required=True)


def run(args) -> int:
    from .. import riemann_hurwitz as rh

    if args.op == "check":
        branch = _ints(args.branch, "--branch")
        ok = rh.rh_check(rh.RamificationData(args.chi, args.m, branch, args.chiq))
        body = ["feasible" if ok else "infeasible"]
        return _verdict(ok, body, check="ramified-covering-equation", result=ok)
    if args.op == "enum":
        data = rh.rh_enumerate(args.chi, args.m, _ints(args.chiqs, "--chiqs"))
        body = [_fields(count=len(data)), *map(rh.format_rh, data)]
        return _answer(body, check="branch-data-enumeration", chi=args.chi, m=args.m)
    if args.op == "bounds":
        bounds = rh.order_bounds(args.genus, args.b)
        body = [f"finite_subgroup_max={bounds.finite_subgroup_max}",
                f"cyclic_max={bounds.cyclic_max}", f"genus1_max={bounds.genus1_max}"]
        return _answer(body, check="order-bounds", genus=args.genus, b=args.b)
    if args.op == "audit5":
        rep = rh.section5_audit(args.r, args.m, args.d)
        # the inequality verdicts print as True/False, unlike the trailer's booleans
        body = [f"ineq{i}_holds={holds}" for i, holds in
                ((6, rep.ineq6_holds), (7, rep.ineq7_holds), (8, rep.ineq8_holds))
                if holds is not None]
        body += [f"subgroup_card={rep.subgroup_card}",
                 _fields(kernel_lower_bound=rep.kernel_lower_bound, chi_bound=rep.chi_bound,
                         exceeds=rep.kernel_exceeds_bound)]
        return _answer(body, check="abelian-subgroup-contradictions", r=args.r, m=args.m,
                       d=args.d)
    raise AssertionError(args.op)
