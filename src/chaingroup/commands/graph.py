"""`chaingroup graph`: edge-transitive cyclic graph actions."""

from __future__ import annotations

from . import _answer, _AtMost, _budget, _fields, _read_input, _verdict

# `graph generate --m 100000` prints about 1 MB in about 0.3 s (subprocess,
# 2 x86_64 cores, Python 3.11).
GRAPH_MAX_EDGES = 100_000


def add_arguments(parser) -> None:
    ops = parser.add_subparsers(dest="op", required=True)
    q = ops.add_parser("classify")
    q.add_argument("file")
    q = ops.add_parser("generate")
    q.add_argument("--type", choices=("A", "B"), required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--p", type=int)
    q.add_argument("--l", type=int)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--m", type=int, required=True, action=_AtMost, const=GRAPH_MAX_EDGES)
    q = ops.add_parser("brute")
    q.add_argument("--m", type=int, required=True)
    q = ops.add_parser("audit")
    q.add_argument("file")
    q.add_argument("--genus", type=int, required=True)
    q.add_argument("--b", type=int, required=True)


def _format_class(cls: graphs.GraphClass) -> str:
    from .. import graphs

    if isinstance(cls, graphs.TypeA):
        return f"type=A k={cls.k} p={cls.p} d={cls.d}"
    return f"type=B k={cls.k} l={cls.l} d={cls.d}"


def run(args) -> int:
    from .. import graphs

    if args.op == "classify":
        g = graphs.parse_graph(_read_input(args.file))
        return _answer([_format_class(graphs.classify(g))],
                       check="edge-transitive-classification", m=g.num_edges)
    if args.op == "generate":
        kind, flag, step = {"A": (graphs.TypeA, "p", args.p),
                            "B": (graphs.TypeB, "l", args.l)}[args.type]
        if step is None:
            raise ValueError(f"type {args.type} needs --{flag}")
        body = [graphs.format_graph(graphs.generate(kind(args.k, step, args.d), args.m))]
        return _answer(body, check="template-construction", m=args.m)
    if args.op == "brute":
        found = graphs.brute_enumerate(args.m, budget=_budget(graphs.BRUTE_BUDGET))
        body = [_fields(count=len(found)), *(_format_class(graphs.classify(g)) for g in found)]
        return _answer(body, check="exhaustive-search", m=args.m)
    if args.op == "audit":
        g = graphs.parse_graph(_read_input(args.file))
        rep = graphs.genus_audit(g, args.genus, args.b)
        body = ["feasible" if rep.feasible else "infeasible",
                _fields(curves=rep.num_curves, cycles=rep.independent_cycles,
                        low_degree=rep.low_degree_vertices, equality=rep.equality_case)]
        return _verdict(rep.feasible, body, check="curve-count-bounds", genus=args.genus, b=args.b)
    raise AssertionError(args.op)
