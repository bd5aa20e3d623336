"""Command-line entry point: every module as a subcommand, text in and out.

One result per line, with a machine-parsable key=value trailer. Exit status:
0 when the requested check passes or the object is produced, 1 when a check
fails, 2 for usage or malformed input, 3 for unexpected internal errors.
CHAINGROUP_BUDGET (an integer) caps enumeration sizes for the permutation
and graph searches. Each handler imports the modules it runs, so start-up
loads this module alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

# Parse-time size caps, each exiting 2. Above them the answers outgrow
# memory or time: `braid garside --n 1000` prints 499 500 letters in about
# 0.25 s, and `hom cable --k 64` takes about 0.8 s.
BRAID_MAX_STRANDS = 1000
CABLE_MAX_WIDTH = 64
# `hom theorem4` checks n - 1 images of about n^2 |k| letters against every
# relation, so its cost grows as n^4 |k|: `--n 12 --k 12` takes 1.2-1.5 s.
THEOREM4_MAX_STRANDS = 12
THEOREM4_MAX_TWIST = 12
# `perm enum --n 2000 --k 6` counts in about 0.7 s; listing writes 46 MB.
PERM_MAX_STRANDS = 2000
# `ln snf` reads at most this many rows and columns: dense input of side
# 64 takes about 0.3 s, and cost grows faster than cubic above it.
SNF_MAX_SIDE = 64
# `homology rep --genus 64 --k 129` prints 4.2 MB in about 2-3 s.
HOMOLOGY_MAX_GENUS = 64
# `graph generate --m 100000` prints about 1 MB in about 0.4 s.
GRAPH_MAX_EDGES = 100_000


def _budget(default: int) -> int:
    raw = os.environ.get("CHAINGROUP_BUDGET")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"CHAINGROUP_BUDGET must be an integer, got {raw!r}")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _word(n: int, text: str) -> braids.BraidWord:
    from . import braids

    return braids.parse_letters(n, (int(t) for t in text.split()))


# ---------------------------------------------------------------- braid ----


def _cmd_braid(args) -> int:
    from . import braids, oracle

    if args.op == "garside":
        print(braids.format_braid(braids.garside(args.n)))
        print(f"check=half-twist-word n={args.n} length={args.n * (args.n - 1) // 2}")
        return 0
    if args.op == "delta":
        w = braids.flip_delta(args.n)
        print(braids.format_braid(w))
        print(f"check=index-shift-word n={args.n} exponent={braids.exponent(w)}")
        return 0
    if args.op == "gen":
        w = braids.generator(args.n, args.k)
        print(braids.format_braid(w))
        print(f"check=generator-normalization n={args.n} k={args.k}")
        return 0
    if args.op == "exp":
        w = _word(args.n, args.word)
        print(braids.exponent(w))
        print(f"check=sign-sum n={args.n}")
        return 0
    if args.op == "eq":
        u, v = _word(args.n, args.words[0]), _word(args.n, args.words[1])
        equal = oracle.are_equal(u, v)
        print("equal" if equal else "not-equal")
        print(f"check=word-equality n={args.n} result={str(equal).lower()}")
        return 0 if equal else 1
    if args.op == "central":
        w = _word(args.n, args.word)
        central = oracle.is_central(w)
        print("central" if central else "not-central")
        print(f"check=centrality n={args.n} result={str(central).lower()}")
        return 0 if central else 1
    raise AssertionError(args.op)


# ------------------------------------------------------------------ hom ----


def _cmd_hom(args) -> int:
    from . import homs, oracle

    if args.op == "verify":
        h = homs.parse_hom(_read_input(args.file))
        ok = oracle.verify_candidate_hom(h.n, {i + 1: w for i, w in enumerate(h.images)})
        print("homomorphism" if ok else "relation-failed")
        print(f"check=generator-relations n={h.n} m={h.m} result={str(ok).lower()}")
        return 0 if ok else 1
    if args.op == "theorem4":
        gamma = _word(args.n, args.gamma or "")
        h = homs.theorem4_endo(args.n, gamma, args.eps, args.k)
        print(homs.format_hom(h))
        print(f"check=conjugated-power-endomorphism n={args.n} eps={args.eps} k={args.k}")
        return 0
    if args.op == "cable":
        h = homs.cabling_b3(args.k)
        print(homs.format_hom(h))
        print(f"check=cable-half-twist k={args.k} target={3 * args.k}")
        return 0
    if args.op == "cyclic":
        h = homs.parse_hom(_read_input(args.file))
        homs.BraidHom.checked(h.n, h.m, h.images)
        cyc = homs.cyclic_test(h)
        print("cyclic" if cyc else "noncyclic")
        print(f"check=all-images-equal result={str(cyc).lower()}")
        return 0 if cyc else 1
    raise AssertionError(args.op)


# ------------------------------------------------------------- homology ----


def _parse_matrix_blocks(text: str) -> list:
    from . import homology

    blocks = [b for b in text.split("\n\n") if b.strip()]
    return [homology.parse_matrix(b) for b in blocks]


def _parse_elements(text: str) -> list[homology.CentralExtElement]:
    from . import homology

    out = []
    for block in (b for b in text.split("\n\n") if b.strip()):
        lines = [ln for ln in block.splitlines() if ln.strip()]
        twist: tuple[int, ...] = ()
        if lines and lines[-1].startswith("twist="):
            raw = lines.pop()[6:]
            twist = tuple(int(t) for t in raw.split(",")) if raw else ()
        mat = homology.parse_matrix("\n".join(lines))
        out.append(homology.CentralExtElement(mat, twist))
    return out


def _format_element(e: homology.CentralExtElement) -> str:
    from . import homology

    twist = ",".join(map(str, e.twist))
    return homology.format_matrix(e.mat) + f"\ntwist={twist}"


def _cmd_homology(args) -> int:
    from . import homology

    if args.op == "chain":
        lat = homology.standard_lattice(args.genus)
        chain = homology.build_chain(lat, args.k)
        print(homology.format_chain(chain))
        print(f"check=chain-intersection-pattern genus={args.genus} k={args.k}")
        return 0
    if args.op == "rep":
        lat = homology.standard_lattice(args.genus)
        chain = homology.build_chain(lat, args.k)
        ms = homology.monodromy_rep(lat, chain, args.eps)
        print("\n\n".join(homology.format_matrix(m) for m in ms))
        print(f"check=twist-relations genus={args.genus} k={args.k} eps={args.eps}")
        return 0
    if args.op == "square":
        lat = homology.standard_lattice(args.genus)
        chain = homology.build_chain(lat, args.k)
        sq = homology.chain_product_square(lat, chain)
        print(homology.format_matrix(sq))
        parity = "even" if args.k % 2 == 0 else "odd"
        print(f"check=chain-relation-square genus={args.genus} k={args.k} parity={parity}")
        return 0
    if args.op == "extract":
        ms = _parse_matrix_blocks(_read_input(args.file))
        if not ms or len(ms[0]) % 2 != 0:
            raise ValueError("need square matrices of even rank")
        lat = homology.standard_lattice(len(ms[0]) // 2)
        res = homology.extract_triple(lat, ms)
        if isinstance(res, homology.CyclicVerdict):
            print("cyclic")
            print("check=triple-recovery result=cyclic")
            return 0
        if isinstance(res, homology.NotRecognized):
            print("not-recognized")
            print("check=triple-recovery result=not-recognized")
            return 1
        print(homology.format_chain(list(res.chain)))
        print(f"eps={res.epsilon}")
        print(homology.format_matrix(res.direction))
        print("check=triple-recovery result=ok")
        return 0
    if args.op == "lift":
        elements = _parse_elements(_read_input(args.file))
        adjusted = homology.lift_adjust(elements)
        print("\n\n".join(_format_element(e) for e in adjusted))
        print(f"check=central-defect-correction count={len(adjusted)}")
        return 0
    raise AssertionError(args.op)


# ------------------------------------------------------------------- ln ----


def _cmd_ln(args) -> int:
    from . import finite

    if args.op == "validate":
        p = finite.LnParams(args.r, args.M, args.m, args.d, args.s)
        ok = finite.validate_params(p)
        print("valid" if ok else "invalid")
        print(f"check=divisibility-constraints result={str(ok).lower()}")
        return 0 if ok else 1
    if args.op == "card":
        p = finite.LnParams(args.r, args.M, args.m, args.d, args.s)
        inv = finite.ln_group(p)
        print(inv.cardinality())
        factors = ",".join(map(str, inv.factors))
        print(f"check=quotient-cardinality factors={factors}")
        return 0
    if args.op == "snf":
        lines = [ln.split() for ln in _read_input(args.file).splitlines() if ln.strip()]
        if len(lines) > SNF_MAX_SIDE or any(len(tokens) > SNF_MAX_SIDE for tokens in lines):
            raise ValueError(f"ln snf takes at most {SNF_MAX_SIDE} rows and columns")
        rows = [[int(t) for t in tokens] for tokens in lines]
        inv = finite.smith_normal_form(rows)
        print(f"factors={','.join(map(str, inv.factors))}")
        print(f"free_rank={inv.free_rank}")
        print("check=invariant-factors")
        return 0
    raise AssertionError(args.op)


# ----------------------------------------------------------------- perm ----


def _format_perm_images(rep: finite.PermRep) -> str:
    parts = []
    for g in rep.images:
        parts.append(" ".join(f"{i + 1}->{x + 1}" for i, x in enumerate(g)))
    return " ; ".join(parts)


def _cmd_perm(args) -> int:
    from . import finite

    budget = _budget(6)
    if args.summary and not args.dedup:
        count, cyclic = finite.count_perm_reps(args.n, args.k, budget=budget)
    else:
        reps = finite.enum_perm_reps(args.n, args.k, dedup_conjugacy=args.dedup, budget=budget)
        count, cyclic = len(reps), sum(1 for r in reps if r.is_cyclic())
    print(f"count={count} cyclic={cyclic} noncyclic={count - cyclic}")
    if not args.summary:
        for rep in reps:
            tag = "cyclic" if rep.is_cyclic() else "noncyclic"
            print(f"{tag} : {_format_perm_images(rep)}")
    print(f"check=relation-search n={args.n} k={args.k}")
    return 0


# ---------------------------------------------------------------- graph ----


def _format_class(cls: graphs.GraphClass) -> str:
    from . import graphs

    if isinstance(cls, graphs.TypeA):
        return f"type=A k={cls.k} p={cls.p} d={cls.d}"
    return f"type=B k={cls.k} l={cls.l} d={cls.d}"


def _cmd_graph(args) -> int:
    from . import graphs

    if args.op == "classify":
        g = graphs.parse_graph(_read_input(args.file))
        cls = graphs.classify(g)
        print(_format_class(cls))
        print(f"check=edge-transitive-classification m={g.num_edges}")
        return 0
    if args.op == "generate":
        if args.type == "A":
            if args.p is None:
                raise ValueError("type A needs --p")
            cls: graphs.GraphClass = graphs.TypeA(args.k, args.p, args.d)
        else:
            if args.l is None:
                raise ValueError("type B needs --l")
            cls = graphs.TypeB(args.k, args.l, args.d)
        g = graphs.generate(cls, args.m)
        print(graphs.format_graph(g))
        print(f"check=template-construction m={args.m}")
        return 0
    if args.op == "brute":
        budget = _budget(8)
        found = graphs.brute_enumerate(args.m, budget=budget)
        print(f"count={len(found)}")
        for g in found:
            print(_format_class(graphs.classify(g)))
        print(f"check=exhaustive-search m={args.m}")
        return 0
    if args.op == "audit":
        g = graphs.parse_graph(_read_input(args.file))
        rep = graphs.genus_audit(g, args.genus, args.b)
        print("feasible" if rep.feasible else "infeasible")
        print(
            f"curves={rep.num_curves} cycles={rep.independent_cycles}"
            f" low_degree={rep.low_degree_vertices} equality={str(rep.equality_case).lower()}"
        )
        print(f"check=curve-count-bounds genus={args.genus} b={args.b}")
        return 0 if rep.feasible else 1
    raise AssertionError(args.op)


# ------------------------------------------------------------------- rh ----


def _cmd_rh(args) -> int:
    from . import riemann_hurwitz as rh

    if args.op == "check":
        branch = tuple(int(t) for t in args.branch.split(",") if t) if args.branch else ()
        datum = rh.RamificationData(args.chi, args.m, branch, args.chiq)
        ok = rh.rh_check(datum)
        print("feasible" if ok else "infeasible")
        print(f"check=ramified-covering-equation result={str(ok).lower()}")
        return 0 if ok else 1
    if args.op == "enum":
        chis = [int(t) for t in args.chiqs.split(",") if t]
        data = rh.rh_enumerate(args.chi, args.m, chis)
        print(f"count={len(data)}")
        for d in data:
            print(rh.format_rh(d))
        print(f"check=branch-data-enumeration chi={args.chi} m={args.m}")
        return 0
    if args.op == "bounds":
        bounds = rh.order_bounds(args.genus, args.b)
        print(f"finite_subgroup_max={bounds.finite_subgroup_max}")
        print(f"cyclic_max={bounds.cyclic_max}")
        print(f"genus1_max={bounds.genus1_max}")
        print(f"check=order-bounds genus={args.genus} b={args.b}")
        return 0
    if args.op == "audit5":
        rep = rh.section5_audit(args.r, args.m, args.d)
        print(f"ineq6_holds={rep.ineq6_holds}")
        if rep.ineq7_holds is not None:
            print(f"ineq7_holds={rep.ineq7_holds}")
        if rep.ineq8_holds is not None:
            print(f"ineq8_holds={rep.ineq8_holds}")
        print(f"subgroup_card={rep.subgroup_card}")
        print(
            f"kernel_lower_bound={rep.kernel_lower_bound} chi_bound={rep.chi_bound}"
            f" exceeds={str(rep.kernel_exceeds_bound).lower()}"
        )
        print(f"check=abelian-subgroup-contradictions r={args.r} m={args.m} d={args.d}")
        return 0
    raise AssertionError(args.op)


# ---------------------------------------------------------------- suite ----


def _cmd_suite(args) -> int:
    from . import suites

    items = suites.SUITES[args.name](_budget(8))
    failed = 0
    for label, ok in items:
        if ok is None:
            print(f"[skip] {label}")
        elif ok:
            print(f"[pass] {label}")
        else:
            failed += 1
            print(f"[FAIL] {label}")
    print(f"suite={args.name} items={len(items)} failed={failed}")
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------- main ----


class _AtMost(argparse.Action):
    """Store an int option, refusing values above const as a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value > self.const:
            raise argparse.ArgumentError(self, f"at most {self.const} allowed, got {value}")
        setattr(namespace, self.dest, value)


class _AbsAtMost(_AtMost):
    """Store an int option, refusing values below -const or above const."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < -self.const:
            raise argparse.ArgumentError(self, f"at least {-self.const} allowed, got {value}")
        super().__call__(parser, namespace, value, option_string)


def _braid_ops(ops) -> None:
    for name in ("garside", "delta", "gen", "eq", "central", "exp"):
        q = ops.add_parser(name)
        q.add_argument("--n", type=int, required=True, action=_AtMost, const=BRAID_MAX_STRANDS)
        if name == "gen":
            q.add_argument("--k", type=int, required=True)
        elif name == "eq":
            q.add_argument("words", nargs=2)
        elif name in ("central", "exp"):
            q.add_argument("word")


def _hom_ops(ops) -> None:
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


def _homology_ops(ops) -> None:
    for name in ("chain", "rep", "square"):
        q = ops.add_parser(name)
        q.add_argument("--genus", type=int, required=True, action=_AtMost,
                       const=HOMOLOGY_MAX_GENUS)
        q.add_argument("--k", type=int, required=True)
        if name == "rep":
            q.add_argument("--eps", type=int, default=1)
    for name in ("extract", "lift"):
        q = ops.add_parser(name)
        q.add_argument("file")


def _ln_ops(ops) -> None:
    for name in ("validate", "card"):
        q = ops.add_parser(name)
        for flag in ("r", "M", "m", "d", "s"):
            q.add_argument(f"--{flag}", type=int, required=True)
    q = ops.add_parser("snf")
    q.add_argument("file")


def _perm_ops(ops) -> None:
    q = ops.add_parser("enum")
    q.add_argument("--n", type=int, required=True, action=_AtMost, const=PERM_MAX_STRANDS)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--dedup", action="store_true")
    q.add_argument("--summary", action="store_true")


def _graph_ops(ops) -> None:
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


def _rh_ops(ops) -> None:
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


# group -> (help, handler, builder of its operations); suite has no
# operations, only the suite name.
_GROUPS = {
    "braid": ("braid word constructions and oracle checks", _cmd_braid, _braid_ops),
    "hom": ("braid-to-braid homomorphisms", _cmd_hom, _hom_ops),
    "homology": ("lattice chains and transvection algebra", _cmd_homology, _homology_ops),
    "ln": ("finite abelian quotients", _cmd_ln, _ln_ops),
    "perm": ("permutation representation search", _cmd_perm, _perm_ops),
    "graph": ("edge-transitive cyclic graph actions", _cmd_graph, _graph_ops),
    "rh": ("ramified covering arithmetic and order bounds", _cmd_rh, _rh_ops),
    "suite": ("named verification bundles", _cmd_suite, None),
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """Every group, and the operations of the group that argv names.

    The group is argv's first token that is not an option. The other groups'
    operations are never built: only the chosen group is parsed, and the
    top-level help lists the groups alone.
    """
    parser = argparse.ArgumentParser(
        prog="chaingroup",
        description="exact braid, homology, quotient, graph, and covering checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = next((t for t in argv if not t.startswith("-")), None)
    for name, (help_text, func, add_ops) in _GROUPS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if name != chosen:
            continue
        if add_ops is None:
            # suites.SUITES's keys, in order, spelled out so that parsing imports no suite
            p.add_argument("name", choices=("identities", "table1", "graphs", "perm", "rh"))
        else:
            add_ops(p.add_subparsers(dest="op", required=True))
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
