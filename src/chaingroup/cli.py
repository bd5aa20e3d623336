"""Command-line entry point: every module as a subcommand, text in and out.

One result per line, with a machine-parsable key=value trailer. Exit status:
0 when the requested check passes or the object is produced, 1 when a check
fails, 2 for usage or malformed input, 3 for unexpected internal errors.
Every answer, its trailer and its exit code go out through _answer.
CHAINGROUP_BUDGET (an integer) caps enumeration sizes for the permutation
and graph searches. Each handler imports the modules it runs, so start-up
loads this module alone.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from collections.abc import Iterable, Sequence

from . import parse_int, parse_ints

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


def _answer(lines: Iterable, code: int = 0, **trailer) -> int:
    """Print the body lines as they come, then the trailer; return the exit code.

    The only writer of answers: lines may be a generator, so long listings
    stream, and the trailer fields print in the order given.
    """
    for line in lines:
        print(line)
    print(_fields(**trailer))
    return code


def _verdict(ok: bool, lines: Iterable, **trailer) -> int:
    """The answer to a check: exit code 0 when it holds, 1 when it fails."""
    return _answer(lines, 0 if ok else 1, **trailer)


def _fields(**fields) -> str:
    """key=value pairs: booleans as true/false, tuples as comma lists."""
    out = []
    for key, value in fields.items():
        if isinstance(value, tuple):
            value = ",".join(map(str, value))
        out.append(f"{key}={str(value).lower() if isinstance(value, bool) else value}")
    return " ".join(out)


def _ints(text: str, source: str) -> tuple[int, ...]:
    """A comma-separated list of integers. Empty text is the empty list; an
    empty field, as in 4,,4, raises ValueError."""
    return parse_ints(text.split(","), source) if text else ()


def _blocks(text: str) -> list[str]:
    """The blank-line-separated blocks of text, empty ones skipped."""
    return [b for b in text.split("\n\n") if b.strip()]


def _budget(default: int) -> int:
    raw = os.environ.get("CHAINGROUP_BUDGET")
    return default if raw is None else parse_int(raw, "CHAINGROUP_BUDGET")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _word(n: int, text: str, source: str) -> braids.BraidWord:
    from . import braids

    return braids.parse_letters(n, parse_ints(text.split(), source))


# ---------------------------------------------------------------- braid ----


def _cmd_braid(args) -> int:
    from . import braids, oracle

    n = args.n
    if args.op == "garside":
        body = [braids.format_braid(braids.garside(n))]
        return _answer(body, check="half-twist-word", n=n, length=n * (n - 1) // 2)
    if args.op == "delta":
        w = braids.flip_delta(n)
        body = [braids.format_braid(w)]
        return _answer(body, check="index-shift-word", n=n, exponent=braids.exponent(w))
    if args.op == "gen":
        body = [braids.format_braid(braids.generator(n, args.k))]
        return _answer(body, check="generator-normalization", n=n, k=args.k)
    if args.op == "exp":
        return _answer([braids.exponent(_word(n, args.word, "word"))], check="sign-sum", n=n)
    if args.op == "eq":
        u, v = (_word(n, text, f"word {k}") for k, text in enumerate(args.words, 1))
        ok = oracle.are_equal(u, v)
        body = ["equal" if ok else "not-equal"]
        return _verdict(ok, body, check="word-equality", n=n, result=ok)
    if args.op == "central":
        ok = oracle.is_central(_word(n, args.word, "word"))
        body = ["central" if ok else "not-central"]
        return _verdict(ok, body, check="centrality", n=n, result=ok)
    raise AssertionError(args.op)


# ------------------------------------------------------------------ hom ----


def _cmd_hom(args) -> int:
    from . import homs, oracle

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


# ------------------------------------------------------------- homology ----


def _parse_elements(text: str) -> list[homology.CentralExtElement]:
    from . import homology

    out = []
    for block in _blocks(text):
        lines = [ln for ln in block.splitlines() if ln.strip()]
        has_twist = lines and lines[-1].startswith("twist=")
        twist = _ints(lines.pop()[6:], "twist") if has_twist else ()
        out.append(homology.CentralExtElement(homology.parse_matrix("\n".join(lines)), twist))
    return out


def _format_element(e: homology.CentralExtElement) -> str:
    from . import homology

    return homology.format_matrix(e.mat) + "\n" + _fields(twist=e.twist)


def _cmd_homology(args) -> int:
    from . import homology

    if args.op == "extract":
        ms = [homology.parse_matrix(b) for b in _blocks(_read_input(args.file))]
        if not ms or len(ms[0]) % 2 != 0:
            raise ValueError("need square matrices of even rank")
        res = homology.extract_triple(homology.standard_lattice(len(ms[0]) // 2), ms)
        if isinstance(res, homology.TransvectionTriple):
            body = [homology.format_chain(list(res.chain)), f"eps={res.epsilon}",
                    homology.format_matrix(res.direction)]
            return _answer(body, check="triple-recovery", result="ok")
        word = "cyclic" if isinstance(res, homology.CyclicVerdict) else "not-recognized"
        return _verdict(word == "cyclic", [word], check="triple-recovery", result=word)
    if args.op == "lift":
        adjusted = homology.lift_adjust(_parse_elements(_read_input(args.file)))
        body = ["\n\n".join(map(_format_element, adjusted))]
        return _answer(body, check="central-defect-correction", count=len(adjusted))
    lat = homology.standard_lattice(args.genus)
    chain = homology.build_chain(lat, args.k)
    if args.op == "chain":
        return _answer([homology.format_chain(chain)], check="chain-intersection-pattern",
                       genus=args.genus, k=args.k)
    if args.op == "rep":
        ms = homology.monodromy_rep(lat, chain, args.eps)
        body = ["\n\n".join(map(homology.format_matrix, ms))]
        return _answer(body, check="twist-relations", genus=args.genus, k=args.k, eps=args.eps)
    if args.op == "square":
        body = [homology.format_matrix(homology.chain_product_square(lat, chain))]
        return _answer(body, check="chain-relation-square", genus=args.genus, k=args.k,
                       parity="even" if args.k % 2 == 0 else "odd")
    raise AssertionError(args.op)


# ------------------------------------------------------------------- ln ----


def _cmd_ln(args) -> int:
    from . import finite

    if args.op == "snf":
        lines = [ln.split() for ln in _read_input(args.file).splitlines() if ln.strip()]
        if len(lines) > SNF_MAX_SIDE or any(len(tokens) > SNF_MAX_SIDE for tokens in lines):
            raise ValueError(f"ln snf takes at most {SNF_MAX_SIDE} rows and columns")
        inv = finite.smith_normal_form([parse_ints(tokens, f"row {i}")
                                        for i, tokens in enumerate(lines, 1)])
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


# ----------------------------------------------------------------- perm ----


def _format_perm_images(rep: finite.PermRep) -> str:
    return " ; ".join(" ".join(f"{i + 1}->{x + 1}" for i, x in enumerate(g)) for g in rep.images)


def _cmd_perm(args) -> int:
    from . import finite

    budget = _budget(6)
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
        found = graphs.brute_enumerate(args.m, budget=_budget(8))
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


# ------------------------------------------------------------------- rh ----


def _cmd_rh(args) -> int:
    from . import riemann_hurwitz as rh

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


# ---------------------------------------------------------------- suite ----


def _cmd_suite(args) -> int:
    from . import suites

    items = suites.SUITES[args.name](_budget(8))
    failed = sum(ok is not None and not ok for _, ok in items)
    body = (f"[{'skip' if ok is None else 'pass' if ok else 'FAIL'}] {label}"
            for label, ok in items)
    return _verdict(failed == 0, body, suite=args.name, items=len(items), failed=failed)


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
