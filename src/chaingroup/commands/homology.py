"""`chaingroup homology`: lattice chains and transvection algebra."""

from __future__ import annotations

from . import _answer, _AtMost, _blocks, _fields, _ints, _read_input, _verdict

# `homology rep --genus 64 --k 129` prints 4.2 MB in about 0.5 s (subprocess,
# 2 x86_64 cores, Python 3.11).
HOMOLOGY_MAX_GENUS = 64


def add_arguments(parser) -> None:
    ops = parser.add_subparsers(dest="op", required=True)
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


def _parse_elements(text: str) -> list[homology.Lift]:
    """The blocks of text as lifts: a matrix, then an optional twist= line;
    malformed integers are named by their block's number."""
    from .. import homology

    out = []
    for i, block in enumerate(_blocks(text), 1):
        lines = [ln for ln in block.splitlines() if ln.strip()]
        has_twist = lines and lines[-1].startswith("twist=")
        twist = _ints(lines.pop()[6:], f"matrix {i}, twist") if has_twist else ()
        out.append((homology.parse_matrix("\n".join(lines), f"matrix {i}"), twist))
    return out


def _format_element(lift: homology.Lift) -> str:
    from .. import homology

    return homology.format_matrix(lift[0]) + "\n" + _fields(twist=lift[1])


def run(args) -> int:
    from .. import homology

    if args.op == "extract":
        ms = [homology.parse_matrix(b, f"matrix {i}")
              for i, b in enumerate(_blocks(_read_input(args.file)), 1)]
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
