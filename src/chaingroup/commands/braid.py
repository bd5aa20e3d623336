"""`chaingroup braid`: braid word constructions and word-problem checks.

Only eq and central run the oracle, so only they load it.
"""

from __future__ import annotations

from . import _answer, _AtMost, _verdict, _word

# `braid garside --n 1000` prints 499 500 letters in about 0.2 s (subprocess,
# 2 x86_64 cores, Python 3.11).
BRAID_MAX_STRANDS = 1000


def add_arguments(parser) -> None:
    ops = parser.add_subparsers(dest="op", required=True)
    for name in ("garside", "delta", "gen", "eq", "central", "exp"):
        q = ops.add_parser(name)
        q.add_argument("--n", type=int, required=True, action=_AtMost, const=BRAID_MAX_STRANDS)
        if name == "gen":
            q.add_argument("--k", type=int, required=True)
        elif name == "eq":
            q.add_argument("words", nargs=2)
        elif name in ("central", "exp"):
            q.add_argument("word")


def run(args) -> int:
    from .. import braids

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
    from .. import oracle

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
