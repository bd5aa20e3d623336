"""The cli-calls workload: one `chaingroup` process per call, as a desk user runs it.

Each call is plain data: argv, the text fed on stdin, the budget setting,
and the expected exit code, key=value trailer and output lines, all taken
from a table or computed by the harness (answers.py). Rounds hold the same
slots every time; variants inside a slot rotate with the round number.

Two slots per round run the permutation search with --k 6, and one runs
`suite perm`, which builds the S_6 table: about 1 s each on a 2-core
machine with Python 3.11, against 0.15-0.25 s for the rest. That is about
a sixth of the calls, so the 90th percentile latency sits among them and
moves with the search.
"""

from __future__ import annotations

import dataclasses
import math
import random

import algebra_load
import answers as A
import oracle_load

# Item counts of the five suites as defined in chaingroup.cli (graphs at
# the default budget of 8).
SUITE_ITEMS = {"identities": 24, "table1": 8, "graphs": 13, "perm": 11, "rh": 7}
LIGHT_SUITES = ("identities", "table1", "graphs", "rh")


@dataclasses.dataclass
class Call:
    """One CLI invocation with its expected outcome."""

    argv: tuple[str, ...]
    code: int
    trailer: dict
    bucket: str = "fixed"
    answer: str = "trivial"
    stdin: str = ""
    budget: str | None = None
    lines: dict = dataclasses.field(default_factory=dict)  # line index -> exact text
    special: tuple = ()  # (check name, argument) for checks a line match cannot express


def _letters(w) -> str:
    return " ".join(map(str, w))


def _bool(x: bool) -> str:
    return str(x).lower()


# ------------------------------------------------------------------ slots --


def braid_words(rng, r):
    n = rng.randint(3, 12)
    op = r % 4
    if op == 0:
        return Call(("braid", "garside", "--n", str(n)), 0,
                    {"check": "half-twist-word", "n": str(n), "length": str(n * (n - 1) // 2)},
                    lines={0: " ".join([f"n={n}", *map(str, A.garside(n))])})
    if op == 1:
        return Call(("braid", "delta", "--n", str(n)), 0,
                    {"check": "index-shift-word", "n": str(n), "exponent": str(n - 1)},
                    lines={0: " ".join([f"n={n}", *map(str, A.flip(n))])})
    if op == 2:
        k = rng.randint(-2 * n, 2 * n)
        return Call(("braid", "gen", "--n", str(n), "--k", str(k)), 0,
                    {"check": "generator-normalization", "n": str(n), "k": str(k)},
                    lines={0: " ".join([f"n={n}", *map(str, A.generator(n, k))])})
    w = A.reduced_word(rng, n, rng.randint(1, 30))
    return Call(("braid", "exp", "--n", str(n), _letters(w)), 0,
                {"check": "sign-sum", "n": str(n)}, lines={0: str(A.exponent(w))})


def braid_oracle(rng, r):
    maker = (oracle_load.rewritten_copy, oracle_load.shifted_exponent,
             oracle_load.central_conjugate, oracle_load.noncentral)[r % 4]
    q = maker(rng, "short" if r % 8 < 4 else "mid")
    n, truth = q.data[0], q.truth
    if q.kind == "are_equal":
        argv = ("braid", "eq", "--n", str(n), _letters(q.data[1]), _letters(q.data[2]))
        check = "word-equality"
    else:
        argv = ("braid", "central", "--n", str(n), _letters(q.data[1]))
        check = "centrality"
    return Call(argv, 0 if truth else 1, {"check": check, "n": str(n), "result": _bool(truth)},
                bucket=q.bucket, answer=q.answer)


def _hom_lines(n, m, images) -> dict:
    out = {0: f"n={n} m={m}"}
    out.update({i: f"{i} : {_letters(w)}" for i, w in enumerate(images, start=1)})
    return out


def hom_builders(rng, r):
    if r % 2 == 0:
        q = oracle_load.theorem4(rng, "fixed")
        n, g, eps, k = q.data
        return Call(("hom", "theorem4", "--n", str(n), "--gamma", _letters(g), "--eps", str(eps),
                     "--k", str(k)), 0,
                    {"check": "conjugated-power-endomorphism", "n": str(n), "eps": str(eps),
                     "k": str(k)}, lines=_hom_lines(n, n, q.truth))
    k = rng.randint(1, 4)
    return Call(("hom", "cable", "--k", str(k)), 0,
                {"check": "cable-half-twist", "k": str(k), "target": str(3 * k)},
                lines={0: f"n=3 m={3 * k}"}, special=("cable", k))


def homology_flags(rng, r):
    g = rng.randint(2, 5)
    op = ("chain", "rep", "square")[r % 3]
    k = rng.randint(2, 2 * g + 1)
    argv = ("homology", op, "--genus", str(g), "--k", str(k))
    trailer = {"genus": str(g), "k": str(k)}
    J, chain = A.pairing(g), A.standard_chain(g, k)
    if op == "chain":
        text = "\n".join([f"k={k}", *map(_letters, chain)])
        return Call(argv, 0, {"check": "chain-intersection-pattern", **trailer},
                    lines=_text_lines(text))
    if op == "rep":
        eps = rng.choice((1, -1))
        text = "\n\n".join(_matrix_text(A.transvection(J, c, eps)) for c in chain)
        return Call(argv + ("--eps", str(eps)), 0,
                    {"check": "twist-relations", "eps": str(eps), **trailer},
                    lines=_text_lines(text))
    # (T_1 (T_2 T_1) ... (T_k ... T_1))^2, multiplied out by the harness
    ts = [A.transvection(J, c, 1) for c in chain]
    prod = A.identity(2 * g)
    for j in range(k):
        for i in range(j, -1, -1):
            prod = A.mul(prod, ts[i])
    parity = "even" if k % 2 == 0 else "odd"
    return Call(argv, 0, {"check": "chain-relation-square", "parity": parity, **trailer},
                lines=_text_lines(_matrix_text(A.mul(prod, prod))))


def _text_lines(text: str) -> dict:
    return dict(enumerate(text.splitlines()))


def ln_flags(rng, r):
    if r % 2 == 0:
        p = (rng.randint(2, 5), rng.randint(0, 12), rng.randint(0, 6), rng.randint(0, 6),
             rng.randint(0, 12))
        ok = A.ln_valid(*p)
        return Call(("ln", "validate", *_ln_argv(p)), 0 if ok else 1,
                    {"check": "divisibility-constraints", "result": _bool(ok)},
                    answer="trivial" if ok else "nontrivial")
    q = algebra_load.ln_random(rng, None)
    order = q.truth[0]
    return Call(("ln", "card", *_ln_argv(q.data)), 0, {"check": "quotient-cardinality"},
                lines={0: str(order)}, special=("trailer_factors", order))


def _ln_argv(p) -> tuple[str, ...]:
    return tuple(x for flag, v in zip(("r", "M", "m", "d", "s"), p) for x in (f"--{flag}", str(v)))


def rh_flags(rng, r):
    op = r % 4
    if op == 0:
        m = rng.randint(2, 12)
        divisors = [o for o in range(1, m) if m % o == 0]
        branch = sorted(rng.choice(divisors) for _ in range(rng.randint(0, 4)))
        chiq = rng.randint(-3, 2)
        chi = m * chiq - sum(m - o for o in branch)
        ok = rng.random() < 0.5
        chi += 0 if ok else rng.choice((1, -1))
        return Call(("rh", "check", "--chi", str(chi), "--m", str(m), "--branch",
                     ",".join(map(str, branch)), "--chiq", str(chiq)), 0 if ok else 1,
                    {"check": "ramified-covering-equation", "result": _bool(ok)},
                    answer="trivial" if ok else "nontrivial")
    if op == 1:
        g, b = rng.randint(0, 6), rng.randint(0, 6)
        finite = 84 * (g - 1) if g >= 2 and b == 0 else None
        cyclic = 4 * g + 2 if b == 0 and g >= 1 else None
        genus1 = None
        if g == 1:  # order <= 6, or the largest m <= 1 + 2/(b-2)
            genus1 = 6 if b <= 2 else b // (b - 2)
        return Call(("rh", "bounds", "--genus", str(g), "--b", str(b)), 0,
                    {"check": "order-bounds", "genus": str(g), "b": str(b)},
                    lines={0: f"finite_subgroup_max={finite}", 1: f"cyclic_max={cyclic}",
                           2: f"genus1_max={genus1}"})
    if op == 2:
        rr, m = rng.randint(3, 8), rng.randint(1, 9)
        d = rng.choice([x for x in range(1, m + 1) if m % x == 0])
        return Call(("rh", "audit5", "--r", str(rr), "--m", str(m), "--d", str(d)), 0,
                    {"check": "abelian-subgroup-contradictions", "r": str(rr), "m": str(m),
                     "d": str(d)}, lines=_text_lines(A.audit5_text(rr, m, d)))
    m, chi = rng.randint(2, 8), rng.randint(-8, -2)
    chiqs = sorted(rng.sample(range(-2, 2), 2))
    # "=" keeps argparse from reading a leading minus as an option
    return Call(("rh", "enum", "--chi", str(chi), "--m", str(m),
                 "--chiqs=" + ",".join(map(str, chiqs))), 0,
                {"check": "branch-data-enumeration", "chi": str(chi), "m": str(m)},
                lines={0: f"count={A.branch_data_count(chi, m, chiqs)}"})


def _shape_line(shape) -> str:
    kind, k, x, d = shape
    return f"type={kind} k={k} {'p' if kind == 'A' else 'l'}={x} d={d}"


def graph_generate(rng, r):
    m = rng.randint(4, 12)
    kind, k, x, d = shape = rng.choice(A.shapes(m))
    argv = ("graph", "generate", "--type", kind, "--k", str(k),
            "--p" if kind == "A" else "--l", str(x), "--d", str(d), "--m", str(m))
    vertices = k if kind == "A" else k + x
    return Call(argv, 0, {"check": "template-construction", "m": str(m)},
                lines={0: f"vertices={vertices}"})


def graph_classify(rng, r):
    m = rng.randint(4, 12)
    shape = rng.choice(A.shapes(m))
    return Call(("graph", "classify", "-"), 0, {"check": "edge-transitive-classification",
                                                 "m": str(m)},
                stdin=A.shape_graph(shape, m), lines={0: _shape_line(shape)})


def hom_verify(rng, r):
    maker = oracle_load.hom_candidate if r % 2 == 0 else oracle_load.broken_hom_candidate
    q = maker(rng, "fixed")
    n, m, images = q.data
    text = "\n".join(_hom_lines(n, m, images).values())
    return Call(("hom", "verify", "-"), 0 if q.truth else 1,
                {"check": "generator-relations", "n": str(n), "m": str(m),
                 "result": _bool(q.truth)}, stdin=text, answer=q.answer)


def _matrix_text(m) -> str:
    return "\n".join([f"rank={len(m)}", *(_letters(row) for row in m)])


def homology_extract(rng, r):
    g = rng.randint(3, 4)
    if r % 2 == 0:
        q = algebra_load.extract_round_trip(rng, g)
        _, chain, eps, _ = q.truth
        lines = {0: f"k={len(chain)}", len(chain) + 1: f"eps={eps}"}
        lines.update({i: _letters(c) for i, c in enumerate(chain, start=1)})
        code, result = 0, "ok"
    else:
        q = algebra_load.extract_perturbed(rng, g)
        lines, code, result = {0: "not-recognized"}, 1, "not-recognized"
    text = "\n\n".join(_matrix_text(m) for m in q.data[1])
    return Call(("homology", "extract", "-"), code, {"check": "triple-recovery", "result": result},
                stdin=text, lines=lines, answer="trivial" if code == 0 else "nontrivial")


def ln_snf(rng, r):
    size = rng.randint(4, 12)
    det = 0
    while det == 0:  # full rank, so the free rank is known to be 0
        rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        det = abs(A.determinant(rows))
    return Call(("ln", "snf", "-"), 0, {"check": "invariant-factors"},
                stdin="\n".join(_letters(row) for row in rows), lines={1: "free_rank=0"},
                special=("line_factors", det))


def graph_brute(rng, r):
    m = rng.randint(8, 12)
    return Call(("graph", "brute", "--m", str(m)), 0, {"check": "exhaustive-search", "m": str(m)},
                budget="12", lines={0: f"count={len(A.shapes(m))}"})


def _perm_call(n, k):
    # Every permutation gives a cyclic representation; for k < n every
    # representation is cyclic (Artin), and for k >= n the standard
    # projection B_n -> S_n is a non-cyclic one.
    return Call(("perm", "enum", "--n", str(n), "--k", str(k), "--summary"), 0,
                {"check": "relation-search", "n": str(n), "k": str(k)},
                special=("perm_counts", (n, k)))


def perm_small(rng, r):
    return _perm_call(rng.randint(5, 7), 5)


def perm_large(rng, r):
    # n rotates rather than being drawn, so every round costs about the same
    return _perm_call(5 + r % 3, 6)


def perm_large_next(rng, r):
    return _perm_call(5 + (r + 1) % 3, 6)


def suite_light(rng, r):
    return _suite(LIGHT_SUITES[r % len(LIGHT_SUITES)])


def suite_perm(rng, r):
    return _suite("perm")


def _suite(name):
    return Call(("suite", name), 0, {"suite": name, "items": str(SUITE_ITEMS[name]), "failed": "0"})


SLOTS = [
    braid_words, braid_oracle, braid_oracle, hom_builders, homology_flags, ln_flags, rh_flags,
    graph_generate, hom_verify, homology_extract, graph_classify, ln_snf, graph_brute,
    perm_small, suite_light, perm_large, perm_large_next, suite_perm,
]


def make_round(rng: random.Random, r: int) -> list[Call]:
    out = [slot(rng, 2 * r + i) if slot is braid_oracle else slot(rng, r)
           for i, slot in enumerate(SLOTS)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------- checking --


def _factors_ok(text: str, expected: int) -> bool:
    factors = [int(x) for x in text.split(",") if x]
    chain = all(b % a == 0 for a, b in zip(factors, factors[1:]))
    return chain and math.prod(factors) == expected


def check(call: Call, code: int, stdout: str) -> bool:
    """True when exit code, trailer, expected lines and special checks all hold."""
    lines = stdout.splitlines()
    if code != call.code or not lines:
        return False
    trailer = dict(tok.split("=", 1) for tok in lines[-1].split() if "=" in tok)
    if any(trailer.get(k) != v for k, v in call.trailer.items()):
        return False
    if any(i >= len(lines) or lines[i] != text for i, text in call.lines.items()):
        return False
    if not call.special:
        return True
    try:
        return _special_ok(*call.special, lines, trailer)
    except (ValueError, IndexError):  # malformed output is a wrong answer
        return False


def _special_ok(name: str, arg, lines: list[str], trailer: dict) -> bool:
    if name == "trailer_factors":
        return _factors_ok(trailer.get("factors", ""), arg)
    if name == "line_factors":
        return lines[0].startswith("factors=") and _factors_ok(lines[0][8:], arg)
    if name == "cable":
        images = [tuple(int(x) for x in line.split(":", 1)[1].split()) for line in lines[1:3]]
        return oracle_load.cable_invariants(3 * arg, images) == oracle_load.cable_query(arg).truth
    if name == "perm_counts":
        n, k = arg
        counts = dict(tok.split("=", 1) for tok in lines[0].split())
        noncyclic = int(counts.get("noncyclic", -1))
        return (int(counts.get("cyclic", -1)) == math.factorial(k)
                and (noncyclic == 0 if k < n else noncyclic >= 1))
    raise KeyError(f"unknown special check {name!r}")
