"""The harness's own arithmetic, independent of the package under test.

Every expected verdict in the workloads is known by construction, and this
module double-checks the cheap invariants that make it known: exponent sums
and permutation images for braid words, determinants and pairing checks for
integer matrices, and closed formulas for the counting questions. Nothing
here imports chaingroup.
"""

from __future__ import annotations

import math
import random

def known(condition: bool, what: str) -> None:
    """Stop when a generated input lacks the property its verdict rests on."""
    if not condition:
        raise RuntimeError(f"generated input is not as constructed: {what}")


# ------------------------------------------------------------ braid words --


def inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(w))


def exponent(w) -> int:
    return sum(1 if x > 0 else -1 for x in w)


def permutation(n: int, w) -> tuple[int, ...]:
    """Image of the word in the symmetric group: the letter +-i swaps i, i+1."""
    p = list(range(n))
    for x in w:
        i = abs(x) - 1
        p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def is_pure(n: int, w) -> bool:
    return permutation(n, w) == tuple(range(n))


def reduced_word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """A random freely reduced word of exactly the given length."""
    out: list[int] = []
    letters = [i for i in range(-(n - 1), n) if i]
    while len(out) < length:
        x = rng.choice(letters)
        if not out or out[-1] != -x:
            out.append(x)
    return tuple(out)


def garside(n: int) -> tuple[int, ...]:
    """The half twist s1 (s2 s1) ... (s_{n-1} ... s1)."""
    return tuple(i for j in range(1, n) for i in range(j, 0, -1))


def flip(n: int) -> tuple[int, ...]:
    """The 1/n flip s1 s2 ... s_{n-1}; its n-th power is the full twist."""
    return tuple(range(1, n))


def generator(n: int, k: int) -> tuple[int, ...]:
    """Generator k read modulo n; index 0 is the flip-conjugate of s_{n-1}."""
    j = k % n
    if j:
        return (j,)
    d = flip(n)
    return d + (n - 1,) + inverse(d)


def relators(n: int) -> list[tuple[int, ...]]:
    """Braid relators s_i s_{i+1} s_i (s_{i+1} s_i s_{i+1})^-1 and commutators."""
    out = [(i, i + 1, i, -(i + 1), -i, -(i + 1)) for i in range(1, n - 1)]
    out += [(i, j, -i, -j) for i in range(1, n) for j in range(i + 2, n)]
    return out


def random_relator(rng: random.Random, n: int) -> tuple[int, ...]:
    """A cyclic rotation of a relator or of its inverse: still trivial."""
    r = rng.choice(relators(n))
    if rng.random() < 0.5:
        r = inverse(r)
    k = rng.randrange(len(r))
    return r[k:] + r[:k]


def rewrite(rng: random.Random, n: int, w: tuple[int, ...], moves: int) -> tuple[int, ...]:
    """The same braid, spelled differently: relators and cancelling pairs inserted."""
    out = list(w)
    for _ in range(moves):
        at = rng.randint(0, len(out))
        if rng.random() < 0.7:
            piece = random_relator(rng, n)
        else:
            x = rng.choice([i for i in range(-(n - 1), n) if i])
            piece = (x, -x)
        out[at:at] = piece
    return tuple(out)


def substitute(images: tuple[tuple[int, ...], ...], w) -> tuple[int, ...]:
    """Letter-wise image of a word under generator images."""
    out: list[int] = []
    for x in w:
        img = images[abs(x) - 1]
        out.extend(img if x > 0 else inverse(img))
    return tuple(out)


# -------------------------------------------------------- integer matrices --


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def pairing(g: int):
    """The standard symplectic form: <e_{2i-1}, e_{2i}> = 1."""
    J = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        J[2 * i][2 * i + 1], J[2 * i + 1][2 * i] = 1, -1
    return tuple(map(tuple, J))


def pair(J, x, y) -> int:
    return sum(x[i] * J[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))


def apply(m, v) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def transvection(J, c, eps: int):
    """Matrix of x -> x + eps <x, c> c (acting on column vectors)."""
    return transvect(J, c, eps, identity(len(c)))


def transvect(J, c, eps: int, m):
    """T_c^eps m as the rank-one update m + eps c ((Jc)^T m)."""
    jc = apply(J, c)
    row = [sum(jc[i] * m[i][j] for i in range(len(c))) for j in range(len(c))]
    return tuple(tuple(x + eps * ci * y for x, y in zip(mrow, row)) for ci, mrow in zip(c, m))


def preserves(J, m) -> bool:
    mt = tuple(zip(*m))
    return mul(mul(mt, J), m) == J


def standard_chain(g: int, k: int) -> list[tuple[int, ...]]:
    """e1, e2, e1+e3, e4, e3+e5, ...: consecutive classes pair to +-1."""
    r = 2 * g
    out = []
    for p in range(1, k + 1):
        v = [0] * r
        if p == 1:
            v[0] = 1
        elif p % 2 == 0:
            v[p - 1] = 1
        elif p < 2 * g + 1:
            v[p - 3] = v[p - 1] = 1
        else:
            v[2 * g - 2] = 1
        out.append(tuple(v))
    return out


def sign_normalized(v) -> tuple[int, ...]:
    for x in v:
        if x:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def determinant(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            p = next((r for r in range(k + 1, n) if a[r][k]), None)
            if p is None:
                return 0
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


# ----------------------------------------------------------- closed forms --


def ln_valid(r: int, M: int, m: int, d: int, s: int) -> bool:
    """Divisibility constraints of the quotient family, restated."""
    if M == 0:
        return m == d == s == 0
    if not m or not d or M % m or m % d or s % m:
        return False
    return (r - s // d) * m % M == 0


def ln_order(r: int, M: int, m: int, d: int) -> int:
    return (M // m) * d * m ** (r - 1)


def audit5_text(r: int, m: int, d: int) -> str:
    """Output of the section 5 audit, restated: an abelian subgroup of order
    d m^(r-2), the inequalities d m^(r-1) <= 2m + 4r, 3^r <= 6 + 4r (m = 3)
    and 2 4^(r-2) <= 2 + r (m >= 4), and a kernel of three times the
    subgroup's order against the bound 6 (2r - 2)."""
    card = d * m ** (r - 2)
    out = [f"ineq6_holds={d * m ** (r - 1) <= 2 * m + 4 * r}"]
    if m == 3:
        out.append(f"ineq7_holds={3 ** r <= 6 + 4 * r}")
    if m >= 4:
        out.append(f"ineq8_holds={2 * 4 ** (r - 2) <= 2 + r}")
    bound = 6 * (2 * r - 2)
    out.append(f"subgroup_card={card}")
    out.append(f"kernel_lower_bound={3 * card} chi_bound={bound} "
               f"exceeds={str(3 * card > bound).lower()}")
    return "\n".join(out)


def shapes(m: int) -> list[tuple]:
    """Edge-transitive cyclic actions on connected m-edge graphs, up to
    isomorphism: the one- and two-vertex bundles, one single-orbit shape per
    k | m (k >= 3) and unit p <= k/2, and one two-orbit shape per coprime
    k <= l with kl | m. Entries are ("A", k, p, d) or ("B", k, l, d)."""
    out = [("A", 1, 1, m), ("A", 2, 1, m)]
    out += [("A", k, p, m // k) for k in range(3, m + 1) if m % k == 0
            for p in range(1, k // 2 + 1) if math.gcd(p, k) == 1]
    out += [("B", k, l, m // (k * l)) for k in range(1, m + 1) for l in range(k, m + 1)
            if math.gcd(k, l) == 1 and m % (k * l) == 0]
    return out


def cycles(perm) -> str:
    """Cycle notation over 0-based points, fixed points left out."""
    seen, parts = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc, x = [start], perm[start]
        seen.add(start)
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = perm[x]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


def shape_graph(shape: tuple, m: int) -> str:
    """Text of the template graph of a shape: edge i steps by the shape's
    offsets, the vertex cycles rotate, and the edge m-cycle rotates."""
    kind, k, x, _ = shape
    if kind == "A":
        edges = [(i % k, (i + x) % k) for i in range(m)]
        vperm = [(i + 1) % k for i in range(k)]
    else:
        edges = [(i % k, k + i % x) for i in range(m)]
        vperm = [(i + 1) % k for i in range(k)] + [k + (j + 1) % x for j in range(x)]
    eperm = [(i + 1) % m for i in range(m)]
    lines = [f"vertices={len(vperm)}"] + [f"{u} {w}" for u, w in edges]
    lines.append(f"action vperm={cycles(vperm)} eperm={cycles(eperm)}")
    return "\n".join(lines)


def branch_data_count(chi: int, m: int, chiqs) -> int:
    """Multisets of proper-divisor deficits m - o summing to m chi_q - chi."""
    deficits = sorted({m - o for o in range(1, m) if m % o == 0})

    def ways(target: int, start: int) -> int:
        if target == 0:
            return 1
        return sum(ways(target - v, i) for i, v in enumerate(deficits) if i >= start and v <= target)

    return sum(ways(m * q - chi, 0) for q in set(chiqs) if m * q - chi >= 0)
