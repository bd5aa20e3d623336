"""Surface homology with the standard intersection form; twists as transvections.

The closed genus-g surface is modeled by Z^2g with the standard symplectic
form. A simple closed curve is seen only through its homology class (zero for
separating curves, primitive otherwise), and the Dehn twist along it is the
transvection x -> x + eps*<x,c>*c. The dense form J is never built: Jv swaps
coordinate pairs, and a twist acts on a matrix as the rank-one update
T_c^eps M = M + eps*c*((Jc)^T M). So a transvected representation
M_i = T_{c_i}^eps V differs from its direction V by rank-one matrices, and
the recovery of (chain, sign, direction) reads the classes off the columns
of those differences, with no inverse and no square root. Chains, their
transvection representations, and formal central twist vectors
(CentralExtElement) live here too; that extension is a direct product, so
lift_adjust corrects braid defects by moving twists, again with no inverse.
"""

from __future__ import annotations

from operator import mul, sub
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

    def pair(self, x: Sequence[int], y: Sequence[int]) -> int:
        """x . Jy, summed over the coordinate pairs without forming Jy."""
        for v in (y, x):
            if len(v) != self.rank:
                raise ValueError(f"vector has length {len(v)}, lattice rank is {self.rank}")
        return sum(map(mul, x[0::2], y[1::2])) - sum(map(mul, x[1::2], y[0::2]))


class CurveClass(Record):
    """Homology class of a simple closed curve: zero or a primitive vector."""

    v: Vector

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(int(x) for x in self.v))
        if any(self.v) and self.v not in (intmat.primitive(self.v),):
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
    for i, ci in enumerate(chain):
        for j in range(i + 1, len(chain)):
            p = lat.pair(ci.v, chain[j].v)
            if j == i + 1 and abs(p) != 1:
                raise ValueError(f"consecutive classes {i},{j} must pair to +-1, got {p}")
            if j > i + 1 and p != 0:
                raise ValueError(f"distant classes {i},{j} must pair to 0, got {p}")


def twist_product(lat: SkewLattice, c: CurveClass, eps: int, m: Matrix) -> Matrix:
    """T_c^eps M = M + eps*c*((Jc)^T M) in O(r^2): row i gains eps*c_i times
    the row vector (Jc)^T M, and the rows where c is 0 are M's own rows."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    w = [0] * lat.rank
    for a, row in zip(lat.dual(c.v), m, strict=True):
        if a:
            w = [x + a * y for x, y in zip(w, row)]
    out = []
    for ci, row in zip(c.v, m):
        s = eps * ci
        out.append(tuple(x + s * y for x, y in zip(row, w)) if s else row)
    return tuple(out)


def transvection_matrix(lat: SkewLattice, c: CurveClass, eps: int) -> Matrix:
    """Matrix of x -> x + eps*<x,c>*c; the identity exactly when c = 0."""
    return twist_product(lat, c, eps, intmat.identity(lat.rank))


def is_pairing_preserving(lat: SkewLattice, m: Matrix) -> bool:
    """M^T J M = J, tested column pair by column pair: <Me_i, Me_j> must be
    <e_i, e_j>, which is 1 for (i, j) = (2t, 2t + 1) and 0 for the other
    i < j. The form is alternating, so the diagonal and the pairs i > j
    follow. Stops at the first pair that fails."""
    if len(m) != lat.rank or any(len(row) != lat.rank for row in m):
        raise ValueError(f"matrix is not {lat.rank}x{lat.rank}")
    cols = list(zip(*m))
    for i, x in enumerate(cols):
        for j in range(i + 1, lat.rank):
            if lat.pair(x, cols[j]) != (j == i + 1 and i % 2 == 0):
                return False
    return True


def monodromy_rep(lat: SkewLattice, chain: Sequence[CurveClass], eps: int) -> list[Matrix]:
    """Transvection matrices of a chain: adjacent pairs satisfy the braid
    relation, distant pairs commute, as matrix identities.

    Only the k - 1 braid relations are multiplied out. With
    T_c = I + eps*c*(Jc)^T, the commutator is
    T_a T_b - T_b T_a = <b,a>*(a(Jb)^T + b(Ja)^T), and for nonzero a, b it
    vanishes exactly when <a,b> = 0, which _require_chain checks for every
    distant pair.
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
    end, is one twist product, and the product is squared by one matrix
    product.
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
    xs = list(zip(*intmat.mat_sub(m1, m3)))
    for y in zip(*intmat.mat_sub(m1, m4)):
        pairs = [lat.pair(x, y) for x in xs]
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
    the columns of M_1 - M_3 and M_1 - M_4 (see _first_class). With the sign
    that gives the direction V = T_{c_1}^{-eps} M_1, and each c_i is the
    primitive form of the first nonzero column of M_i - V. V must preserve
    the pairing; twists preserve it, so V does exactly when M_1 does, and
    M_1 is tested once. c_i commutes with V exactly when Vc_i = +-c_i, as
    V T_c V^{-1} = T_{Vc}. Anything inconsistent yields NotRecognized; each
    class is checked as it is found, and T_{c_i}^eps V == M_i for every i
    accepts only genuine triples. Recovered classes are sign-normalized
    (first nonzero coordinate positive); eps carries the orientation
    ambiguity.
    """
    ms = [intmat.as_matrix(m) for m in ms]
    if len(ms) < 5:
        raise ValueError("need at least 5 matrices (chain length >= 5)")
    for i, m in enumerate(ms):
        if len(m) != lat.rank or any(len(row) != lat.rank for row in m):
            raise ValueError(f"matrix {i + 1} is not {lat.rank}x{lat.rank}")
    if all(m == ms[0] for m in ms):
        return CYCLIC

    c1 = _first_class(lat, ms[0], ms[2], ms[3])
    if c1 is None or not is_pairing_preserving(lat, ms[0]):
        return NOT_RECOGNIZED
    for eps in (1, -1):
        v = twist_product(lat, c1, -eps, ms[0])
        chain: list[CurveClass] = []
        for m in ms:
            col = next((tuple(map(sub, a, b)) for a, b in zip(zip(*m), zip(*v)) if a != b), None)
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
        if any(intmat.mat_vec(v, c.v) not in (c.v, tuple(-x for x in c.v)) for c in chain):
            continue
        return TransvectionTriple(tuple(chain), eps, v)
    return NOT_RECOGNIZED


class CentralExtElement(Record):
    """A square integer matrix with a formal central boundary-twist vector.

    Multiplication multiplies matrices and adds twist vectors, so the group
    is a direct product and the twist part commutes with everything by
    construction. Construction checks only that the matrix is square with
    at least one row; lift_adjust tests invertibility, and nothing here
    tests pairing preservation.
    """

    mat: Matrix
    twist: Vector

    def __post_init__(self):
        object.__setattr__(self, "mat", intmat.as_matrix(self.mat))
        if not self.mat or any(len(row) != len(self.mat) for row in self.mat):
            raise ValueError("matrix part must be square with at least one row")
        object.__setattr__(self, "twist", tuple(int(x) for x in self.twist))

    def __mul__(self, other: CentralExtElement) -> CentralExtElement:
        if len(self.twist) != len(other.twist):
            raise ValueError("twist vectors have different lengths")
        return CentralExtElement(
            intmat.mat_mul(self.mat, other.mat),
            tuple(a + b for a, b in zip(self.twist, other.twist)),
        )


def lift_adjust(lifts: Sequence[CentralExtElement]) -> list[CentralExtElement]:
    """Correct braid-relation defects of lifted generators by central factors.

    The extension is a direct product, so the defect of adjacent lifts a, b
    is W = (aba)(bab)^{-1} = (M(aba) M(bab)^{-1}, t_a - t_b): it is central
    exactly when M(aba) = M(bab), given that M(bab) is invertible over the
    integers, and the product W_1 ... W_{i-1} has twist t_1 - t_i. So
    A_i W_1 ... W_{i-1} is (M_i, t_1): every lift keeps its matrix and takes
    the first twist, and no inverse is formed. Already-exact input is
    returned unchanged.
    """
    from . import finite

    lifts = list(lifts)
    if len(lifts) < 2:
        return lifts
    for i in range(len(lifts) - 1):
        a, b = lifts[i], lifts[i + 1]
        aba, bab = a * b * a, b * a * b
        if finite.smith_normal_form(bab.mat).cardinality() != 1:
            raise ValueError("matrix part is not invertible over the integers")
        if aba.mat != bab.mat:
            raise ValueError(f"braid defect at position {i + 1} is not central")
    for i in range(len(lifts)):
        for j in range(i + 2, len(lifts)):
            if lifts[i] * lifts[j] != lifts[j] * lifts[i]:
                raise ValueError(f"distant generators {i + 1},{j + 1} do not commute")
    out = [CentralExtElement(e.mat, lifts[0].twist) for e in lifts]
    for i in range(len(out) - 1):
        a, b = out[i], out[i + 1]
        if a * b * a != b * a * b:
            raise RuntimeError(f"adjustment left a braid defect at position {i + 1}")
    return out


def parse_matrix(text: str) -> Matrix:
    """Parse the text format: rank=<int>, then rank rows of rank integers."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].strip().startswith("rank="):
        raise ValueError("matrix text must start with rank=<int>")
    r = parse_int(lines[0].strip()[5:], "rank")
    if r < 1:
        raise ValueError(f"matrix rank must be at least 1, got {r}")
    if len(lines) != r + 1:
        raise ValueError(f"expected {r} matrix rows, got {len(lines) - 1}")
    rows = [parse_ints(ln.split(), f"row {i}") for i, ln in enumerate(lines[1:], 1)]
    if any(len(row) != r for row in rows):
        raise ValueError("matrix rows must have rank entries each")
    return intmat.as_matrix(rows)


def format_matrix(m: Matrix) -> str:
    return "\n".join([f"rank={len(m)}", *(" ".join(map(str, row)) for row in m)])


def format_chain(chain: Sequence[CurveClass]) -> str:
    return "\n".join([f"k={len(chain)}", *(" ".join(map(str, c.v)) for c in chain)])
