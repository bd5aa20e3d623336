"""Surface homology with its intersection pairing, and twists as transvections.

The closed genus-g surface is modeled by the rank-2g integer lattice with the
standard unimodular symplectic form. A simple closed curve is seen only
through its homology class (an integer vector, zero for separating curves,
primitive otherwise), and the Dehn twist along it acts as the transvection
x -> x + eps*<x,c>*c. Chains of curve classes, representations sending braid
generators to transvection powers, their post-multiplications by a commuting
direction matrix, and the recovery of the (chain, sign, direction) triple
from raw matrices all live here. Boundary bookkeeping is carried by a formal
central twist vector (CentralExtElement), never by a degenerate pairing.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

from . import intmat
from .intmat import Matrix, Vector


@dataclasses.dataclass(frozen=True)
class SkewLattice:
    """An integer lattice with a skew-symmetric pairing <x,y> = x^T J y."""

    rank: int
    pairing: Matrix

    def __post_init__(self):
        object.__setattr__(self, "pairing", intmat.as_matrix(self.pairing))
        J = self.pairing
        if len(J) != self.rank or any(len(row) != self.rank for row in J):
            raise ValueError("pairing matrix shape does not match rank")
        for i in range(self.rank):
            if J[i][i] != 0:
                raise ValueError("pairing must have zero diagonal")
            for j in range(self.rank):
                if J[i][j] != -J[j][i]:
                    raise ValueError("pairing must be skew-symmetric")

    def pair(self, x: Sequence[int], y: Sequence[int]) -> int:
        Jy = intmat.mat_vec(self.pairing, tuple(y))
        return sum(a * b for a, b in zip(x, Jy, strict=True))


@dataclasses.dataclass(frozen=True)
class CurveClass:
    """Homology class of a simple closed curve: zero or a primitive vector."""

    v: Vector

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(int(x) for x in self.v))
        if any(self.v) and self.v not in (intmat.primitive(self.v),):
            raise ValueError(f"nonzero class must be primitive: {self.v}")

    def is_zero(self) -> bool:
        return not any(self.v)


@dataclasses.dataclass(frozen=True)
class TransvectionTriple:
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
    if g < 1:
        raise ValueError("homology model needs genus at least 1")
    J = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        J[2 * i][2 * i + 1] = 1
        J[2 * i + 1][2 * i] = -1
    return SkewLattice(2 * g, intmat.as_matrix(J))


def build_chain(lat: SkewLattice, k: int) -> list[CurveClass]:
    """k primitive classes pairing +-1 consecutively and 0 at distance >= 2.

    Exists exactly for 1 <= k <= 2g+1. The vector scheme is one fixed choice;
    only the intersection pattern is the contract.
    """
    g = lat.rank // 2
    if lat.rank != 2 * g or lat != standard_lattice(g):
        raise ValueError("build_chain expects the standard symplectic lattice")
    if k < 1:
        raise ValueError("chain length must be positive")
    if k > 2 * g + 1:
        raise ValueError(f"no chain of {k} classes in genus {g}: need k <= {2 * g + 1}")

    def basis(i: int) -> list[int]:
        vec = [0] * lat.rank
        vec[i - 1] = 1
        return vec

    chain = []
    for p in range(1, k + 1):
        if p == 1:
            vec = basis(1)
        elif p % 2 == 0:
            vec = basis(p)
        elif p < 2 * g + 1:
            vec = [x + y for x, y in zip(basis(p - 2), basis(p))]
        else:
            vec = basis(2 * g - 1)
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


def transvection_matrix(lat: SkewLattice, c: CurveClass, eps: int) -> Matrix:
    """Matrix of x -> x + eps*<x,c>*c; the identity exactly when c = 0."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    Jc = intmat.mat_vec(lat.pairing, c.v)
    return intmat.mat_add(intmat.identity(lat.rank), intmat.mat_scale(intmat.outer(c.v, Jc), eps))


def is_pairing_preserving(lat: SkewLattice, m: Matrix) -> bool:
    return intmat.mat_mul(intmat.mat_mul(intmat.transpose(m), lat.pairing), m) == lat.pairing


def monodromy_rep(lat: SkewLattice, chain: Sequence[CurveClass], eps: int) -> list[Matrix]:
    """Transvection matrices of a chain: adjacent pairs satisfy the braid
    relation, distant pairs commute, as matrix identities."""
    _require_chain(lat, chain)
    ms = [transvection_matrix(lat, c, eps) for c in chain]
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if j == i + 1:
                lhs = intmat.mat_mul(intmat.mat_mul(ms[i], ms[j]), ms[i])
                rhs = intmat.mat_mul(intmat.mat_mul(ms[j], ms[i]), ms[j])
            else:
                lhs = intmat.mat_mul(ms[i], ms[j])
                rhs = intmat.mat_mul(ms[j], ms[i])
            if lhs != rhs:
                raise RuntimeError(f"chain transvections {i + 1},{j + 1} violated a relation")
    return ms


def chain_product_square(lat: SkewLattice, chain: Sequence[CurveClass]) -> Matrix:
    """Square of T_{c_1} (T_{c_2}T_{c_1}) ... (T_{c_k} ... T_{c_1}) on homology.

    For even k the result is minus the identity on the span of the chain; for
    odd k it fixes every chain class (the boundary classes of the chain
    neighborhood pair to zero with each c_i).
    """
    if len(chain) < 2:
        raise ValueError("chain must have at least 2 classes")
    _require_chain(lat, chain)
    ms = [transvection_matrix(lat, c, 1) for c in chain]
    prod = intmat.identity(lat.rank)
    for j in range(len(ms)):
        for i in range(j, -1, -1):
            prod = intmat.mat_mul(prod, ms[i])
    return intmat.mat_mul(prod, prod)


def _rank_one_square(c: Matrix) -> Vector | None:
    """Solve c = b b^T for a primitive integer b, else None."""
    n = len(c)
    if any(c[i][j] != c[j][i] for i in range(n) for j in range(n)):
        return None
    j0 = next((j for j in range(n) if c[j][j] != 0), None)
    if j0 is None:
        return None
    if c[j0][j0] < 0:
        return None
    bj = math.isqrt(c[j0][j0])
    if bj * bj != c[j0][j0]:
        return None
    b = []
    for i in range(n):
        if c[i][j0] % bj != 0:
            return None
        b.append(c[i][j0] // bj)
    b_t = tuple(b)
    if intmat.outer(b_t, b_t) != c:
        return None
    if intmat.primitive(b_t) not in (b_t, tuple(-x for x in b_t)):
        return None
    return intmat.sign_normalized(b_t)


def extract_triple(
    lat: SkewLattice, ms: Sequence[Matrix]
) -> TransvectionTriple | CyclicVerdict | NotRecognized:
    """Recover (chain, eps, direction) from generator-image matrices.

    All-equal input yields CyclicVerdict. Otherwise M_1 M_3^{-1} and
    M_1 M_4^{-1} are differences of two commuting transvections; their images
    intersect in the line of the first chain class, which together with the
    sign determines the direction V = T_{c_1}^{-eps} M_1 and then every other
    class. Anything inconsistent yields NotRecognized. Recovered classes are
    sign-normalized (first nonzero coordinate positive); eps carries the
    orientation ambiguity.
    """
    ms = [intmat.as_matrix(m) for m in ms]
    if len(ms) < 5:
        raise ValueError("need at least 5 matrices (chain length >= 5)")
    for i, m in enumerate(ms):
        if len(m) != lat.rank or any(len(row) != lat.rank for row in m):
            raise ValueError(f"matrix {i + 1} is not {lat.rank}x{lat.rank}")
    if all(m == ms[0] for m in ms):
        return CYCLIC

    ident = intmat.identity(lat.rank)
    inv3 = intmat.int_inverse(ms[2])
    inv4 = intmat.int_inverse(ms[3])
    if inv3 is None or inv4 is None:
        return NOT_RECOGNIZED
    d13 = intmat.mat_sub(intmat.mat_mul(ms[0], inv3), ident)
    d14 = intmat.mat_sub(intmat.mat_mul(ms[0], inv4), ident)
    im13 = intmat.column_space_basis(d13)
    im14 = intmat.column_space_basis(d14)
    if len(im13) != 2 or len(im14) != 2:
        return NOT_RECOGNIZED
    common = intmat.intersect_spans(im13, im14)
    if len(common) != 1:
        return NOT_RECOGNIZED
    c1 = CurveClass(intmat.sign_normalized(common[0]))

    j_inv = intmat.int_inverse(lat.pairing)
    if j_inv is None:
        return NOT_RECOGNIZED
    for eps in (1, -1):
        v = intmat.mat_mul(transvection_matrix(lat, c1, -eps), ms[0])
        v_inv = intmat.int_inverse(v)
        if v_inv is None or not is_pairing_preserving(lat, v):
            continue
        chain: list[CurveClass] = []
        ok = True
        for m in ms:
            d = intmat.mat_sub(intmat.mat_mul(m, v_inv), ident)
            c_mat = intmat.mat_scale(intmat.mat_mul(d, j_inv), -eps)
            b = _rank_one_square(c_mat)
            if b is None:
                ok = False
                break
            chain.append(CurveClass(b))
        if not ok or chain[0] != c1:
            continue
        try:
            _require_chain(lat, chain)
        except ValueError:
            continue
        twists = [transvection_matrix(lat, c, eps) for c in chain]
        if any(intmat.mat_mul(t, v) != intmat.mat_mul(v, t) for t in twists):
            continue
        if any(intmat.mat_mul(t, v) != m for t, m in zip(twists, ms)):
            continue
        return TransvectionTriple(tuple(chain), eps, v)
    return NOT_RECOGNIZED


@dataclasses.dataclass(frozen=True)
class CentralExtElement:
    """A pairing-preserving matrix with a formal central boundary-twist vector.

    Multiplication multiplies matrices and adds twist vectors; the twist part
    commutes with everything by construction.
    """

    mat: Matrix
    twist: Vector

    def __post_init__(self):
        object.__setattr__(self, "mat", intmat.as_matrix(self.mat))
        object.__setattr__(self, "twist", tuple(int(x) for x in self.twist))

    def __mul__(self, other: CentralExtElement) -> CentralExtElement:
        if len(self.twist) != len(other.twist):
            raise ValueError("twist vectors have different lengths")
        return CentralExtElement(
            intmat.mat_mul(self.mat, other.mat),
            tuple(a + b for a, b in zip(self.twist, other.twist)),
        )

    def inverse(self) -> CentralExtElement:
        inv = intmat.int_inverse(self.mat)
        if inv is None:
            raise ValueError("matrix part is not invertible over the integers")
        return CentralExtElement(inv, tuple(-x for x in self.twist))

    def is_central(self) -> bool:
        """Central for the extension: trivial matrix part, any twist."""
        return self.mat == intmat.identity(len(self.mat))


def lift_adjust(lifts: Sequence[CentralExtElement]) -> list[CentralExtElement]:
    """Correct braid-relation defects of lifted generators by central factors.

    With W_i = (A_i A_{i+1} A_i)(A_{i+1} A_i A_{i+1})^{-1} central for every
    i, the sequence A_1, A_i W_1 ... W_{i-1} satisfies all relations exactly.
    Already-exact input is returned unchanged.
    """
    lifts = list(lifts)
    if len(lifts) < 2:
        return lifts
    defects = []
    for i in range(len(lifts) - 1):
        a, b = lifts[i], lifts[i + 1]
        w = (a * b * a) * (b * a * b).inverse()
        if not w.is_central():
            raise ValueError(f"braid defect at position {i + 1} is not central")
        defects.append(w)
    for i in range(len(lifts)):
        for j in range(i + 2, len(lifts)):
            if lifts[i] * lifts[j] != lifts[j] * lifts[i]:
                raise ValueError(f"distant generators {i + 1},{j + 1} do not commute")
    out = [lifts[0]]
    acc = CentralExtElement(intmat.identity(len(lifts[0].mat)), (0,) * len(lifts[0].twist))
    for i in range(1, len(lifts)):
        acc = acc * defects[i - 1]
        out.append(lifts[i] * acc)
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
    r = int(lines[0].strip()[5:])
    if len(lines) != r + 1:
        raise ValueError(f"expected {r} matrix rows, got {len(lines) - 1}")
    rows = [tuple(int(t) for t in ln.split()) for ln in lines[1:]]
    if any(len(row) != r for row in rows):
        raise ValueError("matrix rows must have rank entries each")
    return intmat.as_matrix(rows)


def format_matrix(m: Matrix) -> str:
    return "\n".join([f"rank={len(m)}", *(" ".join(map(str, row)) for row in m)])


def format_chain(chain: Sequence[CurveClass]) -> str:
    return "\n".join([f"k={len(chain)}", *(" ".join(map(str, c.v)) for c in chain)])
