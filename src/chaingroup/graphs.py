"""Connected multigraphs with an edge-transitive cyclic action.

An action graph is a finite multigraph (loops and parallel edges allowed)
together with one automorphism, given as a vertex permutation and an edge
permutation. When the edge permutation is transitive the pair falls into
exactly two shapes: a single vertex orbit with edges stepping by a residue
coprime to the vertex count, or two coprime vertex orbits with every edge
joining them. classify/generate convert between a graph and its shape
parameters, brute_enumerate rebuilds all shapes from scratch as a
cross-check, and genus_audit runs the curve-count bounds for a graph whose
vertices stand for complementary subsurfaces.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from . import Record, finite, parse_int, parse_ints


class ActionGraph(Record):
    """A multigraph with one automorphism (vertex and edge permutation).

    Edges are unordered pairs stored (min, max); labels optionally attach
    (genus, natural boundary count) to each vertex for the audit and are
    ignored by classification.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    vperm: tuple[int, ...]
    eperm: tuple[int, ...]
    labels: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple((min(u, v), max(u, v)) for u, v in self.edges)
        )
        object.__setattr__(self, "vperm", tuple(self.vperm))
        object.__setattr__(self, "eperm", tuple(self.eperm))
        v = self.num_vertices
        if sorted(self.vperm) != list(range(v)):
            raise ValueError("vperm is not a permutation of the vertices")
        if sorted(self.eperm) != list(range(len(self.edges))):
            raise ValueError("eperm is not a permutation of the edges")
        for u, w in self.edges:
            if not (0 <= u < v and 0 <= w < v):
                raise ValueError("edge endpoint out of range")
        for j, (u, w) in enumerate(self.edges):
            image = tuple(sorted((self.vperm[u], self.vperm[w])))
            if image != self.edges[self.eperm[j]]:
                raise ValueError(f"the action is not a graph automorphism at edge {j}")
        if self.labels is not None and len(self.labels) != v:
            raise ValueError("need one (genus, natural boundary) label per vertex")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        """Vertex degrees, each loop counting twice."""
        deg = [0] * self.num_vertices
        for u, w in self.edges:
            deg[u] += 1
            deg[w] += 1
        return deg

    def is_connected(self) -> bool:
        if self.num_vertices == 0:
            return False
        seen = {0}
        frontier = [0]
        adj: dict[int, set[int]] = {i: set() for i in range(self.num_vertices)}
        for u, w in self.edges:
            adj[u].add(w)
            adj[w].add(u)
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen) == self.num_vertices

    def is_edge_transitive(self) -> bool:
        return len(finite.cycles(self.eperm)) == 1


class TypeA(Record):
    """One vertex orbit of size k; edges step by p coprime to k, d parallel
    copies per adjacent pair (d = m when k = 2)."""

    k: int
    p: int
    d: int

    def __post_init__(self):
        if self.k < 1 or self.d < 1:
            raise ValueError("k and d must be positive")
        p_ok = self.p == 1 if self.k == 1 else math.gcd(self.p, self.k) == 1
        if not p_ok or not 1 <= self.p <= max(self.k - 1, 1):
            raise ValueError(f"step {self.p} invalid for vertex count {self.k}")


class TypeB(Record):
    """Two vertex orbits of coprime sizes k <= l; every edge joins them,
    d = m/(k*l) parallel copies per pair."""

    k: int
    l: int
    d: int

    def __post_init__(self):
        if self.k < 1 or self.l < 1 or self.d < 1:
            raise ValueError("orbit sizes and multiplicity must be positive")
        if self.k > self.l:
            raise ValueError("orbit sizes are normalized ascending (k <= l)")
        if math.gcd(self.k, self.l) != 1:
            raise ValueError("orbit sizes must be coprime")


GraphClass = TypeA | TypeB


def generate(cls: GraphClass, m: int) -> ActionGraph:
    """The template graph-with-action of a shape with m edges."""
    if m < 1:
        raise ValueError("need at least one edge")
    if isinstance(cls, TypeA):
        k = cls.k
        if k == 2:
            if cls.d != m:
                raise ValueError("a two-vertex single orbit carries all m edges in one bundle")
        elif m % k != 0 or cls.d != m // k:
            raise ValueError(f"edge count {m} incompatible with k={k}, d={cls.d}")
        edges = tuple((i % k, (i + cls.p) % k) for i in range(m))
        vperm = tuple((i + 1) % k for i in range(k))
    elif isinstance(cls, TypeB):
        k, l = cls.k, cls.l
        if m % (k * l) != 0 or cls.d != m // (k * l):
            raise ValueError(f"edge count {m} incompatible with k={k}, l={l}, d={cls.d}")
        edges = tuple((i % k, k + (i % l)) for i in range(m))
        vperm = tuple((i + 1) % k for i in range(k)) + tuple(
            k + ((j + 1) % l) for j in range(l)
        )
    else:
        raise TypeError(f"not a graph class: {cls!r}")
    eperm = tuple((i + 1) % m for i in range(m))
    g = ActionGraph(max(u for e in edges for u in e) + 1, edges, vperm, eperm)
    if not g.is_connected():
        raise ValueError(f"parameters {cls} with m={m} give a disconnected graph")
    if not g.is_edge_transitive():
        raise RuntimeError(f"template {cls} with m={m} is not edge-transitive")
    return g


def classify(g: ActionGraph) -> GraphClass:
    """The shape parameters of a connected edge-transitive action graph."""
    if not g.is_connected():
        raise ValueError("graph is not connected")
    if not g.is_edge_transitive():
        raise ValueError("the action is not transitive on edges")
    m = g.num_edges
    cycles = finite.cycles(g.vperm)
    cycle_of = {}
    for idx, cyc in enumerate(cycles):
        for x in cyc:
            cycle_of[x] = idx
    u0, w0 = g.edges[0]
    mult = sum(1 for e in g.edges if e == g.edges[0])
    if cycle_of[u0] == cycle_of[w0]:
        cyc = cycles[cycle_of[u0]]
        k = len(cyc)
        pos = {x: i for i, x in enumerate(cyc)}
        if k == 1:
            return TypeA(1, 1, mult)
        p_raw = (pos[w0] - pos[u0]) % k
        p = min(p_raw, k - p_raw) if k > 2 else 1
        return TypeA(k, p, mult)
    k, l = sorted((len(cycles[cycle_of[u0]]), len(cycles[cycle_of[w0]])))
    return TypeB(k, l, mult)


def _encodings(g: ActionGraph) -> Iterator[tuple]:
    """All structure-respecting encodings of the pair (graph, action).

    An isomorphism of pairs must conjugate the edge m-cycle to itself, so it
    rotates edge labels; vertex names are then forced up to the order choice
    when both endpoints of an edge are new. Enumerating every rotation and
    every such order choice yields the full encoding orbit, whose minimum is
    a canonical key.
    """
    m = g.num_edges
    for r in range(m):
        order = []
        j = r
        for _ in range(m):
            order.append(g.edges[j])
            j = g.eperm[j]

        def rec(idx: int, names: dict[int, int], acc: list[tuple[int, int]]):
            if idx == m:
                if len(names) == g.num_vertices:
                    vperm_named = [0] * g.num_vertices
                    for orig, new in names.items():
                        vperm_named[new] = names[g.vperm[orig]]
                    yield (g.num_vertices, tuple(acc), tuple(vperm_named))
                return
            u, w = order[idx]
            orderings = [(u, w)] if (u == w or u in names or w in names) else [(u, w), (w, u)]
            for a, b in orderings:
                added = []
                for x in (a, b):
                    if x not in names:
                        names[x] = len(names)
                        added.append(x)
                acc.append(tuple(sorted((names[u], names[w]))))
                yield from rec(idx + 1, names, acc)
                acc.pop()
                for x in added:
                    del names[x]

        yield from rec(0, {}, [])


def canonical_key(g: ActionGraph) -> tuple:
    """Isomorphism invariant of the pair (graph, action)."""
    return min(_encodings(g))


def brute_enumerate(m: int, budget: int = 8) -> list[ActionGraph]:
    """All connected m-edge graphs with an edge-transitive cyclic action.

    Exhaustive search from first principles: a transitive edge action makes
    the edge permutation one m-cycle, so after relabeling the whole pair is
    pinned by one starting edge and the vertex permutation on the (at most
    two) vertex cycles its endpoints generate. Everything else is filtered
    by explicit connectivity and automorphism checks, then deduplicated up
    to isomorphism of graph-with-action pairs.
    """
    if m < 1:
        raise ValueError("need at least one edge")
    if m > budget:
        raise ValueError(f"edge count {m} exceeds the enumeration budget {budget}")
    found: dict[tuple, ActionGraph] = {}

    def consider(g: ActionGraph):
        if g.is_connected() and g.is_edge_transitive():
            found.setdefault(canonical_key(g), g)

    eperm = tuple((i + 1) % m for i in range(m))
    # both endpoints on one vertex cycle of length c
    for c in range(1, 2 * m + 1):
        for t in range(c):
            edges = tuple((i % c, (i + t) % c) for i in range(m))
            vperm = tuple((i + 1) % c for i in range(c))
            try:
                g = ActionGraph(c, edges, vperm, eperm)
            except ValueError:
                continue
            consider(g)
    # endpoints on two vertex cycles of lengths c1, c2
    for c1 in range(1, m + 1):
        for c2 in range(1, m + 1):
            edges = tuple((i % c1, c1 + (i % c2)) for i in range(m))
            vperm = tuple((i + 1) % c1 for i in range(c1)) + tuple(
                c1 + ((j + 1) % c2) for j in range(c2)
            )
            try:
                g = ActionGraph(c1 + c2, edges, vperm, eperm)
            except ValueError:
                continue
            consider(g)
    return [found[key] for key in sorted(found)]


def all_classes(m: int) -> list[GraphClass]:
    """Every shape realizable with m edges, in a deterministic order.

    The two-vertex single-orbit shape exists for every m (all edges in one
    parallel bundle); other one-orbit shapes need the vertex count to divide
    the edge count.
    """
    out: list[GraphClass] = [TypeA(1, 1, m), TypeA(2, 1, m)]
    for k in range(3, m + 1):
        if m % k != 0:
            continue
        d = m // k
        for p in range(1, k // 2 + 1):
            if math.gcd(p, k) == 1:
                out.append(TypeA(k, p, d))
    for k in range(1, m + 1):
        for l in range(k, m + 1):
            if math.gcd(k, l) != 1 or m % (k * l) != 0:
                continue
            out.append(TypeB(k, l, m // (k * l)))
    return out


class GenusAuditReport(Record):
    """Curve-count feasibility facts for an action graph on a surface."""

    num_curves: int
    independent_cycles: int
    low_degree_vertices: int
    within_bound: bool
    corank_ok: bool
    equality_case: bool
    equality_allowed: bool
    feasible: bool


def genus_audit(g: ActionGraph, genus: int, b: int) -> GenusAuditReport:
    """Check m <= 2*genus with its corank refinement and the equality case.

    The number of independent cycles is c = 1 + edges - vertices and h
    counts vertices of degree 1 or 2; on a closed surface the genus must
    dominate c + h. Equality m = 2*genus survives only on the closed
    genus-6 surface with the two-orbit shape (k, l, d) = (3, 4, 1); with
    boundary the count is strictly below 2*genus.
    """
    if genus < 0 or b < 0:
        raise ValueError("genus and boundary count must be nonnegative")
    if g.num_edges < 3:
        raise ValueError("audit hypothesis needs at least three edges")
    if not g.is_connected() or not g.is_edge_transitive():
        raise ValueError("audit hypothesis needs a connected edge-transitive action")
    m = g.num_edges
    c = 1 + m - g.num_vertices
    h = sum(1 for d in g.degrees() if d in (1, 2))
    within = m <= 2 * genus
    corank_ok = genus >= c + h
    equality = m == 2 * genus
    cls = classify(g)
    equality_allowed = (
        equality
        and (genus, b) == (6, 0)
        and isinstance(cls, TypeB)
        and (cls.k, cls.l, cls.d) == (3, 4, 1)
    )
    if b == 0:
        feasible = within and corank_ok and (not equality or equality_allowed)
    else:
        feasible = m < 2 * genus and within
    return GenusAuditReport(m, c, h, within, corank_ok, equality, equality_allowed, feasible)


def parse_graph(text: str) -> ActionGraph:
    """Parse: vertices=<int>; edge lines 'u v'; optional 'label v genus b'
    lines; final 'action vperm=<cycles> eperm=<cycles>' line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("vertices="):
        raise ValueError("graph text must start with vertices=<int>")
    nv = parse_int(lines[0][9:], "vertices")
    if nv < 0:
        raise ValueError(f"vertex count must be nonnegative, got {nv}")
    edges: list[tuple[int, int]] = []
    labels: dict[int, tuple[int, int]] = {}
    action_line = None
    for ln in lines[1:]:
        if ln.startswith("action "):
            if action_line is not None:
                raise ValueError("graph text has more than one action line")
            action_line = ln[len("action "):]
        elif ln.startswith("label "):
            parts = ln.split()
            if len(parts) != 4:
                raise ValueError(f"label line must be 'label v genus b', got {ln!r}")
            v, gv, bv = parse_ints(parts[1:], "label")
            if not 0 <= v < nv:
                raise ValueError(f"label vertex {v} out of range 0..{nv - 1}")
            if v in labels:
                raise ValueError(f"repeated label line for vertex {v}")
            labels[v] = (gv, bv)
        else:
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"edge line must be 'u v', got {ln!r}")
            edges.append(parse_ints(parts, "edge"))
    if action_line is None:
        raise ValueError("graph text needs an action line")
    if "vperm=" not in action_line or "eperm=" not in action_line:
        raise ValueError("action line must contain vperm=<cycles> eperm=<cycles>")
    split_at = action_line.index("eperm=")
    vtext = action_line[: split_at].replace("vperm=", "", 1).strip()
    etext = action_line[split_at + len("eperm="):].strip()
    vperm = _perm_from_cycles(vtext, nv, "vperm")
    eperm = _perm_from_cycles(etext, len(edges), "eperm")
    label_tuple = None
    if labels:
        label_tuple = tuple(labels.get(v, (0, 0)) for v in range(nv))
    return ActionGraph(nv, tuple(edges), vperm, eperm, label_tuple)


def _perm_from_cycles(text: str, size: int, source: str) -> tuple[int, ...]:
    img = list(range(size))
    text = text.strip()
    if text in ("()", "id", ""):
        return tuple(img)
    for cyc in text.replace(")", ")|").split("|"):
        cyc = cyc.strip().strip("()")
        if not cyc:
            continue
        elems = parse_ints(cyc.replace(",", " ").split(), source)
        if any(not 0 <= a < size for a in elems):
            raise ValueError(f"cycle symbol out of range 0..{size - 1}: {text!r}")
        for a, b in zip(elems, elems[1:] + elems[:1]):
            img[a] = b
    if sorted(img) != list(range(size)):
        raise ValueError(f"not a permutation of 0..{size - 1}: {text!r}")
    return tuple(img)


def format_graph(g: ActionGraph) -> str:
    lines = [f"vertices={g.num_vertices}"]
    lines += [f"{u} {w}" for u, w in g.edges]
    if g.labels is not None:
        lines += [f"label {v} {gv} {bv}" for v, (gv, bv) in enumerate(g.labels)]
    lines.append(
        f"action vperm={_cycles_str(g.vperm)} eperm={_cycles_str(g.eperm)}"
    )
    return "\n".join(lines)


def _cycles_str(perm: Sequence[int]) -> str:
    parts = ["(" + " ".join(map(str, c)) + ")" for c in finite.cycles(perm) if len(c) > 1]
    return "".join(parts) or "()"
