"""The generating graph and its multiplication paths.

Nodes encode, for each stabilizer-chain level i, the edge pair produced by
multiplying the partial product by a level-i transposition (i,k): the pair
{(i,k), (t,i)} plus the consumed matched edge (t,k).  Identity levels get a
lone diagonal node (i,i,i) carrying edge (i,i).

A complete path picks one node per level.  Validity is the suffix-product
constraint: with pi_{n+1} = I and pi_i = pi_{i+1} * psi(x_i), every
transposition node must have t equal to the preimage of k under pi_{i+1}.
Valid paths are in bijection with S_n; a path's matching is the union of its
node edges minus the consumed ("surplus") edges, and qualifying a path
against a concrete graph is a plain set difference (the edge requirement).

Solid R edges join nodes whose consumed edge reappears in a later node's
edge pair; dashed S edges join node-disjoint pairs at adjacent levels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bipartite import BipartiteGraph, Matching
from .perms import Permutation, Transposition, compose, sift, unsift

BUILD_MAX_N = 12
ENUMERATE_MAX_N = 7
DOT_MAX_N = 8


@dataclass(frozen=True)
class GammaNode:
    """Edge-pair element at level `position`: (position k, t position).

    Transposition nodes have k > position and t > position; the identity
    node at a level has k = t = position.
    """

    position: int
    k: int
    t: int

    def __post_init__(self):
        i = self.position
        if i < 1:
            raise ValueError("position must be >= 1")
        if (self.k, self.t) == (i, i):
            return
        if not (self.k > i and self.t > i):
            raise ValueError(f"transposition node needs k,t > position, got {self}")

    @property
    def is_identity(self) -> bool:
        return self.k == self.position

    @property
    def node_edges(self) -> frozenset:
        i = self.position
        if self.is_identity:
            return frozenset({(i, i)})
        return frozenset({(i, self.k), (self.t, i)})

    @property
    def consumed_edge(self):
        """Matched edge (t,k) removed by this multiplication; None at identity."""
        if self.is_identity:
            return None
        return (self.t, self.k)

    @property
    def psi(self) -> Transposition:
        if self.is_identity:
            return Transposition.identity()
        return Transposition(self.position, self.k)

    @property
    def touched(self) -> frozenset:
        """Bipartite nodes covered by node_edges, as ('v'|'w', point) labels."""
        out = set()
        for v, w in self.node_edges:
            out.add(("v", v))
            out.add(("w", w))
        return frozenset(out)

    @property
    def label(self) -> str:
        return f"({self.position}{self.k},{self.t}{self.position})"

    def __str__(self):
        return self.label


@dataclass(frozen=True)
class GammaGraph:
    """All level nodes for a given n plus the R and S relations."""

    n: int
    nodes: tuple  # position-major, identity first, then by (k, t)
    r_edges: frozenset  # ordered pairs (x, y), position(x) < position(y)
    s_edges: frozenset  # ordered pairs at adjacent positions, node-disjoint

    def at_position(self, i: int) -> tuple:
        return tuple(x for x in self.nodes if x.position == i)


@dataclass(frozen=True)
class Cvmp:
    """A complete valid multiplication path: one node per level 1..n."""

    nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        for i, x in enumerate(self.nodes, start=1):
            if x.position != i:
                raise ValueError(f"node {x} at index {i} has wrong position")

    @property
    def n(self) -> int:
        return len(self.nodes)

    def __str__(self):
        return "".join(x.label for x in self.nodes)


def build_gamma(n: int) -> GammaGraph:
    """Construct the level graph for K_{n,n}; deterministic node order."""
    if not 1 <= n <= BUILD_MAX_N:
        raise ValueError(f"build is guarded at 1 <= n <= {BUILD_MAX_N}")
    nodes = []
    for i in range(1, n + 1):
        nodes.append(GammaNode(i, i, i))
        for k in range(i + 1, n + 1):
            for t in range(i + 1, n + 1):
                nodes.append(GammaNode(i, k, t))

    r_edges = set()
    for x in nodes:
        ce = x.consumed_edge
        if ce is None:
            continue
        for y in nodes:
            if y.position > x.position and ce in y.node_edges:
                r_edges.add((x, y))

    s_edges = set()
    by_pos = {}
    for x in nodes:
        by_pos.setdefault(x.position, []).append(x)
    for i in range(1, n):
        for x in by_pos[i]:
            for y in by_pos[i + 1]:
                if not (x.touched & y.touched):
                    s_edges.add((x, y))

    return GammaGraph(n, tuple(nodes), frozenset(r_edges), frozenset(s_edges))


def _suffix_products(path: Cvmp) -> list:
    """products[i-1] = psi(x_n) * ... * psi(x_i); products[n] = I."""
    n = path.n
    products = [None] * (n + 1)
    products[n] = Permutation.identity(n)
    for i in range(n, 0, -1):
        products[i - 1] = compose(products[i], path.nodes[i - 1].psi.to_perm(n))
    return products


def validate_path(path: Cvmp) -> list:
    """Check the suffix-product constraint; returns the suffix products.

    Raises with the first (lowest) violated position.
    """
    products = _suffix_products(path)
    for i in range(1, path.n + 1):
        x = path.nodes[i - 1]
        if x.is_identity:
            continue
        if x.k > path.n:
            raise ValueError(f"position {i}: node {x} does not fit in S_{path.n}")
        want_t = products[i].preimage(x.k)
        if x.t != want_t:
            raise ValueError(
                f"position {i}: node {x} invalid; t must be {want_t} "
                f"(preimage of {x.k} under the suffix product)"
            )
    return products


def path_to_perm(path: Cvmp) -> Permutation:
    """Ordered product psi(x_n) ... psi(x_1) of a valid path."""
    validate_path(path)
    return unsift([x.psi for x in path.nodes])


def perm_to_path(q: Permutation) -> Cvmp:
    """The unique valid path multiplying out to q."""
    factors = sift(q)
    n = q.n
    suffix = Permutation.identity(n)
    # Build suffix products psi_n ... psi_{i+1} from the top down.
    suffixes = [None] * (n + 1)
    suffixes[n] = suffix
    for i in range(n, 0, -1):
        suffixes[i - 1] = compose(suffixes[i], factors[i - 1].to_perm(n))
    nodes = []
    for i in range(1, n + 1):
        psi = factors[i - 1]
        if psi.is_identity:
            nodes.append(GammaNode(i, i, i))
        else:
            t = suffixes[i].preimage(psi.k)
            nodes.append(GammaNode(i, psi.k, t))
    return Cvmp(tuple(nodes))


def enumerate_cvmps(gamma: GammaGraph):
    """Yield every valid path of gamma, depth-first from level n down to 1.

    At each level the identity node comes first, then targets k in increasing
    order; t is forced by the suffix product, so exactly n! paths come out.
    """
    n = gamma.n
    if n > ENUMERATE_MAX_N:
        raise ValueError(f"enumeration is guarded at n <= {ENUMERATE_MAX_N}")

    def rec(i: int, suffix: Permutation, tail: list):
        if i == 0:
            yield Cvmp(tuple(reversed(tail)))
            return
        tail.append(GammaNode(i, i, i))
        yield from rec(i - 1, suffix, tail)
        tail.pop()
        for k in range(i + 1, n + 1):
            t = suffix.preimage(k)
            tail.append(GammaNode(i, k, t))
            psi = Transposition(i, k)
            yield from rec(i - 1, compose(suffix, psi.to_perm(n)), tail)
            tail.pop()

    yield from rec(n, Permutation.identity(n), [])


def _consumed_edges(path: Cvmp) -> frozenset:
    return frozenset(x.consumed_edge for x in path.nodes if not x.is_identity)


def surplus_edges(path: Cvmp) -> frozenset:
    """Consumed edges of all transposition nodes of a valid path."""
    validate_path(path)
    return _consumed_edges(path)


def surplus_attribution(path: Cvmp) -> dict:
    """Charge each consumed edge to the pair (x_i, x_m) with x_m the nearest
    later node whose edge pair contains it.  Keys are (x_i, x_m), values the
    edge.  Such an x_m always exists for a valid path."""
    validate_path(path)
    out = {}
    for i, x in enumerate(path.nodes):
        ce = x.consumed_edge
        if ce is None:
            continue
        for y in path.nodes[i + 1 :]:
            if ce in y.node_edges:
                out[(x, y)] = ce
                break
        else:
            raise ValueError(f"consumed edge {ce} of {x} is never resolved")
    return out


def path_to_matching(path: Cvmp) -> Matching:
    """Union of node edges minus surplus edges; equals the matching of
    path_to_perm(path)."""
    validate_path(path)
    union = set()
    for x in path.nodes:
        union |= x.node_edges
    pairs = union - _consumed_edges(path)
    return Matching(path.n, frozenset(pairs))


def edge_requirement(path: Cvmp, g: BipartiteGraph) -> frozenset:
    """Edges the path's matching needs but g lacks; empty iff g realizes it."""
    if g.n != path.n:
        raise ValueError(f"size mismatch: graph n={g.n}, path n={path.n}")
    return frozenset(
        (v, w) for v, w in path_to_matching(path).pairs if not g.has_edge(v, w)
    )


def export_dot(gamma: GammaGraph) -> str:
    """Render as a DOT digraph: solid R edges, dashed S edges."""
    if gamma.n > DOT_MAX_N:
        raise ValueError(f"DOT export is guarded at n <= {DOT_MAX_N}")
    lines = ["digraph generating_graph {", "  rankdir=LR;"]
    for x in gamma.nodes:
        lines.append(f'  "{x.label}";')
    key = lambda e: (e[0].position, e[0].k, e[0].t, e[1].position, e[1].k, e[1].t)
    for x, y in sorted(gamma.r_edges, key=key):
        lines.append(f'  "{x.label}" -> "{y.label}" [style=solid];')
    for x, y in sorted(gamma.s_edges, key=key):
        lines.append(f'  "{x.label}" -> "{y.label}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
