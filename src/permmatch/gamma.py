"""The generating graph and its multiplication paths.

Nodes encode, for each stabilizer-chain level i, the edge pair produced by
multiplying the partial product by a level-i transposition (i,k): the pair
{(i,k), (t,i)} plus the consumed matched edge (t,k).  Identity levels get a
lone diagonal node (i,i,i) carrying edge (i,i): the node of the level's
identity factor (i,i).

A complete path picks one node per level.  Validity is the suffix-product
constraint: with pi_{n+1} = I and pi_i = pi_{i+1} * psi(x_i), every
transposition node must have t equal to the preimage of k under pi_{i+1}.
Valid paths are in bijection with S_n, one per product of the chain's
transversals.  A path's matching is the union of its node edges minus the
consumed ("surplus") edges, held as the permutation it is, and qualifying a
path against a concrete graph reads the edges that graph lacks (the edge
requirement).

Multiplying a realized permutation p by a transposition (i,k) exchanges two
matched edges along a 4-cycle: with a and t the preimages of i and k under
p, the edges (a,i) and (t,k) leave and (a,k) and (t,i) enter.  A level node
is `four_cycle`'s a = i case: the suffix product fixes 1..i.

Solid R edges join nodes whose consumed edge reappears in a later node's
edge pair; dashed S edges join node-disjoint pairs at adjacent levels.
"""

import itertools

from ._guards import admits, counter, guard
from ._record import Record
from .bipartite import BipartiteGraph, contains_matching
from .perms import Permutation, Transposition, coset_transversals, sift, suffix_products


class FourCycleWitness(Record):
    """The 4-cycle (v_a, w_i, v_t, w_k) driving p * (i,k).

    edges_before are the two matched edges of p on the cycle; edges_after are
    the two matched edges of the product that replace them.
    """

    __slots__ = (
        "i",
        "k",
        "a",
        "t",
        "edges_before",  # {(a,i), (t,k)}, subset of the matching of p
        "edges_after",  # {(a,k), (t,i)}, subset of the matching of p*(i,k)
    )

    @property
    def cycle_nodes(self) -> tuple:
        """Cycle as (v_a, w_i, v_t, w_k) labels."""
        return (("v", self.a), ("w", self.i), ("v", self.t), ("w", self.k))


def four_cycle(p: Permutation, psi: Transposition) -> FourCycleWitness:
    if psi.is_identity:
        raise ValueError("identity multiplier has no 4-cycle witness")
    if psi.k > p.n:
        raise ValueError(f"transposition {psi} does not fit in S_{p.n}")
    i, k = psi.i, psi.k
    a = p.preimage(i)
    t = p.preimage(k)
    return FourCycleWitness(
        i, k, a, t, frozenset({(a, i), (t, k)}), frozenset({(a, k), (t, i)})
    )


def is_product_realized(g: BipartiteGraph, p: Permutation, psi: Transposition) -> bool:
    """Is p*psi realized in g, given that p itself is?

    Requires the matching of p to be contained in g; the product is then
    realized exactly when the two replacement edges of the 4-cycle witness
    are present.
    """
    if not contains_matching(g, p):
        raise ValueError("p is not realized in g; hypothesis unmet")
    w = four_cycle(p, psi)
    return all(g.has_edge(v, u) for v, u in w.edges_after)


class GammaNode(Record):
    """Edge-pair element at level `position`: (position k, t position).

    Transposition nodes have k > position and t > position; the identity
    node at a level has k = t = position.
    """

    __slots__ = ("position", "k", "t")

    def _validate(self):
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
        return frozenset({(i, self.k), (self.t, i)})

    @property
    def consumed_edge(self):
        """Matched edge (t,k) removed by this multiplication; None at identity."""
        if self.is_identity:
            return None
        return (self.t, self.k)

    @property
    def psi(self) -> Transposition:
        return Transposition(self.position, self.k)

    def __str__(self):
        return f"({self.position}{self.k},{self.t}{self.position})"


class GammaGraph(Record):
    """All level nodes for a given n plus the R and S relations."""

    __slots__ = (
        "n",
        "nodes",  # position-major, identity first, then by (k, t)
        "r_edges",  # ordered pairs (x, y), position(x) < position(y)
        "s_edges",  # ordered pairs at adjacent positions, node-disjoint
    )

    def at_position(self, i: int) -> tuple:
        return tuple(x for x in self.nodes if x.position == i)


class Cvmp(Record):
    """A complete valid multiplication path: one node per level 1..n."""

    __slots__ = ("nodes",)

    def _validate(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        n = len(self.nodes)
        for i, x in enumerate(self.nodes, start=1):
            if x.position != i:
                raise ValueError(f"node {x} at index {i} has wrong position")
            if max(x.k, x.t) > n:
                raise ValueError(f"node {x} at index {i} does not fit in S_{n}")

    @property
    def n(self) -> int:
        return len(self.nodes)

    def __str__(self):
        return "".join(map(str, self.nodes))


def build_gamma(n: int) -> GammaGraph:
    """Construct the level graph for K_{n,n}; deterministic node order."""
    guard("build", n)
    by_pos = {
        i: [GammaNode(i, i, i)]
        + [GammaNode(i, k, t) for k in range(i + 1, n + 1) for t in range(i + 1, n + 1)]
        for i in range(1, n + 1)
    }
    nodes = [x for level in by_pos.values() for x in level]

    # R by lookup: consumed edge (t, k) is the (t, k) of a level-t node with
    # that k, or of a level-k node with that t.
    r_edges = set()
    for x in nodes:
        if x.is_identity:
            continue
        r_edges.update((x, y) for y in by_pos[x.t] if y.k == x.k)
        r_edges.update((x, y) for y in by_pos[x.k] if y.t == x.t)

    # Node (i, k, t) covers rows {i, t} and columns {i, k} of K_{n,n}.
    s_edges = set()
    for i in range(1, n):
        for x in by_pos[i]:
            rows, cols = {i, x.t}, {i, x.k}
            for y in by_pos[i + 1]:
                if rows.isdisjoint((i + 1, y.t)) and cols.isdisjoint((i + 1, y.k)):
                    s_edges.add((x, y))

    return GammaGraph(n, tuple(nodes), frozenset(r_edges), frozenset(s_edges))


def _level_node(i: int, k: int, suffix: Permutation) -> GammaNode:
    """The level-i node for psi_i = (i,k) under suffix = psi_n * ... * psi_(i+1).

    The suffix fixes 1..i, so k = i gives the identity node (i,i,i).
    """
    return GammaNode(i, k, suffix.preimage(k))


def validate_path(path: Cvmp) -> list:
    """Check the suffix-product constraint; returns the suffix products.

    Raises with the first (lowest) violated position.
    """
    products = suffix_products([x.psi for x in path.nodes])
    for i, x in enumerate(path.nodes, start=1):
        want = _level_node(i, x.k, products[i])
        if x != want:
            raise ValueError(
                f"position {i}: node {x} invalid; t must be {want.t} "
                f"(preimage of {x.k} under the suffix product)"
            )
    return products


def _factors_to_path(factors) -> Cvmp:
    """The valid path of per-level factors [psi_1 .. psi_n], psi_i in U_i."""
    suffixes = suffix_products(factors)
    return Cvmp(
        tuple(_level_node(i, psi.k, suffixes[i]) for i, psi in enumerate(factors, start=1))
    )


def perm_to_path(q: Permutation) -> Cvmp:
    """The unique valid path multiplying out to q."""
    return _factors_to_path(sift(q))


def enumerate_cvmps(n: int):
    """Yield all n! valid paths, one per product of `coset_transversals(n)`.

    Level n varies slowest, each level in transversal order (I, then (i,k)
    by k); t is forced by the suffix product.  No generating graph is built.
    """
    guard("enumeration", n)
    for f in itertools.product(*reversed(coset_transversals(n))):
        yield _factors_to_path(f[::-1])


def surplus_edges(path: Cvmp) -> frozenset:
    """Consumed edges of all transposition nodes of a valid path."""
    validate_path(path)
    return frozenset(x.consumed_edge for x in path.nodes if not x.is_identity)


def path_to_matching(path: Cvmp) -> Permutation:
    """Union of node edges minus surplus edges, as the permutation mapping v
    to w for each of those edges (v, w); equals the path's product
    psi(x_n) ... psi(x_1).  The path is validated once, by surplus_edges.
    Raises ValueError unless the edges are a perfect matching."""
    union = set()
    for x in path.nodes:
        union |= x.node_edges
    images = [0] * path.n
    for v, w in union - surplus_edges(path):
        if images[v - 1]:  # a second edge at row v would overwrite the first
            raise ValueError(f"path {path} leaves two edges at row {v}")
        images[v - 1] = w
    return Permutation(images)  # refuses an unmatched row or a repeated column


def edge_requirement(path: Cvmp, g: BipartiteGraph) -> frozenset:
    """Edges the path's matching needs but g lacks; empty iff g realizes it."""
    if g.n != path.n:
        raise ValueError(f"size mismatch: graph n={g.n}, path n={path.n}")
    images = path_to_matching(path).images
    return frozenset((v, w) for v, w in enumerate(images, start=1) if not g.has_edge(v, w))


def export_dot(n: int) -> str:
    """Render the generating graph for n as a DOT digraph: solid R edges,
    dashed S edges.  The guard is checked before the graph is built."""
    guard("DOT export", n)
    gamma = build_gamma(n)
    lines = ["digraph generating_graph {", "  rankdir=LR;"]
    for x in gamma.nodes:
        lines.append(f'  "{x}";')
    key = lambda e: (e[0].position, e[0].k, e[0].t, e[1].position, e[1].k, e[1].t)
    for x, y in sorted(gamma.r_edges, key=key):
        lines.append(f'  "{x}" -> "{y}" [style=solid];')
    for x, y in sorted(gamma.s_edges, key=key):
        lines.append(f'  "{x}" -> "{y}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def unconstrained_walk_count(gamma: GammaGraph) -> int:
    """Dynamic program over adjacent-level R/S edges, one node per level."""
    step = {}
    for x, y in gamma.r_edges | gamma.s_edges:
        if y.position == x.position + 1:
            step.setdefault(x, []).append(y)
    ways = {x: 1 for x in gamma.at_position(1)}
    for i in range(1, gamma.n):
        nxt = {}
        for x, count in ways.items():
            for y in step.get(x, ()):
                nxt[y] = nxt.get(y, 0) + count
        ways = nxt
    return sum(ways.values())


def gamma_stats(n: int) -> dict:
    """Shape numbers for the generating graph at n, as `permmatch gamma
    --stats` prints them: n, node_count, r_edge_count, s_edge_count,
    valid_paths (None where cvmp's guard refuses n) and unconstrained_walks.

    unconstrained_walks counts level-1-to-n walks that only follow R/S edges
    between consecutive levels, ignoring the suffix-product constraint; it is
    reported alongside the valid-path count, never asserted equal to it.
    """
    gamma = build_gamma(n)
    complete = BipartiteGraph.complete(n)
    valid = counter("cvmp")(complete) if "cvmp" in admits(n) else None
    return {
        "n": n,
        "node_count": len(gamma.nodes),
        "r_edge_count": len(gamma.r_edges),
        "s_edge_count": len(gamma.s_edges),
        "valid_paths": valid,
        "unconstrained_walks": unconstrained_walk_count(gamma),
    }
