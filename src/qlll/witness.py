"""Witness trees, resample DAGs, and their probability calculus.

Everything here works over abstract integer labels plus an intersection
relation, so the classical and quantum solvers share one implementation.
Structures are value objects; equality across different construction runs is
by canonical form, which is well defined because two vertices carrying the
same label always intersect and are therefore totally ordered in time.

Edge orientation for resample DAGs: edges run from the LATER vertex to the
EARLIER one.  A leaf (no outgoing edges) is then a time-minimal element, and
the uniform leaf-removal process emits sequences earliest-first.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import config
from .instance import IntersectionGraph, LovaszCertificate


def label_intersection(graph: IntersectionGraph):
    """Intersection relation on labels; every label intersects itself."""

    def meet(a: int, b: int) -> bool:
        return a == b or b in graph.gamma(a)

    return meet


def _labels_of(log) -> tuple:
    if hasattr(log, "labels"):
        return log.labels()
    return tuple(log)


@dataclass(frozen=True)
class WitnessTree:
    """Rooted tree in creation order: vertex 0 is the root, parents precede
    children."""

    labels: tuple
    parents: tuple

    def __post_init__(self):
        # operator.index refuses 0.5 or 1e400 rather than truncating it
        object.__setattr__(self, "labels", tuple(map(operator.index, self.labels)))
        object.__setattr__(self, "parents", tuple(map(operator.index, self.parents)))
        if not self.labels:
            raise ValueError("a witness tree has at least its root")
        if len(self.labels) != len(self.parents):
            raise ValueError("labels and parents disagree in length")
        if self.parents[0] != -1:
            raise ValueError("vertex 0 must be the root")
        for v in range(1, len(self.parents)):
            if not 0 <= self.parents[v] < v:
                raise ValueError("parents must be created before their children")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def root_label(self) -> int:
        return self.labels[0]

    def children(self) -> list:
        kids = [[] for _ in self.labels]
        for v in range(1, len(self.labels)):
            kids[self.parents[v]].append(v)
        return kids

    def is_proper(self) -> bool:
        for kids in self.children():
            labs = [self.labels[c] for c in kids]
            if len(set(labs)) != len(labs):
                return False
        return True

    def canonical(self):
        """Nested (label, sorted children) tuples; iterative, so arbitrarily
        deep chains are fine."""
        kids = self.children()
        canon = [None] * len(self.labels)
        for v in range(len(self.labels) - 1, -1, -1):
            canon[v] = (self.labels[v], tuple(sorted(canon[c] for c in kids[v])))
        return canon[0]

    def to_dict(self) -> dict:
        return {"labels": list(self.labels), "parents": list(self.parents)}


def tree_from_dict(data: dict) -> WitnessTree:
    return WitnessTree(tuple(data["labels"]), tuple(data["parents"]))


def tree_from_nested(nested) -> WitnessTree:
    """Build a WitnessTree from nested (label, (children...)) tuples."""
    labels, parents = [], []
    queue = deque([(nested, -1)])
    while queue:
        (label, kids), parent = queue.popleft()
        idx = len(labels)
        labels.append(label)
        parents.append(parent)
        for kid in kids:
            queue.append((kid, idx))
    return WitnessTree(tuple(labels), tuple(parents))


def build_witness_tree(log, entry_index: int, intersects) -> WitnessTree:
    """Read the log backwards from entry_index, attaching each earlier label
    below the deepest vertex it intersects (earliest-created on ties) and
    discarding labels that intersect nothing in the tree so far."""
    seq = _labels_of(log)
    if not 0 <= entry_index < len(seq):
        raise IndexError("entry index outside the log")
    labels = [seq[entry_index]]
    parents = [-1]
    depths = [0]
    for k in range(entry_index - 1, -1, -1):
        lab = seq[k]
        best = -1
        for v in range(len(labels)):
            if intersects(labels[v], lab) and (best < 0 or depths[v] > depths[best]):
                best = v
        if best < 0:
            continue
        labels.append(lab)
        parents.append(best)
        depths.append(depths[best] + 1)
    return WitnessTree(tuple(labels), tuple(parents))


@dataclass(frozen=True)
class ResampleDag:
    """Vertices in time order; edge (u, v) means u is later and intersects v."""

    labels: tuple
    edges: frozenset
    partial: bool = False

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(map(operator.index, self.labels)))
        object.__setattr__(
            self,
            "edges",
            frozenset((operator.index(u), operator.index(v)) for u, v in self.edges),
        )
        n = len(self.labels)
        for u, v in self.edges:
            if not (0 <= v < u < n):
                raise ValueError("edges must point from later vertices to earlier")

    def __len__(self) -> int:
        return len(self.labels)

    def canonical(self):
        """Key each vertex by (label, rank among same-label vertices)."""
        keys = []
        for v, lab in enumerate(self.labels):
            rank = sum(1 for u in range(v) if self.labels[u] == lab)
            keys.append((lab, rank))
        edge_keys = frozenset((keys[u], keys[v]) for u, v in self.edges)
        return (frozenset(keys), edge_keys, self.partial)

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "edges": sorted([u, v] for u, v in self.edges),
            "partial": self.partial,
        }


def dag_from_dict(data: dict) -> ResampleDag:
    partial = data.get("partial", False)
    if not isinstance(partial, bool):
        raise ValueError(f'"partial" must be true or false, got {partial!r}')
    return ResampleDag(
        tuple(data["labels"]), frozenset((u, v) for u, v in data["edges"]), partial
    )


def build_resample_dag(seq, intersects) -> ResampleDag:
    seq = tuple(seq)
    edges = frozenset(
        (j, i)
        for i, j in itertools.combinations(range(len(seq)), 2)
        if intersects(seq[i], seq[j])
    )
    return ResampleDag(seq, edges, partial=False)


def build_partial_resample_dag(seq, intersects):
    """Keep only elements connected forward to the final one; returns the DAG
    and the kept subsequence in original order."""
    seq = tuple(seq)
    if not seq:
        raise ValueError("partial resample DAG needs a nonempty sequence")
    kept = [len(seq) - 1]
    for i in range(len(seq) - 2, -1, -1):
        if any(intersects(seq[i], seq[j]) for j in kept):
            kept.append(i)
    kept.reverse()
    relevant = tuple(seq[i] for i in kept)
    edges = frozenset(
        (b, a)
        for a, b in itertools.combinations(range(len(kept)), 2)
        if intersects(relevant[a], relevant[b])
    )
    return ResampleDag(relevant, edges, partial=True), relevant


def _leaf_removal(dag: ResampleDag, empty, step):
    """Memoised uniform leaf removal over the vertex subsets of dag, as
    bitmasks.  Returns (num, value): num is the number type, exact Fraction
    up to config.DAG_EXACT_RATIONAL_MAX vertices and float above; value(mask)
    is empty(num) for the empty set, else step(mask, leaves, value) with
    leaves the vertices of mask that have no edge into mask.  The subset
    recursion is capped at config.DAG_VERTEX_CAP vertices."""
    n = len(dag)
    if n > config.DAG_VERTEX_CAP:
        raise ValueError(f"DAG has {n} vertices, cap is {config.DAG_VERTEX_CAP}")
    num = Fraction if n <= config.DAG_EXACT_RATIONAL_MAX else float
    out = [0] * n
    for u, v in dag.edges:
        out[u] |= 1 << v
    memo = {0: empty(num)}

    def value(mask):
        if mask not in memo:
            leaves = [v for v in range(n) if mask >> v & 1 and not out[v] & mask]
            memo[mask] = step(mask, leaves, value)
        return memo[mask]

    return num, value


def dag_probability(dag: ResampleDag, seq):
    """Probability that uniform leaf removal emits exactly seq."""
    n = len(dag)
    seq = tuple(seq)

    def step(mask, leaves, value):
        k = n - bin(mask).count("1")
        total = num(0)
        for v in leaves:
            if dag.labels[v] == seq[k]:
                total += value(mask & ~(1 << v))
        return total / len(leaves)

    num, value = _leaf_removal(dag, lambda num: num(1), step)
    if sorted(seq) != sorted(dag.labels):
        return num(0)
    return value((1 << n) - 1)


def dag_sequence_distribution(dag: ResampleDag) -> dict:
    """Map from emitted sequence to its probability; sums to one."""

    def step(mask, leaves, value):
        merged = {}
        for v in leaves:
            for suffix, p in value(mask & ~(1 << v)).items():
                key = (dag.labels[v],) + suffix
                merged[key] = merged.get(key, num(0)) + p / len(leaves)
        return merged

    num, value = _leaf_removal(dag, lambda num: {(): num(1)}, step)
    return dict(value((1 << len(dag)) - 1))


def occurs_in_log(structure, log, intersects) -> bool:
    """Does some log entry (trees) or prefix (DAGs) rebuild this structure?"""
    seq = _labels_of(log)
    if isinstance(structure, WitnessTree):
        want = structure.canonical()
        return any(
            build_witness_tree(seq, i, intersects).canonical() == want
            for i in range(len(seq))
        )
    if isinstance(structure, ResampleDag):
        want = structure.canonical()
        for k in range(1, len(seq) + 1):
            if structure.partial:
                built, _ = build_partial_resample_dag(seq[:k], intersects)
            else:
                built = build_resample_dag(seq[:k], intersects)
            if built.canonical() == want:
                return True
        return False
    raise TypeError(f"unsupported structure {type(structure).__name__}")


def galton_watson_probability(
    tree: WitnessTree, cert: LovaszCertificate, graph: IntersectionGraph
) -> float:
    """Chance that the branching process below grows exactly this tree.

    The closed form is ((1-x_a)/x_a) * prod over all vertices of x'_label;
    the root's x'_a/x_a factor is expanded to avoid dividing by zero.
    Trees with a child outside its parent's neighbourhood can never be
    produced, so they get probability zero.
    """
    if not tree.is_proper():
        raise ValueError("tree is not proper (duplicate sibling labels)")
    m = len(cert.x)
    if any(not 0 <= l < m for l in tree.labels):
        raise ValueError("tree label outside the certificate range")
    for v in range(1, len(tree)):
        parent_label = tree.labels[tree.parents[v]]
        if tree.labels[v] not in graph.gamma_plus(parent_label):
            return 0.0
    a = tree.root_label
    prob = 1.0 - cert.x[a]
    for j in graph.gamma(a):
        prob *= 1.0 - cert.x[j]
    for v in range(1, len(tree)):
        prob *= cert.x_prime[tree.labels[v]]
    return prob


def simulate_galton_watson(
    root_label: int, cert: LovaszCertificate, graph: IntersectionGraph, seed
):
    """One run of the branching process; None means it exceeded the vertex
    cap and is reported as diverged.

    Each vertex labelled i considers every j in gamma_plus(i) once,
    independently spawning a j-child with probability x_j.
    """
    draw = random.Random(seed).random
    x = cert.x
    options = graph.gamma_plus_sorted
    labels = [root_label]
    parents = [-1]
    # breadth first: labels[v:] is the queue of vertices still to expand
    v = 0
    while v < len(labels):
        for j in options[labels[v]]:
            if draw() < x[j]:
                if len(labels) >= config.GW_VERTEX_CAP:
                    return None
                labels.append(j)
                parents.append(v)
        v += 1
    return WitnessTree(tuple(labels), tuple(parents))


def expected_violations_bound(cert: LovaszCertificate) -> float:
    """Horizon-independent bound on the expected number of violations."""
    if any(v >= 1.0 for v in cert.x):
        raise ValueError("bound requires every x strictly below 1")
    return sum(v / (1.0 - v) for v in cert.x)


def enumerate_proper_trees(
    root_label: int, graph: IntersectionGraph, max_vertices: int
) -> list:
    """All proper trees with the given root label and at most max_vertices
    vertices, where children always come from the parent's neighbourhood."""
    if max_vertices < 1:
        return []

    memo = {}

    def gen(label, budget):
        # nested forms with this root label and total size <= budget
        key = (label, budget)
        if key in memo:
            return memo[key]
        found = []
        options = graph.gamma_plus_sorted[label]
        for r in range(0, len(options) + 1):
            for child_labels in itertools.combinations(options, r):
                if 1 + r > budget:
                    continue
                for kids in assign(child_labels, budget - 1):
                    found.append((label, kids))
        memo[key] = found
        return found

    def assign(child_labels, budget):
        # tuples of child subtrees with total size <= budget, one per label
        if not child_labels:
            return [()]
        first, rest = child_labels[0], child_labels[1:]
        combos = []
        for sub in gen(first, budget - len(rest)):
            for tail in assign(rest, budget - _nested_size(sub)):
                combos.append((sub,) + tail)
        return combos

    nesteds = gen(root_label, max_vertices)
    return [tree_from_nested(n) for n in sorted(set(nesteds))]


def _nested_size(nested) -> int:
    label, kids = nested
    return 1 + sum(_nested_size(k) for k in kids)
