"""Checks that the benchmark applies to the workbench's outputs.

Everything here is computed apart from the qlll package: closed forms,
certificate inequalities, a classical Markov chain, clause evaluation and
kernel dimensions all come from plain numpy or Python on the raw inputs.
Each checker returns a list of failure messages; an empty list means the
output passed.

Statistical checks use a Z-sigma envelope with Z = 5, so that thousands of
checks per set of runs fail by chance with negligible probability (a
two-sided 5-sigma deviation has probability 5.7e-7).
"""

from __future__ import annotations

import math

import numpy as np

Z = 5.0
CERT_TOL = 1e-11      # slack allowed in one certificate inequality
SERIES_TOL = 1e-9     # ground-overlap series against the Markov chain
TRACE_TOL = 1e-9      # unit trace and PSD floor of the final iterate
HALTING_TOL = 1e-8    # sum of halting probabilities against 1 - ground/D
KERNEL_TOL = 1e-9     # relative eigenvalue cut for the kernel dimension
OVERLAP_FLOOR = 1.0 - 1e-8


def pair_opening_closed_form(a: float) -> float:
    """Chance that the two single-qubit events of the two-qubit family open
    the violation log, in either order, for 0 < a < 1 (b = 1 - a)."""
    b = 1.0 - a
    return (
        1.0 / 9.0
        + 7.0 * a / (24.0 * (1.0 + a))
        + b * (11.0 + 12.0 * a) / (144.0 * (1.0 + a) ** 2)
    )


def frequency_within(freq: float, p: float, n: int, what: str) -> list:
    """A Monte-Carlo frequency over n samples against its exact value."""
    sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
    if abs(freq - p) > Z * sigma:
        return [f"{what}: frequency {freq:.6f} is {abs(freq - p) / sigma:.1f} sigma from {p:.6f}"]
    return []


def neighbours(supports) -> list:
    """Events sharing at least one qudit, excluding the event itself."""
    sets = [set(s) for s in supports]
    return [
        sorted(j for j in range(len(sets)) if j != i and sets[i] & sets[j])
        for i in range(len(sets))
    ]


def certificate_failures(supports, rel_dims, x, epsilon: float = 0.0) -> list:
    """Recompute every inequality R_i <= (1-eps) x_i prod_{j~i} (1 - x_j)."""
    if len(x) != len(supports):
        return [f"certificate has {len(x)} values for {len(supports)} events"]
    out = []
    for i, nb in enumerate(neighbours(supports)):
        if not 0.0 <= x[i] < 1.0:
            out.append(f"event {i}: x = {x[i]} outside [0, 1)")
            continue
        budget = (1.0 - epsilon) * x[i] * math.prod(1.0 - x[j] for j in nb)
        if rel_dims[i] > budget + CERT_TOL:
            out.append(f"event {i}: R = {rel_dims[i]} exceeds {budget}")
    return out


def violations_bound(x) -> float:
    """The horizon-independent bound sum x_i / (1 - x_i)."""
    return sum(v / (1.0 - v) for v in x)


def at_most(value: float, bound: float, sigma: float, what: str) -> list:
    """A sample mean against an upper bound, with the envelope."""
    if value > bound + Z * sigma:
        return [f"{what}: {value:.6f} above {bound:.6f} + {Z:g} sigma ({sigma:.6f})"]
    return []


def at_least(value: float, floor: float, sigma: float, what: str) -> list:
    """A sample mean against a lower bound, with the envelope."""
    if value < floor - Z * sigma:
        return [f"{what}: {value:.6f} below {floor:.6f} - {Z:g} sigma ({sigma:.6f})"]
    return []


def parse_dimacs(text: str) -> list:
    """Clauses as lists of nonzero literals."""
    clauses, current = [], []
    for line in text.splitlines():
        line = line.strip()
        if not line or line[0] in "cp":
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    return clauses


def unsatisfied_clauses(clauses, assignment) -> list:
    """assignment[v - 1] == 1 makes variable v true."""
    out = []
    for idx, clause in enumerate(clauses):
        if not any((assignment[abs(l) - 1] == 1) == (l > 0) for l in clause):
            out.append(f"clause {idx} {clause} unsatisfied")
    return out


def embed_local(local: np.ndarray, qudits, n: int, d: int) -> np.ndarray:
    """Full-register operator: local on the listed qudits, identity elsewhere."""
    k = len(qudits)
    rest = [q for q in range(n) if q not in qudits]
    ident = np.eye(d ** (n - k)).reshape((d,) * (2 * (n - k)))
    big = np.multiply.outer(np.asarray(local).reshape((d,) * (2 * k)), ident)
    # axes of big: local outs, local ins, rest outs, rest ins
    order = list(qudits) + rest
    outs = [order.index(q) for q in range(n)]
    axes = []
    for q in range(n):
        pos = outs[q]
        axes.append(pos if pos < k else 2 * k + (pos - k))
    for q in range(n):
        pos = outs[q]
        axes.append(k + pos if pos < k else 2 * k + (n - k) + (pos - k))
    return big.transpose(axes).reshape(d ** n, d ** n)


def kernel_dimension(locals_, supports, n: int, d: int) -> int:
    """Dimension of the common kernel of the events, from the sum of their
    embedded projectors."""
    h = sum(embed_local(p, s, n, d) for p, s in zip(locals_, supports))
    ev = np.linalg.eigvalsh((h + h.conj().T) / 2)
    return int((ev < KERNEL_TOL * max(1.0, float(ev[-1]))).sum())


def halting_sum_failures(total: float, ground_dim: int, dim: int) -> list:
    want = 1.0 - ground_dim / dim
    if abs(total - want) > HALTING_TOL:
        return [f"halting probabilities sum to {total!r}, want 1 - {ground_dim}/{dim} = {want!r}"]
    return []


def markov_series(bad_states, supports, n: int, t_max: int):
    """Ground overlap and per-event violation chance of the averaged
    measure-and-refresh channel on a diagonal qubit instance, as a Markov
    chain on the 2^n basis states started uniform.

    bad_states[i] lists the local basis states (sorted-support order as
    given) that violate event i.
    """
    m = len(supports)
    grid = np.indices((2,) * n).reshape(n, -1)
    masks = []
    for states, sup in zip(bad_states, supports):
        local = np.zeros(grid.shape[1], dtype=int)
        for q in sup:
            local = 2 * local + grid[q]
        masks.append(np.isin(local, list(states)).reshape((2,) * n))
    good = ~np.logical_or.reduce(masks)
    pi = np.full((2,) * n, 1.0 / 2 ** n)

    def snapshot(p):
        return float(p[good].sum()), [float(p[mask].sum()) for mask in masks]

    ground, viols = snapshot(pi)
    overlaps, rows = [ground], [viols]
    for _ in range(t_max):
        nxt = np.zeros_like(pi)
        for mask, sup in zip(masks, supports):
            hit = pi * mask
            refreshed = hit.sum(axis=tuple(sup), keepdims=True) / 2 ** len(sup)
            nxt += pi - hit + refreshed
        pi = nxt / m
        ground, viols = snapshot(pi)
        overlaps.append(ground)
        rows.append(viols)
    return np.array(overlaps), np.array(rows)


def series_failures(got_overlap, got_viols, want_overlap, want_viols) -> list:
    out = []
    got_overlap = np.asarray(got_overlap, dtype=float)
    got_viols = np.asarray(got_viols, dtype=float)
    if got_overlap.shape != want_overlap.shape or got_viols.shape != want_viols.shape:
        return ["series length differs from the Markov chain"]
    err = float(np.abs(got_overlap - want_overlap).max())
    if err > SERIES_TOL:
        out.append(f"ground-overlap series off the Markov chain by {err:.3e}")
    err = float(np.abs(got_viols - want_viols).max())
    if err > SERIES_TOL:
        out.append(f"violation series off the Markov chain by {err:.3e}")
    return out


def density_failures(rho: np.ndarray) -> list:
    out = []
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        out.append(f"final iterate has trace {tr}")
    lo = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
    if lo < -TRACE_TOL:
        out.append(f"final iterate has eigenvalue {lo:.3e}")
    return out


def branching_targets(root: int, x, nbrs) -> dict:
    """Closed-form chance of the lone-root tree (key None) and of each
    one-child tree (key: child label) of the branching process in which a
    vertex labelled i spawns a j-child with chance x_j for each j in
    Gamma+(i)."""
    def gamma_plus(i):
        return sorted(set(nbrs[i]) | {i})

    def childless(i):
        return math.prod(1.0 - x[j] for j in gamma_plus(i))

    out = {None: childless(root)}
    for c in gamma_plus(root):
        others = math.prod(1.0 - x[j] for j in gamma_plus(root) if j != c)
        out[c] = x[c] * others * childless(c)
    return out


def branching_failures(trees, root: int, x, nbrs) -> list:
    """Small-tree frequencies of sampled trees (None for diverged ones)."""
    n = len(trees)
    counts = {}
    for tree in trees:
        if tree is None:
            continue
        if tree.labels[0] != root:
            return [f"sampled tree has root {tree.labels[0]}, want {root}"]
        if len(tree.labels) == 1:
            counts[None] = counts.get(None, 0) + 1
        elif len(tree.labels) == 2:
            counts[tree.labels[1]] = counts.get(tree.labels[1], 0) + 1
    out = []
    for key, p in branching_targets(root, x, nbrs).items():
        what = f"root {root} " + ("lone root" if key is None else f"child {key}")
        out += frequency_within(counts.get(key, 0) / n, p, n, what)
    return out
