"""Seeded input generators for the benchmark.

Every graph is a numpy array of undirected edges (u < v, no loops, no
duplicates) built from a `numpy.random.Generator`; the same seed gives the
same arrays. gpm only ever sees the files written by `write_edges`,
`write_labels` and `write_pattern`.
"""
from __future__ import annotations

import numpy as np

LABEL_TOKENS = ("A", "B", "C", "D", "E")

PATTERNS = {
    "c4": "0 1\n1 2\n2 3\n3 0\n",
    "p4": "0 1\n1 2\n2 3\n",
    "wedge": "0 1\n1 2\n",
    "bc": "v 0 B\nv 1 C\n0 1\n",
}


def _dedup(u, v, n):
    """Canonical u < v edges without loops or duplicates, in first-seen order."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep = lo != hi
    key = lo[keep] * n + hi[keep]
    _, first = np.unique(key, return_index=True)
    key = key[np.sort(first)]
    return np.stack([key // n, key % n], axis=1)


def erdos_renyi(n, m, rng):
    """G(n, m): exactly m distinct edges drawn uniformly."""
    edges = np.zeros((0, 2), dtype=np.int64)
    while len(edges) < m:
        draw = rng.integers(0, n, size=(2, 2 * m), dtype=np.int64)
        u = np.concatenate([edges[:, 0], draw[0]])
        v = np.concatenate([edges[:, 1], draw[1]])
        edges = _dedup(u, v, n)
    return edges[:m]


def chung_lu(n, avg_degree, exponent, rng):
    """Chung–Lu graph with power-law expected degrees.

    The expected-degree sequence is fixed by (n, avg_degree, exponent); only
    the edge draws depend on the seed. Endpoints are drawn in proportion to
    their weights and loops and duplicates are dropped, so realized degrees
    fall slightly below the weights.
    """
    rank = np.arange(1, n + 1, dtype=np.float64)
    w = rank ** (-1.0 / (exponent - 1.0))
    w *= avg_degree * n / w.sum()
    m = int(round(avg_degree * n / 2))
    p = w / w.sum()
    u = rng.choice(n, size=m, p=p)
    v = rng.choice(n, size=m, p=p)
    return _dedup(u.astype(np.int64), v.astype(np.int64), n)


def plant_communities(edges, n, count, size, density, rng):
    """Add `count` disjoint random vertex groups, each a G(size, density).

    Members come from the upper half of the ids, the low-weight half of a
    `chung_lu` graph, so whether a hub joins a community is not left to the
    seed; that keeps the work per seed steady.
    """
    low = n // 2
    members = (low + rng.permutation(n - low)[:count * size]).reshape(count, size)
    iu, iv = np.triu_indices(size, k=1)
    extra = []
    for group in members:
        keep = rng.random(len(iu)) < density
        extra.append(np.stack([group[iu[keep]], group[iv[keep]]], axis=1))
    allp = np.concatenate([edges] + extra)
    return _dedup(allp[:, 0], allp[:, 1], n)


def uniform_labels(n, rng):
    """One of LABEL_TOKENS per vertex, uniformly at random."""
    return rng.integers(0, len(LABEL_TOKENS), size=n)


def write_edges(path, edges):
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(f"{u} {v}\n" for u, v in edges.tolist()))


def write_labels(path, labels):
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(f"{v} {LABEL_TOKENS[l]}\n" for v, l in enumerate(labels.tolist())))


def write_pattern(path, name):
    with open(path, "w", encoding="utf-8") as f:
        f.write(PATTERNS[name])


def degree_stats(edges, n):
    deg = np.bincount(edges.ravel(), minlength=n)
    return {"n": n, "m": int(len(edges)), "avg_degree": round(float(deg.mean()), 3),
            "max_degree": int(deg.max()),
            "wedges": int((deg * (deg - 1) // 2).sum())}
