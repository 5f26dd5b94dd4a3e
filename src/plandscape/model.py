"""Planted clique instances G(n, k, 1/2) and subset/edge primitives.

Graphs are stored as packed bit rows (one Python int per vertex, bit j of
row i set iff {i, j} is an edge) so that edge counting reduces to
word-parallel AND + popcount.  Vectorised kernels read `BitGraph.dense`, an
n x n uint8 view unpacked from those rows once per graph and cached.  All
randomness comes from numpy's Philox counter-based generator keyed by a
64-bit seed, which makes every sample bit-reproducible across platforms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError


def rng_from_seed(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for (seed, stream); stream 0 is the generator of record."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream,)) if stream else np.random.SeedSequence(entropy=seed)
    return np.random.Generator(np.random.Philox(seq))


def _pack_rows(adj: np.ndarray) -> tuple[int, ...]:
    """Rows of a boolean adjacency matrix as ints with bit j == adj[i, j]."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def _unpack_rows(rows, n: int) -> np.ndarray:
    """Inverse of _pack_rows: n x n uint8 matrix with [i, j] == bit j of rows[i]."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), dtype=np.uint8)
    return np.unpackbits(raw.reshape(n, width), axis=1, count=n, bitorder="little")


@dataclass(frozen=True)
class ModelParams:
    """Instance size triple: n vertices, planted size k, subset size kbar."""

    n: int
    k: int
    kbar: int

    def __post_init__(self):
        if not (1 <= self.k <= self.kbar <= self.n):
            raise ParameterError(
                f"need 1 <= k <= kbar <= n, got n={self.n} k={self.k} kbar={self.kbar}"
            )


@dataclass(frozen=True)
class VertexSubset:
    """Sorted vertex set; the candidate subsets all operations range over."""

    members: tuple[int, ...]

    def __post_init__(self):
        m = self.members
        if any(m[i] >= m[i + 1] for i in range(len(m) - 1)) or (m and m[0] < 0):
            raise ParameterError(f"members must be strictly increasing and >= 0: {m}")

    @classmethod
    def from_iterable(cls, it) -> "VertexSubset":
        return cls(tuple(sorted(it)))

    @property
    def size(self) -> int:
        return len(self.members)

    @functools.cached_property
    def mask(self) -> int:
        m = 0
        for v in self.members:
            m |= 1 << v
        return m


def mask_to_members(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


@dataclass(frozen=True)
class BitGraph:
    """Undirected graph on [0, n) with symmetric packed bit-row adjacency."""

    n: int
    rows: tuple[int, ...]  # rows[i] bit j == adjacency(i, j); zero diagonal

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise ParameterError("row count must equal n")

    @classmethod
    def from_edges(cls, n: int, edges) -> "BitGraph":
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"bad edge ({u}, {v}) for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @functools.cached_property
    def dense(self) -> np.ndarray:
        """Read-only n x n uint8 adjacency matrix, built once from the rows."""
        adj = _unpack_rows(self.rows, self.n)
        adj.flags.writeable = False
        return adj

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edge_total(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self):
        for u in range(self.n):
            r = self.rows[u] >> (u + 1)
            v = u + 1
            while r:
                if r & 1:
                    yield (u, v)
                r >>= 1
                v += 1

    def count_in_mask(self, mask: int) -> int:
        """Edges of the induced subgraph selected by a vertex bitmask."""
        total = 0
        m = mask
        v = 0
        while m:
            if m & 1:
                total += (self.rows[v] & mask).bit_count()
            m >>= 1
            v += 1
        return total // 2


@dataclass(frozen=True)
class PlantedGraph(BitGraph):
    """G(n, k, 1/2): ER(1/2) background plus a forced clique on `planted`."""

    planted: tuple[int, ...] = ()
    seed: int = 0
    planted_mask: int = field(default=0, repr=False)

    @property
    def k(self) -> int:
        return len(self.planted)


def sample_planted(n: int, k: int, seed: int) -> PlantedGraph:
    """Sample G(n, k, 1/2): every non-planted pair independently an edge
    with probability 1/2, every planted pair forced.  Deterministic in seed."""
    if n <= 0 or not (1 <= k <= n):
        raise ParameterError(f"need 1 <= k <= n with n > 0, got n={n} k={k}")
    rng = rng_from_seed(seed)
    planted = tuple(sorted(int(v) for v in rng.permutation(n)[:k]))

    npairs = n * (n - 1) // 2
    raw = np.frombuffer(rng.bytes((npairs + 7) // 8), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")[:npairs]

    adj = np.zeros((n, n), dtype=bool)
    for i in range(1, n):  # pair (i, j), j < i, at flat index C(i,2)+j
        adj[i, :i] = bits[i * (i - 1) // 2 : i * (i + 1) // 2]
    adj |= adj.T
    pl = np.array(planted)
    adj[np.ix_(pl, pl)] = True
    np.fill_diagonal(adj, False)

    pmask = 0
    for v in planted:
        pmask |= 1 << v
    return PlantedGraph(n=n, rows=_pack_rows(adj), planted=planted, seed=seed, planted_mask=pmask)


def _check_subset(g: BitGraph, s: VertexSubset) -> None:
    if s.members and (s.members[0] < 0 or s.members[-1] >= g.n):
        raise ParameterError(f"subset members out of range for n={g.n}")


def edge_count(g: BitGraph, s: VertexSubset) -> int:
    """Number of edges inside the induced subgraph on s."""
    _check_subset(g, s)
    mask = s.mask
    return sum((g.rows[v] & mask).bit_count() for v in s.members) // 2


def overlap(g: PlantedGraph, s: VertexSubset) -> int:
    """|s ∩ planted|."""
    _check_subset(g, s)
    return (s.mask & g.planted_mask).bit_count()


# --- graph file format -------------------------------------------------
#
# Line 1: "pcg v1 <n> <k> <seed>"
# Line 2: space-separated planted vertices (empty for k=0 plain graphs)
# Lines 3..n+2: lower-triangular adjacency row of vertex i as hex
#               (bit j of the integer == adjacency(i, j) for j < i).


def save_graph(g: BitGraph, path) -> None:
    planted = getattr(g, "planted", ())
    seed = getattr(g, "seed", 0)
    lines = [f"pcg v1 {g.n} {len(planted)} {seed}"]
    lines.append(" ".join(str(v) for v in planted))
    for i in range(g.n):
        low = g.rows[i] & ((1 << i) - 1)
        lines.append(format(low, "x"))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path) -> BitGraph:
    with open(path) as fh:
        lines = fh.read().splitlines()
    head = lines[0].split()
    if len(head) != 5 or head[0] != "pcg" or head[1] != "v1":
        raise ParameterError(f"bad graph header: {lines[0]!r}")
    n, k, seed = int(head[2]), int(head[3]), int(head[4])
    planted = tuple(int(tok) for tok in lines[1].split())
    if len(planted) != k:
        raise ParameterError("planted list length does not match header")
    if len(lines) < n + 2:
        raise ParameterError("truncated graph file")
    lower = [int(lines[2 + i], 16) for i in range(n)]
    for i in range(n):
        if lower[i] >> i:
            raise ParameterError(f"row {i} has bits at or above the diagonal")
    adj = _unpack_rows(lower, n)
    adj |= adj.T
    rows = _pack_rows(adj)
    if k == 0:
        return BitGraph(n=n, rows=rows)
    pl = np.array(planted)
    if adj[np.ix_(pl, pl)].sum() != k * (k - 1):  # zero diagonal: all off-diagonal pairs
        raise ParameterError("planted set is not a clique in file")
    pmask = 0
    for v in planted:
        pmask |= 1 << v
    return PlantedGraph(n=n, rows=rows, planted=planted, seed=seed, planted_mask=pmask)
