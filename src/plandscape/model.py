"""Planted clique instances G(n, k, 1/2) and subset/edge primitives.

`BitGraph` is the one graph class: a plain graph is one whose planted set
is empty (k = 0), so every function takes every graph; those that need
k >= 1 raise ParameterError through `ModelParams`.  Graphs are stored as
packed bit rows (one Python int per vertex, bit j of row i set iff {i, j}
is an edge) so that edge counting reduces to word-parallel AND + popcount.
`BitGraph.words` is the one packed view of those rows, n x ceil(n/64)
little-endian uint64 words built once per graph; batch kernels read it,
and `BitGraph.dense`, the n x n uint8 matrix that vectorised kernels read,
is unpacked from it.  Only this module knows the layout: `_pack_words` and
`_word_ints` convert to and from it.  All randomness comes from numpy's
Philox counter-based generator keyed by a 64-bit seed, which makes every
sample bit-reproducible across platforms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


def rng_from_seed(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for (seed, stream); stream 0 is the generator of record."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream,)) if stream else np.random.SeedSequence(entropy=seed)
    return np.random.Generator(np.random.Philox(seq))


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Rows of a 0/1 matrix as little-endian uint64 words: bit j of a row is
    bit j % 64 of word j // 64, the layout of BitGraph.words."""
    out = np.zeros((len(bits), -(-bits.shape[1] // 64) * 8), dtype=np.uint8)
    out[:, :(bits.shape[1] + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return out.view("<u8")


def _word_ints(words: np.ndarray) -> list:
    """The Python int of each row of packed words (inverse of the packer)."""
    if words.shape[1] == 1:  # .tolist() beats int.from_bytes on one word
        return words[:, 0].tolist()
    return [int.from_bytes(row.tobytes(), "little") for row in words]


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

    @functools.cached_property
    def overlaps(self) -> range:
        """feasible_overlaps of this triple, computed once."""
        return feasible_overlaps(self.n, self.k, self.kbar)

    @functools.cached_property
    def _placements(self) -> list:
        """numerics' memo [z0, float64 array A(z0), A(z0+1), ...] of the last
        window curve_grid computed; it lives and dies with this instance."""
        return [0, np.empty(0)]


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


def feasible_overlaps(n: int, k: int, kbar: int) -> range:
    """Overlaps z = |S ∩ planted| that a kbar-subset of n vertices, k of
    them planted, can have: max(0, kbar-(n-k)) .. min(k, kbar)."""
    return range(max(0, kbar - (n - k)), min(k, kbar) + 1)


def check_overlap(z: int, dom: range) -> None:
    if not dom.start <= z < dom.stop:  # not `in`: that scans for numpy ints
        raise ParameterError(f"overlap z={z} infeasible: feasible overlaps are "
                             f"{dom.start}..{dom.stop - 1}")


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
    """Undirected graph on [0, n) with symmetric packed bit-row adjacency
    and a planted set: a clique on `planted` for G(n, k, 1/2), empty (k = 0)
    for a plain graph, whose every subset has overlap 0."""

    n: int
    rows: tuple[int, ...]  # rows[i] bit j == adjacency(i, j); zero diagonal
    planted: tuple[int, ...] = ()
    seed: int = 0

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
    def words(self) -> np.ndarray:
        """Read-only n x ceil(n/64) little-endian uint64 words of the rows:
        the one packed view, built once per graph."""
        width = -(-self.n // 64)
        raw = b"".join(r.to_bytes(8 * width, "little") for r in self.rows)
        return np.frombuffer(raw, dtype="<u8").reshape(self.n, width)

    @functools.cached_property
    def dense(self) -> np.ndarray:
        """Read-only n x n uint8 adjacency matrix, unpacked once from words."""
        adj = np.unpackbits(self.words.view(np.uint8), axis=1, count=self.n, bitorder="little")
        adj.flags.writeable = False
        return adj

    @property
    def k(self) -> int:
        return len(self.planted)

    @functools.cached_property
    def planted_mask(self) -> int:
        """Bitmask of `planted`, derived once per graph."""
        return VertexSubset.from_iterable(self.planted).mask

    @functools.cached_property
    def non_planted(self) -> tuple[int, ...]:
        """The vertices outside `planted`, ascending."""
        return tuple(v for v in range(self.n) if not self.planted_mask >> v & 1)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edge_total(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def count_in_mask(self, mask: int) -> int:
        """Edges of the induced subgraph selected by a vertex bitmask."""
        total = 0
        m = mask
        while m:  # one pass per member: strip the lowest set bit
            low = m & -m
            total += (self.rows[low.bit_length() - 1] & mask).bit_count()
            m ^= low
        return total // 2


def sample_planted(n: int, k: int, seed: int) -> BitGraph:
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
    rows = tuple(_word_ints(_pack_words(adj)))
    return BitGraph(n=n, rows=rows, planted=planted, seed=seed)


def _check_subset(g: BitGraph, s: VertexSubset) -> None:
    if s.members and (s.members[0] < 0 or s.members[-1] >= g.n):
        raise ParameterError(f"subset members out of range for n={g.n}")


def edge_count(g: BitGraph, s: VertexSubset) -> int:
    """Number of edges inside the induced subgraph on s."""
    _check_subset(g, s)
    return g.count_in_mask(s.mask)


def overlap(g: BitGraph, s: VertexSubset) -> int:
    """|s ∩ planted|."""
    _check_subset(g, s)
    return (s.mask & g.planted_mask).bit_count()


# --- graph file format -------------------------------------------------
#
# Line 1: "pcg v1 <n> <k> <seed>"
# Line 2: space-separated planted vertices (empty for a plain graph, k = 0)
# Lines 3..n+2: lower-triangular adjacency row of vertex i as hex
#               (bit j of the integer == adjacency(i, j) for j < i).


def save_graph(g: BitGraph, path) -> None:
    """Write g as a pcg v1 file; a plain graph gets k = 0 and an empty line 2."""
    lines = [f"pcg v1 {g.n} {g.k} {g.seed}"]
    lines.append(" ".join(str(v) for v in g.planted))
    for i in range(g.n):
        low = g.rows[i] & ((1 << i) - 1)
        lines.append(format(low, "x"))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path) -> BitGraph:
    """Read a pcg v1 file; any malformed content raises ParameterError.  A
    k = 0 file loads as a plain graph, with an empty planted set."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
        magic, version, *fields = lines[0].split()
        if (magic, version) != ("pcg", "v1"):
            raise ValueError(f"bad graph header: {lines[0]!r}")
        n, k, seed = map(int, fields)
        planted = tuple(map(int, lines[1].split()))
        lower = [int(row, 16) for row in lines[2 : n + 2]]
    except (IndexError, ValueError) as exc:  # also non-UTF-8 bytes
        raise ParameterError(f"malformed graph file: {exc}") from None
    if len(planted) != k:
        raise ParameterError("planted list length does not match header")
    if len(lower) != n:
        raise ParameterError(f"{len(lower)} adjacency rows in file, header says n={n}")
    if any(not 0 <= v < n for v in planted):
        raise ParameterError(f"planted vertex out of range for n={n}")
    for i in range(n):
        if lower[i] >> i:
            raise ParameterError(f"row {i} has bits at or above the diagonal")
    half = BitGraph(n=n, rows=tuple(lower)).dense  # decodes the lower triangle
    adj = half | half.T
    rows = tuple(_word_ints(_pack_words(adj)))
    pl = np.array(planted, dtype=np.intp)
    if adj[np.ix_(pl, pl)].sum() != k * (k - 1):  # zero diagonal: all off-diagonal pairs
        raise ParameterError("planted set is not a clique in file")
    return BitGraph(n=n, rows=rows, planted=planted, seed=seed)
