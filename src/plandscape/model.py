"""Planted clique instances G(n, k, 1/2) and subset/edge primitives.

`BitGraph` is the one graph class: a plain graph is one whose planted set
is empty (k = 0), so every function takes every graph; those that need
k >= 1 raise ParameterError through `ModelParams`.  Graphs are stored as
packed bit rows (one Python int per vertex, bit j of row i set iff {i, j}
is an edge) so that edge counting reduces to word-parallel AND + popcount.
`BitGraph.words` is the one packed view of those rows: n x ceil(n/64)
little-endian uint64 words, built on first use and read by batch kernels;
`BitGraph.dense`, the n x n uint8 matrix of vectorised kernels, is unpacked
from it.  Only this module knows the layout.  A hand-built graph takes the
constructor's full check.  Both samplers (`sample_planted` here,
`flatness.sample_conditioned`) and `load_graph` stream lower-triangle rows
into packed words and OR them in place with their transpose, 64 rows at a
time, never building an n x n array; symmetric with a zero diagonal by
construction, their graphs take the trusted path, which checks only that the
planted set is distinct and in range (the loader also checks it is a clique).
Randomness is numpy's Philox keyed by a 64-bit seed, so samples are
bit-reproducible across platforms.
"""

from __future__ import annotations

import binascii
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


def check_ints(**values) -> None:
    """Raise ParameterError unless every value is a Python int: no float,
    bool or numpy int, which size arithmetic would take or fail on late."""
    for name, value in values.items():
        if type(value) is not int:
            raise ParameterError(f"{name} must be an int, got {value!r}")


def rng_from_seed(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for (seed, stream); stream 0 is the generator of record."""
    check_ints(seed=seed)
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream,)) if stream else np.random.SeedSequence(entropy=seed)
    return np.random.Generator(np.random.Philox(seq))


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Rows of a 0/1 matrix as BitGraph.words: bit j is bit j % 64 of little-endian word j // 64."""
    out = np.zeros((len(bits), -(-bits.shape[1] // 64) * 8), dtype=np.uint8)
    out[:, :(bits.shape[1] + 7) // 8] = np.packbits(np.ascontiguousarray(bits), axis=1, bitorder="little")
    return out.view("<u8")


def _row_words(rows, n: int) -> np.ndarray:
    """Packed words of n int rows over range(n), from any iterable into one buffer."""
    words = np.zeros((n, -(-n // 64)), dtype="<u8")
    raw, size = memoryview(words.reshape(-1).view(np.uint8)), 8 * words.shape[1]
    for i, r in enumerate(rows):
        raw[i * size : (i + 1) * size] = r.to_bytes(size, "little")
    return words


def _transpose_words(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """OR the packed transpose of square bit matrix words into out (or zeros), 64 rows at a time.  out
    may be words if strictly lower-triangular: rows from lo write only rows < lo + 64, which no later block reads."""
    out = np.zeros_like(words) if out is None else out
    for lo in range(0, len(words), 64):
        bits = np.unpackbits(words[lo:lo + 64].view(np.uint8), axis=1, count=len(words), bitorder="little")
        out[:, lo // 64] |= _pack_words(bits.T)[:, 0]
    return out


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
        check_ints(n=self.n, k=self.k, kbar=self.kbar)
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
    check_ints(z=z)
    if z not in dom:
        raise ParameterError(f"overlap z={z} infeasible: feasible overlaps are "
                             f"{dom.start}..{dom.stop - 1}")


def mask_to_members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:  # lowest set bit first, one step per member
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class BitGraph:
    """Undirected graph on [0, n) with symmetric bit-row adjacency and distinct
    planted vertices: a clique if sampled or loaded, any set if hand-built, and
    none (k = 0) in a plain graph, whose every subset has overlap 0.  A hand-built
    graph takes the full check; sampled and loaded ones the trusted path (planted only)."""

    n: int
    rows: tuple[int, ...]  # rows[i] bit j == adjacency(i, j); zero diagonal
    planted: tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self, trusted: bool = False):
        n, rows, planted = self.n, self.rows, self.planted
        if not trusted:  # the full check, which every hand-built graph takes
            if type(n) is not int or len(rows) != n or \
                    any(type(r) is not int or r >> n or r >> i & 1 for i, r in enumerate(rows)):
                raise ParameterError(f"need n = {n!r} rows, each a bit set over range(n) with a zero diagonal")
            if not np.array_equal(_transpose_words(words := _row_words(rows, n)), words):
                raise ParameterError("rows must be symmetric")
        if len(set(planted)) != len(planted) or any(type(v) is not int or not 0 <= v < n for v in planted):
            raise ParameterError(f"planted vertices must be distinct and in range({n}): {planted}")

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
        """Read-only n x ceil(n/64) uint64 words of the rows: the one packed view."""
        words = _row_words(self.rows, self.n)
        words.flags.writeable = False
        return words

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
    with probability 1/2, every planted pair forced.  Deterministic in seed:
    the planted draw, then one stream bit per pair."""
    ModelParams(n, k, k)
    rng = rng_from_seed(seed)
    planted = tuple(sorted(int(v) for v in rng.permutation(n)[:k]))
    return _pair_graph(rng.bytes((n * (n - 1) // 2 + 7) // 8), n, planted, seed)


def _pair_graph(pair_bits: bytes, n: int, planted: tuple = (), seed: int = 0) -> BitGraph:
    """The graph on range(n) in which pair (i, j), j < i, is an edge iff bit
    C(i,2)+j of pair_bits (little-endian within each byte) is set or both
    ends are planted.  Lower-triangle row i is the i bits from C(i,2), read as
    one int straight off the bytes into the packed words: no list of rows."""
    clique = sum(1 << v for v in planted)

    def lower(i: int) -> int:  # a planted i gains the planted vertices below it
        lo = i * (i - 1) // 2
        row = int.from_bytes(pair_bits[lo >> 3 : (lo + i + 7) >> 3], "little") >> (lo & 7)
        return (row | clique if clique >> i & 1 else row) & ((1 << i) - 1)
    return _symmetric_graph(_row_words(map(lower, range(n)), n), planted, seed)


def _symmetric_graph(words: np.ndarray, planted: tuple, seed: int) -> BitGraph:
    """The graph of strictly lower-triangular packed bit rows OR'd in place with their transpose:
    symmetric with a zero diagonal by construction, it takes BitGraph's trusted path (planted check only)."""
    g = object.__new__(BitGraph)
    g.__dict__.update(n=len(words), rows=tuple(_word_ints(_transpose_words(words, words))), planted=planted, seed=seed)
    g.__post_init__(trusted=True)
    return g


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
    """Write g as a pcg v1 file, row by row; a plain graph gets k = 0 and an empty line 2."""
    with open(path, "w") as fh:
        fh.write(f"pcg v1 {g.n} {g.k} {g.seed}\n{' '.join(map(str, g.planted))}\n")
        fh.writelines(f"{r & ((1 << i) - 1):x}\n" for i, r in enumerate(g.rows))


def _hex_row(i: int, line: str) -> int:
    """Lower-triangle row i from its line: hex digits only, below bit i ("" is a missing row)."""
    digits = line.rstrip("\n")
    row = int.from_bytes(binascii.unhexlify("0" * (len(digits) & 1) + digits), "big")
    if not digits or row >> i:
        raise ValueError(f"row {i} is missing, empty or has bits at or above the diagonal")
    return row


def load_graph(path) -> BitGraph:
    """Read a pcg v1 file line by line, each row straight into the packed words.  ParameterError unless
    lines 1-2 read as save_graph writes them, rows are hex digits and nothing follows row n; k = 0 is plain."""
    try:
        with open(path) as fh:
            header, line = fh.readline(), fh.readline()
            n, k, seed = map(int, header.split()[2:])
            planted = tuple(map(int, line.split()))
            if header + line != f"pcg v1 {n} {k} {seed}\n{' '.join(map(str, planted))}\n" or len(planted) != k:
                raise ValueError(f"bad header or planted line: {header + line!r}")
            words = _row_words(map(_hex_row, range(n), iter(fh.readline, None)), n)  # "" past the end
            if fh.read(1):
                raise ValueError(f"content after row n = {n}")
    except (ValueError, MemoryError) as exc:  # also non-UTF-8 bytes, and n < 0 or huge in np.zeros
        raise ParameterError(f"malformed graph file: {exc}") from None
    g = _symmetric_graph(words, planted, seed)
    if g.count_in_mask(g.planted_mask) != k * (k - 1) // 2:
        raise ParameterError("planted set is not a clique in file")
    return g
