import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plandscape import flatness, landscape, model, numerics, ogp
from plandscape.errors import ParameterError
from plandscape.model import (
    BitGraph,
    ModelParams,
    VertexSubset,
    edge_count,
    load_graph,
    mask_to_members,
    overlap,
    rng_from_seed,
    sample_planted,
    save_graph,
)


def naive_edge_count(g, members):
    total = 0
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            total += g.has_edge(u, v)
    return total


def test_full_plant_gives_complete_graph():
    g = sample_planted(5, 5, 123)
    assert g.edge_total() == 10
    assert g.planted == (0, 1, 2, 3, 4)


def test_single_vertex_plant_adds_no_edges():
    # a 1-clique has no edges, so the law is plain G(4, 1/2); check the
    # planted vertex has no forced incidences by comparing degree stats
    counts = [sample_planted(4, 1, s).edge_total() for s in range(2000)]
    mean = sum(counts) / len(counts)
    # Bin(6, 1/2) mean 3, var 1.5; 3 sigma of the 2000-sample mean
    assert abs(mean - 3.0) <= 3 * math.sqrt(1.5 / 2000)


def test_non_planted_edge_mean_matches_binomial():
    # non-planted pairs are Bernoulli(1/2): mean (C(200,2)-C(10,2))/2 = 9927.5
    npairs = math.comb(200, 2) - math.comb(10, 2)
    sweep = [sample_planted(200, 10, s).edge_total() - math.comb(10, 2) for s in range(1000)]
    mean = sum(sweep) / len(sweep)
    sigma = math.sqrt(npairs / 4 / 1000)
    assert abs(mean - npairs / 2) <= 3 * sigma


def test_parameter_errors():
    with pytest.raises(ParameterError):
        sample_planted(4, 5, 0)
    with pytest.raises(ParameterError):
        sample_planted(0, 0, 0)
    with pytest.raises(ParameterError):
        ModelParams(10, 5, 4)
    with pytest.raises(ParameterError):
        VertexSubset((3, 3))
    with pytest.raises(ParameterError):
        VertexSubset((2, 1))


@pytest.mark.parametrize("sizes", [(10.5, 2, 3), (10, 2.0, 3), (10, 2, 3.0), (True, 1, 1),
                                   (10, True, 3), (np.int64(10), 2, 3), (10, 2, np.int64(3))])
def test_model_params_sizes_must_be_ints(sizes):
    with pytest.raises(ParameterError, match=r"^(n|k|kbar) must be an int, got "):
        ModelParams(*sizes)


@pytest.mark.parametrize("args", [(5.5, 2, 0), (5, 2.0, 0), (True, 1, 0), (5, 2, 1.5)])
def test_sample_planted_rejects_sizes_and_seeds_that_are_not_ints(args):
    with pytest.raises(ParameterError, match=r"^(n|k|seed) must be an int, got "):
        sample_planted(*args)


GRAPH_8 = sample_planted(8, 3, 0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: flatness.sample_conditioned(3.0, 0.5, 0), id="sample_conditioned-K"),
    pytest.param(lambda: landscape.densest_subgraph(GRAPH_8, 2.0), id="densest_subgraph-K"),
    pytest.param(lambda: landscape.local_search_densest(GRAPH_8, 3.0), id="local_search-kbar"),
    pytest.param(lambda: landscape.local_search_densest(GRAPH_8, 3, restarts=1.5), id="local_search-restarts"),
    pytest.param(lambda: landscape.densest_with_overlap(GRAPH_8, 5.0, 1), id="densest_with_overlap-kbar"),
    pytest.param(lambda: flatness.is_flat(flatness.sample_conditioned(6, 0.5, 0), 0.5, 0.2,
                                          mode="sampled", samples=2.5), id="is_flat-samples"),
    pytest.param(lambda: flatness.subset_slack(5, 2.5, 0.2, 0.5), id="subset_slack-ell"),
])
def test_library_sizes_must_be_ints(call):
    # each raised a bare TypeError from math.comb, range or numpy before
    with pytest.raises(ParameterError, match=r"^\w+ must be an int, got "):
        call()


P_8 = ModelParams(8, 3, 5)
OVERLAP_CALLS = {
    "densest_with_overlap": lambda z: landscape.densest_with_overlap(GRAPH_8, 5, z),
    "local_search_densest": lambda z: landscape.local_search_densest(GRAPH_8, 5, z=z),
    **{f.__name__: lambda z, f=f: f(P_8, z) for f in (
        numerics.log_placements, numerics.first_moment_curve, numerics.first_moment_sqrt_approx,
        numerics.sqrt_approx_renormalized, numerics.first_moment_expansion)},
    "curve_grid-z_lo": lambda z: numerics.curve_grid(P_8, "gamma", z_lo=z),
    "curve_grid-z_hi": lambda z: numerics.curve_grid(P_8, "gamma", z_lo=1, z_hi=z),
    "certify_ogp-zeta1": lambda z: ogp.certify_ogp(ogp.overlap_curve(GRAPH_8, 5), z, 3, 4.0),
    "certify_ogp-zeta2": lambda z: ogp.certify_ogp(ogp.overlap_curve(GRAPH_8, 5), 1, z, 4.0),
}


@pytest.mark.parametrize("z", [2.0, True, np.int64(2)], ids=repr)
@pytest.mark.parametrize("name", OVERLAP_CALLS)
def test_overlap_arguments_must_be_ints(name, z):
    # a float leaked a bare TypeError from math.comb, combinations or range,
    # and True ran as z = 1; each call answers at the int 2
    OVERLAP_CALLS[name](2)
    with pytest.raises(ParameterError, match=r"^(z|zeta1|zeta2) must be an int, got "):
        OVERLAP_CALLS[name](z)


def reference_sample_planted(n, k, seed):
    """The matrix sampler: every pair bit unpacked from the stream into an
    n x n bool matrix row by row, the clique filled in, then symmetrised.
    sample_planted must match it bit for bit."""
    rng = rng_from_seed(seed)
    planted = tuple(sorted(int(v) for v in rng.permutation(n)[:k]))
    npairs = n * (n - 1) // 2
    raw = np.frombuffer(rng.bytes((npairs + 7) // 8), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")[:npairs]
    adj = np.zeros((n, n), dtype=bool)
    for i in range(1, n):  # pair (i, j), j < i, at flat index C(i,2)+j
        adj[i, :i] = bits[i * (i - 1) // 2 : i * (i + 1) // 2]
    adj[np.ix_(planted, planted)] = True
    np.fill_diagonal(adj, False)
    adj |= adj.T
    rows = tuple(int.from_bytes(np.packbits(r, bitorder="little").tobytes(), "little") for r in adj)
    return BitGraph(n, rows, planted, seed)


# n up to 200, so rows span one to four 64-bit words; always each word edge
N_AND_K = st.one_of(st.integers(1, 200), st.sampled_from([63, 64, 65, 127, 128, 129])).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n)))


@settings(max_examples=200)
@given(N_AND_K, st.integers(0, 2**64 - 1))
@example((63, 7), 0)
@example((64, 64), 1)
@example((65, 1), 2)
@example((127, 30), 3)
@example((128, 2), 2**64 - 1)
@example((129, 129), 5)
def test_sample_planted_matches_the_matrix_sampler(nk, seed):
    n, k = nk
    g, want = sample_planted(n, k, seed), reference_sample_planted(n, k, seed)
    assert (g.rows, g.planted, g.seed) == (want.rows, want.planted, want.seed)


@pytest.mark.parametrize("n, k, seed, sha256", [
    (3000, 40, 0, "e35350d080e6139490c0028a081c635aad0d25b000a265df469705a619232c23"),
    (129, 7, 11, "5f829257c6370a070b5a59f3d7fe2b5cc6e39c4e475c32748c709343baca2942"),
    (1, 1, 0, "3f89f9cf6b40cc63398ce1b4c47bd626bb55442f6cdac2bbda8a5e1a31079695"),
])
def test_sampled_graph_file_bytes_are_pinned(tmp_path, n, k, seed, sha256):
    path = tmp_path / "g.pcg"
    save_graph(sample_planted(n, k, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_planted_builds_no_n_by_n_array():
    # an n x n bool matrix alone is 9 MB at n = 3000 (the tighter bounds of
    # the graph paths are in test_graph_paths_hold_no_second_copy)
    peak = traced_peak(lambda: sample_planted(3000, 40, 0))
    assert peak < 9e6, f"traced peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("seed", [0, 5])
def test_graph_paths_hold_no_second_copy(tmp_path, seed):
    # at n = 3000 the packed rows take 1.1 MB and the row ints 1.2 MB.  The
    # sampler once packed them twice and re-checked symmetry (6.1 MiB peak);
    # save and load held the whole file as one string and a list of lines
    # (3.4 and 6.8 MiB)
    path = tmp_path / "g.pcg"
    g = sample_planted(3000, 40, seed)
    assert traced_peak(lambda: sample_planted(3000, 40, seed)) <= 4 * 2**20
    assert traced_peak(lambda: save_graph(g, path)) <= 2**20 / 2
    assert traced_peak(lambda: load_graph(path)) <= 4 * 2**20
    assert load_graph(path) == g
    assert "words" not in vars(g)  # built on first use, not kept from construction
    w = g.words
    assert not w.flags.writeable and g.words is w
    assert tuple(model._word_ints(w)) == g.rows


def test_planted_pairs_always_edges():
    for seed in range(20):
        g = sample_planted(30, 6, seed)
        s = VertexSubset(g.planted)
        assert edge_count(g, s) == 15
        assert overlap(g, s) == 6


def test_edge_count_against_naive_loop():
    g = sample_planted(24, 5, 99)
    rng = rng_from_seed(7)
    for _ in range(50):
        size = int(rng.integers(0, 12))
        members = tuple(sorted(int(v) for v in rng.permutation(24)[:size]))
        s = VertexSubset(members)
        assert edge_count(g, s) == naive_edge_count(g, members)
        if size <= 1:
            assert edge_count(g, s) == 0


def shift_mask_to_members(mask):
    """The bit-at-a-time walk that mask_to_members replaced: O(top bit)."""
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


@settings(max_examples=300)
@given(st.integers(0, 2**200))
@example(0)
@example(1)
@example(2**64 - 1)
@example(2**64)
@example(2**200)
def test_mask_to_members_matches_the_shift_loop(mask):
    assert mask_to_members(mask) == shift_mask_to_members(mask)


def test_overlap_against_sorted_merge():
    g = sample_planted(24, 7, 5)
    rng = rng_from_seed(11)
    for _ in range(50):
        members = tuple(sorted(int(v) for v in rng.permutation(24)[:10]))
        expect = len(set(members) & set(g.planted))
        assert overlap(g, VertexSubset(members)) == expect
    assert overlap(g, VertexSubset(())) == 0


def test_edge_count_at_least_planted_pairs():
    for seed in range(10):
        g = sample_planted(20, 5, seed)
        rng = rng_from_seed(seed + 1000)
        for _ in range(20):
            members = tuple(sorted(int(v) for v in rng.permutation(20)[:8]))
            s = VertexSubset(members)
            assert edge_count(g, s) >= math.comb(overlap(g, s), 2)


def test_reproducibility_bit_identical():
    a = sample_planted(40, 6, 2024)
    b = sample_planted(40, 6, 2024)
    assert a.rows == b.rows and a.planted == b.planted
    c = sample_planted(40, 6, 2025)
    assert a.rows != c.rows


def test_subset_input_order_canonicalized():
    g = sample_planted(15, 4, 3)
    a = VertexSubset.from_iterable([9, 2, 13, 4])
    b = VertexSubset.from_iterable([13, 9, 4, 2])
    assert a == b
    assert edge_count(g, a) == edge_count(g, b)


def test_adjacency_symmetric_zero_diagonal():
    g = sample_planted(25, 6, 8)
    for i in range(g.n):
        assert not g.has_edge(i, i)
        for j in range(g.n):
            assert g.has_edge(i, j) == g.has_edge(j, i)


def test_graph_file_roundtrip(tmp_path):
    for seed in (0, 1, 77):
        g = sample_planted(23, 5, seed)
        path = tmp_path / f"g{seed}.pcg"
        save_graph(g, path)
        h = load_graph(path)
        assert h == g  # n, rows, planted and seed
        # byte-exact: rewriting reproduces the same file
        path2 = tmp_path / f"h{seed}.pcg"
        save_graph(h, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_plain_graph_file_roundtrip(tmp_path):
    g = BitGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    path = tmp_path / "plain.pcg"
    save_graph(g, path)
    h = load_graph(path)
    assert h == g and h.planted == () and h.k == 0


def test_dense_view_matches_has_edge():
    graphs = [sample_planted(n, min(n, 4), n) for n in (1, 2, 7, 8, 9, 16, 23, 63, 64, 65, 130)]
    graphs.append(BitGraph.from_edges(9, [(0, 8), (2, 7), (7, 8)]))
    for g in graphs:
        w = g.words
        assert w.shape == (g.n, -(-g.n // 64)) and w.dtype == np.dtype("<u8")
        assert not w.flags.writeable and g.words is w
        assert tuple(model._word_ints(w)) == g.rows
        a = g.dense
        assert a.shape == (g.n, g.n) and a.dtype == np.uint8
        assert not a.flags.writeable and g.dense is a
        assert [[bool(a[i, j]) for j in range(g.n)] for i in range(g.n)] == \
            [[g.has_edge(i, j) for j in range(g.n)] for i in range(g.n)]


def test_graph_file_roundtrip_every_row_width(tmp_path):
    path = tmp_path / "g.pcg"
    for n in range(1, 42):
        for g in (sample_planted(n, (n + 1) // 2, n),
                  BitGraph.from_edges(n, [(i, (3 * i + 1) % n) for i in range(n)
                                          if (3 * i + 1) % n != i])):
            save_graph(g, path)
            h = load_graph(path)
            assert h == g  # rows, planted and seed


def test_load_rejects_bits_on_or_above_diagonal(tmp_path):
    path = tmp_path / "bad.pcg"
    for row1 in ("2", "4"):  # bit 1 is the diagonal, bit 2 lies above it
        path.write_text(f"pcg v1 3 0 0\n\n0\n{row1}\n0\n")
        with pytest.raises(ParameterError, match="diagonal"):
            load_graph(path)


def test_load_rejects_non_clique_planted_set(tmp_path):
    path = tmp_path / "g.pcg"
    path.write_text("pcg v1 3 2 0\n0 2\n0\n1\n0\n")  # edge {0, 1} only
    with pytest.raises(ParameterError, match="clique"):
        load_graph(path)
    path.write_text("pcg v1 3 2 0\n0 2\n0\n1\n1\n")  # adds {0, 2}
    assert load_graph(path).planted == (0, 2)


def test_load_rejects_corrupt_header(tmp_path):
    path = tmp_path / "bad.pcg"
    path.write_text("pcg v2 3 1 0\n0\n0\n0\n0\n")
    with pytest.raises(ParameterError):
        load_graph(path)


@pytest.mark.parametrize("text", [
    "",                                   # empty file
    "pcg v1 3 1 0\n",                     # no planted line
    "pcg v1 3 x 0\n0\n0\n1\n3\n",         # non-integer header field
    "pcg v1 3 1\n0\n0\n1\n3\n",           # header field missing
    "pcg v1 3 1 0\n3\n0\n1\n3\n",         # planted vertex >= n
    "pcg v1 3 1 0\n-1\n0\n1\n3\n",        # negative planted vertex
    "pcg v1 3 1 0\n0\n0\nzz\n3\n",        # non-hex row
    "pcg v1 3 1 0\n0\n0\n1\n",            # truncated
    "pcg v1 -1 0 0\n\n",                  # negative n
    "pcg v1 3 0 0\n\n0\n1\n3\nff\nzz\n",    # rows after row n
    "pcg v1 3 0 0\n\n0\n1\n3\n\n",          # an empty line after row n
    "pcg v1 3 0 0\n\n0\n1\x0c\n3\n",         # str.splitlines breaks, which int() strips:
    "pcg v1 3 0 0\n\n0\n1\x0b\n3\n",         # a naive line-by-line reader would load
    "pcg v1 3 0 0\n\n0\n1\x85\n3\n",         # each of these; the whole-file reader
    "pcg v1 3 0 0\n\n0\n1\u2028\n3\n",       # rejected them
    "pcg v1 3 0 0\x0c\n\n0\n1\n3\n",         # a splitlines break in the header
    "pcg v1 3 0 0\n\x0b\n0\n1\n3\n",         # and in the planted line
    "pcg v1 99999999 0 0\n\n0\n1\n3\n",       # n far beyond the rows in the file
])
def test_load_rejects_malformed_file(tmp_path, text):
    path = tmp_path / "bad.pcg"
    path.write_text(text)
    with pytest.raises(ParameterError):
        load_graph(path)


SPLICES = st.one_of(st.binary(max_size=3),
                    st.sampled_from([b"\n", b" ", b"-", b"9", b"99", b"g", b"\xff", b"\r", b"_", b"+",
                                     b"\x0b", b"\x0c", b"\x1c", "\x85".encode(), "\u2028".encode()]))


def whole_file_load_graph(path):
    """load_graph as it read files before it streamed them: the whole text
    through str.splitlines, each row through int(row, 16), the rows as one
    list, lines after row n ignored, and the full check of a hand-built graph."""
    lines = path.read_text().splitlines()
    magic, version, *fields = lines[0].split()
    assert (magic, version) == ("pcg", "v1")
    n, k, seed = map(int, fields)
    planted = tuple(map(int, lines[1].split()))
    lower = [int(row, 16) for row in lines[2 : n + 2]]
    assert len(planted) == k and len(lower) == n and not any(r >> i for i, r in enumerate(lower))
    rows = [r | sum((lower[j] >> i & 1) << j for j in range(i + 1, n)) for i, r in enumerate(lower)]
    g = BitGraph(n, tuple(rows), planted, seed)
    assert edge_count(g, VertexSubset.from_iterable(planted)) == math.comb(k, 2)
    return g


@settings(max_examples=400)
@given(st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 3), SPLICES),
                min_size=1, max_size=3))
def test_load_mutated_file_raises_only_parameter_error(tmp_path_factory, edits):
    path = tmp_path_factory.getbasetemp() / "mutated.pcg"
    save_graph(sample_planted(9, 3, 5), path)
    data = bytearray(path.read_bytes())
    for pos, cut, ins in edits:  # delete `cut` bytes at pos, insert `ins`
        pos %= len(data) + 1
        data[pos : pos + cut] = ins
    path.write_bytes(bytes(data))
    try:
        g = load_graph(path)
    except ParameterError:
        return
    assert whole_file_load_graph(path) == g  # it loads nothing the whole-file reader rejected
    save_graph(g, path)  # whatever loads must round-trip
    h = load_graph(path)
    assert h == g


@pytest.mark.parametrize("n, rows, planted", [
    (3, (2, 0, 0), ()),  # an edge 0 -> 1 without 1 -> 0
    (3, (0, 0, 0), (7,)),  # a planted vertex out of range
])
def test_bitgraph_rejects_a_corrupt_hand_built_graph(n, rows, planted):
    with pytest.raises(ParameterError):
        BitGraph(n=n, rows=rows, planted=planted)


def _corruptions(data, g):
    """Each corruption of a valid graph, as BitGraph keyword arguments."""
    n = g.n
    # half the time a vertex at either end of a 64-bit word
    ends = sorted({v for v in (0, 1, 62, 63, 64, 65, n - 2, n - 1) if 0 <= v < n})
    vertex = st.one_of(st.integers(0, n - 1), st.sampled_from(ends))
    i = data.draw(vertex, label="row")
    for kind in ("one-sided bit", "diagonal", "high bit", "missing row",
                 "planted out of range", "repeated planted"):
        rows, planted = list(g.rows), g.planted
        if kind == "one-sided bit" and n >= 2:
            rows[i] ^= 1 << data.draw(vertex.filter(lambda j: j != i), label="column")
        elif kind == "diagonal":
            rows[i] |= 1 << i
        elif kind == "high bit":
            rows[i] |= 1 << data.draw(st.integers(n, n + 70), label="bit")
        elif kind == "missing row":
            del rows[i]
        elif kind == "planted out of range":
            planted += (data.draw(st.sampled_from([-1, n, n + 63, -n - 1]), label="vertex"),)
        elif kind == "repeated planted" and planted:
            planted += (planted[i % len(planted)],)
        else:
            continue
        yield dict(n=n, rows=tuple(rows), planted=planted, seed=g.seed)


@settings(max_examples=300)
@given(st.data())
def test_every_graph_passes_the_one_constructor_check(tmp_path_factory, data):
    # n up to 70, so rows cross a 64-bit word; a plain and a planted graph
    # round-trip through the file, and each corruption fails at construction
    n = data.draw(st.one_of(st.integers(1, 70), st.sampled_from([64, 65, 66, 70])), label="n")
    g = sample_planted(n, data.draw(st.integers(1, n), label="k"),
                       data.draw(st.integers(0, 2**32), label="seed"))
    plain = BitGraph(n=n, rows=g.rows, seed=g.seed)
    path = tmp_path_factory.getbasetemp() / "checked.pcg"
    for h in (g, plain):
        assert BitGraph(n=h.n, rows=h.rows, planted=h.planted, seed=h.seed) == h
        save_graph(h, path)
        assert load_graph(path) == h
        for corrupt in _corruptions(data, h):
            with pytest.raises(ParameterError):
                BitGraph(**corrupt)


def test_out_of_range_subset_rejected():
    g = sample_planted(10, 3, 0)
    with pytest.raises(ParameterError):
        edge_count(g, VertexSubset((4, 11)))
    with pytest.raises(ParameterError):
        overlap(g, VertexSubset((-1, 2)))
