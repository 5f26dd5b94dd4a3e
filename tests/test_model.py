import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plandscape import model
from plandscape.errors import ParameterError
from plandscape.model import (
    BitGraph,
    ModelParams,
    VertexSubset,
    edge_count,
    load_graph,
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
])
def test_load_rejects_malformed_file(tmp_path, text):
    path = tmp_path / "bad.pcg"
    path.write_text(text)
    with pytest.raises(ParameterError):
        load_graph(path)


SPLICES = st.one_of(st.binary(max_size=3),
                    st.sampled_from([b"\n", b" ", b"-", b"9", b"99", b"g", b"\xff"]))


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
    save_graph(g, path)  # whatever loads must round-trip
    h = load_graph(path)
    assert h == g


def test_out_of_range_subset_rejected():
    g = sample_planted(10, 3, 0)
    with pytest.raises(ParameterError):
        edge_count(g, VertexSubset((4, 11)))
    with pytest.raises(ParameterError):
        overlap(g, VertexSubset((-1, 2)))
