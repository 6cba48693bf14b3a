"""Unit tests for the Table 2 dataset stand-ins."""

import hashlib

import numpy as np
import pytest

from repro.graph import datasets

#: SHA-256 of each stand-in's ``edge_arrays()`` (src, dst, wgt bytes) at the
#: seed every experiment uses. Generator rewrites must keep these: every
#: experiment table and ``BENCH_*`` count column is computed on these graphs.
STANDIN_DIGESTS = {
    ("WK", False): "bd0e991278efd2bf08f4b4159c38d09edcda7bfa733a38c2353740d41a250d80",
    ("WK", True): "58b5a514323bb4dc316b002f9a1276211bf1217a705760a154a5a0b441fcc28f",
    ("FB", False): "18bcbb5c41549fb6c0f3cbdb24839109dc1a2ce4acab153d17dbb814d94db4f6",
    ("FB", True): "2ee3487618bcc9fa507e05440960ad5a809b3aa1051b4e2197596a9f439fc309",
    ("LJ", False): "1e2e450da84b7a5e2880a6dc5174b3aecabd80805973b2fccefe60e44a78f650",
    ("LJ", True): "f30d255e87746a16962e79c46e5d83acda0aa67bbbc1f44bce8046fd37e7f4bb",
    ("UK", False): "c46443a5308aad7899ea14e8e15ddea94fb82237afa08439313497d1315a0239",
    ("UK", True): "4fdaaeaa96072d176de5275e0f027b1967144ef341a60e3bbdd7efb258445c93",
    ("TW", False): "992a3b0fd46e61beb71cdaff2fed0e71597453258db41437ed7bef92e152faf5",
    ("TW", True): "43ff0edf14d0ad2bf9ab71e886fca81486c264efd250d204fbc722fa458858fd",
}


class TestSpecs:
    def test_all_five_present(self):
        assert set(datasets.ORDER) == {"WK", "FB", "LJ", "UK", "TW"}
        assert set(datasets.SPECS) == set(datasets.ORDER)

    def test_relative_size_ordering(self):
        """TW is the largest, UK next — mirroring the paper's ordering."""
        sizes = {k: datasets.SPECS[k].num_edges for k in datasets.ORDER}
        assert sizes["TW"] == max(sizes.values())
        assert sizes["TW"] > sizes["UK"] > sizes["LJ"] > sizes["FB"]

    def test_load_matches_spec_scale(self):
        graph = datasets.load("WK")
        spec = datasets.SPECS["WK"]
        assert graph.num_vertices == spec.num_vertices
        # ensure_reachable_core may add a few stitching edges.
        assert abs(graph.num_edges - spec.num_edges) < 0.1 * spec.num_edges

    def test_load_deterministic(self):
        a = sorted(datasets.load("FB", seed=1).edges())
        b = sorted(datasets.load("FB", seed=1).edges())
        assert a == b

    def test_load_case_insensitive(self):
        assert datasets.load("wk").num_vertices == datasets.SPECS["WK"].num_vertices

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            datasets.load("XX")

    def test_load_symmetric(self):
        graph = datasets.load("WK", symmetric=True)
        assert graph.symmetric
        for u, v, _ in list(graph.edges())[:50]:
            assert graph.has_edge(v, u)

    def test_load_csr(self):
        csr = datasets.load_csr("FB")
        assert csr.num_vertices == datasets.SPECS["FB"].num_vertices


class TestStandInPins:
    @pytest.mark.parametrize(
        "key,symmetric", sorted(STANDIN_DIGESTS), ids=lambda x: str(x)
    )
    def test_edge_arrays_pinned(self, key, symmetric):
        graph = datasets.load(key, seed=0, symmetric=symmetric)
        digest = hashlib.sha256()
        for array in graph.edge_arrays():
            digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == STANDIN_DIGESTS[(key, symmetric)]


class TestBatchScaling:
    def test_scaled_batch_preserves_ratio_ordering(self):
        """WK has the largest batch:graph ratio in the paper, TW the smallest."""
        ratios = {
            k: datasets.scaled_batch_size(k) / datasets.SPECS[k].num_edges
            for k in datasets.ORDER
        }
        assert ratios["WK"] > ratios["UK"]
        assert ratios["WK"] > ratios["TW"]

    def test_scaled_batch_minimum(self):
        assert datasets.scaled_batch_size("TW") >= 16

    def test_custom_paper_batch(self):
        small = datasets.scaled_batch_size("WK", paper_batch=10_000)
        large = datasets.scaled_batch_size("WK", paper_batch=100_000)
        assert small <= large


class TestTable2Rows:
    def test_rows_complete(self):
        rows = datasets.table2_rows()
        assert len(rows) == 5
        assert all(int(r["standin_nodes"]) > 0 for r in rows)

    def test_rows_mention_paper_scale(self):
        rows = datasets.table2_rows()
        assert rows[0]["paper_edges"] == "45.03M"
