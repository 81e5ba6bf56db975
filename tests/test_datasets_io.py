"""Tests for the dataset registry and edge-list IO."""

from __future__ import annotations

import pytest

from repro import DatasetError, GraphError
from repro.graph import available_datasets, load_dataset, read_edge_list, write_edge_list
from repro.graph.datasets import DATASETS
from repro.graph.validation import validate_simple_graph


class TestDatasetRegistry:
    def test_all_paper_datasets_present(self):
        names = available_datasets()
        for expected in ("chameleon", "ppi", "power", "arxiv", "blogcatalog", "dblp"):
            assert expected in names

    def test_registry_metadata_matches_paper_sizes(self):
        assert DATASETS["chameleon"].paper_num_nodes == 2_277
        assert DATASETS["blogcatalog"].paper_num_edges == 333_983
        assert DATASETS["dblp"].paper_num_nodes == 2_244_021

    @pytest.mark.parametrize("name", ["chameleon", "ppi", "power", "arxiv", "blogcatalog", "dblp"])
    def test_each_dataset_builds_a_valid_graph(self, name):
        graph = load_dataset(name, num_nodes=60, seed=0)
        assert graph.num_nodes == 60 or name == "power"  # grid rounds to rows*cols
        assert graph.num_edges > 0
        validate_simple_graph(graph)

    def test_default_density_ordering_blogcatalog_densest(self):
        blog = load_dataset("blogcatalog", num_nodes=120, seed=0)
        power = load_dataset("power", num_nodes=120, seed=0)
        assert blog.density > power.density

    def test_deterministic_given_seed(self):
        a = load_dataset("chameleon", num_nodes=80, seed=5)
        b = load_dataset("chameleon", num_nodes=80, seed=5)
        assert a == b

    def test_scale_changes_node_count(self):
        small = load_dataset("arxiv", scale=0.25, seed=0)
        large = load_dataset("arxiv", scale=0.5, seed=0)
        assert large.num_nodes > small.num_nodes

    def test_unknown_name_raises(self):
        with pytest.raises(DatasetError):
            load_dataset("not-a-dataset")

    def test_bad_scale_raises(self):
        with pytest.raises(DatasetError):
            load_dataset("chameleon", scale=0.0)

    def test_case_insensitive_lookup(self):
        graph = load_dataset("Chameleon", num_nodes=40, seed=1)
        assert graph.name == "chameleon"


#: content fingerprints of the seeded stand-ins: every registered dataset at
#: its default size, plus the 20,000-node smallworld graphs the end-to-end
#: benchmark loads.  Bump an entry only with a stated reason, as with the
#: ``RunSpec`` fingerprint pin: a change here changes every seeded result
#: built on that graph.
DATASET_FINGERPRINTS = {
    ("arxiv", None, 0): "8c8be3d4f638cccdcea10d0073220911",
    ("blogcatalog", None, 0): "fdc47ce4b195eeb4c7706202d70967f0",
    ("chameleon", None, 0): "8cbcf8d5520f409d08933f4a6c0523b9",
    ("dblp", None, 0): "59d7fe9f36ad3cf2f02f6f0ff3b210f3",
    ("power", None, 0): "dfa539614e20c07f5054823a9bcaaf69",
    ("ppi", None, 0): "92a89260b8c4a8d0ef7a65acbc423165",
    ("smallworld", None, 0): "3899838742109cd70ce86d42ec0c485f",
    ("smallworld", 20_000, 1): "b03cc2800c551f981742569bac0238ff",
    ("smallworld", 20_000, 2): "3928dd33393a0975f416c83f31843682",
}


class TestDatasetFingerprintPin:
    def test_every_registered_dataset_is_pinned(self):
        pinned = {name for name, num_nodes, _ in DATASET_FINGERPRINTS if num_nodes is None}
        assert pinned == set(available_datasets())

    @pytest.mark.parametrize(
        ("name", "num_nodes", "seed"), sorted(DATASET_FINGERPRINTS, key=str)
    )
    def test_seeded_graph_content_is_pinned(self, name, num_nodes, seed):
        graph = load_dataset(name, num_nodes=num_nodes, seed=seed)
        assert graph.content_fingerprint() == DATASET_FINGERPRINTS[name, num_nodes, seed]


class TestEdgeListIO:
    def test_round_trip(self, tmp_path, triangle_graph):
        path = tmp_path / "graph.edgelist"
        write_edge_list(triangle_graph, path)
        loaded = read_edge_list(path, num_nodes=triangle_graph.num_nodes)
        assert loaded == triangle_graph

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n\n0 1\n1 2\n# trailing\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 2

    def test_self_loops_dropped_silently(self, tmp_path):
        path = tmp_path / "loops.txt"
        path.write_text("0 0\n0 1\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 1

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_non_integer_ids_raise(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_empty_file_without_num_nodes_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(GraphError):
            read_edge_list(path)
