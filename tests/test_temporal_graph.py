"""Event store tests: ingestion, the columnar layout and its CSR adjacency,
causality-respecting sampling, splits, masking, negative sampling,
instrumentation, and serialization."""

import dataclasses
import os
import re
import sys

import numpy as np
import pytest

from tgat import temporal_graph
from tgat.errors import (
    InferenceError,
    IngestionError,
    MaskingError,
    SplitError,
    ValidationError,
)
from tgat.layer import Dims, SamplingConfig, TgatModel, embed, embed_tensor
from tgat.synthetic import random_temporal_graph, recency_planted_graph
from tgat.temporal_graph import (
    INVERSE_TIMESPAN_JITTER,
    AccessMonitor,
    AccessRecord,
    NeighborhoodBatch,
    SplitSpec,
    _mix,
    _radix_order,
    build_graph,
    chronological_split,
    evaluation_event_indices,
    hop_neighborhoods,
    ingest,
    load_graph,
    load_graph_csv,
    mask_unseen,
    sample_neighborhoods,
    sampling_key,
    save_graph,
    training_event_indices,
    whole_numbers,
)
from tgat.training import _draw_negatives, attention_report, evaluate_links, link_loss


def pairs(sample):
    """(peer, timestamp) per sampled interaction."""
    return list(zip(sample.peers.tolist(), sample.times.tolist()))


# Event indices sampled for (node, t, rng seed) queries with max_size 8 on
# recency_planted_graph(200, 4000, seed=0); rows follow GOLDEN_QUERIES. The
# most-recent rows were recorded before the store became columnar; the
# uniform and inverse-timespan rows with the query-keyed exponential sampler.
GOLDEN_QUERIES = [
    (0, 1.0, 100), (3, 2.3, 101), (7, 3.6, 102), (11, 4.9, 103),
    (19, 6.2, 104), (23, 7.5, 105), (42, 8.8, 106), (57, 10.1, 107),
    (64, 11.4, 108), (77, 12.7, 109), (88, 14.0, 110), (99, 15.3, 111),
    (101, 16.6, 112), (123, 17.9, 113), (137, 19.2, 114), (150, 20.5, 115),
    (161, 21.8, 116), (177, 23.1, 117), (188, 24.4, 118), (199, 25.7, 119),
]
GOLDEN_SAMPLES = {
    "uniform": [
        [],
        [62, 134, 137, 178, 235],
        [290, 302, 315, 412],
        [121, 281, 320, 385, 527, 529, 597, 658],
        [27, 131, 402, 425, 517, 543, 544, 854],
        [463, 738, 809, 813, 857, 889, 1015, 1019],
        [47, 76, 450, 493, 496, 739],
        [256, 311, 476, 681, 684, 861, 949, 1009],
        [53, 249, 745, 842, 1385, 1452, 1638, 1655],
        [85, 143, 261, 1056, 1477, 1555, 1855, 1860],
        [55, 334, 401, 424, 1372, 1401, 1740, 1783],
        [784, 1060, 1308, 1529, 1730, 1953, 2173, 2174],
        [68, 98, 608, 794, 859, 1151, 1356, 1893],
        [52, 693, 1080, 1153, 1318, 1412, 1564, 2110],
        [25, 398, 563, 829, 1120, 1551, 1696, 2134],
        [714, 909, 1280, 1861, 2367, 2890, 2941, 2946],
        [16, 321, 704, 1250, 1632, 1753, 2575, 3183],
        [250, 525, 657, 867, 1170, 1660, 2971, 3175],
        [427, 1222, 2145, 2251, 2273, 2470, 3410, 3529],
        [317, 326, 2044, 2130, 2546, 3222, 3445, 3599],
    ],
    "inverse-timespan": [
        [],
        [62, 134, 137, 178, 235],
        [290, 302, 315, 412],
        [121, 281, 320, 385, 527, 529, 597, 658],
        [131, 402, 425, 517, 543, 544, 825, 854],
        [738, 809, 813, 857, 889, 904, 1015, 1019],
        [47, 76, 450, 493, 496, 739],
        [256, 311, 476, 681, 684, 861, 949, 1130],
        [53, 249, 745, 1385, 1437, 1452, 1638, 1655],
        [85, 1056, 1477, 1555, 1672, 1852, 1855, 1860],
        [334, 401, 424, 1372, 1401, 1420, 1740, 1783],
        [1060, 1248, 1308, 1529, 1730, 1953, 2173, 2174],
        [608, 794, 1151, 1348, 1356, 1893, 2158, 2288],
        [693, 1153, 1318, 1412, 1564, 2110, 2323, 2373],
        [563, 1120, 1551, 1696, 2133, 2134, 2619, 2684],
        [714, 1280, 1861, 2367, 2716, 2890, 2941, 2946],
        [321, 1632, 2575, 2677, 2690, 3063, 3183, 3242],
        [657, 867, 1170, 1660, 2248, 2971, 3175, 3273],
        [427, 2251, 2273, 2470, 3410, 3483, 3517, 3529],
        [2044, 2130, 2546, 3222, 3445, 3471, 3528, 3599],
    ],
    "most-recent": [
        [],
        [62, 134, 137, 178, 235],
        [290, 302, 315, 412],
        [281, 320, 338, 385, 527, 529, 597, 658],
        [402, 425, 517, 543, 544, 644, 825, 854],
        [809, 813, 857, 889, 904, 981, 1015, 1019],
        [47, 76, 450, 493, 496, 739],
        [681, 684, 861, 949, 1009, 1016, 1097, 1130],
        [384, 745, 842, 1385, 1437, 1452, 1638, 1655],
        [1256, 1477, 1555, 1616, 1672, 1852, 1855, 1860],
        [913, 1195, 1372, 1401, 1420, 1585, 1740, 1783],
        [1361, 1392, 1529, 1730, 1953, 2173, 2174, 2185],
        [1732, 1749, 1893, 1960, 2050, 2150, 2158, 2288],
        [1564, 1800, 1936, 1973, 2110, 2323, 2348, 2373],
        [1696, 1834, 2133, 2134, 2338, 2477, 2619, 2684],
        [2031, 2263, 2367, 2428, 2716, 2890, 2941, 2946],
        [2938, 2979, 3063, 3125, 3169, 3183, 3242, 3254],
        [2248, 2349, 2419, 2519, 2935, 2971, 3175, 3273],
        [2409, 2470, 2773, 2931, 3410, 3483, 3517, 3529],
        [3471, 3528, 3535, 3599, 3602, 3620, 3621, 3867],
    ],
}
GOLDEN_SPLIT = (18.869773968796327, 22.666075311267456)  # chronological_split(g, 0.7, 0.15)


def three_row_rows():
    # 2 users, 1 item, d_e = 2
    return [
        ["7", "100", "1.0", "0", "0.5", "0.5"],
        ["8", "100", "2.0", "0", "0.1", "0.2"],
        ["7", "100", "3.0", "1", "0.0", "0.9"],
    ]


class TestIngest:
    def test_three_rows_hand_enumerated(self):
        g = ingest(three_row_rows(), feature_dim=2)
        assert g.num_nodes == 3
        assert g.num_events == len(g.events) == 3
        assert g.t_max == 3.0
        # ids in first-appearance order: u7 -> 0, i100 -> 1, u8 -> 2
        assert (g.events[0].source, g.events[0].destination) == (0, 1)
        assert (g.events[1].source, g.events[1].destination) == (2, 1)
        assert (g.events[2].source, g.events[2].destination) == (0, 1)
        # adjacency by hand: node 0 sees the item at t=1 and t=3
        s = sample_neighborhoods(g, 0, 10.0, max_size=10)
        assert pairs(s) == [(1, 1.0), (1, 3.0)]
        # the item sees all three events
        s = sample_neighborhoods(g, 1, 10.0, max_size=10)
        assert pairs(s) == [(0, 1.0), (2, 2.0), (0, 3.0)]

    def test_empty_stream(self):
        g = ingest([], feature_dim=2)
        assert g.num_events == 0
        assert g.t_max == 0.0

    def test_wrong_column_count_cites_line(self):
        rows = three_row_rows()
        rows[1] = ["8", "100"]
        with pytest.raises(IngestionError, match="line 3"):
            ingest(rows, feature_dim=2)

    def test_unparsable_number_cites_line(self):
        rows = three_row_rows()
        rows[2][2] = "not-a-time"
        with pytest.raises(IngestionError, match="line 4"):
            ingest(rows, feature_dim=2)

    def test_negative_timestamp_rejected(self):
        rows = three_row_rows()
        rows[0][2] = "-1.0"
        with pytest.raises(IngestionError, match="line 2"):
            ingest(rows, feature_dim=2)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_rejected(self, raw):
        rows = three_row_rows()
        rows[1][2] = raw
        with pytest.raises(IngestionError, match="line 3"):
            ingest(rows, feature_dim=2)

    def test_timestamp_that_overflows_the_divisor_cites_line(self):
        # 1e308 / 1e-10 used to become inf and be reported as "event 0", with no line
        with pytest.raises(IngestionError,
                           match=r"^line 2: timestamp '1e308' / time_divisor 1e-10 = inf "):
            ingest([["a", "b", "1e308", "0"]], 0, time_divisor=1e-10)
        assert ingest([["a", "b", "1e308", "0"]], 0, time_divisor=10.0).t_max == 1e307

    @pytest.mark.parametrize("raw", ["0.6", "1.9", "nan", "inf"])
    def test_fractional_label_cites_line(self, raw):
        # 0.6 and 1.9 would otherwise be stored as classes 0 and 1
        rows = three_row_rows()
        rows[1][3] = raw
        with pytest.raises(IngestionError, match="line 3"):
            ingest(rows, feature_dim=2)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_edge_feature_cites_line(self, raw):
        rows = three_row_rows()
        rows[1][5] = raw
        with pytest.raises(IngestionError, match=f"line 3.*'{raw}'"):
            ingest(rows, feature_dim=2)

    def test_whole_float_label_kept(self):
        rows = three_row_rows()
        rows[2][3] = "1.0"
        assert ingest(rows, feature_dim=2).labels.tolist() == [0, 0, 1]

    def test_label_below_minus_one_cites_line(self, tmp_path):
        # -1 is the no-label marker, so -5 would silently drop out of the labelled set
        path = tmp_path / "labels.csv"
        path.write_text("user_id,item_id,timestamp,state_label\n"
                        "1,2,1.0,0\n1,2,2.0,-5\n1,2,3.0,2\n1,2,4.0,-1\n")
        with pytest.raises(IngestionError, match="line 3.*'-5'"):
            load_graph_csv(path)
        path.write_text("user_id,item_id,timestamp,state_label\n"
                        "1,2,1.0,0\n1,2,3.0,2\n1,2,4.0,-1\n")
        assert load_graph_csv(path).labels.tolist() == [0, 2, -1]

    def test_user_and_item_id_spaces_distinct(self):
        rows = [["5", "5", "1.0", "0"]]
        g = ingest(rows, feature_dim=0)
        assert g.num_nodes == 2

    # 2.5 used to ask for 6.5 columns, and 1.5 to raise a raw TypeError
    @pytest.mark.parametrize("dims, shown", [
        ((2.5, None), "feature_dim must be an integer, got 2.5"),
        ((2, 1.5), "node_feature_dim must be an integer, got 1.5")])
    def test_bad_size_arguments_rejected(self, dims, shown):
        with pytest.raises(ValidationError, match=f"^{shown}$"):
            ingest(three_row_rows(), *dims)

    def test_time_divisor(self):
        g = ingest(three_row_rows(), feature_dim=2, time_divisor=2.0)
        assert g.t_max == 1.5

    def test_unsorted_rows_get_time_ordered(self):
        rows = [three_row_rows()[2], three_row_rows()[0]]
        g = ingest(rows, feature_dim=2)
        assert [ev.timestamp for ev in g.events] == [1.0, 3.0]

    def test_reddit_scale_file_when_available(self):
        path = os.environ.get("TGAT_REDDIT_CSV", "")
        if not path or not os.path.exists(path):
            pytest.skip("full benchmark CSV not present at desk scale")
        g = load_graph_csv(path)
        assert g.num_nodes == 11000
        assert g.num_events == 672447


class TestGraphInvariants:
    def test_edge_feature_length_enforced(self):
        events_src = [0, 1]; events_dst = [1, 0]
        feats = np.zeros((2, 3))
        g = build_graph(events_src, events_dst, [1.0, 2.0], edge_features=feats)
        assert g.edge_feature_dim == 3
        # the edge feature block needs exactly one row per event
        with pytest.raises(ValidationError):
            build_graph(events_src, events_dst, [1.0, 2.0], edge_features=np.zeros((3, 2)))

    # each used to raise a raw TypeError or ValueError from numpy
    @pytest.mark.parametrize("sizes, shown", [
        ({"num_nodes": 2.5}, "num_nodes must be an integer, got 2.5"),
        ({"num_nodes": -1}, "num_nodes must be >= 0, got -1"),
        ({"node_feature_dim": -1}, "node_feature_dim must be >= 0, got -1"),
        ({"node_feature_dim": 1.0}, "node_feature_dim must be an integer, got 1.0")])
    def test_bad_size_arguments_rejected(self, sizes, shown):
        with pytest.raises(ValidationError, match=f"^{shown}$"):
            build_graph([0], [1], [1.0], **sizes)

    @pytest.mark.parametrize("sizes, shown", [
        ({"num_nodes": 5}, "num_nodes 5"),  # used to build a 3-node graph
        ({"node_feature_dim": 7}, "node_feature_dim 7")])
    def test_size_arguments_must_match_node_features(self, sizes, shown):
        with pytest.raises(ValidationError,
                           match=f"^{shown} does not match node features of shape \\(3, 1\\)$"):
            build_graph([0], [1], [1.0], node_features=np.zeros((3, 1)), **sizes)
        g = build_graph([0], [1], [1.0], node_features=np.zeros((3, 1)),
                        num_nodes=3, node_feature_dim=1)
        assert (g.num_nodes, g.node_feature_dim) == (3, 1)

    def test_event_node_needs_features(self):
        with pytest.raises(ValidationError):
            build_graph([0], [5], [1.0], node_features=np.zeros((2, 1)))

    def test_fractional_node_id_rejected(self):
        # 0.5 would otherwise be stored as node 0
        with pytest.raises(ValidationError, match="0.5"):
            build_graph([0.5], [1], [1.0])
        with pytest.raises(ValidationError):
            build_graph([0], [np.nan], [1.0], num_nodes=2)
        g = build_graph(np.array([0.0, 2.0]), [1, 1], [1.0, 2.0])
        assert g.sources.tolist() == [0, 2] and g.sources.dtype == np.int64

    def test_fractional_label_rejected(self):
        # 0.5 and 1.7 would otherwise be stored as classes 0 and 1
        with pytest.raises(ValidationError, match="label 0.5"):
            build_graph([0, 1], [1, 2], [1.0, 2.0], labels=[0.5, 1.7])
        with pytest.raises(ValidationError):
            build_graph([0], [1], [1.0], labels=[np.nan])
        g = build_graph([0, 1], [1, 2], [1.0, 2.0], labels=[1.0, -1.0])
        assert g.labels.tolist() == [1, -1] and g.labels.dtype == np.int64

    def test_label_outside_int64_rejected(self):
        # 2**64 - 1 used to wrap to -1 and be stored as "no label"
        with pytest.raises(ValidationError, match="label 18446744073709551615 is outside"):
            build_graph([0, 1], [1, 0], [1.0, 2.0], labels=np.array([0, 2**64 - 1], np.uint64))
        g = build_graph([0, 1], [1, 0], [1.0, 2.0], labels=np.array([1, 0], np.uint64))
        assert g.labels.tolist() == [1, 0] and g.labels.dtype == np.int64

    def test_node_id_at_int64_max_not_rounded(self):
        # through float64, 2**63 - 1 would round to 2**63 and be rejected
        big = np.iinfo(np.int64).max
        with pytest.raises(ValidationError, match=rf"node id {big} not in \[0, 2\)"):
            build_graph([0], np.array([big], np.uint64), [1.0], num_nodes=2)

    def test_label_below_minus_one_rejected(self):
        with pytest.raises(ValidationError, match="label -5 in event 1"):
            build_graph([0, 1, 2, 0], [1, 2, 0, 2], [1.0, 2.0, 3.0, 4.0], labels=[0, -5, 2, -1])
        g = build_graph([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0], labels=[0, 2, -1])
        assert g.labels.tolist() == [0, 2, -1]  # 2 is left to binary_labels

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        # an L=1 model embedded a NaN neighbor feature as a finite vector:
        # the FFN's ReLU turned the NaN into 0
        edge = np.zeros((3, 2))
        edge[1, 1] = bad
        with pytest.raises(ValidationError, match=f"feature 1 of event 1 is {bad}"):
            build_graph([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0], edge_features=edge)
        nodes = np.zeros((3, 2))
        nodes[2, 0] = bad
        with pytest.raises(ValidationError, match=f"feature 0 of node 2 is {bad}"):
            build_graph([0, 1], [1, 2], [1.0, 2.0], node_features=nodes)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_bad_timestamp_rejected(self, bad):
        with pytest.raises(ValidationError):
            build_graph([0, 1], [1, 0], [bad, 1.0])

    def test_columns_read_only(self):
        g = build_graph([0, 1], [1, 0], [2.0, 1.0])
        for column in (g.sources, g.timestamps, g.labels, g.peers, g.indptr, g.row_key):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_adjacency_symmetry(self):
        g = build_graph([0, 2], [1, 0], [1.0, 4.0], num_nodes=3)
        a = sample_neighborhoods(g, 0, 10.0, 10)
        b = sample_neighborhoods(g, 1, 10.0, 10)
        assert (1, 1.0) in pairs(a)
        assert (0, 1.0) in pairs(b)

    def test_self_loops_do_not_enter_neighborhoods(self):
        g = build_graph([0, 0], [0, 1], [1.0, 2.0], num_nodes=2)
        s = sample_neighborhoods(g, 0, 5.0, 10)
        assert pairs(s) == [(1, 2.0)]

    def test_csr_matches_brute_force_scan(self):
        # unsorted input with timestamp ties and self-loops
        rng = np.random.default_rng(4)
        n, n_nodes = 400, 30
        src = rng.integers(0, n_nodes, n)
        dst = rng.integers(0, n_nodes, n)
        ts = np.round(rng.uniform(0, 20, n))
        g = build_graph(src, dst, ts, num_nodes=n_nodes)
        # reference order: by timestamp, ties in input order
        order = sorted(range(n), key=lambda i: (ts[i], i))
        np.testing.assert_array_equal(g.sources, src[order])
        np.testing.assert_array_equal(g.destinations, dst[order])
        np.testing.assert_array_equal(g.timestamps, ts[order])
        # more than 2**16 nodes: the owner sort takes a second 16-bit digit
        n_wide = 70_000
        wide = build_graph(rng.integers(0, n_wide, n), rng.integers(0, n_wide, n),
                           rng.uniform(0, 20, n), num_nodes=n_wide)
        for graph in (g, recency_planted_graph(200, 4000, seed=0), wide):
            scanned = 0
            for v in np.unique(np.concatenate([graph.sources, graph.destinations])).tolist():
                rows = [(int(d) if s == v else int(s), float(t), i)
                        for i, (s, d, t) in enumerate(zip(graph.sources, graph.destinations,
                                                          graph.timestamps))
                        if s != d and v in (s, d)]
                lo, hi = graph.indptr[v], graph.indptr[v + 1]
                got = list(zip(graph.peers[lo:hi].tolist(), graph.times[lo:hi].tolist(),
                               graph.event_idx[lo:hi].tolist()))
                assert got == rows
                scanned += len(rows)
            # every row belongs to a scanned node, so nodes without events have none
            assert graph.indptr[-1] == scanned
        assert wide.peers.size > 0 and wide.indptr[65_536] < wide.indptr[-1]


class TestTemporalNeighborhood:
    def fixture(self):
        # node 0 interacts at t = 1, 2, 3, 9 with peers 1..4
        return build_graph([0, 0, 0, 0], [1, 2, 3, 4], [1.0, 2.0, 3.0, 9.0])

    def test_most_recent_returns_all_when_small(self):
        g = self.fixture()
        s = sample_neighborhoods(g, 0, 20.0, max_size=20, strategy="most-recent")
        assert s.times.tolist() == [1.0, 2.0, 3.0, 9.0]

    def test_strict_causality_cut(self):
        g = self.fixture()
        s = sample_neighborhoods(g, 0, 5.0, max_size=20)
        assert all(s.times < 5.0)
        assert set(s.times.tolist()) == {1.0, 2.0, 3.0}

    def test_event_at_query_time_excluded(self):
        g = self.fixture()
        s = sample_neighborhoods(g, 0, 9.0, max_size=20)
        assert all(s.times < 9.0)

    def test_most_recent_is_true_top_k(self):
        # oracle: full sort by timestamp
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0, 100, size=30))
        g = build_graph(np.zeros(30, dtype=int), np.arange(1, 31), times)
        s = sample_neighborhoods(g, 0, 80.0, max_size=5, strategy="most-recent")
        prior = sorted(t for t in times if t < 80.0)
        assert s.times.tolist() == prior[-5:]

    def test_uniform_without_replacement(self):
        g = self.fixture()
        s = sample_neighborhoods(g, 0, 20.0, max_size=3, strategy="uniform", rng_seed=1)
        assert s.peers.size == 3
        assert len(set(s.event_indices.tolist())) == 3

    def test_determinism(self):
        g = self.fixture()
        for strategy in ("uniform", "inverse-timespan", "most-recent"):
            a = sample_neighborhoods(g, 0, 20.0, 2, strategy, rng_seed=7)
            b = sample_neighborhoods(g, 0, 20.0, 2, strategy, rng_seed=7)
            assert pairs(a) == pairs(b)
            np.testing.assert_array_equal(a.event_indices, b.event_indices)

    def test_inverse_timespan_rates_default_jitter(self):
        # events at t=1 and t=9, query at 10: weights 1/(9+1) and 1/(1+1);
        # closed form pick rate of the t=9 event = (1/2) / (1/2 + 1/10) = 5/6
        g = build_graph([0, 0], [1, 2], [1.0, 9.0])
        rng = np.random.default_rng(123)
        picks = 0
        n = 10_000
        for _ in range(n):
            s = sample_neighborhoods(g, 0, 10.0, 1, "inverse-timespan", rng)
            picks += s.times[0] == 9.0
        np.testing.assert_allclose(picks / n, 5.0 / 6.0, atol=0.02)

    def test_empty_history_yields_empty_sample(self):
        g = self.fixture()
        s = sample_neighborhoods(g, 2, 1.5, 10)
        assert s.peers.size == 0
        assert s.edge_features.shape == (0, 0)

    def test_recurring_peer_kept_distinct(self):
        g = build_graph([0, 0, 0], [1, 1, 1], [1.0, 2.0, 3.0])
        s = sample_neighborhoods(g, 0, 5.0, 10)
        assert s.peers.size == 3

    def test_causality_property_random_queries(self):
        rng = np.random.default_rng(5)
        g = build_graph(rng.integers(0, 20, 200),
                        (rng.integers(0, 19, 200) + 1 + rng.integers(0, 20, 200)) % 20,
                        np.sort(rng.uniform(0, 50, 200)), num_nodes=20)
        # random times, plus times equal to an event time
        times = np.concatenate([rng.uniform(0, 60, 200), g.timestamps[::2]])
        for trial, t in enumerate(times.tolist()):
            node = int(rng.integers(0, 20))
            strategy = ("uniform", "inverse-timespan", "most-recent")[trial % 3]
            s = sample_neighborhoods(g, node, t, 5, strategy, rng_seed=trial)
            assert all(s.times < t)
            assert s.peers.size <= 5
        # NaN compares false with everything, so an unchecked NaN query
        # would return the node's whole history
        for t in (np.nan, np.inf, -np.inf):
            for strategy in ("uniform", "inverse-timespan", "most-recent"):
                with pytest.raises(ValidationError):
                    sample_neighborhoods(g, 0, t, 5, strategy)

    def test_edge_features_follow_event_indices(self):
        g = build_graph([0, 0, 1], [1, 2, 0], [3.0, 1.0, 2.0],
                        edge_features=[[3.0, 0.3], [1.0, 0.1], [2.0, 0.2]])
        s = sample_neighborhoods(g, 0, 5.0, 10)
        np.testing.assert_array_equal(s.edge_features, [[1.0, 0.1], [2.0, 0.2], [3.0, 0.3]])
        np.testing.assert_array_equal(s.edge_features, g.edge_features[s.event_indices])

    def test_bad_arguments(self):
        g = self.fixture()
        with pytest.raises(ValidationError):
            sample_neighborhoods(g, 99, 1.0, 5)
        with pytest.raises(ValidationError):
            sample_neighborhoods(g, 0, -1.0, 5)
        with pytest.raises(ValidationError):
            sample_neighborhoods(g, 0, 1.0, 0)
        with pytest.raises(ValidationError):
            sample_neighborhoods(g, 0, 1.0, 5, strategy="nope")


def reference_neighborhood(g, node, t, max_size, strategy, rng_seed=0, jitter=1.0):
    """Event indices of the per-query sampler the batch sampler replaced:
    a binary search in the node's CSR slice, then numpy's successive draws."""
    lo = g.indptr[node]
    times = g.times[lo:g.indptr[node + 1]]
    cut = int(np.searchsorted(times, t, side="left"))
    if cut <= max_size:
        chosen = np.arange(cut)
    elif strategy == "most-recent":
        chosen = np.arange(cut - max_size, cut)
    elif strategy == "uniform":
        rng = np.random.default_rng(rng_seed)
        chosen = np.sort(rng.choice(cut, size=max_size, replace=False))
    else:
        rng = np.random.default_rng(rng_seed)
        weights = 1.0 / (t - times[:cut] + jitter)
        chosen = np.sort(rng.choice(cut, size=max_size, replace=False, p=weights / weights.sum()))
    return g.event_idx[lo + chosen]


def batch_rows(batch):
    """Event indices of each query of a batch, oldest first."""
    return [row.tolist() for row in np.split(batch.event_indices, np.cumsum(batch.sizes)[:-1])]


class TestSampleNeighborhoods:
    def test_fractional_query_node_rejected(self):
        # 1.7 would otherwise be answered as node 1
        g = build_graph([0, 1], [1, 2], [1.0, 2.0])
        with pytest.raises(ValidationError, match="1.7"):
            sample_neighborhoods(g, [1.7], [5.0], 3)
        whole = sample_neighborhoods(g, [1.0], [5.0], 3)
        assert whole.sizes.tolist() == [2]

    def test_unknown_query_node_rejected(self):
        g = build_graph([0, 1], [1, 2], [1.0, 2.0])
        for node, shown in ((3, r"node id 3 not in \[0, 3\)"), (-1, "node id -1 is negative")):
            with pytest.raises(InferenceError, match=f"^{shown}$"):
                sample_neighborhoods(g, [0, node], [5.0, 5.0], 3)

    @pytest.mark.parametrize("nodes", [["a"], ["1"], [object()]])
    def test_query_node_that_is_not_a_number_rejected(self, nodes):
        # "a" used to raise numpy's raw ValueError; text is no node id, not even
        # "1"; an object that float() refuses is none either
        g = build_graph([0, 1], [1, 2], [1.0, 2.0])
        shown = "^" + re.escape(f"node id values must be numbers, got {nodes!r}") + "$"
        with pytest.raises(ValidationError, match=shown):
            sample_neighborhoods(g, nodes, [5.0], 3)
        with pytest.raises(ValidationError, match=shown):
            temporal_graph.whole_numbers(nodes, "node id")

    def test_query_node_outside_int64_rejected(self):
        # 1e20 used to become -9223372036854775808, with a RuntimeWarning
        g = build_graph([0, 1], [1, 2], [1.0, 2.0])
        with pytest.raises(ValidationError, match=r"node id 1e\+20 is outside the int64 range"):
            sample_neighborhoods(g, [1e20], [5.0], 3)

    def random_graph(self, seed, tied=False):
        rng = np.random.default_rng(seed)
        n, n_nodes = 300, 15
        ts = rng.uniform(0, 50, n)
        if tied:
            ts = np.round(ts / 5) * 5  # about ten events per timestamp
        return build_graph(rng.integers(0, n_nodes, n), rng.integers(0, n_nodes, n), ts,
                           edge_features=rng.standard_normal((n, 2)), num_nodes=n_nodes)

    @pytest.mark.parametrize("tied", [False, True])
    def test_most_recent_matches_reference(self, tied):
        g = self.random_graph(11, tied)
        rng = np.random.default_rng(12)
        # random times, times equal to an event time, and times past the end
        times = np.concatenate([rng.uniform(0, 60, 300), g.timestamps[::3], [0.0, 80.0]])
        nodes = rng.integers(0, g.num_nodes, times.size)
        for max_size in (1, 4, 50):
            batch = sample_neighborhoods(g, nodes, times, max_size)
            expected = [reference_neighborhood(g, v, t, max_size, "most-recent").tolist()
                        for v, t in zip(nodes, times)]
            assert batch_rows(batch) == expected
            events = batch.event_indices
            owners = np.repeat(nodes, batch.sizes)
            np.testing.assert_array_equal(batch.peers, np.where(
                g.sources[events] == owners, g.destinations[events], g.sources[events]))
            np.testing.assert_array_equal(batch.times, g.timestamps[events])
            np.testing.assert_array_equal(batch.edge_features, g.edge_features[events])
            # one row per sampled interaction, none for padding
            rows = batch.sizes.sum()
            assert batch.peers.shape == batch.times.shape == events.shape == (rows,)
            assert batch.edge_features.shape == (rows, 2)

    # five prior events at t = 1, 2, 4, 7, 9.5, query at 10, keep two:
    # numpy's successive draws pick the pair {i, j} with probability
    # p_i p_j / (1 - p_i) + p_j p_i / (1 - p_j)
    FIVE_TIMES = np.array([1.0, 2.0, 4.0, 7.0, 9.5])

    @classmethod
    def assert_pair_frequencies(cls, picked, strategy):
        """Pairs picked from the five events, as (n, 2) time-order positions,
        lie within |z| < 4.5 of the successive-draw probabilities."""
        n = picked.shape[0]
        assert (picked[:, 0] < picked[:, 1]).all()  # distinct and in time order
        weights = (1.0 / (10.0 - cls.FIVE_TIMES + 1.0) if strategy == "inverse-timespan"
                   else np.ones(5))
        p = weights / weights.sum()
        counts = np.bincount(picked[:, 0] * 5 + picked[:, 1], minlength=25).reshape(5, 5)
        for i in range(5):
            for j in range(i + 1, 5):
                expected = p[i] * p[j] / (1 - p[i]) + p[j] * p[i] / (1 - p[j])
                z = (counts[i, j] / n - expected) / np.sqrt(expected * (1 - expected) / n)
                assert abs(z) < 4.5, (i, j, z)

    @pytest.mark.parametrize("strategy", ["uniform", "inverse-timespan"])
    def test_pair_frequencies_match_successive_sampling(self, strategy):
        # 40,000 nodes, each with its own five events to one hub, queried in
        # one call: equal queries share a sample, so the queries are distinct
        n = 40_000
        g = build_graph(np.repeat(np.arange(n), 5), np.full(5 * n, n),
                        np.tile(self.FIVE_TIMES, n), num_nodes=n + 1)
        batch = sample_neighborhoods(g, np.arange(n), np.full(n, 10.0), 2,
                                     strategy, rng_seed=2024)
        assert (batch.sizes == 2).all()
        events = batch.event_indices.reshape(n, 2)
        assert (g.sources[events] == np.arange(n)[:, None]).all()
        picked = np.searchsorted(self.FIVE_TIMES, g.timestamps[events])
        self.assert_pair_frequencies(picked, strategy)

    @pytest.mark.parametrize("strategy", ["uniform", "inverse-timespan"])
    def test_pair_frequencies_across_seeds(self, strategy):
        # one query, one call per seed
        g = build_graph(np.zeros(5, dtype=int), np.arange(1, 6), self.FIVE_TIMES)
        picked = np.array([sample_neighborhoods(g, [0], [10.0], 2, strategy, rng_seed=seed)
                           .event_indices for seed in range(10_000)])
        self.assert_pair_frequencies(picked, strategy)

    def test_picks_independent_across_queries(self):
        # nodes 0 and 1 share all five events; each keeps one at 20,000
        # query times past them, and the pair of picks (a, b) is uniform
        # over the 25 cells, the product of the 1/5 marginals
        g = build_graph(np.zeros(5, dtype=int), np.ones(5, dtype=int), self.FIVE_TIMES)
        n = 20_000
        times = 10.0 + np.arange(n) * 1e-3
        batch = sample_neighborhoods(g, np.repeat([0, 1], n), np.tile(times, 2), 1,
                                     "uniform", rng_seed=7)
        a, b = batch.event_indices[:n], batch.event_indices[n:]
        counts = np.bincount(a * 5 + b, minlength=25)
        z = (counts / n - 1 / 25) / np.sqrt((1 / 25) * (24 / 25) / n)
        assert np.abs(z).max() < 4.5, z.reshape(5, 5)

    @pytest.mark.parametrize("strategy", ["uniform", "inverse-timespan"])
    def test_identical_queries_get_identical_samples(self, strategy):
        g = self.random_graph(11)
        nodes = np.array([3, 7, 3, 9, 3, 7])
        times = np.array([40.0, 25.0, 40.0, 45.0, 40.0, 25.0])
        batch = sample_neighborhoods(g, nodes, times, 2, strategy, rng_seed=4)
        rows = batch_rows(batch)
        assert rows[0] == rows[2] == rows[4] and rows[1] == rows[5]
        # node 3 has more than two events before t = 40, so its sample is drawn
        assert (g.times[g.indptr[3]:g.indptr[4]] < 40.0).sum() > 2
        # and each query alone, at the same seed, gets the same sample
        for v, t, row in zip(nodes, times, rows):
            alone = sample_neighborhoods(g, [v], [t], 2, strategy, rng_seed=4)
            assert batch_rows(alone) == [row]

    @pytest.mark.parametrize("strategy", ["uniform", "inverse-timespan", "most-recent"])
    def test_mixed_batch(self, strategy):
        # node 0: 6 events at t = 1..6; node 1: 2 events; node 5: none
        g = build_graph([0, 0, 0, 0, 0, 0, 1, 1], [2, 3, 4, 2, 3, 4, 4, 2],
                        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 2.5, 3.5], num_nodes=6)
        nodes = [5, 0, 1, 0, 0, 1, 0]
        times = [9.0, 10.0, 9.0, 0.5, 3.0, 3.5, 6.0]
        batch = sample_neighborhoods(g, nodes, times, 3, strategy, rng_seed=1)
        # empty, drawing, non-drawing, empty, non-drawing (cut 2), cut 1 for a
        # query at the node's own event time, drawing
        assert batch.sizes.tolist() == [0, 3, 2, 0, 2, 1, 3]
        assert batch.mask.shape == (7, 3)
        np.testing.assert_array_equal(batch.mask, np.arange(3) < batch.sizes[:, None])
        for v, t, row in zip(nodes, times, batch_rows(batch)):
            row = np.array(row, dtype=np.int64)
            assert (g.timestamps[row] < t).all()
            assert len(set(row.tolist())) == row.size
            assert ((g.sources[row] == v) | (g.destinations[row] == v)).all()
            np.testing.assert_array_equal(np.sort(g.timestamps[row]), g.timestamps[row])
        if strategy == "most-recent":
            # node 0's events at t = 3, 4, 5 sit at indices 3, 5, 6 of the time order
            assert batch_rows(batch)[6] == [3, 5, 6]

    def test_generator_seed_takes_one_draw_per_call(self):
        g = self.random_graph(3)
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        # a batch that needs no draw and one that does
        for t, max_size in ((0.5, 50), (45.0, 2)):
            batch = sample_neighborhoods(g, np.arange(g.num_nodes), np.full(g.num_nodes, t),
                                         max_size, "inverse-timespan", rng)
            twin.integers(0, 2**64, dtype=np.uint64)
            assert rng.bit_generator.state == twin.bit_generator.state
        assert batch.sizes.max() == 2

    @pytest.mark.parametrize("strategy", ["uniform", "inverse-timespan", "most-recent"])
    def test_self_loops_only_graph(self, strategy):
        # no event enters the CSR, so every query's sample is empty
        g = build_graph([0, 1, 1], [0, 1, 1], [1.0, 2.0, 3.0], edge_features=np.ones((3, 2)))
        assert g.peers.size == 0
        batch = sample_neighborhoods(g, [0, 1, 1], [5.0, 5.0, 0.0], 2, strategy)
        assert batch.sizes.tolist() == [0, 0, 0]
        assert batch.mask.shape == (3, 1) and batch.peers.shape == (0,)
        assert batch.edge_features.shape == (0, 2)
        assert not batch.mask.any()

    def test_empty_batch(self):
        g = self.random_graph(3)
        batch = sample_neighborhoods(g, [], [], 4, "uniform")
        assert batch.sizes.size == 0 and batch.mask.shape == (0, 1)

    def test_monitor_records_target_by_target(self):
        g = self.random_graph(5)
        nodes, times = [3, 7, 3, 1], [40.0, 25.0, 12.0, 0.0]
        with AccessMonitor() as mon:
            batch = sample_neighborhoods(g, nodes, times, 4, "uniform", rng_seed=2)
        assert batch.sizes.tolist() == [4, 4, 4, 0]
        got = [(r.node, r.query_time, r.event_index) for r in mon.records]
        assert got == [(v, t, e) for v, t, row in zip(nodes, times, batch_rows(batch))
                       for e in row]
        assert mon.violations() == []

    def test_bad_arguments(self):
        g = self.random_graph(3)
        cases = [([0, 99], [1.0, 1.0], 5, "uniform", "node id 99 not in"),
                 ([0, -1], [1.0, 1.0], 5, "uniform", "node id -1 is negative"),
                 ([0, 1], [1.0, np.nan], 5, "uniform", "nan"),
                 ([0, 1], [np.inf, 1.0], 5, "uniform", "inf"),
                 ([0, 1], [1.0, -2.0], 5, "uniform", "-2.0"),
                 ([0, 1], [1.0, 1.0], 0, "uniform", "max_neighbors must be >= 1, got 0"),
                 ([0, 1], [1.0, 1.0], 2.5, "uniform", "max_neighbors must be an integer, got 2.5"),
                 ([0, 1], [1.0, 1.0], 2.0, "uniform", "max_neighbors must be an integer"),
                 ([0, 1], [1.0, 1.0], True, "uniform", "max_neighbors must be an integer, got True"),
                 ([0, 1], [1.0, 1.0], 5, "nope", "nope"),
                 ([0, 1], [1.0], 5, "uniform", "1-D and of equal length")]
        for nodes, times, max_size, strategy, match in cases:
            with pytest.raises(ValidationError, match=match):
                sample_neighborhoods(g, nodes, times, max_size, strategy)
        assert sample_neighborhoods(g, [0], [45.0], np.int64(2), "uniform").sizes.tolist() == [2]

    @pytest.mark.parametrize("strategy", ["uniform", "inverse-timespan", "most-recent"])
    def test_a_node_and_a_time_are_a_one_query_batch(self, strategy):
        # the scalar form is the one-element form, field by field; node 0 at
        # t = 45 holds more candidates than the cap, so the random strategies draw
        g = self.random_graph(3)
        for node, t in ((0, 45.0), (np.int64(4), np.float64(20.0)), (2, 0.0)):
            one = sample_neighborhoods(g, node, t, 3, strategy, rng_seed=9)
            listed = sample_neighborhoods(g, [node], [t], 3, strategy, rng_seed=9)
            for f in dataclasses.fields(NeighborhoodBatch):
                got, expected = getattr(one, f.name), getattr(listed, f.name)
                assert (got.shape, got.dtype) == (expected.shape, expected.dtype), f.name
                assert got.tobytes() == expected.tobytes(), f.name
        assert sample_neighborhoods(g, 0, 45.0, 3, strategy).sizes.tolist() == [3]
        # 2-D and misaligned queries still name the call's shapes
        for nodes, times, shown in (([[0, 1]], [[1.0, 1.0]], "(1, 2) and (1, 2)"),
                                    ([0, 1], [1.0], "(2,) and (1,)")):
            with pytest.raises(ValidationError, match="^" + re.escape(
                    f"nodes and times must be 1-D and of equal length, got shapes {shown}")):
                sample_neighborhoods(g, nodes, times, 3, strategy)

    @pytest.mark.parametrize("nodes, times, shown", [
        (0, [5.0], "() and (1,)"), (0, [1.0, 2.0], "() and (2,)"), ([0], 5.0, "(1,) and ()")])
    def test_the_calls_own_shapes_are_compared(self, nodes, times, shown):
        # a node with a list of times used to become a batch first: 0 with
        # [5.0] sampled node 0, and 0 with [1.0, 2.0] named (1,), not ()
        g = self.random_graph(3)
        with pytest.raises(ValidationError, match="^" + re.escape(
                f"nodes and times must be 1-D and of equal length, got shapes {shown}")):
            sample_neighborhoods(g, nodes, times, 3)

    @pytest.mark.parametrize("seed", [-1, 1.5, [3, -2], "7", None, True, [True, 2]])
    def test_bad_seed_rejected(self, seed):
        # True used to sample as 1
        g = self.random_graph(3)
        with pytest.raises(ValidationError, match="rng_seed"):
            sample_neighborhoods(g, [0], [45.0], 2, "uniform", rng_seed=seed)

    @pytest.mark.parametrize("strategy", ["uniform", "inverse-timespan"])
    @pytest.mark.parametrize("drawn", [1, 255, 256, 65_536, 65_537])
    def test_selection_matches_lexsort_oracle(self, strategy, drawn):
        # every query has more candidates than the cap, so all are drawn; at
        # 65,537 queries the query index takes a second 16-bit radix digit
        rng = np.random.default_rng(drawn)
        g = build_graph(rng.integers(0, 4, 40), rng.integers(4, 8, 40), np.arange(40.0),
                        edge_features=rng.standard_normal((40, 2)))
        nodes = rng.integers(0, 8, drawn)
        times = rng.uniform(40.0, 1000.0, drawn)
        for max_size in (1, 3):
            key = sampling_key(drawn + max_size)
            got = assert_matches_oracle(g, nodes, times, max_size, strategy, key)
            assert (got.sizes == max_size).all()

    @pytest.mark.parametrize("strategy", ["uniform", "inverse-timespan"])
    def test_selection_matches_lexsort_oracle_on_tied_keys(self, strategy, monkeypatch):
        # a constant hash ties every uniform key of a query, and inverse-timespan
        # keys then tie among a node's events at one timestamp; caps that are
        # not multiples of the run lengths cut a tie run at the cutoff
        def const(z):
            return np.full_like(z, 0x9E3779B97F4A7C15)

        monkeypatch.setattr(temporal_graph, "_mix", const)
        monkeypatch.setattr(sys.modules[__name__], "_mix", const)
        rng = np.random.default_rng(11)
        g = build_graph(rng.integers(0, 3, 90), rng.integers(3, 5, 90),
                        np.repeat(np.arange(30.0), 3), edge_features=rng.standard_normal((90, 2)))
        nodes = rng.integers(0, 5, 300)
        times = rng.integers(0, 35, 300).astype(float)
        for max_size in (1, 2, 4, 5, 7, 11, 20):
            assert_matches_oracle(g, nodes, times, max_size, strategy, sampling_key(max_size))


def assert_matches_oracle(g, nodes, times, max_size, strategy, key):
    """Every ``NeighborhoodBatch`` field of the sampler equals ``lexsort_hop``'s."""
    got = hop_neighborhoods(g, nodes, times, max_size, strategy, key)
    want = lexsort_hop(g, nodes, times, max_size, strategy, key)
    for field in ("peers", "times", "event_indices", "edge_features", "sizes", "mask",
                  "query_times"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        np.testing.assert_array_equal(a, b, err_msg=field)
    return got


def lexsort_hop(g, nodes, times, max_size, strategy, key):
    """``hop_neighborhoods`` with its selection done by ``np.lexsort((keys, seg))``:
    the reference order that the sampler's argsort and radix order must give."""
    lo = g.indptr[nodes]
    first = np.searchsorted(g.timestamps, times, side="left")
    cut = np.searchsorted(g.row_key, nodes * g.num_events + first) - lo
    sizes = np.minimum(cut, max_size)
    n = max(int(sizes.max(initial=0)), 1)
    col = np.arange(n)
    rows = (lo + cut - sizes)[:, None] + col
    drawn = np.flatnonzero((cut > max_size) & (strategy != "most-recent"))
    if drawn.size:
        counts = cut[drawn]
        starts = np.cumsum(counts) - counts
        seg = np.repeat(np.arange(drawn.size), counts)
        cand = lo[drawn][seg] + np.arange(seg.size) - starts[seg]
        query = _mix(_mix(key ^ nodes[drawn].view(np.uint64)) ^ times[drawn].view(np.uint64))
        bits = _mix(query[seg] ^ g.event_idx[cand].view(np.uint64))
        keys = -np.log(((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)
        if strategy == "inverse-timespan":
            keys *= times[drawn][seg] - g.times[cand] + INVERSE_TIMESPAN_JITTER
        order = np.lexsort((keys, seg))
        kept = np.sort(order[np.arange(seg.size) - starts[seg] < max_size])
        rows[drawn, :max_size] = cand[kept].reshape(drawn.size, max_size)
    mask = col < sizes[:, None]
    real = rows[mask]
    return NeighborhoodBatch(
        peers=g.peers[real], times=g.times[real], event_indices=g.event_idx[real],
        edge_features=g.edge_features[g.event_idx[real]],
        sizes=sizes, mask=mask, query_times=times)


def test_check_event_indices():
    # the rule link_loss, evaluate_links and attention_report hold event indices to
    g = build_graph([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])

    def check(indices):
        return whole_numbers(indices, "event index", g.num_events)

    assert check([2, 0, 2.0]).tolist() == [2, 0, 2]
    assert check(np.arange(3, dtype=np.uint8)).dtype == np.int64
    assert check([]).size == 0
    # a negative index would count from the end, a fraction would be truncated
    for bad, shown in [([0, -1], "-1 is negative"), ([3], r"3 not in \[0, 3\)"),
                       ([1.5], "1.5 is not an integer"), ([np.nan], "nan")]:
        with pytest.raises(ValidationError, match=f"event index {shown}"):
            check(bad)


def tiny_graph_and_model():
    """A 3-node, 3-event graph and a one-layer model that fits it."""
    g = build_graph([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])
    return g, TgatModel.create(Dims(d0=1, d=2, d_t=2, d_h=1, d_f=2), layer_count=1,
                               head_count=1)


# each caller of the bounded id rule: what it names, its bound on the 3-node,
# 3-event graph (None: negative ids only) and the error it raises
BOUNDED = {
    "build_graph": ("node id", 3, ValidationError,
                    lambda g, m, v: build_graph([0, v], [1, 2], [1.0, 2.0], num_nodes=3)),
    "sample_neighborhoods": ("node id", 3, InferenceError,
                             lambda g, m, v: sample_neighborhoods(g, [0, v], [5.0, 5.0], 3)),
    "link_loss": ("event index", 3, ValidationError,
                  lambda g, m, v: link_loss(m, g, [0, v], SamplingConfig())),
    "evaluate_links": ("event index", 3, ValidationError,
                       lambda g, m, v: evaluate_links(m, g, SplitSpec(1.0, 2.0),
                                                      event_indices=[0, v])),
    "attention_report": ("event index", 3, ValidationError,
                         lambda g, m, v: attention_report(m, g, [0, v])),
    "SplitSpec": ("unseen node", None, ValidationError,
                  lambda g, m, v: SplitSpec(1.0, 2.0, unseen_nodes={0, v})),
    "training_event_indices": ("unseen node", 3, ValidationError, lambda g, m, v:
                               training_event_indices(g, SplitSpec(1.0, 2.0, unseen_nodes={v}))),
    "embed": ("node id", 3, InferenceError,
              lambda g, m, v: embed(m, [0, v], [1.0, 1.0], g, SamplingConfig())),
    "embed_tensor": ("node id", 3, InferenceError,
                     lambda g, m, v: embed_tensor(m, [0, v], [1.0, 1.0], g, SamplingConfig())),
}


@pytest.mark.parametrize("caller, at_bound", [(c, b) for c, (_, bound, _, _) in BOUNDED.items()
                                              for b in ([False, True] if bound else [False])])
def test_bounded_id_rule(caller, at_bound):
    # one rule and one message for every id and index outside [0, bound)
    what, bound, error, call = BOUNDED[caller]
    g, model = tiny_graph_and_model()
    value, shown = ((bound, f"{what} {bound} not in [0, {bound})") if at_bound
                    else (-1, f"{what} -1 is negative"))
    with pytest.raises(error, match="^" + re.escape(shown) + "$"):
        call(g, model, value)


# the store's and the evaluation filter's own checks, which no other call reaches
@pytest.mark.parametrize("call, shown", [
    (lambda g: temporal_graph.TemporalGraph([0], [1], [1.0], np.zeros((1, 0)), [-1],
                                            np.zeros(2)),
     "node features must be 2-D, got shape (2,)"),
    (lambda g: temporal_graph.TemporalGraph([0, 1], [1], [1.0, 2.0], np.zeros((2, 0)),
                                            [-1, -1], np.zeros((2, 1))),
     "sources, destinations, timestamps and labels must be 1-D and of equal length"),
    (lambda g: evaluation_event_indices(g, SplitSpec(1.0, 2.0), "train"),
     "evaluation period must be 'val' or 'test', got 'train'"),
    (lambda g: evaluation_event_indices(g, SplitSpec(1.0, 2.0), "test", "unseen"),
     "evaluation mode must be transductive or inductive, got 'unseen'")],
    ids=["1-d-node-features", "unequal-columns", "bad-period", "bad-mode"])
def test_store_and_filter_checks(call, shown):
    g = build_graph([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match=f"^{re.escape(shown)}$"):
        call(g)


@pytest.mark.parametrize("call", [
    lambda g, m, idx: link_loss(m, g, idx, SamplingConfig()),
    lambda g, m, idx: evaluate_links(m, g, SplitSpec(1.0, 2.0), event_indices=idx),
    lambda g, m, idx: attention_report(m, g, idx)],
    ids=["link_loss", "evaluate_links", "attention_report"])
def test_event_indices_must_be_1d(call):
    # one event-index rule: indices in range but not in a 1-D array raise a
    # one-line message naming the shape, neither numpy's concatenate error
    # nor a silent flattening
    g, model = tiny_graph_and_model()
    with pytest.raises(ValidationError,
                       match="^" + re.escape("event indices must be 1-D, got shape (1, 2)") + "$"):
        call(g, model, np.array([[0, 1]]))


@pytest.mark.parametrize("what, call", [
    ("node id", lambda g, m: sample_neighborhoods(g, [True], [5.0], 3)),
    ("event index", lambda g, m: link_loss(m, g, [True], SamplingConfig())),
    ("unseen node", lambda g, m: SplitSpec(1.0, 2.0, unseen_nodes={True})),
    ("node id", lambda g, m: build_graph([True], [0], [1.0])),
    ("label", lambda g, m: build_graph([0], [1], [1.0], labels=[True])),
    ("node id", lambda g, m: embed(m, True, 1.0, g, SamplingConfig())),
    # numpy reads a boolean listed with numbers as an int
    ("node id", lambda g, m: sample_neighborhoods(g, [True, 2], [5.0, 5.0], 3)),
    ("node id", lambda g, m: build_graph([True, 0], [1, 2], [1.0, 2.0])),
    ("id", lambda g, m: whole_numbers((1, False), "id")),
    ("id", lambda g, m: whole_numbers([np.True_, 3], "id")),
    ("node id", lambda g, m: whole_numbers([[True, 2]], "node id")),
    # the embeddings read the same listed boolean as node 1
    ("node id", lambda g, m: embed(m, [True, 2], [1.0, 1.0], g, SamplingConfig())),
    ("node id", lambda g, m: embed_tensor(m, [True, 2], [1.0, 1.0], g, SamplingConfig()))],
    ids=["sample_neighborhoods", "event_index", "SplitSpec", "build_graph_ids",
         "build_graph_labels", "embed", "sample_neighborhoods_mixed", "build_graph_mixed",
         "tuple_mixed", "numpy_bool_mixed", "nested_list", "embed_mixed", "embed_tensor_mixed"])
def test_booleans_are_no_ids(what, call):
    # each used to take True as id, index or label 1, and False as 0
    g, model = tiny_graph_and_model()
    with pytest.raises(ValidationError, match=f"^{what} values must be numbers, got "):
        call(g, model)


@pytest.mark.parametrize("bound", [1, 2**16, 2**16 + 1, 2**32 + 1])
def test_radix_order_is_a_stable_argsort(bound):
    rng = np.random.default_rng(bound)
    # few distinct values, the largest allowed among them, so most keys tie
    pool = np.append(rng.integers(0, bound, 40), bound - 1)
    keys = rng.choice(pool, 5000)
    np.testing.assert_array_equal(_radix_order(keys, bound), np.argsort(keys, kind="stable"))


class TestGoldenSamples:
    """Samples and split cut points stay bit-identical to the recorded ones."""

    def test_samples_and_split(self):
        g = recency_planted_graph(200, 4000, seed=0)
        for strategy, expected in GOLDEN_SAMPLES.items():
            got = [sample_neighborhoods(g, v, t, 8, strategy, rng_seed=seed)
                   .event_indices.tolist() for v, t, seed in GOLDEN_QUERIES]
            assert got == expected, strategy
        split = chronological_split(g, 0.7, 0.15)
        assert (split.train_end, split.val_end) == GOLDEN_SPLIT


class TestMonitor:
    def test_records_and_violations(self):
        g = build_graph([0, 0], [1, 2], [1.0, 2.0])
        with AccessMonitor() as mon:
            sample_neighborhoods(g, 0, 5.0, 10)
        assert len(mon.records) == 2
        assert mon.violations() == []
        assert max(r.event_timestamp for r in mon.records) == 2.0

    def test_nan_query_time_is_a_violation(self):
        mon = AccessMonitor()
        mon.records = [
            AccessRecord(node=0, query_time=float("nan"), event_timestamp=1.0, event_index=0),
            AccessRecord(node=0, query_time=2.0, event_timestamp=float("nan"), event_index=1),
            AccessRecord(node=0, query_time=2.0, event_timestamp=2.0, event_index=2),
            AccessRecord(node=0, query_time=2.0, event_timestamp=1.0, event_index=3),
        ]
        assert [r.event_index for r in mon.violations()] == [0, 1, 2]

    def test_inactive_after_exit(self):
        g = build_graph([0], [1], [1.0])
        with AccessMonitor() as mon:
            pass
        sample_neighborhoods(g, 0, 5.0, 10)
        assert mon.records == []


class TestChronologicalSplit:
    def test_uniform_timestamps(self):
        g = build_graph(np.zeros(100, dtype=int), np.arange(1, 101),
                        np.arange(1.0, 101.0))
        split = chronological_split(g, 0.70, 0.15)
        assert split.train_end == 70.0
        assert split.val_end == 85.0

    def test_partition_covers_every_event_once(self):
        rng = np.random.default_rng(8)
        g = build_graph(rng.integers(0, 10, 60), rng.integers(10, 20, 60),
                        np.sort(rng.uniform(0, 10, 60)), num_nodes=20)
        split = chronological_split(g, 0.6, 0.2)
        masks = {p: split.in_period(g.timestamps, p) for p in ("train", "val", "test")}
        assert (sum(masks.values()) == 1).all()  # each event in exactly one period
        counts = {p: int(mask.sum()) for p, mask in masks.items()}
        assert sum(counts.values()) == 60
        assert counts["train"] >= 36  # boundary ties go earlier

    def test_all_same_timestamp_goes_to_train(self):
        g = build_graph(np.zeros(10, dtype=int), np.arange(1, 11), np.full(10, 5.0))
        split = chronological_split(g, 0.70, 0.15)
        assert split.in_period(g.timestamps, "train").all()

    def test_approximate_fractions_on_stationary_stream(self):
        rng = np.random.default_rng(1)
        n = 5000
        g = build_graph(rng.integers(0, 100, n), rng.integers(100, 200, n),
                        np.sort(rng.uniform(0, 1000, n)), num_nodes=200)
        split = chronological_split(g, 0.70, 0.15)
        frac_train = np.mean([ev.timestamp <= split.train_end for ev in g.events])
        assert abs(frac_train - 0.70) < 0.01

    def test_in_period_at_the_cut_points(self):
        # at each cut point, one ulp either side of it, and at time 0
        split = SplitSpec(train_end=7.0, val_end=8.5)
        times = [0.0, 3.0, 10.0]
        for cut in (split.train_end, split.val_end):
            times += [np.nextafter(cut, -np.inf), cut, np.nextafter(cut, np.inf)]
        masks = [split.in_period(np.array(times), p) for p in ("train", "val", "test")]
        assert (sum(masks) == 1).all()  # each time in exactly one period
        periods = np.select(masks, ["train", "val", "test"], "none")
        assert periods.tolist() == ["train", "train", "test", "train", "train", "val",
                                    "val", "val", "test"]

    def test_in_period_unknown_name_and_nan(self):
        split = SplitSpec(train_end=7.0, val_end=8.5)
        with pytest.raises(ValidationError, match="period must be 'train', 'val' or 'test', "
                                                  "got 'validation'"):
            split.in_period(np.array([1.0]), "validation")
        assert not any(split.in_period(np.array([np.nan]), p)[0]
                       for p in ("train", "val", "test"))

    @pytest.mark.parametrize("train_end, val_end", [(5.0, 3.0), (np.nan, 3.0), (5.0, np.nan)])
    def test_overlapping_or_nan_cut_points_rejected(self, train_end, val_end):
        # with train_end 5 and val_end 3, a timestamp of 4 was both "train" and "test"
        with pytest.raises(ValidationError, match="periods would overlap"):
            SplitSpec(train_end=train_end, val_end=val_end)
        split = SplitSpec(train_end=3.0, val_end=3.0)  # equal cut points: an empty val period
        assert [split.in_period(np.array([3.0, 4.0]), p).tolist()
                for p in ("train", "val", "test")] == [[True, False], [False, False],
                                                       [False, True]]

    @pytest.mark.parametrize("train_end, val_end, shown", [
        (None, 3.0, "train_end must be a real number, got None"),  # used to raise a raw TypeError
        ("1", "3", "train_end must be a real number, got '1'"),  # used to fail later in numpy
        (1.0, True, "val_end must be a real number, got True")])
    def test_cut_points_must_be_real_numbers(self, train_end, val_end, shown):
        with pytest.raises(ValidationError, match=f"^{shown}$"):
            SplitSpec(train_end=train_end, val_end=val_end)

    @pytest.mark.parametrize("unseen, shown", [
        ({1.5}, "unseen node 1.5 is not an integer"),  # used to withhold node 1
        ({-7}, "unseen node -7 is negative"),  # used to be accepted
        ({"a"}, "unseen node values must be numbers, got \\['a'\\]")])  # a raw ValueError
    def test_unseen_nodes_must_be_node_ids(self, unseen, shown):
        with pytest.raises(ValidationError, match=f"^{shown}$"):
            SplitSpec(train_end=2.0, val_end=3.0, unseen_nodes=frozenset(unseen))

    def test_unseen_node_must_be_in_the_graph(self):
        # node 99 of a 4-node graph used to be accepted without a word
        g = build_graph([0, 1, 2, 3], [1, 2, 3, 0], [1.0, 2.0, 3.0, 4.0])
        split = SplitSpec(train_end=2.0, val_end=3.0, unseen_nodes=frozenset({1, 99}))
        with pytest.raises(ValidationError, match=r"^unseen node 99 not in \[0, 4\)$"):
            training_event_indices(g, split)
        with pytest.raises(ValidationError, match=r"^unseen node 99 not in \[0, 4\)$"):
            evaluation_event_indices(g, split, "test", "inductive")
        fine = SplitSpec(train_end=2.0, val_end=3.0, unseen_nodes=frozenset({3}))
        assert training_event_indices(g, fine).tolist() == [0, 1]

    def test_too_few_events(self):
        g = build_graph([0, 1], [1, 0], [1.0, 2.0])
        with pytest.raises(SplitError):
            chronological_split(g, 0.7, 0.15)

    def test_bad_fractions(self):
        g = build_graph([0, 1, 0], [1, 0, 1], [1.0, 2.0, 3.0])
        for fr in ((0.0, 0.5), (0.9, 0.2), (0.5, 0.0)):
            with pytest.raises(ValidationError):
                chronological_split(g, *fr)

    @pytest.mark.parametrize("fractions, shown", [
        (("0.7", 0.15), "train_frac must be a real number"),  # used to raise a raw TypeError
        ((0.7, None), "val_frac must be a real number"),
        ((True, 0.15), "train_frac must be a real number"),
        ((1.5, 0.15), "train_frac must be in \\(0, 1\\)"),
        ((0.7, float("nan")), "val_frac must be in \\(0, 1\\)"),
    ])
    def test_fraction_named_when_not_a_fraction(self, fractions, shown):
        g = recency_planted_graph(60, 900)
        with pytest.raises(ValidationError, match=shown):
            chronological_split(g, *fractions)


class TestMaskUnseen:
    def bigger(self):
        rng = np.random.default_rng(3)
        return build_graph(rng.integers(0, 50, 300), rng.integers(50, 100, 300),
                           np.sort(rng.uniform(0, 100, 300)), num_nodes=100)

    def test_exact_count(self):
        g = self.bigger()
        split = chronological_split(g, 0.7, 0.15)
        masked = mask_unseen(g, split, 0.1, rng_seed=0)
        assert len(masked.unseen_nodes) == 10

    def test_same_seed_same_set(self):
        g = self.bigger()
        split = chronological_split(g, 0.7, 0.15)
        a = mask_unseen(g, split, 0.1, rng_seed=42)
        b = mask_unseen(g, split, 0.1, rng_seed=42)
        assert a.unseen_nodes == b.unseen_nodes

    def test_training_events_avoid_unseen(self):
        g = self.bigger()
        split = mask_unseen(g, chronological_split(g, 0.7, 0.15), 0.1, rng_seed=1)
        for i in training_event_indices(g, split):
            ev = g.events[int(i)]
            assert ev.source not in split.unseen_nodes
            assert ev.destination not in split.unseen_nodes
            assert ev.timestamp <= split.train_end

    def test_inductive_eval_touches_unseen(self):
        g = self.bigger()
        split = mask_unseen(g, chronological_split(g, 0.7, 0.15), 0.1, rng_seed=1)
        idx = evaluation_event_indices(g, split, "test", "inductive")
        for i in idx:
            ev = g.events[int(i)]
            assert (ev.source in split.unseen_nodes
                    or ev.destination in split.unseen_nodes)

    def test_path_graph_masking_middle_node_errors(self):
        # path a-b, b-c: masking b leaves no training events
        g = build_graph([0, 1, 0, 1], [1, 2, 1, 2], [1.0, 2.0, 3.0, 4.0])
        split = SplitSpec(train_end=4.0, val_end=4.0)
        middle_seed = next(
            s for s in range(100)
            if set(np.random.default_rng(s).choice(3, size=1, replace=False)) == {1})
        with pytest.raises(MaskingError):
            mask_unseen(g, split, 0.34, rng_seed=middle_seed)

    def test_bad_fraction(self):
        g = self.bigger()
        split = chronological_split(g, 0.7, 0.15)
        for frac in (0.0, 1.0, -0.5):
            with pytest.raises(ValidationError):
                mask_unseen(g, split, frac, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, [True, 2]])
    def test_bad_seed_rejected(self, seed):
        # numpy's ValueError or TypeError used to escape, and True drew as 1
        g = self.bigger()
        with pytest.raises(ValidationError, match="rng_seed"):
            mask_unseen(g, chronological_split(g, 0.7, 0.15), 0.1, rng_seed=seed)


@pytest.mark.parametrize("seed", [-1, 1.5, None])
@pytest.mark.parametrize("generate", [random_temporal_graph, recency_planted_graph])
def test_synthetic_graphs_reject_bad_seeds(generate, seed):
    # None used to draw fresh entropy, -1 and 1.5 raised numpy's errors
    with pytest.raises(ValidationError, match="^rng_seed must be a non-negative integer or a "
                                              "sequence of them, got "):
        generate(n_nodes=10, n_events=20, seed=seed)


def scalar_negatives(rng, num_nodes, forbidden):
    """The reference: one scalar draw per value, redrawn on a collision with
    the row's forbidden destination, row by row."""
    out = []
    for f in forbidden.tolist():
        v = int(rng.integers(0, num_nodes))
        while v == f and num_nodes > 1:
            v = int(rng.integers(0, num_nodes))
        out.append(v)
    return np.array(out, dtype=np.int64)


class TestSampleNegative:
    """The one negative sampler, ``training._draw_negatives``."""

    def test_single_node_forced(self):
        # a lone node is returned even though it is the forbidden one
        rng = np.random.default_rng(0)
        assert _draw_negatives(rng, 1, np.zeros(3, dtype=np.int64)).tolist() == [0, 0, 0]

    def test_uniform_frequencies(self):
        # uniform over the nodes other than the forbidden destination
        rng = np.random.default_rng(7)
        draws = _draw_negatives(rng, 4, np.full(10_000, 3))
        freqs = np.bincount(draws, minlength=4) / 10_000
        np.testing.assert_allclose(freqs[:3], 1 / 3, atol=0.03)
        assert freqs[3] == 0.0

    def test_matches_scalar_loop_bit_for_bit(self):
        # same values and same generator state as the per-negative loop, so
        # what link_loss draws next from the generator does not move
        inputs = []
        for seed in range(30):
            for num_nodes in (1, 2, 3, 4, 5, 6, 7, 8, 500):
                case = np.random.default_rng([seed, num_nodes])
                p, q = int(case.integers(1, 61)), int(case.integers(1, 4))
                inputs.append((seed, num_nodes, np.repeat(case.integers(0, num_nodes, p), q)))
        # no rows, and 2,000 rows of two nodes, where half the draws collide
        inputs += [(30, 3, np.zeros(0, dtype=np.int64)),
                   (31, 2, np.random.default_rng(31).integers(0, 2, 2000))]
        for seed, num_nodes, forbidden in inputs:
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = _draw_negatives(ours, num_nodes, forbidden)
            np.testing.assert_array_equal(drawn, scalar_negatives(theirs, num_nodes, forbidden))
            assert drawn.dtype == np.int64
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert ours.random() == theirs.random()
        assert len(inputs) == 272


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        g = ingest(three_row_rows(), feature_dim=2)
        path = tmp_path / "g.npz"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.num_nodes == g.num_nodes
        assert g2.num_events == g.num_events
        for a, b in zip(g.events, g2.events):
            assert (a.source, a.destination, a.timestamp, a.label) == \
                   (b.source, b.destination, b.timestamp, b.label)
            np.testing.assert_array_equal(a.edge_features, b.edge_features)
        np.testing.assert_array_equal(g.node_features, g2.node_features)
        for name in ("labels", "indptr", "peers", "times", "event_idx", "row_key"):
            np.testing.assert_array_equal(getattr(g2, name), getattr(g, name))

    def test_roundtrip_at_a_path_without_npz_suffix(self, tmp_path):
        # np.savez added ".npz" to the name, so load_graph found no "g.graph"
        g = ingest(three_row_rows(), feature_dim=2)
        path = tmp_path / "g.graph"
        save_graph(g, path)
        assert [p.name for p in tmp_path.iterdir()] == ["g.graph"]
        np.testing.assert_array_equal(load_graph(path).timestamps, g.timestamps)

    def test_bytes_deterministic(self, tmp_path):
        g = ingest(three_row_rows(), feature_dim=2)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_graph(g, p1)
        save_graph(g, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("content", [b"", b"not a graph", b"PK\x03\x04broken"])
    def test_non_archive_rejected(self, tmp_path, content):
        path = tmp_path / "bad.npz"
        path.write_bytes(content)
        with pytest.raises(ValidationError, match="bad.npz"):
            load_graph(path)

    def test_missing_member_rejected(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, format_version=np.array([1]), sources=np.array([0]))
        with pytest.raises(ValidationError, match="destinations"):
            load_graph(path)

    @pytest.mark.parametrize("member, column", [
        ("sources", np.array(["a", "b"])),          # died with a ValueError traceback
        ("timestamps", np.array([1.0 + 1j, 2.0])),  # lost its imaginary part
        ("edge_features", np.array([[b"x"], [b"y"]])),
        ("format_version", np.array(["1"])),
        ("labels", np.array([True, False])),  # used to load as labels 1 and 0
    ])
    def test_non_numeric_member_rejected(self, tmp_path, member, column):
        path = tmp_path / "g.npz"
        save_graph(build_graph([0, 1], [1, 0], [1.0, 2.0]), path)
        with np.load(path) as data:
            members = dict(data)
        members[member] = column
        np.savez(path, **members)
        with pytest.raises(ValidationError, match=f"g.npz: member '{member}' is .*, not numeric"):
            load_graph(path)

    @pytest.mark.parametrize("member", ["edge_features", "node_features"])
    def test_non_finite_feature_in_archive_rejected(self, tmp_path, member):
        path = tmp_path / "g.npz"
        save_graph(build_graph([0, 1], [1, 0], [1.0, 2.0], edge_features=np.zeros((2, 1))), path)
        with np.load(path) as data:
            members = dict(data)
        members[member] = np.full_like(members[member], np.nan)
        np.savez(path, **members)
        with pytest.raises(ValidationError, match="g.npz: feature 0 of .* is nan"):
            load_graph(path)

    def test_uint64_label_outside_int64_in_archive_rejected(self, tmp_path):
        # 2**64 - 1 used to load as -1, which reads "no label"
        path = tmp_path / "g.npz"
        save_graph(build_graph([0, 1], [1, 0], [1.0, 2.0], labels=[0, 1]), path)
        with np.load(path) as data:
            members = dict(data)
        members["labels"] = np.array([0, 2**64 - 1], np.uint64)
        np.savez(path, **members)
        with pytest.raises(ValidationError, match="g.npz: label 18446744073709551615 is outside"):
            load_graph(path)

    def test_non_finite_timestamp_in_archive_rejected(self, tmp_path):
        g = build_graph([0, 1], [1, 0], [1.0, 2.0])
        path = tmp_path / "g.npz"
        save_graph(g, path)
        with np.load(path) as data:
            members = dict(data)
        members["timestamps"] = np.array([1.0, np.nan])
        np.savez(path, **members)
        with pytest.raises(ValidationError, match="g.npz"):
            load_graph(path)

    def test_csv_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("user_id,item_id,timestamp,state_label\nJos\u00e9,2,1.0,0\n"
                         .encode("latin-1"))
        with pytest.raises(IngestionError, match="latin1.csv: not UTF-8"):
            load_graph_csv(path)

    def test_csv_loader_infers_feature_dim(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("user_id,item_id,timestamp,state_label,f_1,f_2\n"
                        + "\n".join(",".join(r) for r in three_row_rows()) + "\n")
        g = load_graph_csv(path)
        assert g.edge_feature_dim == 2
        assert g.num_events == 3
