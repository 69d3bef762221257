"""Ranking-metric tests: hand-computed cases, exhaustive small-case
equivalence against brute-force oracles, and null-model calibration."""

import itertools
import re

import numpy as np
import pytest

from tgat.errors import EvaluationError
from tgat.metrics import (
    _midranks,
    accuracy,
    average_precision,
    roc_auc,
    spearman,
)


def ap_oracle(labels, scores):
    """Step-sum average precision by explicit prefix loop (ties broken by index)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    total = 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            hits += 1
            total += hits / rank
    return total / sum(labels)


def auc_oracle(labels, scores):
    """Pair-counting AUC: concordant pairs plus half the ties."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestHandCases:
    def test_ap_three_items(self):
        # scores [0.9+, 0.8-, 0.7+]: (1/1 + 2/3) / 2
        got = average_precision([1, 0, 1], [0.9, 0.8, 0.7])
        np.testing.assert_allclose(got, (1.0 + 2.0 / 3.0) / 2.0)
        np.testing.assert_allclose(got, 0.8333, atol=5e-5)

    def test_ap_perfect_separation(self):
        assert average_precision([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0
        assert accuracy([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0

    def test_auc_pair_counting_four_items(self):
        # positives {0.9, 0.4}, negatives {0.1, 0.6}: 3 concordant of 4 pairs
        got = roc_auc([1, 0, 1, 0], [0.9, 0.1, 0.4, 0.6])
        np.testing.assert_allclose(got, auc_oracle([1, 0, 1, 0], [0.9, 0.1, 0.4, 0.6]))
        np.testing.assert_allclose(got, 0.75)

    def test_auc_half_for_two_by_two_split(self):
        # positives {0.9, 0.1}, negatives {0.4, 0.6}: 2 concordant, 2 discordant
        got = roc_auc([1, 1, 0, 0], [0.9, 0.1, 0.4, 0.6])
        np.testing.assert_allclose(got, 0.5)

    def test_auc_perfectly_separable(self):
        assert roc_auc([0, 1, 0, 1], [0.1, 0.8, 0.3, 0.9]) == 1.0

    def test_auc_ties_count_half(self):
        np.testing.assert_allclose(roc_auc([1, 0], [0.5, 0.5]), 0.5)

    def test_accuracy_threshold(self):
        np.testing.assert_allclose(accuracy([1, 0, 1, 0], [0.6, 0.6, 0.4, 0.4]), 0.5)

    def test_errors(self):
        with pytest.raises(EvaluationError):
            average_precision([0, 0], [0.1, 0.2])
        with pytest.raises(EvaluationError):
            roc_auc([1, 1], [0.1, 0.2])
        with pytest.raises(EvaluationError):
            average_precision([], [])

    @pytest.mark.parametrize("call, shown", [
        (lambda: accuracy([1, 0], [0.5]),
         "labels and scores must be matching 1-D arrays, got (2,) and (1,)"),
        (lambda: roc_auc([[1, 0]], [[0.5, 0.2]]),
         "labels and scores must be matching 1-D arrays, got (1, 2) and (1, 2)"),
        (lambda: spearman([1.0, 2.0], [1.0, 2.0, 3.0]),
         "need two matching 1-D samples, got (2,) and (3,)"),
        (lambda: spearman([1.0], [2.0]), "need two matching 1-D samples, got (1,) and (1,)")],
        ids=["unequal-lengths", "2-d", "spearman-unequal", "spearman-one-sample"])
    def test_input_shapes_checked(self, call, shown):
        with pytest.raises(EvaluationError, match=f"^{re.escape(shown)}$"):
            call()

    def test_object_label_named_in_the_error(self):
        # the message called .item() on the label, which a None lacks, and
        # raised a raw AttributeError
        with pytest.raises(EvaluationError, match="labels must be 0 or 1, got None"):
            accuracy([None, 1], [0.2, 0.8])

    # a sort places NaN above every finite score, so an unchecked NaN would
    # score as a perfect positive: this example used to give an AUC of 1.0
    NAN_LABELS, NAN_SCORES = [1, 0, 1, 0], [np.nan, 0.5, np.nan, 0.2]

    def test_auc_rejects_nan(self):
        with pytest.raises(EvaluationError, match="NaN"):
            roc_auc(self.NAN_LABELS, self.NAN_SCORES)

    def test_ap_rejects_nan(self):
        with pytest.raises(EvaluationError, match="NaN"):
            average_precision(self.NAN_LABELS, self.NAN_SCORES)

    def test_accuracy_rejects_nan(self):
        # an unchecked NaN fails every threshold and counts as a negative
        with pytest.raises(EvaluationError, match="NaN"):
            accuracy(self.NAN_LABELS, self.NAN_SCORES)

    # a label of 2 used to be scored: this example gave an AUC of -1.0 and an AP of 0.5
    @pytest.mark.parametrize("metric", [roc_auc, average_precision, accuracy])
    @pytest.mark.parametrize("labels", [[2, 0, 1, 0], [1, 0, -1, 0], [1, 0, 0.5, 0]])
    def test_rejects_labels_other_than_zero_and_one(self, metric, labels):
        with pytest.raises(EvaluationError, match="0 or 1"):
            metric(labels, [0.9, 0.1, 0.8, 0.2])


class TestExhaustiveSmallCases:
    """Implementations match the brute-force oracles on every configuration of
    up to 8 items: all label patterns, with distinct scores for all sizes and
    full tie enumeration for sizes up to 4."""

    def test_all_label_patterns_distinct_scores(self):
        for n in range(1, 9):
            scores = [(i + 1) / (n + 1) for i in range(n)]
            for labels in itertools.product([0, 1], repeat=n):
                if sum(labels) >= 1:
                    assert average_precision(labels, scores) == ap_oracle(labels, scores)
                if 0 < sum(labels) < n:
                    np.testing.assert_allclose(roc_auc(labels, scores),
                                               auc_oracle(labels, scores), atol=1e-12)

    def test_all_tie_patterns_up_to_four(self):
        values = [0.2, 0.5, 0.8]
        for n in range(1, 5):
            for scores in itertools.product(values, repeat=n):
                for labels in itertools.product([0, 1], repeat=n):
                    if sum(labels) >= 1:
                        assert average_precision(labels, scores) == \
                            ap_oracle(labels, scores)
                    if 0 < sum(labels) < n:
                        np.testing.assert_allclose(roc_auc(labels, scores),
                                                   auc_oracle(labels, scores),
                                                   atol=1e-12)

    def test_seeded_tie_patterns_size_eight(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = 8
            scores = rng.choice([0.1, 0.4, 0.7], size=n).tolist()
            labels = rng.integers(0, 2, size=n).tolist()
            if sum(labels) >= 1:
                assert average_precision(labels, scores) == ap_oracle(labels, scores)
            if 0 < sum(labels) < n:
                np.testing.assert_allclose(roc_auc(labels, scores),
                                           auc_oracle(labels, scores), atol=1e-12)


class TestNullModels:
    def test_ap_null_half(self):
        rng = np.random.default_rng(17)
        labels = rng.integers(0, 2, size=10_000)
        scores = rng.uniform(0, 1, size=10_000)
        assert abs(average_precision(labels, scores) - 0.5) < 0.02

    def test_auc_null_half(self):
        rng = np.random.default_rng(23)
        labels = rng.integers(0, 2, size=10_000)
        scores = rng.uniform(0, 1, size=10_000)
        assert abs(roc_auc(labels, scores) - 0.5) < 0.02


class TestSpearman:
    def test_perfect_monotone(self):
        x = np.arange(10.0)
        np.testing.assert_allclose(spearman(x, x * 3 + 1), 1.0)
        np.testing.assert_allclose(spearman(x, -np.exp(x / 3)), -1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((2, 5000))
        assert abs(spearman(x, y)) < 0.05

    def test_constant_input_is_zero(self):
        assert spearman(np.ones(5), np.arange(5.0)) == 0.0

    def test_rejects_nan_in_either_sample(self):
        x = np.arange(4.0)
        with_nan = np.array([0.0, np.nan, 2.0, 3.0])
        for a, b in ((with_nan, x), (x, with_nan)):
            with pytest.raises(EvaluationError, match="NaN"):
                spearman(a, b)

    def test_midranks_against_rank_pearson(self):
        rng = np.random.default_rng(3)
        x = rng.choice([1.0, 2.0, 3.0], size=50)
        y = rng.choice([1.0, 2.0], size=50)
        # oracle: Pearson on explicitly computed midranks
        def midrank(v):
            order = np.argsort(v, kind="mergesort")
            ranks = np.empty(v.size)
            i = 0
            sv = v[order]
            while i < v.size:
                j = i
                while j + 1 < v.size and sv[j + 1] == sv[i]:
                    j += 1
                ranks[order[i:j + 1]] = (i + j) / 2 + 1
                i = j + 1
            return ranks
        rx, ry = midrank(x), midrank(y)
        expected = np.corrcoef(rx, ry)[0, 1]
        np.testing.assert_allclose(spearman(x, y), expected, atol=1e-12)

    def test_midranks_exact_on_every_small_pattern(self):
        # oracle: count of smaller scores plus the mean position within the tie group
        def oracle(v):
            below = (v[:, None] > v[None, :]).sum(axis=1)
            tied = (v[:, None] == v[None, :]).sum(axis=1)
            return below + (tied + 1) / 2
        for n in range(1, 7):
            for pattern in itertools.product(range(3), repeat=n):
                v = np.array(pattern, dtype=np.float64)
                np.testing.assert_array_equal(_midranks(v), oracle(v))
        v = np.random.default_rng(4).integers(0, 300, size=2_000).astype(np.float64)
        np.testing.assert_array_equal(_midranks(v), oracle(v))
