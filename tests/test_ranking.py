"""Ranking tests, including reproduction of the published reference scores.

Two of the twenty published rows are internally inconsistent: their printed
counts miss their printed scores by about 3e-3 under base-2 mutual
information. Swapping two adjacent digits of one count reproduces the
printed score to within 5e-7, and that swap is the only single-digit edit
(substitution or adjacent transposition) of either count that lands within
1e-5 of the score. The published scores descend strictly in table order,
which settles the misprint for RESTART_PACKAGES only: its printed counts
would rank it above Ljava_net_URLDecoder, so the counts are wrong, not the
score. CHANGE_WIFI_STATE's printed counts still fit its place; only the
unique transposition supports its correction. Those errata rows are pinned
separately below, both ways: the printed counts provably miss the printed
score, and the transposed counts provably hit it.
"""

import math

import numpy as np
import pytest

from droidtriage.calibration import (
    REFERENCE_N_BENIGN,
    REFERENCE_N_MALWARE,
    REFERENCE_TOP20_COUNTS,
)
from droidtriage.ranking import (
    FeatureClassCounts,
    mutual_information,
    rank_features,
    top_k,
)

from conftest import make_dataset, toy_catalog

# (name, published score). Consistent with the printed counts to ~5e-7
# except the two errata rows listed after.
PUBLISHED_SCORES = {
    "SEND_SMS": 0.260525,
    "RECEIVE_SMS": 0.126554,
    "READ_SMS": 0.107046,
    "remount": 0.098938,
    "/system/app": 0.098179,
    "chown": 0.096293,
    "createSubprocess": 0.096111,
    "WRITE_SMS": 0.090689,
    "/system/bin/sh": 0.089475,
    "mount": 0.088369,
    "abortBroadcast": 0.08799,
    "READ_PHONE_STATE": 0.072633,
    "TelephonyManager": 0.069811,
    "TelephonyManager_getSubscriberId": 0.063550,
    "chmod": 0.053325,
    "Ljava_net_URLDecoder": 0.051456,
    "ACCESS_NETWORK_STATE": 0.051394,
    "RESTART_PACKAGES": 0.050407,
    "CHANGE_WIFI_STATE": 0.048716,
    "Ljavax_crypto_spec_SecretKeySpec": 0.044834,
}

# Printed counts that contradict the printed score, with the digit-transposed
# counts that reproduce it.
ERRATA_ROWS = {
    "RESTART_PACKAGES": {"printed": (142, 597), "transposed": (142, 579)},
    "CHANGE_WIFI_STATE": {"printed": (297, 756), "transposed": (279, 756)},
}


def _mi(ben, mal):
    return mutual_information(
        FeatureClassCounts(ben, mal, REFERENCE_N_BENIGN, REFERENCE_N_MALWARE)
    )


def _single_digit_edits(n: int) -> set[int]:
    """Every count one digit substitution or one adjacent-digit swap away from n."""
    s = str(n)
    subs = {s[:i] + d + s[i + 1 :] for i in range(len(s)) for d in "0123456789"}
    swaps = {s[:i] + s[i + 1] + s[i] + s[i + 2 :] for i in range(len(s) - 1)}
    return {int(t) for t in subs | swaps} - {n}


def _edits_reproducing(name, ben, mal, tol):
    """Single-digit edits of one count of (ben, mal) whose score lies within
    `tol` of the published score of `name`."""
    candidates = [(b, mal) for b in _single_digit_edits(ben) if b <= REFERENCE_N_BENIGN]
    candidates += [(ben, m) for m in _single_digit_edits(mal) if m <= REFERENCE_N_MALWARE]
    return [c for c in candidates if abs(_mi(*c) - PUBLISHED_SCORES[name]) <= tol]


def _strictly_descending(scores):
    return all(a > b for a, b in zip(scores, scores[1:]))


def _mi_oracle(counts: FeatureClassCounts) -> float:
    """Independent route: H(label) - H(label | bit), in bits."""

    def h(*cells):
        total = sum(cells)
        return -sum(c / total * math.log2(c / total) for c in cells if c) if total else 0.0

    n = counts.n_ben + counts.n_mal
    n_pos = counts.n_pos_ben + counts.n_pos_mal
    h_label = h(counts.n_ben, counts.n_mal)
    h_given = (
        n_pos / n * h(counts.n_pos_ben, counts.n_pos_mal)
        + (n - n_pos) / n * h(counts.n_ben - counts.n_pos_ben, counts.n_mal - counts.n_pos_mal)
    )
    return h_label - h_given


class TestPublishedScores:
    def test_consistent_rows_reproduce_published_scores(self):
        for name, ben, mal in REFERENCE_TOP20_COUNTS:
            if name in ERRATA_ROWS:
                continue
            assert _mi(ben, mal) == pytest.approx(PUBLISHED_SCORES[name], abs=1e-3), name

    def test_errata_rows_match_transposed_counts(self):
        printed_counts = {name: (ben, mal) for name, ben, mal in REFERENCE_TOP20_COUNTS}
        for name, info in ERRATA_ROWS.items():
            assert info["printed"] == printed_counts[name], name
            ben, mal = info["transposed"]
            assert _mi(ben, mal) == pytest.approx(PUBLISHED_SCORES[name], abs=1e-5), name
            ben, mal = info["printed"]
            assert abs(_mi(ben, mal) - PUBLISHED_SCORES[name]) > 1e-3, name
            assert _edits_reproducing(name, ben, mal, 1e-5) == [info["transposed"]], name

        # The table's sort order: it holds for the published scores, breaks if
        # RESTART_PACKAGES is scored from its printed counts, and holds if
        # CHANGE_WIFI_STATE is.
        table = [name for name, _, _ in REFERENCE_TOP20_COUNTS]
        published = [PUBLISHED_SCORES[name] for name in table]
        assert _strictly_descending(published)
        for name, fits in (("RESTART_PACKAGES", False), ("CHANGE_WIFI_STATE", True)):
            scores = list(published)
            scores[table.index(name)] = _mi(*printed_counts[name])
            assert _strictly_descending(scores) is fits, name

    def test_spot_values(self):
        assert _mi(128, 1557) == pytest.approx(0.260525, abs=1e-3)
        assert _mi(5, 531) == pytest.approx(0.096111, abs=1e-3)


class TestMutualInformation:
    def test_identical_rates_give_zero(self):
        assert mutual_information(FeatureClassCounts(100, 50, 1000, 500)) == 0.0

    def test_range_and_perfect_dependence(self):
        assert mutual_information(FeatureClassCounts(0, 500, 500, 500)) == pytest.approx(1.0)
        for counts in [(3, 80, 40, 100), (0, 0, 10, 10), (10, 10, 10, 10)]:
            score = mutual_information(FeatureClassCounts(*counts))
            assert 0.0 <= score <= 1.0

    def test_symmetry_under_class_swap(self, rng):
        for _ in range(100):
            n_ben, n_mal = int(rng.integers(1, 200)), int(rng.integers(1, 200))
            a, b = int(rng.integers(0, n_ben + 1)), int(rng.integers(0, n_mal + 1))
            direct = mutual_information(FeatureClassCounts(a, b, n_ben, n_mal))
            swapped = mutual_information(FeatureClassCounts(b, a, n_mal, n_ben))
            assert direct == pytest.approx(swapped, abs=1e-12)

    def test_agrees_with_entropy_oracle(self, rng):
        for _ in range(200):
            n_ben, n_mal = int(rng.integers(1, 500)), int(rng.integers(1, 500))
            counts = FeatureClassCounts(
                int(rng.integers(0, n_ben + 1)), int(rng.integers(0, n_mal + 1)), n_ben, n_mal
            )
            assert mutual_information(counts) == pytest.approx(_mi_oracle(counts), abs=1e-12)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            FeatureClassCounts(0, 0, 0, 0)


def _exact_count_dataset():
    """Dataset whose per-feature class counts equal the printed reference
    counts, padded with five all-zero features."""
    names = [name for name, _, _ in REFERENCE_TOP20_COUNTS]
    catalog = toy_catalog(25)
    name_map = dict(zip(names, catalog.names[:20]))
    n = REFERENCE_N_BENIGN + REFERENCE_N_MALWARE
    X = np.zeros((n, 25), dtype=np.uint8)
    y = np.concatenate(
        [np.zeros(REFERENCE_N_BENIGN, dtype=np.uint8), np.ones(REFERENCE_N_MALWARE, dtype=np.uint8)]
    )
    for i, (_, ben, mal) in enumerate(REFERENCE_TOP20_COUNTS):
        X[:ben, i] = 1
        X[REFERENCE_N_BENIGN : REFERENCE_N_BENIGN + mal, i] = 1
    return make_dataset(X, y, catalog), name_map


class TestRankFeatures:
    def test_top3_on_exact_count_dataset(self):
        ds, name_map = _exact_count_dataset()
        ranking = rank_features(ds)
        expected = [name_map[n] for n in ("SEND_SMS", "RECEIVE_SMS", "READ_SMS")]
        assert top_k(ranking, 3) == expected

    def test_padding_features_score_zero(self):
        ds, _ = _exact_count_dataset()
        ranking = rank_features(ds)
        tail = {r.name: r.score for r in ranking[20:]}
        assert set(tail) == set(ds.catalog.names[20:])
        assert all(score == 0.0 for score in tail.values())

    def test_constant_feature_scores_zero(self):
        ds = make_dataset([[1, 0], [1, 1], [1, 0], [1, 1]], [0, 0, 1, 1])
        scores = {r.name: r.score for r in rank_features(ds)}
        assert scores["f00"] == 0.0

    def test_duplicate_columns_tie_break_by_name(self):
        X = [[1, 1, 0], [1, 1, 0], [0, 0, 0], [0, 0, 1]]
        ds = make_dataset(X, [1, 1, 0, 0])
        ranking = rank_features(ds)
        assert ranking[0].score == ranking[1].score
        assert (ranking[0].name, ranking[1].name) == ("f00", "f01")

    def test_two_path_equivalence(self, rng):
        X = (rng.random((60, 6)) < 0.5).astype(np.uint8)
        y = (rng.random(60) < 0.5).astype(np.uint8)
        y[:2] = [0, 1]
        ds = make_dataset(X, y)
        by_rank = {r.name: r.score for r in rank_features(ds)}
        n_ben, n_mal = ds.class_counts()
        for f, name in enumerate(ds.catalog.names):
            n_pos_mal = int(X[y == 1, f].sum())
            n_pos_ben = int(X[:, f].sum()) - n_pos_mal
            counts = FeatureClassCounts(n_pos_ben, n_pos_mal, n_ben, n_mal)
            assert by_rank[name] == pytest.approx(mutual_information(counts), abs=1e-15)

    def test_label_permutation_drives_scores_to_zero(self):
        gen = np.random.default_rng(77)
        X = (gen.random((1000, 10)) < 0.5).astype(np.uint8)
        y = np.concatenate([np.zeros(500, dtype=np.uint8), np.ones(500, dtype=np.uint8)])
        gen.shuffle(y)
        scores = [r.score for r in rank_features(make_dataset(X, y))]
        assert np.mean(scores) < 0.01

    def test_single_class_rejected(self):
        ds = make_dataset([[0], [1]], [1, 1])
        with pytest.raises(ValueError, match="each class"):
            rank_features(ds)


class TestTopK:
    def test_bounds(self):
        ds, _ = _exact_count_dataset()
        ranking = rank_features(ds)
        assert len(top_k(ranking, len(ranking))) == len(ranking)
        with pytest.raises(ValueError):
            top_k(ranking, 0)
        with pytest.raises(ValueError):
            top_k(ranking, len(ranking) + 1)
