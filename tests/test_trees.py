import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droidtriage import dataset, trees
from droidtriage.algo import AlgoDescriptor, is_malware, model_scores
from droidtriage.dataset import PackedRows, _packed
from droidtriage.ensemble import train_forest
from droidtriage.trees import (
    _IMPURITY,
    ENTROPY,
    GINI,
    TreeModel,
    default_split_count,
    derive_seed,
    train_decision_tree,
    train_random_tree,
    tree_scores,
)

from conftest import _forest, _nested, _walk, make_dataset, random_dataset, subset, traced_peak


def entropy(n_malware, total) -> float:
    return float(_IMPURITY[ENTROPY](n_malware, total))


def gini(n_malware, total) -> float:
    return float(_IMPURITY[GINI](n_malware, total))


def test_derive_seed_pinned():
    """SplitMix64's finalizer of master + (index + 1) * golden; both inputs
    are taken modulo 2**64, and no overflow warning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert derive_seed(0, 0) == 0xE220A8397B1DCDAF  # SplitMix64's first output from state 0
        assert derive_seed(42, 7) == 14769051326987775908
        assert derive_seed(-1, 3) == derive_seed(2**64 - 1, 3) == 7862637804313477842
        assert derive_seed(2**64 + 5, 1) == derive_seed(5, 1) == 13877614986023876344
        assert derive_seed(2**64 - 1, 2**64 - 1) == 13029008266876403067


class TestImpurity:
    def test_entropy_values(self):
        assert entropy(2, 4) == 1.0
        assert entropy(0, 4) == 0.0
        assert entropy(3, 4) == pytest.approx(0.811278, abs=1e-6)

    def test_gini_values(self):
        assert gini(2, 4) == 0.5
        assert gini(0, 4) == 0.0
        assert gini(3, 4) == pytest.approx(0.375)

    def test_pure_is_zero_uniform_is_max(self):
        for total in (2, 10, 1000):
            for pure in (0, total):
                assert entropy(pure, total) == 0.0 and gini(pure, total) == 0.0
            assert entropy(total // 2, total) == pytest.approx(1.0)
            assert gini(total // 2, total) == pytest.approx(0.5)
        assert entropy(0, 0) == 0.0 and gini(0, 0) == 0.0

    def test_permutation_invariance(self, rng):
        for _ in range(50):
            total = int(rng.integers(1, 1000))
            mal = int(rng.integers(0, total + 1))
            assert entropy(mal, total) == pytest.approx(entropy(total - mal, total), abs=1e-12)
            assert gini(mal, total) == pytest.approx(gini(total - mal, total), abs=1e-12)


# Row counts around the 64-row words the descent works on.
ROW_COUNTS = (0, 1, 63, 64, 65, 129)

XOR_X = [[0, 0], [0, 1], [1, 0], [1, 1]]
XOR_Y = [0, 1, 1, 0]


def _tree(feature, low, high, n_benign, n_malware, n_features) -> TreeModel:
    """A decision tree built from literal node arrays."""
    ids = [np.array(a, dtype=np.intp) for a in (feature, low, high)]
    counts = [np.array(a, dtype=np.int64) for a in (n_benign, n_malware)]
    return TreeModel(*ids, *counts, "entropy", False, 0, 0, n_features)


def _xor_tree() -> TreeModel:
    """The hand-built depth-2 tree that classifies XOR perfectly."""
    return _tree(
        feature=[0, 1, 1, -1, -1, -1, -1],
        low=[1, 3, 5, 3, 4, 5, 6],
        high=[2, 4, 6, 3, 4, 5, 6],
        n_benign=[2, 1, 1, 1, 0, 0, 1],
        n_malware=[2, 1, 1, 0, 1, 1, 0],
        n_features=2,
    )


def _depth(node) -> int:
    if node[0] == "L":
        return 0
    return 1 + max(_depth(node[2]), _depth(node[3]))


def _training_accuracy(model: TreeModel, X, y) -> float:
    return float(np.mean((tree_scores(model, np.asarray(X)) > 0.5) == (np.asarray(y) == 1)))


class TestDecisionTree:
    def test_single_class_is_pure_leaf(self):
        ds = make_dataset([[0, 1], [1, 0], [1, 1]], [1, 1, 1])
        model = train_decision_tree(ds, AlgoDescriptor("dt"))
        assert _nested(model)[0] == "L"
        assert _depth(_nested(model)) == 0

    def test_perfect_separator_gives_single_split(self):
        ds = make_dataset([[0, 1], [0, 0], [1, 1], [1, 0]], [0, 0, 1, 1])
        model = train_decision_tree(ds, AlgoDescriptor("dt"))
        kind, feature, low, high = _nested(model)
        assert kind == "S"
        assert feature == 0
        assert low[0] == "L" and high[0] == "L"
        assert _training_accuracy(model, ds.X, ds.y) == 1.0

    def test_exact_xor_stops_at_root(self):
        # Both features have exactly zero gain at the root, so the greedy
        # learner stops; learning XOR needs a lookahead no greedy split has.
        model = train_decision_tree(make_dataset(XOR_X, XOR_Y), AlgoDescriptor("dt"))
        assert _nested(model)[0] == "L"
        assert _training_accuracy(model, XOR_X, XOR_Y) == 0.5

    def test_criterion_validation(self):
        with pytest.raises(ValueError, match="criterion"):
            AlgoDescriptor("dt", criterion="nope")

    def test_empty_dataset_rejected(self):
        ds = make_dataset(np.zeros((0, 2)), [])
        with pytest.raises(ValueError, match="empty"):
            train_decision_tree(ds, AlgoDescriptor("dt"))

    def test_no_feature_reused_on_path(self, rng):
        ds = random_dataset(rng, 200, 6)
        model = train_decision_tree(ds, AlgoDescriptor("dt"))

        def check(node, used):
            if node[0] == "L":
                return
            _, feature, low, high = node
            assert feature not in used
            check(low, used | {feature})
            check(high, used | {feature})

        check(_nested(model), set())
        assert _depth(_nested(model)) <= 6

    def test_child_counts_sum_to_parent(self, rng):
        ds = random_dataset(rng, 150, 5)
        model = train_decision_tree(ds, AlgoDescriptor("dt"))

        def counts(node):
            if node[0] == "L":
                return node[1] + node[2]
            low, high = counts(node[2]), counts(node[3])
            return low + high

        assert counts(_nested(model)) == len(ds)
        assert model.n_benign[0] + model.n_malware[0] == len(ds)
        splits = model.feature >= 0
        for n in (model.n_benign, model.n_malware):
            assert np.array_equal(n[splits], n[model.low[splits]] + n[model.high[splits]])

    def test_gini_criterion_trains(self, rng):
        ds = random_dataset(rng, 100, 4)
        model = train_decision_tree(ds, AlgoDescriptor("dt", criterion="gini"))
        assert model.criterion == "gini"
        assert 0.0 <= _training_accuracy(model, ds.X, ds.y) <= 1.0


class TestXorOracle:
    """Exhaustive enumeration over tree shapes up to depth 2 on the XOR set."""

    def _partition_accuracy(self, cells, y):
        return sum(max(np.sum(y[c] == 0), np.sum(y[c] == 1)) for c in cells if len(c))

    def test_no_depth_one_tree_beats_chance(self):
        X, y = np.asarray(XOR_X), np.asarray(XOR_Y)
        best = 0
        for f in range(2):
            cells = [np.flatnonzero(X[:, f] == v) for v in (0, 1)]
            best = max(best, self._partition_accuracy(cells, y))
        assert best / len(y) == 0.5

    def test_some_depth_two_tree_is_perfect(self):
        X, y = np.asarray(XOR_X), np.asarray(XOR_Y)
        best = 0
        for f_root, f_low, f_high in itertools.product(range(2), repeat=3):
            cells = []
            for v_root, f_child in ((0, f_low), (1, f_high)):
                side = np.flatnonzero(X[:, f_root] == v_root)
                cells += [side[X[side, f_child] == v] for v in (0, 1)]
            best = max(best, self._partition_accuracy(cells, y))
        assert best == len(y)

    def test_hand_built_xor_tree_predictions(self):
        model = _xor_tree()
        scores = model_scores(model, np.array([[1, 0], [1, 1]]))
        assert scores.tolist() == [1.0, 0.0]
        assert is_malware(scores).tolist() == [True, False]
        assert _training_accuracy(model, XOR_X, XOR_Y) == 1.0


class TestPredict:
    def test_pure_leaf_scores(self):
        ds = make_dataset([[0], [1]], [1, 1])
        model = train_decision_tree(ds, AlgoDescriptor("dt"))
        scores = model_scores(model, np.array([[0]]))
        assert is_malware(scores)[0] and scores[0] == 1.0

    def test_tie_leaf_predicts_benign(self):
        model = _tree([-1], [0], [0], [5], [5], n_features=3)
        scores = model_scores(model, np.array([[0, 1, 0]]))
        assert not is_malware(scores)[0] and scores[0] == 0.5

    def test_length_mismatch(self):
        model = _xor_tree()
        with pytest.raises(ValueError, match="width"):
            model_scores(model, np.array([[1, 0, 1]]))


class TestRandomTree:
    def test_determinism(self, rng):
        ds = random_dataset(rng, 300, 10)
        a = train_random_tree(ds, AlgoDescriptor("rt", k=3, seed=5))
        b = train_random_tree(ds, AlgoDescriptor("rt", k=3, seed=5))
        assert _nested(a) == _nested(b)

    def test_different_seeds_differ(self, rng):
        ds = random_dataset(rng, 300, 10)
        a = train_random_tree(ds, AlgoDescriptor("rt", k=2, seed=0))
        b = train_random_tree(ds, AlgoDescriptor("rt", k=2, seed=1))
        assert _nested(a) != _nested(b)  # 2-of-10 sampling makes collisions implausible

    def test_k_equal_feature_count_matches_decision_tree(self, rng):
        for trial in range(5):
            ds = random_dataset(rng, 120, 6)
            rt = train_random_tree(ds, AlgoDescriptor("rt", k=6, seed=trial))
            dt = train_decision_tree(ds, AlgoDescriptor("dt"))
            assert _nested(rt) == _nested(dt)

    def test_k_bounds(self, rng):
        ds = random_dataset(rng, 20, 4)
        with pytest.raises(ValueError, match="k"):
            AlgoDescriptor("rt", k=0, seed=0)
        with pytest.raises(ValueError, match="k"):
            train_random_tree(ds, AlgoDescriptor("rt", k=5, seed=0))

    def test_never_pruned_flag(self, rng):
        ds = random_dataset(rng, 50, 4)
        model = train_random_tree(ds, AlgoDescriptor("rt", k=2, seed=0))
        assert not model.pruned and model.k == 2

    def test_default_split_count(self):
        assert default_split_count(179) == 8
        assert default_split_count(125) == 7
        assert default_split_count(54) == 6
        assert default_split_count(1) == 1


def _best_stump_accuracy(X, y) -> float:
    X, y = np.asarray(X), np.asarray(y)
    best = max(np.sum(y == 0), np.sum(y == 1))  # majority leaf
    for f in range(X.shape[1]):
        acc = 0
        for v in (0, 1):
            side = y[X[:, f] == v]
            acc += max(np.sum(side == 0), np.sum(side == 1)) if side.size else 0
        best = max(best, acc)
    return best / len(y)


class TestStumpProperty:
    def test_tree_never_worse_than_best_stump(self, rng):
        for _ in range(80):
            n = int(rng.integers(2, 30))
            F = int(rng.integers(1, 5))
            X = (rng.random((n, F)) < 0.5).astype(np.uint8)
            y = (rng.random(n) < 0.5).astype(np.uint8)
            ds = make_dataset(X, y)
            model = train_decision_tree(ds, AlgoDescriptor("dt"))
            assert _training_accuracy(model, X, y) >= _best_stump_accuracy(X, y) - 1e-12


class TestPruning:
    def _overfit_dataset(self):
        # One strong feature plus pure-noise features; unpruned trees chase
        # the noise, the pruning holdout exposes it.
        gen = np.random.default_rng(4)
        n = 400
        y = (gen.random(n) < 0.5).astype(np.uint8)
        signal = (y ^ (gen.random(n) < 0.08)).astype(np.uint8)
        noise = (gen.random((n, 6)) < 0.5).astype(np.uint8)
        X = np.column_stack([signal, noise])
        return make_dataset(X, y)

    def test_pruned_is_no_larger(self):
        ds = self._overfit_dataset()
        unpruned = train_decision_tree(ds, AlgoDescriptor("dt", prune=False))
        pruned = train_decision_tree(ds, AlgoDescriptor("dt", prune=True, seed=1))
        assert pruned.pruned
        assert pruned.feature.size <= unpruned.feature.size

    def test_pruning_helps_on_its_holdout(self):
        from droidtriage.dataset import stratified_fold_indices

        ds = self._overfit_dataset()
        seed = 1
        holdout = stratified_fold_indices(ds.y, 5, seed)[0]
        grow_idx = np.setdiff1d(np.arange(len(ds)), holdout)
        raw_model = train_decision_tree(subset(ds, grow_idx), AlgoDescriptor("dt"))
        pruned = train_decision_tree(ds, AlgoDescriptor("dt", prune=True, seed=seed))
        X_hold, y_hold = ds.X[holdout], ds.y[holdout]
        assert _training_accuracy(pruned, X_hold, y_hold) >= _training_accuracy(
            raw_model, X_hold, y_hold
        )

    def test_pruned_deterministic(self):
        ds = self._overfit_dataset()
        a = train_decision_tree(ds, AlgoDescriptor("dt", prune=True, seed=3))
        b = train_decision_tree(ds, AlgoDescriptor("dt", prune=True, seed=3))
        assert _nested(a) == _nested(b)


class TestSplitGains:
    def _walk_gains(self, node, X, y, idx):
        from droidtriage.trees import _entropy_from_counts

        if node[0] == "L":
            return
        _, feature, low_node, high_node = node
        bits = X[idx, feature]
        idx0, idx1 = idx[bits == 0], idx[bits == 1]
        n, n0, n1 = len(idx), len(idx0), len(idx1)
        parent = float(_entropy_from_counts(y[idx].sum(), n))
        low = float(_entropy_from_counts(y[idx0].sum(), n0))
        high = float(_entropy_from_counts(y[idx1].sum(), n1))
        gain = parent - (n0 * low + n1 * high) / n
        assert gain > 0.0
        assert n0 + n1 == n and n0 > 0 and n1 > 0
        self._walk_gains(low_node, X, y, idx0)
        self._walk_gains(high_node, X, y, idx1)

    def test_every_chosen_split_has_positive_gain(self, rng):
        for _ in range(10):
            ds = random_dataset(rng, 120, 7)
            model = train_decision_tree(ds, AlgoDescriptor("dt"))
            self._walk_gains(_nested(model), ds.X, ds.y.astype(int), np.arange(len(ds)))


def _reference_grow(X, y, idx, unused, key, k, impurity):
    """The recursive grower the level-wise one replaced, kept as an oracle.

    One Python frame per node over float64 copies of the data. Candidates
    follow the per-node key rule: with `k` positive and fewer than the
    remaining features, the `k` unused features with the smallest
    ``derive_seed(key, f)``; a child's key is ``derive_seed(key, side)``.
    """
    n = idx.size
    n_mal = int(y[idx].sum())
    leaf = ("L", n - n_mal, n_mal)
    if n < 2 or n_mal == 0 or n_mal == n:
        return leaf
    candidates = np.flatnonzero(unused)
    if candidates.size == 0:
        return leaf
    if 0 < k < candidates.size:
        by_key = sorted(candidates, key=lambda f: derive_seed(key, int(f)))
        candidates = np.sort(np.array(by_key[:k]))

    sub = X[np.ix_(idx, candidates)]
    y_sub = y[idx]
    pos = sub.sum(axis=0)
    pos_mal = y_sub @ sub
    parent = impurity(float(n_mal), float(n))
    child_high = impurity(pos_mal, pos)
    child_low = impurity(n_mal - pos_mal, n - pos)
    weighted = (pos * child_high + (n - pos) * child_low) / n
    separates = (pos > 0.0) & (pos < n)
    gains = np.where(separates, parent - weighted, -np.inf)

    best = int(np.argmax(gains))
    if gains[best] <= 0.0:
        return leaf
    feature = int(candidates[best])
    mask = X[idx, feature] == 1.0
    unused[feature] = False
    low_key = high_key = None
    if k:
        low_key, high_key = derive_seed(key, 0), derive_seed(key, 1)
    low = _reference_grow(X, y, idx[~mask], unused, low_key, k, impurity)
    high = _reference_grow(X, y, idx[mask], unused, high_key, k, impurity)
    unused[feature] = True
    return ("S", feature, low, high)


def _reference_tree(ds, criterion="entropy", k=0, key=None, rows=None):
    X = ds.X.astype(np.float64)
    y = ds.y.astype(np.float64)
    idx = np.arange(len(ds), dtype=np.intp) if rows is None else rows
    unused = np.ones(ds.feature_count, dtype=bool)
    return _reference_grow(X, y, idx, unused, key, k, _IMPURITY[criterion])


def _subtree_counts(node) -> tuple[int, int]:
    if node[0] == "L":
        return node[1], node[2]
    b0, m0 = _subtree_counts(node[2])
    b1, m1 = _subtree_counts(node[3])
    return b0 + b1, m0 + m1


def _leaf_errors(n_benign: int, n_malware: int, y, idx) -> int:
    majority_malware = n_malware > n_benign  # tie predicts benign
    wrong = (y[idx] == 0) if majority_malware else (y[idx] == 1)
    return int(np.sum(wrong))


def _reduced_error_prune(node, X, y, idx):
    """The recursive pruner the array one replaced, kept as an oracle.

    Returns (possibly collapsed node, its error count on holdout `idx`).
    """
    if node[0] == "L":
        return node, _leaf_errors(node[1], node[2], y, idx)
    _, feature, low, high = node
    mask = X[idx, feature] == 1
    low, e_low = _reduced_error_prune(low, X, y, idx[~mask])
    high, e_high = _reduced_error_prune(high, X, y, idx[mask])
    subtree_errors = e_low + e_high
    n_benign, n_malware = _subtree_counts(node)
    leaf_errors = _leaf_errors(n_benign, n_malware, y, idx)
    if leaf_errors <= subtree_errors:
        return ("L", n_benign, n_malware), leaf_errors
    return ("S", feature, low, high), subtree_errors


def _reference_pruned(ds, criterion, seed):
    from droidtriage.dataset import stratified_fold_indices

    holdout = stratified_fold_indices(ds.y, 5, seed)[0]
    grow_idx = np.setdiff1d(np.arange(len(ds)), holdout)
    raw = _reference_tree(ds, criterion, rows=grow_idx)
    return _reduced_error_prune(raw, ds.X.astype(np.float64), ds.y, holdout)[0]


@pytest.fixture(scope="module")
def reference_corpus():
    from droidtriage.calibration import reference_spec
    from droidtriage.dataset import synthesize

    return synthesize(reference_spec(), 3)


class TestLevelwiseGrowthOracle:
    """The level-wise grower equals the recursive reference node for node."""

    @pytest.mark.parametrize("criterion", ["entropy", "gini"])
    def test_decision_tree_random_datasets(self, rng, criterion):
        for _ in range(25):
            ds = random_dataset(rng, int(rng.integers(2, 300)), int(rng.integers(1, 12)))
            model = train_decision_tree(ds, AlgoDescriptor("dt", criterion=criterion))
            assert _nested(model) == _reference_tree(ds, criterion)

    @pytest.mark.parametrize("criterion", ["entropy", "gini"])
    def test_pruned_decision_tree_random_datasets(self, rng, criterion):
        for seed in range(10):
            ds = random_dataset(rng, int(rng.integers(20, 300)), int(rng.integers(1, 10)))
            algo = AlgoDescriptor("dt", criterion=criterion, prune=True, seed=seed)
            model = train_decision_tree(ds, algo)
            assert _nested(model) == _reference_pruned(ds, criterion, seed)

    def test_random_tree_follows_node_keys(self, rng):
        for seed in range(10):
            ds = random_dataset(rng, int(rng.integers(2, 300)), int(rng.integers(2, 12)))
            k = int(rng.integers(1, ds.feature_count + 1))
            model = train_random_tree(ds, AlgoDescriptor("rt", k=k, seed=seed))
            assert _nested(model) == _reference_tree(ds, k=k, key=seed)

    @pytest.mark.parametrize("criterion", ["entropy", "gini"])
    def test_reference_corpus(self, reference_corpus, criterion):
        ds = reference_corpus
        model = train_decision_tree(ds, AlgoDescriptor("dt", criterion=criterion))
        assert _nested(model) == _reference_tree(ds, criterion)
        pruned = train_decision_tree(ds, AlgoDescriptor("dt", criterion=criterion, prune=True, seed=4))
        assert _nested(pruned) == _reference_pruned(ds, criterion, 4)

    def test_reference_corpus_random_tree(self, reference_corpus):
        key = 2**63 + 5
        model = train_random_tree(reference_corpus, AlgoDescriptor("rt", k=8, seed=key))
        assert _nested(model) == _reference_tree(reference_corpus, k=8, key=key)


@pytest.mark.parametrize("chunk", [1, 18, 42, 1000])
def test_blocked_sums_grow_the_same_trees(rng, monkeypatch, chunk):
    """dt (pruned and gini), rt and a bootstrap-weighted rf grown with
    `_CHUNK_BYTES` patched down to `chunk` equal the trees grown with whole
    levels in one block. On 6 features dt sums rows 1, 3, 7 or 166 at a
    time: with 3 and 7 a run of one node's entries crosses three or more
    blocks, and a block holds several whole runs. rt and rf sum one or a few
    candidate columns at a time."""
    ds = random_dataset(rng, 90, 6)
    fits = [
        lambda: train_decision_tree(ds, AlgoDescriptor("dt", prune=True, seed=2)),
        lambda: train_decision_tree(ds, AlgoDescriptor("dt", criterion="gini")),
        lambda: train_random_tree(ds, AlgoDescriptor("rt", seed=5)),
        lambda: train_forest(ds, AlgoDescriptor("rf", trees=5, seed=3)),
    ]
    columns = ("feature", "low", "high", "n_benign", "n_malware")
    wanted = [[getattr(fit(), c) for c in columns] for fit in fits]

    row_sums, step = trees._row_sums, max(1, chunk // 6)
    spans = []  # per run of entries summed a row block at a time: its first and last block

    def spy(X, e_row, e_w, starts):
        spans.extend(zip(starts // step, (np.append(starts[1:], e_row.size) - 1) // step))
        return row_sums(X, e_row, e_w, starts)

    monkeypatch.setattr(dataset, "_CHUNK_BYTES", chunk)
    monkeypatch.setattr(trees, "_row_sums", spy)
    for fit, want in zip(fits, wanted):
        model = fit()
        for column, array in zip(columns, want):
            assert getattr(model, column).tobytes() == array.tobytes(), column
    if step in (3, 7):
        first, last = np.array(spans).T
        assert (last - first >= 2).any()
        assert np.bincount(first[first == last]).max() >= 2


def _packbits_reference(X) -> np.ndarray:
    """`_packed` in one `np.packbits` over the padded matrix and its all-rows column."""
    n, F = X.shape
    bits = np.zeros((-(-n // 64) * 64, F + 1), dtype=np.uint8)
    bits[:n, :F] = X != 0
    bits[:n, F] = 1
    return np.ascontiguousarray(np.packbits(bits, axis=0, bitorder="little").T).view(np.uint64)


class TestPackRows:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 4095, 4096, 4097, 8193])
    def test_matches_packbits_across_block_boundaries(self, rng, n):
        X = rng.integers(0, 3, size=(n, 7)).astype(np.uint8)
        rows = _packed(X, 7)
        packed = rows.sets
        assert rows.shape == (n, 7)
        assert packed.dtype == np.uint64 and packed.shape == (8, -(-n // 64))
        assert np.array_equal(packed, _packbits_reference(X))

    def test_uneven_blocks_pack_and_unpack_as_the_matrix(self, rng):
        """Blocks of any size, as a file's blocks come, give the matrix's sets,
        and any row range unpacks as the matrix's rows."""
        X = rng.integers(0, 2, size=(9000, 7)).astype(np.uint8)
        cuts = [0, 1, 64, 100, 4095, 4200, 8191, 9000]
        rows = PackedRows.pack((X[a:b] for a, b in zip(cuts, cuts[1:])), 7)
        assert rows.n_rows == 9000 and np.array_equal(rows.sets, _packbits_reference(X))
        for lo, hi in [(0, 0), (0, 9000), (63, 65), (100, 4200), (8999, 9000), (8990, 12000)]:
            block = rows[lo:hi]
            assert block.dtype == np.uint8 and block.flags.c_contiguous
            assert np.array_equal(block, X[lo:hi])

    def test_adds_at_most_the_output_and_two_mib(self, rng):
        X = (rng.random((20_000, 179)) < 0.3).astype(np.uint8)
        packed, peak = traced_peak(lambda: _packed(X, 179).sets)
        assert peak <= packed.nbytes + (2 << 20)


class TestVectorizedDescent:
    """`tree_scores` equals a per-row walk of the nested view."""

    def _check(self, model, X):
        X = np.asarray(X)
        expected = np.array([_walk(_nested(model), row) for row in X])
        assert np.array_equal(tree_scores(model, X), expected)
        for i, score in enumerate(expected[:20]):
            assert model_scores(model, X[i : i + 1])[0] == score

    def test_hand_built_xor_tree(self):
        self._check(_xor_tree(), XOR_X)

    def test_pruned_decision_tree(self, rng):
        ds = random_dataset(rng, 400, 8)
        self._check(train_decision_tree(ds, AlgoDescriptor("dt", prune=True, seed=2)), ds.X)

    def test_random_tree(self, rng):
        ds = random_dataset(rng, 400, 10)
        other = random_dataset(rng, 200, 10)
        model = train_random_tree(ds, AlgoDescriptor("rt", k=3, seed=7))
        self._check(model, ds.X)
        self._check(model, other.X)

    def test_reloaded_model(self, rng, tmp_path):
        from droidtriage.modelio import load_model, save_model

        ds = random_dataset(rng, 300, 9)
        model = train_random_tree(ds, AlgoDescriptor("rt", k=4, seed=3))
        path = tmp_path / "tree.rt"
        save_model(model, path, ds.catalog)
        loaded = load_model(path, ds.catalog)
        assert _nested(loaded) == _nested(model)
        self._check(loaded, ds.X)

    def test_empty_matrix(self):
        assert tree_scores(_xor_tree(), np.zeros((0, 2))).shape == (0,)

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_row_counts_across_word_boundaries(self, rng, n):
        ds = random_dataset(rng, 300, 8)
        X = (rng.random((n, 8)) < 0.5).astype(np.uint8)
        self._check(train_decision_tree(ds, AlgoDescriptor("dt")), X)
        self._check(train_random_tree(ds, AlgoDescriptor("rt", k=2, seed=n)), X)

    def test_root_is_a_leaf(self):
        model = _tree([-1], [0], [0], [2], [3], n_features=2)
        for n in ROW_COUNTS:
            self._check(model, np.ones((n, 2), dtype=np.uint8))

    def test_nonzero_means_set(self, rng):
        model = train_decision_tree(random_dataset(rng, 300, 6), AlgoDescriptor("dt"))
        X = rng.integers(0, 3, size=(129, 6))
        self._check(model, X)
        self._check(model, X.astype(bool))
        assert np.array_equal(tree_scores(model, X), tree_scores(model, (X != 0).astype(np.uint8)))

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError, match="width 3 does not match model features 2"):
            tree_scores(_xor_tree(), np.zeros((4, 3)))

    @pytest.mark.parametrize("h", ROW_COUNTS)
    def test_pruning_holdout_across_word_boundaries(self, rng, h):
        from droidtriage.trees import _reduced_error_prune as prune

        ds = random_dataset(rng, 400, 8)
        grown = train_decision_tree(ds, AlgoDescriptor("dt"))
        holdout = rng.choice(len(ds), size=h, replace=False)
        pruned = prune(grown, ds.X, ds.y, holdout)
        X = ds.X.astype(np.float64)
        assert _nested(pruned) == _reduced_error_prune(_nested(grown), X, ds.y, holdout)[0]


def _from_nested(root, n_features) -> TreeModel:
    """The arrays of a nested view, numbered in preorder."""
    feature, low, high, n_benign, n_malware = ([] for _ in range(5))

    def add(node) -> int:
        i = len(feature)
        for a in (feature, low, high, n_benign, n_malware):
            a.append(i)
        if node[0] == "L":
            feature[i], n_benign[i], n_malware[i] = -1, node[1], node[2]
        else:
            feature[i], low[i], high[i] = node[1], add(node[2]), add(node[3])
            n_benign[i] = n_benign[low[i]] + n_benign[high[i]]
            n_malware[i] = n_malware[low[i]] + n_malware[high[i]]
        return i

    add(root)
    return _tree(feature, low, high, n_benign, n_malware, n_features)


@st.composite
def _trees_and_matrix(draw):
    """Random trees (features may repeat on a path, as a model file allows)
    and a random matrix of 0, 1 and 2 cells in one of three dtypes."""
    n_features = draw(st.integers(1, 6))
    leaf = st.tuples(st.just("L"), st.integers(0, 4), st.integers(0, 4))
    nested = st.recursive(
        leaf,
        lambda kids: st.tuples(st.just("S"), st.integers(0, n_features - 1), kids, kids),
        max_leaves=60,
    )
    trees = [_from_nested(root, n_features) for root in draw(st.lists(nested, min_size=1, max_size=4))]
    n = draw(st.integers(0, 200))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.uint8, np.int64, bool]))
    return trees, gen.integers(0, 3, size=(n, n_features)).astype(dtype)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_trees_and_matrix())
def test_descent_matches_walk(case):
    from droidtriage.ensemble import forest_scores

    trees, X = case
    walked = np.array([[_walk(_nested(t), row) for row in X] for t in trees]).reshape(len(trees), -1)
    for tree, expected in zip(trees, walked):
        assert np.array_equal(tree_scores(tree, X), expected)
    forest = _forest(trees, AlgoDescriptor("rf", trees=len(trees), k=1))
    assert np.array_equal(forest_scores(forest, X), (walked > 0.5).sum(axis=0) / len(trees))


def _node_count(node) -> int:
    return 1 if node[0] == "L" else 1 + _node_count(node[2]) + _node_count(node[3])


class TestTreeArrays:
    """Every node is reachable, ids grow from parent to child, and a model
    file keeps the tree."""

    @pytest.mark.parametrize("kind", ["dt", "pruned-dt", "rt", "rf-member"])
    def test_reachable_and_round_trip(self, rng, tmp_path, kind):
        from droidtriage.ensemble import train_forest
        from droidtriage.modelio import load_model, save_model

        ds = random_dataset(rng, 400, 9)
        model = {
            "dt": lambda: train_decision_tree(ds, AlgoDescriptor("dt")),
            "pruned-dt": lambda: train_decision_tree(ds, AlgoDescriptor("dt", prune=True, seed=2)),
            "rt": lambda: train_random_tree(ds, AlgoDescriptor("rt", k=3, seed=4)),
            "rf-member": lambda: train_forest(ds, AlgoDescriptor("rf", trees=3, k=3, seed=6)).trees[1],
        }[kind]()
        path = tmp_path / "tree.model"
        save_model(model, path, ds.catalog)
        loaded = load_model(path, ds.catalog)
        assert _nested(loaded) == _nested(model)
        for tree in (model, loaded):
            ids = np.arange(tree.feature.size)
            splits = tree.feature >= 0
            assert _node_count(_nested(tree)) == tree.feature.size
            assert np.all(tree.low[splits] > ids[splits]) and np.all(tree.high[splits] > ids[splits])
            assert np.array_equal(tree.low[~splits], ids[~splits])
            assert np.array_equal(tree.high[~splits], ids[~splits])
            for n in (tree.n_benign, tree.n_malware):
                assert np.array_equal(n[splits], n[tree.low[splits]] + n[tree.high[splits]])
