"""Decision-tree learners over binary features.

A split's quality is the decrease in node impurity: parent impurity minus the
instance-weighted impurity of the two children, using information entropy or
the Gini index. Because features are binary, a feature spent on a path
carries no residual information, so it is never reconsidered below the split;
this bounds tree depth by the number of features.

The plain decision tree examines every unused feature at each node and can
optionally be simplified by reduced-error pruning against an internal
stratified holdout. The random tree examines only ``k`` candidate features
per node and is never pruned.

A tree is five flat arrays indexed by node id (see `TreeModel`), and the
grower, pruning, scoring and the model file all work on them. Children
follow their parents, so a reverse pass over ids reaches every split after
its subtrees.

Trees grow level by level rather than one node per recursive call. At each
depth the rows of every open node, of every tree being grown, are kept
sorted by node and class, as int32 rows and nodes; each node's candidate
columns are gathered as bytes and its per-feature class counts are
segmented sums (``np.add.reduceat``) over its two runs of entries, the
histogram method of gradient-boosting libraries. The gather is summed a
`dataset._blocks` block at a time and never held whole: the plain tree
gathers whole rows of F bytes, and a run that crosses a block edge adds
each block's part into its sums; the random trees gather candidate columns
of 8 bytes per entry. The sums are integers, so the blocks never change a
tree. A row carries an integer weight, in the smallest unsigned dtype that
holds it, so a training fold is a 0/1 mask and a bootstrap resample a
count per row, never a copy of the data. Every node at depth d has exactly
F - d unused features, so the candidates form one rectangular matrix per
level, and the parent's and both children's impurities are evaluated side
by side in one call per level. Random candidates come from a per-node key
rather than one depth-first stream: the root's key is the tree seed, a
child's key is ``derive_seed(parent_key, side)`` (side 0 low, 1 high), and
a node examines the ``k`` unused features with the smallest
``derive_seed(node_key, f)``. A node's candidates therefore depend only on
its path, not on the order in which nodes or trees are grown. Each level
is grown by one call that returns the next level, so a level's temporaries
are freed before the next level allocates; unused features are held in the
smallest signed integer dtype that fits them, and candidate keys are
hashed a block of nodes at a time, from a table of each feature's term of
the hash made once per call.

Scoring descends sets of rows, 64 to a word (bitvector traversal, as in
QuickScorer): a split's high child gets ``rows & column``, its low child
``rows ^ high``, and a leaf ORs its rows into one plane per set bit of a
per-node value (its id, or a forest member's vote). The sets are
`dataset.PackedRows`: a matrix is packed into them 4,096 rows at a time,
and `predict` packs each block of a file as it is read. Pruning routes
the holdout rows to their leaves the same way, counts them per leaf and
class with one ``np.bincount``, and in one reverse
pass over ids sums each split's counts from its children and collapses the
split where a leaf does no worse. It then drops the nodes no longer
reachable, so a tree's node count is always ``len(model.feature)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .dataset import Dataset, DatasetError, PackedRows, _blocks, _packed, stratified_fold_indices

if TYPE_CHECKING:
    from .algo import AlgoDescriptor

ENTROPY = "entropy"
GINI = "gini"
CRITERIA = (ENTROPY, GINI)

# Internal stratified holdout used by reduced-error pruning: one fold in five.
_PRUNE_FOLDS = 5

# The most entries, weighted rows of a tree, that one `_grow` call holds, but for a lone tree above it.
# An entry and its routing to the next level take about 70 bytes at a level's peak. Growing 100
# trees of the calibrated corpus's ten fold complements, about 3,900 entries each, on one CPU took
# 1.14 s in batches of 39,000 entries, 0.83 s in batches of 78,000 and 0.78 s in one of 392,000.
BATCH_ENTRIES = 1 << 17

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def derive_seed(master: int, index: int) -> int:
    """Stable 64-bit mix of (master, index), both modulo 2**64: tree seeds and node keys."""
    return int(_derive_seeds([int(master) & _MASK64], [int(index) & _MASK64])[0])


def _derive_seeds(master, index) -> np.ndarray:
    """SplitMix64's finalizer of ``master + (index + 1) * golden`` over broadcast uint64
    arrays, at least 1-d: numpy wraps array products silently but warns on 0-d ones."""
    return _mix(np.asarray(master, dtype=np.uint64) + _salt(np.asarray(index, dtype=np.uint64)))


def _salt(index) -> np.ndarray:
    """``(index + 1) * golden`` of the uint64 array `index`, modulo 2**64."""
    return (index + np.uint64(1)) * np.uint64(_GOLDEN)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer of the uint64 array `z`, which it overwrites."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _entropy_from_counts(mal, tot):
    """Two-class entropy in bits, 0 log 0 = 0, from (malware count, total count)."""
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 and 0 log 0 are masked below
        p = np.asarray(mal, dtype=np.float64) / np.asarray(tot, dtype=np.float64)
        q = 1.0 - p
        h = -(p * np.log2(p)) - q * np.log2(q)
    return np.where((p > 0.0) & (q > 0.0), h, 0.0)


def _gini_from_counts(mal, tot):
    """Two-class Gini impurity 1 - sum f_i^2 from (malware count, total count)."""
    tot = np.asarray(tot, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # 0/0 is masked below
        p = np.asarray(mal, dtype=np.float64) / tot
    return np.where(tot > 0.0, 2.0 * p * (1.0 - p), 0.0)


_IMPURITY = {ENTROPY: _entropy_from_counts, GINI: _gini_from_counts}


@dataclass(frozen=True, eq=False)
class TreeModel:
    """A trained tree plus the parameters that produced it.

    The tree is five arrays indexed by node id. Node 0 is the root and every
    child's id is larger than its parent's. ``feature[i]`` is the bit node i
    tests, or -1 for a leaf, which is its own ``low`` and ``high`` child;
    ``low[i]`` takes rows whose bit is 0, ``high[i]`` rows whose bit is 1.
    ``n_benign[i]`` and ``n_malware[i]`` count the training rows that reached
    node i, so a split's counts are the sums of its children's. Every node is
    reachable from the root. ``k`` is the number of random candidate features
    per split; 0 means all unused features were examined (the plain decision
    tree).
    """

    feature: np.ndarray
    low: np.ndarray
    high: np.ndarray
    n_benign: np.ndarray
    n_malware: np.ndarray
    criterion: str
    pruned: bool
    k: int
    seed: int
    n_features: int

    @property
    def kind(self) -> str:
        return "rt" if self.k else "dt"

    def scores(self, X) -> np.ndarray:
        return tree_scores(self, X)


class _Level(NamedTuple):
    """The nodes of one depth level, of every tree being grown, and their entries.

    Entries are (row, class, weight, node) for every weighted row of every
    node, sorted by node and within a node by class. Rows and nodes are
    int32, and ``w`` is in the smallest unsigned dtype that holds every
    weight, or None when every weight is 1. Per node: its tree, its key
    (None when k is 0) and its ascending unused features, in the smallest
    signed integer dtype that holds every feature index.
    """

    row: np.ndarray
    y: np.ndarray
    w: np.ndarray | None
    node: np.ndarray
    tree: np.ndarray
    key: np.ndarray | None
    unused: np.ndarray


def _grow(X, y, weights, k, keys, criterion) -> tuple[np.ndarray, ...]:
    """Grow one tree per weight vector, all in one loop over depth levels.

    ``weights[i]`` counts how often each row of `X` enters tree i. `keys`
    holds the root key of each tree when `k` is positive; a node then
    examines its `k` unused features with the smallest
    ``derive_seed(node_key, f)``, or all of them when no more than `k`
    remain. With `k` zero every node examines all unused features.

    Returns the trees' breadth-first `TreeModel` arrays stacked, and each tree's first node,
    from which its child ids count; a leaf has feature -1 and its own id as both children.
    """
    n_features = X.shape[1]
    if k > n_features:
        raise DatasetError(f"k={k} must lie in [1, {n_features}]")
    n_trees = len(weights)
    rows = [np.flatnonzero(w) for w in weights]
    rows = [r[np.argsort(y[r], kind="stable")] for r in rows]
    ent_row = np.concatenate(rows, dtype=np.int32)
    ent_w = np.concatenate([w[r] for w, r in zip(weights, rows)])
    level = _Level(
        ent_row,
        y[ent_row],
        None if np.all(ent_w == 1) else _narrow(ent_w),
        np.repeat(np.arange(n_trees, dtype=np.int32), [r.size for r in rows]),
        np.arange(n_trees),
        None if not k else np.array([int(s) & _MASK64 for s in keys], np.uint64),
        np.broadcast_to(np.arange(n_features, dtype=np.min_scalar_type(-n_features)), (n_trees, n_features)),
    )
    del rows, ent_row, ent_w  # only `level` holds the entries, so the next level frees them
    salt = _salt(np.arange(n_features, dtype=np.uint64))  # a node key plus salt[f] hashes to f's key

    levels = []  # per level: (tree, feature, low, high, n_benign, n_malware)
    first_id = 0
    while level is not None:
        nodes, level = _grow_level(X, k, _IMPURITY[criterion], level, first_id, salt)
        levels.append(nodes)
        first_id += nodes[0].size

    tree, *arrays = (np.concatenate(column) for column in zip(*levels))
    order = np.argsort(tree, kind="stable")  # tree by tree, each in id order
    offsets = np.searchsorted(tree[order], np.arange(n_trees))
    local = np.argsort(order) - offsets[tree]  # each node's id within its tree
    feature, low, high, n_ben, n_mal = (a[order] for a in arrays)
    return feature, local[low], local[high], n_ben, n_mal, offsets


def _grow_level(X, k, impurity, level: _Level, first_id: int, salt):
    """The nodes of `level`, numbered from `first_id`, as (tree, feature,
    low, high, n_benign, n_malware) with every split's children set, and
    the next level, or None when no node splits. The level's temporaries
    are freed on return, before the next level allocates its own."""
    m, u = level.tree.size, level.unused.shape[1]
    ids = first_id + np.arange(m)
    cell = 2 * level.node + level.y
    entries = np.bincount(cell, minlength=2 * m).reshape(m, 2)
    counts = entries if level.w is None else np.bincount(
        cell, weights=level.w, minlength=2 * m
    ).astype(np.int64).reshape(m, 2)
    n_ben, n_mal = counts[:, 0], counts[:, 1]
    n = n_ben + n_mal
    feature = np.full(m, -1, dtype=np.intp)
    low, high = ids.copy(), ids.copy()
    nodes = (level.tree, feature, low, high, n_ben, n_mal)

    open_ = (n >= 2) & (n_mal > 0) & (n_mal < n)
    if u == 0 or not open_.any():
        return nodes, None
    sel = np.flatnonzero(open_)
    cand = _random_candidates(level, sel, k, salt) if 0 < k < u else level.unused[sel]

    # Entries of open nodes only, renumbered 0..len(sel)-1.
    keep = open_[level.node]
    e_row, e_y = level.row[keep], level.y[keep]
    e_node = (np.cumsum(open_, dtype=np.int32) - 1)[level.node[keep]]
    e_w = None if level.w is None else level.w[keep]
    best = _best_candidates(X, e_row, e_w, entries[sel], cand, u, impurity, n[sel], n_mal[sel])
    splits = best >= 0
    if not splits.any():
        return nodes, None

    chosen = cand[splits, best[splits]]
    parents = sel[splits]
    children = first_id + m + 2 * np.arange(parents.size)
    feature[parents] = chosen
    low[parents] = children
    high[parents] = children + 1

    # Next level: each split's low child, then its high child.
    child_of = np.full(len(sel), -1, dtype=np.int32)
    child_of[splits] = 2 * np.arange(parents.size)
    e_child = child_of[e_node]
    move = e_child >= 0
    e_row, e_y, e_child = e_row[move], e_y[move], e_child[move]
    split_feature = np.zeros(len(sel), dtype=np.intp)
    split_feature[splits] = chosen
    flat = split_feature[e_node[move]]
    flat += np.multiply(e_row, X.shape[1], dtype=np.intp)
    e_child += np.take(X, flat)
    del flat
    order = np.argsort(e_child, kind="stable")
    remaining = level.unused[parents]
    remaining = remaining[remaining != chosen[:, None]].reshape(parents.size, u - 1)
    return nodes, _Level(
        e_row[order],
        e_y[order],
        None if e_w is None else e_w[move][order],
        e_child[order],
        np.repeat(level.tree[parents], 2),
        None if level.key is None else _derive_seeds(level.key[parents, None], np.arange(2)).ravel(),
        np.repeat(remaining, 2, axis=0),
    )


def _random_candidates(level: _Level, sel, k: int, salt) -> np.ndarray:
    """Per node of `sel`, its `k` unused features with the smallest
    ``derive_seed(node_key, f)``, which is ``_mix(node_key + salt[f])``,
    ascending. Keys are hashed a block of nodes, 8 bytes per unused
    feature, at a time."""
    cand = np.empty((sel.size, k), dtype=level.unused.dtype)
    for s in _blocks(sel.size, 8 * level.unused.shape[1]):
        block = sel[s]
        free = level.unused[block]
        node_keys = _mix(level.key[block, None] + salt[free])
        kth = np.partition(node_keys, k - 1, axis=1)[:, k - 1 : k]
        cand[s] = free[node_keys <= kth].reshape(block.size, k)
    return cand


def _best_candidates(X, e_row, e_w, entries, cand, u, impurity, n, n_mal) -> np.ndarray:
    """Per open node, the column of `cand` whose split decreases impurity
    most (the first on ties), or -1 where no candidate decreases it.

    The node's entries are the contiguous runs given by `entries`, its
    benign and malware entry counts; an open node has both classes, so
    both runs are nonempty. `n` and `n_mal` are its weighted row counts.
    The parent's, the high children's and the low children's impurities
    are evaluated in one call, side by side.
    """
    starts = np.concatenate(([0], np.cumsum(entries.ravel())[:-1]))  # each (node, class) run's first entry
    if cand.shape[1] < u:
        hist = _candidate_sums(X, e_row, e_w, starts, entries.sum(axis=1), cand).T.reshape(len(cand), 2, -1)
    else:
        hist = _row_sums(X, e_row, e_w, starts).reshape(len(cand), 2, -1)
        if u < X.shape[1]:
            hist = np.take_along_axis(hist, cand[:, None, :], axis=2)

    c = hist.shape[2]
    pos_mal, pos = hist[:, 1], hist[:, 0] + hist[:, 1]
    n_mal, n = n_mal[:, None], n[:, None]
    mal = np.concatenate((n_mal, pos_mal, n_mal - pos_mal), axis=1, dtype=np.float64)
    tot = np.concatenate((n, pos, n - pos), axis=1, dtype=np.float64)
    h = impurity(mal, tot)
    n_s, pos, neg = tot[:, :1], tot[:, 1 : c + 1], tot[:, c + 1 :]
    weighted = (pos * h[:, 1 : c + 1] + neg * h[:, c + 1 :]) / n_s
    # A feature constant within the node has zero decrease by definition;
    # mask it out so float jitter cannot promote it into an empty-child split.
    separates = (pos > 0.0) & (neg > 0.0)
    gains = np.where(separates, h[:, :1] - weighted, -np.inf)
    best = np.argmax(gains, axis=1)  # first maximum, i.e. lowest feature index
    return np.where(gains[np.arange(len(cand)), best] > 0.0, best, -1)


def _row_sums(X, e_row, e_w, starts) -> np.ndarray:
    """Per run of entries, each starting at `starts`, the weighted sum of
    its entries' rows of `X`, from a block of whole rows gathered at a
    time. A run that crosses a block edge adds each block's part into its
    sums."""
    hist = np.zeros((starts.size, X.shape[1]), dtype=np.int32)
    for s in _blocks(e_row.size, X.shape[1]):
        lo, hi = s.start, s.stop
        block = X[e_row[s]]
        if e_w is not None:
            block = block * e_w[s, None]
        first, last = np.searchsorted(starts, lo, "right") - 1, np.searchsorted(starts, hi)
        hist[first:last] += np.add.reduceat(block, np.maximum(starts[first:last] - lo, 0), axis=0, dtype=np.int32)
    return hist


def _candidate_sums(X, e_row, e_w, starts, sizes, cand) -> np.ndarray:
    """Per candidate column of `cand` and run of entries, each starting at
    `starts`, the weighted count of the run's rows with its node's candidate
    set; node i has ``sizes[i]`` entries. Gathered a block of columns, 8
    bytes per entry, at a time."""
    offset = np.multiply(e_row, X.shape[1], dtype=np.intp)
    hist = np.empty((cand.shape[1], starts.size), dtype=np.int32)
    for s in _blocks(cand.shape[1], 8 * e_row.size):
        gathered = np.take(X, np.repeat(cand.T[s], sizes, axis=1) + offset)
        if e_w is not None:
            gathered = gathered * e_w
        hist[s] = np.add.reduceat(gathered, starts, axis=1, dtype=np.int32)
    return hist


def _narrow(counts: np.ndarray) -> np.ndarray:
    """The non-negative integers `counts` in the smallest unsigned dtype that holds them."""
    return counts.astype(np.min_scalar_type(int(counts.max())))


def _row_weights(dataset: Dataset, rows) -> np.ndarray:
    """The bool row mask `rows` (every row when None) as 0/1 weights, not copied."""
    weights = np.ones(len(dataset), dtype=bool) if rows is None else np.asarray(rows, dtype=bool)
    if not weights.any():
        raise DatasetError("cannot train on an empty dataset")
    return weights


class Trees(NamedTuple):
    """A model's trees before they grow. Tree i's row weights are made by
    ``weights(i)`` when its batch grows; ``entries[i]`` counts its weighted
    rows (for a resample, as many as a draw of its size has on average),
    and ``keys[i]`` is its root key. The trees share the candidates per
    split `k` (0: every unused feature) and the criterion, and `model`
    makes their model from their `_grow` results, one a tree, in order."""

    weights: Callable[[int], np.ndarray]
    entries: list[int]
    keys: list[int]
    k: int
    criterion: str
    model: Callable[[list[tuple]], object]


def _cut(sizes, cap: int) -> list[slice]:
    """`sizes` cut into contiguous runs, each summing to at most `cap` but
    for a run of one size above it."""
    cuts, total = [0], 0
    for i, size in enumerate(sizes):
        if total + size > cap and i > cuts[-1]:
            cuts.append(i)
            total = 0
        total += size
    return [slice(a, b) for a, b in zip(cuts, cuts[1:] + [len(sizes)])]


def _grow_trees(X, y, units) -> list[tuple]:
    """The trees of `units`, pairs ``(trees, i)`` of one `k` and criterion,
    each as a `_grow` result of that tree alone, from calls of at most
    `BATCH_ENTRIES` entries; a call makes its trees' weights as it starts."""
    first, grown = units[0][0], []
    for s in _cut([trees.entries[i] for trees, i in units], BATCH_ENTRIES):
        weights = [trees.weights(i) for trees, i in units[s]]
        keys = [trees.keys[i] for trees, i in units[s]]
        *arrays, offsets = _grow(X, y, weights, first.k, keys, first.criterion)
        grown += [(*tree, (0,)) for tree in zip(*(np.split(a, offsets[1:]) for a in arrays))]
    return grown


def _grown(dataset: Dataset, trees: Trees):
    """The model of `trees`, grown in this process."""
    return trees.model(_grow_trees(dataset.X, dataset.y, [(trees, i) for i in range(len(trees.keys))]))


def _one_tree(dataset: Dataset, weights, k: int, criterion: str, seed: int) -> Trees:
    n_features = dataset.feature_count
    return Trees(lambda i: weights, [np.count_nonzero(weights)], [seed], k, criterion,
                 lambda grown: TreeModel(*grown[0][:5], criterion, False, k, seed, n_features))


def _plain_tree(dataset: Dataset, algo: AlgoDescriptor, rows=None) -> Trees:
    """The unpruned decision tree's one tree."""
    return _one_tree(dataset, _row_weights(dataset, rows), 0, algo.criterion, algo.seed)


def _random_tree(dataset: Dataset, algo: AlgoDescriptor, rows=None) -> Trees:
    """The random tree's one tree."""
    k = algo.split_count(dataset.feature_count)
    return _one_tree(dataset, _row_weights(dataset, rows), k, ENTROPY, algo.seed)


def train_decision_tree(dataset: Dataset, algo: AlgoDescriptor, rows=None) -> TreeModel:
    """Greedy decision tree over all features, by ``algo.criterion``, on the
    rows the bool mask `rows` selects (every row when None).

    Splitting stops when a node is pure, has fewer than two instances, has no
    unused features left, or when the best impurity decrease is not positive.
    Ties between equally good features resolve to the lowest feature index.

    With ``algo.prune`` set, the tree is grown on a stratified 80% of the
    selected rows (folds drawn with ``algo.seed``) and simplified by
    reduced-error pruning against the held-out 20%: bottom-up, a subtree
    collapses to a leaf whenever the leaf makes no more mistakes on the
    holdout than the subtree did.
    """
    if not algo.prune:
        return _grown(dataset, _plain_tree(dataset, algo, rows))
    weights = _row_weights(dataset, rows).copy()
    selected = np.flatnonzero(weights)
    holdout = selected[stratified_fold_indices(dataset.y[selected], _PRUNE_FOLDS, algo.seed)[0]]
    weights[holdout] = False
    tree = _grown(dataset, _one_tree(dataset, weights, 0, algo.criterion, algo.seed))
    return _reduced_error_prune(tree, dataset.X, dataset.y, holdout)


def train_random_tree(dataset: Dataset, algo: AlgoDescriptor, rows=None) -> TreeModel:
    """Entropy tree examining only ``k = algo.split_count(F)`` candidate
    features per split, on the rows the bool mask `rows` selects (every row
    when None).

    Each node examines the `k` features unused on its path with the smallest
    ``derive_seed(node_key, feature)``, where the root's key is ``algo.seed``
    and a child's key is ``derive_seed(parent_key, 0)`` on the low side and
    ``derive_seed(parent_key, 1)`` on the high side; when no more than `k`
    features remain, it examines all of them. The tree is never pruned. With
    ``k`` equal to the feature count every node examines every unused
    feature, so the structure coincides with the unpruned decision tree.
    """
    return _grown(dataset, _random_tree(dataset, algo, rows))


def _descend(model: TreeModel, rows: PackedRows, value: np.ndarray) -> np.ndarray:
    """Bits of the per-node integer `value` of the leaf each row of `rows`
    reaches, one row of 0/1 bytes per bit: each level's leaves OR their rows
    into the plane of each set bit of their value. The next level's sets are
    written into one array: its low half takes the splits' sets, its high
    half their features' sets, ANDed with them, and the low half then keeps
    what the high half does not."""
    packed = rows.sets
    bit = np.arange(int(value.max()).bit_length())
    planes = np.zeros((bit.size, packed.shape[1]), dtype=np.uint64)
    level, sets = np.zeros(1, dtype=np.intp), packed[-1:]
    while level.size:
        split = model.feature[level] >= 0
        leaves = np.flatnonzero(~split)
        has = (value[level[leaves]] >> bit[:, None]) & 1
        for b in bit:
            planes[b] |= np.bitwise_or.reduce(sets[leaves[has[b] == 1]], axis=0)
        parents = np.flatnonzero(split)
        level = level[parents]
        k = parents.size
        nxt = np.empty((2 * k, packed.shape[1]), dtype=np.uint64)
        low, high = nxt[:k], nxt[k:]
        np.take(sets, parents, axis=0, out=low, mode="clip")
        np.take(packed, model.feature[level], axis=0, out=high, mode="clip")
        high &= low
        low ^= high
        sets = nxt
        level = np.concatenate((model.low[level], model.high[level]))
    return np.unpackbits(planes.view(np.uint8), axis=1, count=rows.n_rows, bitorder="little")


def _leaf_of(model: TreeModel, X) -> np.ndarray:
    """The leaf each row of `X`, a matrix or `PackedRows`, reaches."""
    bits = _descend(model, _packed(X, model.n_features), np.arange(model.feature.size))
    return np.dot(1 << np.arange(len(bits)), bits)


def _reduced_error_prune(model: TreeModel, X, y, holdout) -> TreeModel:
    """Collapse, bottom-up, every split whose node as a leaf makes no more
    errors on the `holdout` rows than its pruned subtree does, then drop the
    nodes no longer reachable from the root."""
    n = model.feature.size
    cell = 2 * _leaf_of(model, X[holdout]) + y[holdout]
    ben, mal = np.bincount(cell, minlength=2 * n).reshape(n, 2).T.tolist()  # holdout rows per leaf
    says_malware = (model.n_malware > model.n_benign).tolist()  # a tie predicts benign
    feature, low, high = (a.tolist() for a in (model.feature, model.low, model.high))

    # Children follow their parents, so a reverse pass over ids reaches every
    # split after its subtrees are pruned and their holdout rows counted.
    errors = [0] * n
    for i in range(n - 1, -1, -1):
        lo, hi = low[i], high[i]
        if feature[i] < 0:
            errors[i] = ben[i] if says_malware[i] else mal[i]
            continue
        ben[i], mal[i] = ben[lo] + ben[hi], mal[lo] + mal[hi]
        as_leaf = ben[i] if says_malware[i] else mal[i]
        subtree = errors[lo] + errors[hi]
        if as_leaf <= subtree:
            feature[i], low[i], high[i] = -1, i, i
        errors[i] = min(as_leaf, subtree)
    feature, low, high = (np.array(a, dtype=np.intp) for a in (feature, low, high))

    level = np.zeros(1, dtype=np.intp)
    keep = np.zeros(n, dtype=bool)
    while level.size:
        keep[level] = True
        splits = level[feature[level] >= 0]
        level = np.concatenate((low[splits], high[splits]))
    new_id = np.cumsum(keep) - 1
    return replace(
        model,
        feature=feature[keep],
        low=new_id[low[keep]],
        high=new_id[high[keep]],
        n_benign=model.n_benign[keep],
        n_malware=model.n_malware[keep],
        pruned=True,
    )


def tree_scores(model: TreeModel, X) -> np.ndarray:
    """Malware fraction of the training rows at the leaf each row of `X`, a
    matrix or `PackedRows`, reaches (0 at a leaf no training row reached)."""
    score = model.n_malware / np.maximum(model.n_benign + model.n_malware, 1)
    return score[_leaf_of(model, X)]


def default_split_count(n_features: int) -> int:
    """Default number of random candidates per split: floor(log2 F) + 1."""
    if n_features < 1:
        raise DatasetError("need at least one feature")
    return n_features.bit_length()  # floor(log2 F) + 1
