"""Span tracing of droidtriage's layers from outside the program.

`Tracer.install` replaces module attributes with timing wrappers at the names
their callers use (``droidtriage.cli.read_csv``,
``droidtriage.evaluation.train_model``, ``droidtriage.ensemble.tree_scores``,
``Dataset.subset`` and so on), and `Tracer.uninstall` puts the originals
back. Spans are kept in memory as ``[name, start, end, parent]`` lists; a
span's layer is the first dotted component of its name, and its self time is
its duration minus that of its direct children. Everything the tracer needs
from the program is looked up by name at run time: a name, attribute or
argument the program no longer has costs a span or a count, listed in
`Tracer.missing`, never the run.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter, defaultdict
from time import perf_counter

# Model class name -> algorithm kind; a tree with k == 0 is a plain dt. Kept
# here rather than calling algo.model_kind so that tracing does not depend
# on how the program dispatches model kinds.
_MODEL_KIND = {"NbModel": "nb", "ForestModel": "rf", "LogitModel": "sl"}


def _model_kind(model) -> str:
    name = type(model).__name__
    if name == "TreeModel":
        return "rt" if model.k else "dt"
    return _MODEL_KIND.get(name, name)


def _count_rows_read(t, args, result):
    t.counts["dataset.read.rows"] += result[0].shape[0]


def _count_rows_written(t, args, result):
    t.counts["dataset.write_csv.rows"] += len(args[0])


def _count_subset(t, args, result):
    t.counts["dataset.subset.bytes"] += result.X.nbytes + result.y.nbytes


def _keep_tree(t, args, result):
    t.trees.append(result)


def _count_rows_scored(t, args, result):
    t.counts["trees.tree_scores.rows"] += len(args[1])


def _count_folds(t, args, result):
    t.counts["evaluation.folds"] += result.k


def _count_model_bytes(t, args, result):
    t.counts["modelio.model_bytes"] += os.path.getsize(args[1])


def _count_scan(t, args, result):
    t.counts["extract.scan_app.calls"] += 1
    t.counts["extract.scan_app.bytes"] += t.app_bytes.get(os.path.basename(os.path.normpath(args[0])), 0)


def _train_name(args):
    return f"algo.train_model.{args[0].kind}"


def _scores_name(args):
    return f"algo.model_scores.{_model_kind(args[0])}"


# (owner, attribute, span name or function of the call's args, count hook)
WRAPS = (
    ("droidtriage.cli", "default_catalog", "catalog.default_catalog", None),
    ("droidtriage.cli", "select_feature_set", "catalog.select_feature_set", None),
    ("droidtriage.evaluation", "select_feature_set", "catalog.select_feature_set", None),
    ("droidtriage.cli", "read_csv", "dataset.read_csv", None),
    ("droidtriage.cli", "read_vectors", "dataset.read_vectors", _count_rows_read),
    ("droidtriage.dataset", "read_vectors", "dataset.read_vectors", _count_rows_read),
    ("droidtriage.cli", "load_spec", "dataset.load_spec", None),
    ("droidtriage.cli", "synthesize", "dataset.synthesize", None),
    ("droidtriage.cli", "write_csv", "dataset.write_csv", _count_rows_written),
    ("droidtriage.cli", "write_vector_csv", "dataset.write_vector_csv", None),
    ("droidtriage.dataset:Dataset", "subset", "dataset.subset", _count_subset),
    ("droidtriage.dataset:Dataset", "select_features", "dataset.select_features", None),
    ("droidtriage.cli", "scan_app", "extract.scan_app", _count_scan),
    ("droidtriage.cli", "rank_features", "ranking.rank_features", None),
    ("droidtriage.cli", "write_ranking", "ranking.write_ranking", None),
    ("droidtriage.cli", "train_model", _train_name, None),
    ("droidtriage.evaluation", "train_model", _train_name, None),
    ("droidtriage.cli", "model_scores", _scores_name, None),
    ("droidtriage.evaluation", "model_scores", _scores_name, None),
    ("droidtriage.bayes", "train_nb", "bayes.train_nb", None),
    ("droidtriage.bayes", "nb_scores", "bayes.nb_scores", None),
    ("droidtriage.trees", "train_decision_tree", "trees.train_decision_tree", _keep_tree),
    ("droidtriage.trees", "train_random_tree", "trees.train_random_tree", _keep_tree),
    ("droidtriage.ensemble", "train_random_tree", "trees.train_random_tree", _keep_tree),
    ("droidtriage.trees", "tree_scores", "trees.tree_scores", _count_rows_scored),
    ("droidtriage.ensemble", "tree_scores", "trees.tree_scores", _count_rows_scored),
    ("droidtriage.ensemble", "train_forest", "ensemble.train_forest", None),
    ("droidtriage.ensemble", "forest_scores", "ensemble.forest_scores", None),
    ("droidtriage.ensemble", "train_simple_logistic", "ensemble.train_simple_logistic", None),
    ("droidtriage.ensemble", "logit_scores", "ensemble.logit_scores", None),
    ("droidtriage.cli", "compare", "evaluation.compare", None),
    ("droidtriage.cli", "cross_validate", "evaluation.cross_validate", _count_folds),
    ("droidtriage.evaluation", "cross_validate", "evaluation.cross_validate", _count_folds),
    ("droidtriage.cli", "roc_auc", "evaluation.roc_auc", None),
    ("droidtriage.evaluation", "roc_auc", "evaluation.roc_auc", None),
    ("droidtriage.cli", "write_report", "evaluation.write_report", None),
    ("droidtriage.cli", "save_model", "modelio.save_model", _count_model_bytes),
    ("droidtriage.cli", "load_model", "modelio.load_model", None),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """In-memory spans and counts for the calls made while installed."""

    def __init__(self, app_bytes: dict[str, int] | None = None):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.trees: list = []
        self.app_bytes = app_bytes or {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _lost(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    def _wrap(self, fn, label, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            try:
                span_name = name(args) if callable(name) else name
            except Exception as exc:
                span_name = f"{label}.unknown"
                tracer._lost(f"span name of {label}: {type(exc).__name__}")
            span = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                try:
                    hook(tracer, args, result)
                except Exception as exc:
                    tracer._lost(f"{hook.__name__} on {label}: {type(exc).__name__}")
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every name in WRAPS; names the program no longer has are
        listed in `missing` instead."""
        for owner_path, attr, name, hook in WRAPS:
            owner = _owner(owner_path)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self._lost(f"{owner_path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, f"{owner_path}.{attr}", name, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def count_trees(self) -> None:
        """Add the node count and the depth of the trees grown since the last
        call to `counts`, then drop the trees. Call it outside every span:
        walking the trees is not the program's work."""
        trees = _owner("droidtriage.trees")
        node_count, tree_depth = getattr(trees, "node_count", None), getattr(trees, "tree_depth", None)
        try:
            for tree in self.trees:
                self.counts["trees.nodes"] += node_count(tree.root)
                self.counts["trees.max_depth"] = max(self.counts["trees.max_depth"], tree_depth(tree.root))
        except Exception as exc:
            self._lost(f"trees.nodes and trees.max_depth: {type(exc).__name__}: {exc}")
        self.trees.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans) -> dict:
    """Busy seconds, self seconds and call count per span name.

    Busy time counts only the outermost span of a name, so a name nested in
    itself is not counted twice. Self times of all spans add up to the
    durations of the root spans.
    """
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for (name, start, end, parent), self_s in zip(spans, self_times(spans)):
        calls[name] += 1
        own[name] += self_s
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            busy[name] += end - start
    return {"busy": dict(busy), "self": dict(own), "calls": dict(calls)}


def check_nesting(spans) -> list[str]:
    """Problems with the span tree: a child outside its parent, a negative self time."""
    problems = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            p_name, p_start, p_end, _ = spans[parent]
            if parent >= i or start < p_start or end > p_end:
                problems.append(f"span {i} {name} lies outside its parent {p_name}")
    problems += [f"span {i} {spans[i][0]} has negative self time {s}" for i, s in enumerate(self_times(spans)) if s < 0]
    return problems
