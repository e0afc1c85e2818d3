"""droidtriage: feature-vector triage of Android app corpora.

The library covers the full pipeline: a declarative feature catalog, a
directory scanner that turns unpacked app trees into binary vectors, a
calibrated synthetic corpus generator, mutual-information feature ranking,
five classifier families (naive Bayes, decision tree, random tree, random
forest, simple logistic), and a pooled stratified cross-validation harness
with confusion metrics and ROC/AUC. A `droidtriage` command line wraps all
of it; see the README for a tour.

Each name below loads its module on first use, and
``import droidtriage.<module>`` loads only that module's dependencies, so a
process builds none of the library it does not call.
"""

import importlib

# The module each public name is defined in, by module.
_EXPORTS = {
    "algo": ("KINDS", "AlgoDescriptor", "is_malware", "model_scores", "train_model"),
    "bayes": ("NbModel", "train_nb"),
    "calibration": ("REFERENCE_N_BENIGN", "REFERENCE_N_MALWARE", "REFERENCE_TOP20_COUNTS", "reference_spec"),
    "catalog": ("CatalogError", "FeatureCatalog", "FeatureDef", "FeatureSet", "default_catalog", "load_catalog",
                "select_feature_set"),
    "dataset": ("Dataset", "DatasetError", "Label", "SyntheticSpec", "load_spec", "read_csv", "synthesize",
                "write_csv"),
    "ensemble": ("ForestModel", "LogitModel", "derive_seed", "logitboost_response", "train_forest",
                 "train_simple_logistic"),
    "evaluation": ("ConfusionMatrix", "CvResult", "MetricsReport", "RocCurve", "compare", "confusion",
                   "cross_validate", "metrics", "roc_auc", "write_report"),
    "extract": ("scan_app",),
    "modelio": ("ModelFormatError", "load_model", "save_model"),
    "ranking": ("FeatureClassCounts", "RankedFeature", "mutual_information", "rank_features", "top_k",
                "write_ranking"),
    "trees": ("TreeModel", "train_decision_tree", "train_random_tree"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module that defines the public `name` and keep the name here,
    so that its next use is a plain lookup."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
