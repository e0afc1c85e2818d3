"""droidtriage: feature-vector triage of Android app corpora.

The library covers the full pipeline: a declarative feature catalog, a
directory scanner that turns unpacked app trees into binary vectors, a
calibrated synthetic corpus generator, mutual-information feature ranking,
five classifier families (naive Bayes, decision tree, random tree, random
forest, simple logistic), and a pooled stratified cross-validation harness
with confusion metrics and ROC/AUC. A `droidtriage` command line wraps all
of it; see the README for a tour.
"""

from .algo import KINDS, AlgoDescriptor, is_malware, model_scores, train_model
from .bayes import NbModel, train_nb
from .calibration import (
    REFERENCE_N_BENIGN,
    REFERENCE_N_MALWARE,
    REFERENCE_TOP20_COUNTS,
    reference_spec,
)
from .catalog import (
    CatalogError,
    FeatureCatalog,
    FeatureDef,
    FeatureSet,
    default_catalog,
    load_catalog,
    select_feature_set,
)
from .dataset import (
    Dataset,
    DatasetError,
    Label,
    SyntheticSpec,
    load_spec,
    read_csv,
    synthesize,
    write_csv,
)
from .ensemble import (
    ForestModel,
    LogitModel,
    derive_seed,
    logitboost_response,
    train_forest,
    train_simple_logistic,
)
from .evaluation import (
    ConfusionMatrix,
    CvResult,
    MetricsReport,
    RocCurve,
    compare,
    confusion,
    cross_validate,
    metrics,
    roc_auc,
    write_report,
)
from .extract import scan_app
from .modelio import ModelFormatError, load_model, save_model
from .ranking import (
    FeatureClassCounts,
    RankedFeature,
    mutual_information,
    rank_features,
    top_k,
    write_ranking,
)
from .trees import TreeModel, train_decision_tree, train_random_tree

__version__ = "0.1.0"
