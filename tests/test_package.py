"""The package's public names load their module on first use: importing one
module loads only that module's dependencies, every module imports first and
alone (no import order hides a cycle), and each public name is the object
its module defines. Imports are checked in fresh interpreters."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import droidtriage

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "droidtriage").glob("*.py") if not p.stem.startswith("_"))

# The names the package exported when it imported every module up front.
NAMES = """
KINDS AlgoDescriptor is_malware model_scores train_model NbModel train_nb REFERENCE_N_BENIGN
REFERENCE_N_MALWARE REFERENCE_TOP20_COUNTS reference_spec CatalogError FeatureCatalog FeatureDef
FeatureSet default_catalog load_catalog select_feature_set Dataset DatasetError Label SyntheticSpec
load_spec read_csv synthesize write_csv ForestModel LogitModel derive_seed logitboost_response
train_forest train_simple_logistic ConfusionMatrix CvResult MetricsReport RocCurve compare confusion
cross_validate metrics roc_auc write_report scan_app ModelFormatError load_model save_model
FeatureClassCounts RankedFeature mutual_information rank_features top_k write_ranking TreeModel
train_decision_tree train_random_tree
""".split()


def _loaded(statement: str) -> set[str]:
    """The droidtriage modules a fresh interpreter holds after `statement`."""
    code = f"import sys\n{statement}\nprint(*(m for m in sys.modules if m.split('.')[0] == 'droidtriage'))"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("modules, loaded", [
    ([], []),
    (["dataset"], ["catalog", "dataset"]),
    (["calibration", "catalog", "dataset"], ["calibration", "catalog", "dataset"]),
], ids=["package", "dataset", "inputs"])
def test_import_loads_only_the_modules_it_needs(modules, loaded):
    statement = "import droidtriage" + "".join(f", droidtriage.{m}" for m in modules)
    assert _loaded(statement) == {"droidtriage", *(f"droidtriage.{m}" for m in loaded)}


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_and_alone(module):
    assert f"droidtriage.{module}" in _loaded(f"import droidtriage.{module}")


def test_first_use_of_a_name_loads_its_module():
    assert _loaded("from droidtriage import scan_app") == {"droidtriage", "droidtriage.catalog",
                                                          "droidtriage.dataset", "droidtriage.extract"}


def test_each_name_is_its_modules_object():
    assert sorted(NAMES) == droidtriage.__all__
    assert droidtriage.__all__ == sorted(droidtriage._MODULE_OF)
    for name, module in droidtriage._MODULE_OF.items():
        assert getattr(droidtriage, name) is getattr(importlib.import_module(f"droidtriage.{module}"), name)
        assert name in vars(droidtriage) and name in dir(droidtriage)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from droidtriage import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == droidtriage.__all__


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        droidtriage.no_such_name
    assert not hasattr(droidtriage, "no_such_name")
    with pytest.raises(ImportError):
        exec("from droidtriage import no_such_name", {})
