"""ROC curves, the SVG plot, and model persistence.

Trains a forest on one synthetic corpus, scores a differently-seeded corpus
(a stand-in for unseen apps), draws the ROC staircase, and shows that a
model survives a save/load round trip bit for bit.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np

from droidtriage import (
    AlgoDescriptor,
    load_model,
    model_scores,
    reference_spec,
    roc_auc,
    save_model,
    synthesize,
    train_model,
)
from droidtriage.cli import roc_svg
from droidtriage.evaluation import write_roc

spec = dataclasses.replace(reference_spec(), n_benign=900, n_malware=700)
train_set = synthesize(spec, seed=1)
test_set = synthesize(spec, seed=2)

model = train_model(AlgoDescriptor("rf", trees=25, seed=5), train_set)
scores = model_scores(model, test_set.X)
curve = roc_auc(scores, test_set.y)
print(f"held-out AUC with 25 trees: {curve.auc:.4f}")

print("\noperating points along the staircase:")
print(f"{'threshold':>10s} {'FPR':>7s} {'TPR':>7s}")
for fpr, tpr, threshold in curve.points[1::5]:
    print(f"{threshold:10.2f} {fpr:7.3f} {tpr:7.3f}")

with tempfile.TemporaryDirectory(prefix="droidtriage-demo-") as tmp:
    outdir = Path(tmp)
    write_roc(curve, outdir / "roc.csv")
    (outdir / "roc.svg").write_text(roc_svg(curve))
    print(f"\nwrote {outdir / 'roc.csv'} and {outdir / 'roc.svg'}")

    model_path = outdir / "forest.rf"
    save_model(model, model_path, train_set.catalog)
    reloaded = load_model(model_path, train_set.catalog)
    identical = np.array_equal(model_scores(reloaded, test_set.X), scores)
    size_kb = model_path.stat().st_size / 1024
    print(f"model file: {size_kb:.0f} KiB; reloaded predictions identical: {identical}")
