"""Command-line front end wiring the library into one pipeline.

Subcommands: synth, extract, rank, train, predict, compare (also named
crossval), roc. Exit codes: 0 success, 1 a flag fault (a value argparse or
`AlgoDescriptor` rejects), 2 a fault in the data, catalog or model, 3 out
of memory (here or in a worker) or a worker killed. `main` alone maps
faults to codes and handles every command's outputs; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
import warnings
from concurrent.futures import BrokenExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

from .algo import KINDS, MAX_CV_FOLDS, MAX_ITER, MAX_TREES, AlgoDescriptor, is_malware, model_scores, train_model
from .calibration import reference_spec
from .catalog import (
    CatalogError,
    FeatureCatalog,
    FeatureSet,
    default_catalog,
    load_catalog,
    select_feature_set,
)
from .dataset import (
    DatasetError,
    Label,
    _blocks,
    _no_labels,
    load_spec,
    read_class_counts,
    read_csv,
    read_packed,
    write_synthesized,
    write_vector_csv,
)
from .evaluation import FoldError, RocCurve, compare, roc_auc, write_report, write_roc
from .extract import scan_app
from .modelio import ModelFormatError, load_model, save_model
from .ranking import format_ranking, rank_by_counts, write_ranking
from .trees import CRITERIA

_DATA_ERRORS = (CatalogError, DatasetError, ModelFormatError, FoldError, OSError)
_DEFAULTS = {f.name: f.default for f in fields(AlgoDescriptor)}
_FEATURE_SETS = [fs.value for fs in FeatureSet]


class _UsageError(ValueError):
    """A flag fault found by the parser or a command."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _seed(text: str) -> int:
    """argparse type of ``--seed``: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def _base_catalog(args) -> FeatureCatalog:
    return default_catalog() if args.catalog is None else load_catalog(args.catalog)


def _columns(args, feature_set: str | None) -> tuple[FeatureCatalog, FeatureCatalog]:
    """The `--catalog` catalog and the columns the set named `feature_set`
    selects from it (all when None)."""
    catalog = _base_catalog(args)
    return catalog, select_feature_set(catalog, FeatureSet(feature_set)) if feature_set else catalog


def _read_data(args, feature_set: str | None, read=read_csv):
    """The columns the set named `feature_set` selects (all when None) and
    `read` (a dataset reader of `dataset`) of `--data` with them.

    The file's header may name those columns or the full catalog's.
    """
    catalog, columns = _columns(args, feature_set)
    return columns, read(args.data, catalog, columns)


def _algo_from_args(args, kind: str) -> AlgoDescriptor:
    """The descriptor of `kind` with the algorithm flags given; every flag
    left out keeps `AlgoDescriptor`'s default."""
    given = vars(args)
    return AlgoDescriptor(kind, **{f.name: given[f.name] for f in fields(AlgoDescriptor) if f.name in given})


def _add_algo_flags(p: _Parser, multi: bool = False) -> None:
    """The algorithm flags, stored under `AlgoDescriptor`'s field names and
    absent from the namespace when not given, but for `--seed`, which also
    seeds compare's folds."""
    help_kind = "classifier kind" + (", comma-separated list allowed" if multi else "")
    p.add_argument("--algo", required=True, help=f"{help_kind}: one of {', '.join(KINDS)}")
    p.add_argument("--seed", type=_seed, default=_DEFAULTS["seed"])
    flag = functools.partial(p.add_argument, default=argparse.SUPPRESS)
    flag("--alpha", type=float, help=f"nb: smoothing (default {_DEFAULTS['alpha']})")
    flag("--criterion", help=f"dt: split criterion, {' or '.join(CRITERIA)} (default {_DEFAULTS['criterion']})")
    flag("--prune", action="store_true", help="dt: reduced-error pruning")
    flag("--k", type=int, help="rt/rf: candidates per split (default log2 F + 1)")
    flag("--trees", type=int, help=f"rf: ensemble size (default {_DEFAULTS['trees']}, at most {MAX_TREES})")
    flag("--bootstrap", dest="bootstrap_fraction", type=float,
         help=f"rf: resample fraction (default {_DEFAULTS['bootstrap_fraction']})")
    flag("--no-bootstrap", dest="bootstrap", action="store_false", help="rf: train every tree on the full set")
    flag("--max-iter", type=int,
         help=f"sl: boosting iteration cap (default {_DEFAULTS['max_iter']}, at most {MAX_ITER})")
    flag("--cv-folds", type=int,
         help=f"sl: folds for iteration selection (default {_DEFAULTS['cv_folds']}, at most {MAX_CV_FOLDS})")


def _add_common(p: _Parser, *, multi_sets: bool = False) -> None:
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--catalog", default=None, help="catalog CSV (default: shipped catalog)")
    if multi_sets:
        p.add_argument("--feature-set", help=f"comma-separated subset list drawn from {', '.join(_FEATURE_SETS)}")
    else:
        p.add_argument("--feature-set", choices=_FEATURE_SETS)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: building it costs
    about as much as a small command."""
    parser = _Parser(prog="droidtriage", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--spec", default=None, help="synthesis spec file (default: the reference calibration)")
    p.add_argument("--catalog", default=None)
    p.add_argument("--seed", type=_seed, default=_DEFAULTS["seed"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth, outputs=("out",))

    p = sub.add_parser("extract", help="scan an unpacked app directory into a vector CSV")
    p.add_argument("app_dir", help="root of the unpacked application tree")
    p.add_argument("--catalog", default=None)
    p.add_argument("--feature-set", choices=_FEATURE_SETS)
    p.add_argument("--label", choices=["benign", "malware"], default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract, outputs=("out",))

    p = sub.add_parser("rank", help="mutual-information feature ranking")
    _add_common(p)
    p.add_argument("--top", type=int, default=None, help="keep only the top K features")
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_rank, outputs=("out",))

    p = sub.add_parser("train", help="train a classifier and save the model file")
    _add_common(p)
    _add_algo_flags(p)
    p.add_argument("--model", required=True, help="output model path")
    p.set_defaults(func=_cmd_train, outputs=("model",))

    p = sub.add_parser("predict", help="score a dataset with a saved model")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="predictions CSV")
    p.set_defaults(func=_cmd_predict, outputs=("out",))

    p = sub.add_parser("compare", aliases=["crossval"],
                       help="stratified k-fold cross-validation of several classifiers side by side")
    _add_common(p, multi_sets=True)
    _add_algo_flags(p, multi=True)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--out", required=True, help="report CSV")
    p.set_defaults(func=_cmd_compare, outputs=("out",))

    p = sub.add_parser("roc", help="ROC staircase (CSV, optionally SVG) for a saved model")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="ROC CSV")
    p.add_argument("--svg", default=None, help="also write an SVG plot here")
    p.set_defaults(func=_cmd_roc, outputs=("out", "svg"))
    return parser


def _cmd_synth(args) -> None:
    catalog = _base_catalog(args)
    if args.spec is None:
        try:
            spec = reference_spec(catalog)
        except KeyError as exc:
            raise DatasetError(f"reference calibration: {exc.args[0]}") from None
    else:
        spec = load_spec(args.spec, catalog)
    write_synthesized(spec, args.seed, args.out)


def _cmd_extract(args) -> None:
    _, columns = _columns(args, args.feature_set)
    bits = scan_app(args.app_dir, columns)
    label = None if args.label is None else Label[args.label.upper()]
    write_vector_csv(columns, bits, args.out, label=label)


def _cmd_rank(args) -> str | None:
    columns, counts = _read_data(args, args.feature_set, read_class_counts)
    ranking = rank_by_counts(columns.names, *counts)
    if args.top is not None:
        if not 1 <= args.top <= len(ranking):
            raise _UsageError(f"--top must lie in [1, {len(ranking)}], got {args.top}")
        ranking = ranking[: args.top]
    if args.out is None:
        return format_ranking(ranking)
    write_ranking(ranking, args.out)


def _cmd_train(args) -> None:
    catalog, dataset = _read_data(args, args.feature_set)
    model = train_model(_algo_from_args(args, args.algo), dataset)
    save_model(model, args.model, catalog)


def _cmd_predict(args) -> None:
    catalog, (rows, _) = _read_data(args, args.feature_set, read_packed)
    _write_predictions(args.out, model_scores(load_model(args.model, catalog), rows))


# A row's label cell, by `is_malware`, with a NUL pad after the shorter one.
_LABEL_CELLS = np.frombuffer(b",benign,\0,malware,", dtype=np.uint8).reshape(2, -1)


def _write_predictions(path, scores: np.ndarray) -> None:
    """Write ``row,label,score`` lines a block of rows at a time. A block is
    rendered as a byte table, each row its number as digits behind NUL
    pads, its label cell, and its score from a table of the block's
    distinct scores, each a ``repr`` and a newline followed by NUL pads;
    the pads are dropped."""
    powers = 10 ** np.arange(len(str(len(scores))))[::-1]
    with open(path, "wb") as f:
        f.write(b"row,label,score\n")
        for s in _blocks(len(scores), 64):  # a row is under 64 bytes
            values, which = np.unique(scores[s], return_inverse=True)
            text = np.frombuffer(("\n".join(map(repr, values.tolist())) + "\n").encode(), dtype=np.uint8)
            sizes = np.diff(np.flatnonzero(text == ord("\n")), prepend=-1)
            table = np.zeros((len(values), sizes.max()), dtype=np.uint8)
            table[np.arange(table.shape[1]) < sizes[:, None]] = text
            digits = np.arange(s.start + 1, s.stop + 1)[:, None] // powers  # 0 before a row's first digit
            block = np.concatenate((
                np.where(digits, digits % 10 + ord("0"), 0).astype(np.uint8),
                _LABEL_CELLS[is_malware(values)[which].view(np.uint8)],
                table[which],
            ), axis=1)
            f.write(block.tobytes().replace(b"\0", b""))


def _cmd_compare(args) -> None:
    names = [s.strip() for s in (args.feature_set or "capf").split(",")]
    if not set(names) <= set(_FEATURE_SETS):
        raise _UsageError(f"--feature-set must list values from {', '.join(_FEATURE_SETS)}; got {args.feature_set!r}")
    _, dataset = _read_data(args, names[0] if len(names) == 1 else None)
    algos = [_algo_from_args(args, kind.strip()) for kind in args.algo.split(",") if kind.strip()]
    rows = compare(dataset, algos, args.folds, args.seed, feature_sets=[FeatureSet(s) for s in names])
    write_report(rows, args.out)


def _cmd_roc(args) -> None:
    catalog, (rows, labels) = _read_data(args, args.feature_set, read_packed)
    if labels is None:
        raise _no_labels(args.data)
    scores = model_scores(load_model(args.model, catalog), rows)
    try:
        curve = roc_auc(scores, labels)
    except ValueError as exc:
        raise DatasetError(f"{args.data}: {exc}") from None
    write_roc(curve, args.out)
    if args.svg:
        Path(args.svg).write_text(roc_svg(curve), encoding="utf-8", newline="\n")


def roc_svg(curve: RocCurve) -> str:
    """Standalone 480-pixel SVG rendering of a ROC staircase with its AUC annotated."""
    size, margin = 480, 56
    span = size - 2 * margin

    def sx(fpr: float) -> float:
        return margin + fpr * span

    def sy(tpr: float) -> float:
        return size - margin - tpr * span

    path = " ".join(f"{sx(f):.2f},{sy(t):.2f}" for f, t, _ in curve.points)
    ticks = []
    for i in range(6):
        v = i / 5
        x, y = sx(v), sy(v)
        ticks.append(
            f'<line x1="{x:.2f}" y1="{size - margin}" x2="{x:.2f}" y2="{size - margin + 5}" stroke="black"/>'
            f'<text x="{x:.2f}" y="{size - margin + 18}" font-size="11" text-anchor="middle">{v:.1f}</text>'
            f'<line x1="{margin - 5}" y1="{y:.2f}" x2="{margin}" y2="{y:.2f}" stroke="black"/>'
            f'<text x="{margin - 8}" y="{y + 4:.2f}" font-size="11" text-anchor="end">{v:.1f}</text>'
        )
    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" viewBox="0 0 {size} {size}">
<rect width="{size}" height="{size}" fill="white"/>
<rect x="{margin}" y="{margin}" width="{span}" height="{span}" fill="none" stroke="black"/>
<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(1):.2f}" y2="{sy(1):.2f}" stroke="#999" stroke-dasharray="4,4"/>
<polyline points="{path}" fill="none" stroke="#c22" stroke-width="1.6"/>
{''.join(ticks)}
<text x="{size / 2:.0f}" y="{size - 14}" font-size="13" text-anchor="middle">false positive rate</text>
<text x="16" y="{size / 2:.0f}" font-size="13" text-anchor="middle" transform="rotate(-90 16 {size / 2:.0f})">true positive rate</text>
<text x="{sx(0.62):.0f}" y="{sy(0.12):.0f}" font-size="14">AUC = {curve.auc:.3f}</text>
</svg>
"""


def _run(args) -> str:
    """The stdout text of the command in `args`: what it returns, then each
    output path given. Two outputs naming one file are a flag fault. Each
    output but a FIFO or a device, which the command opens once, is opened
    untruncated before it runs; those made here are removed if it raises."""
    given = {flag: getattr(args, flag) for flag in args.outputs if getattr(args, flag) is not None}
    for (flag, path), (other, other_path) in itertools.combinations(given.items(), 2):
        if os.path.realpath(path) == os.path.realpath(other_path):
            raise _UsageError(f"--{flag} and --{other} name the same file: {path}")
    created = []
    try:
        for path in given.values():
            if not os.path.lexists(path):
                created.append(path)
            if os.path.isfile(path) or path in created:
                os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
        text = args.func(args) or ""
    except BaseException:
        for path in created:
            Path(path).unlink(missing_ok=True)
        raise
    return text + "".join(f"{path}\n" for path in given.values())


def main(argv=None) -> int:
    parser = _build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"droidtriage: warning: {message}", file=sys.stderr)
        try:
            sys.stdout.write(_run(parser.parse_args(argv)))
            return 0
        except (*_DATA_ERRORS, ValueError, BrokenExecutor, MemoryError) as exc:  # a data fault, a flag fault, a dead worker, no memory
            message = "out of memory" if isinstance(exc, MemoryError) and not str(exc) else exc
            print(f"droidtriage: error: {message}", file=sys.stderr)
            return 2 if isinstance(exc, _DATA_ERRORS) else 1 if isinstance(exc, ValueError) else 3


if __name__ == "__main__":
    sys.exit(main())
