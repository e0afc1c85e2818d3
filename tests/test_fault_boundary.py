"""`cli.main` is the one fault boundary: whatever values the algorithm flags
take, a command returns 0, 1 or 2, lets no exception escape, and on failure
writes nothing to stdout and exactly one error line to stderr."""

import contextlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droidtriage import evaluation
from droidtriage.algo import KINDS, MAX_ITER, MAX_TREES
from droidtriage.catalog import FeatureCatalog, FeatureDef
from droidtriage.cli import main
from droidtriage.dataset import Dataset, write_csv

from conftest import write_catalog

# Two catalogs: one with every category, and one without permissions, on
# which --feature-set pf selects no column at all.
CATALOGS = {
    "mixed": ["PERMISSION", "PERMISSION", "API", "API", "API", "COMMAND"],
    "no-permissions": ["API", "API", "COMMAND"],
}


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """(catalog path, data path) per catalog: 40 rows, 20 of each class."""
    root = tmp_path_factory.mktemp("boundary")
    rng = np.random.default_rng(5)
    paths = {}
    for name, categories in CATALOGS.items():
        catalog = FeatureCatalog(FeatureDef(f"f{i}", c, f"tok_f{i}") for i, c in enumerate(categories))
        X = (rng.random((40, len(catalog))) < 0.5).astype(np.uint8)
        y = np.repeat(np.array([0, 1], dtype=np.uint8), 20)
        paths[name] = (root / f"{name}.catalog", root / f"{name}.csv")
        write_catalog(catalog, paths[name][0])
        write_csv(Dataset(catalog, X, y), paths[name][1])
    return root, paths


# Each flag draws valid values often enough that whole commands succeed too.
# --trees stays small, or past its cap: a forest draws a seed and a row-weight
# vector for every tree before it grows any, so a huge value under the cap
# costs memory and time, not coverage; one past it is rejected before training.
VALUED_FLAGS = {
    "--alpha": st.one_of(st.floats(0.01, 4.0), st.floats()).map(repr),
    "--criterion": st.sampled_from(["entropy", "gini", "bogus"]),
    "--k": st.integers(-2, 8).map(str),
    "--trees": (st.integers(-2, 16) | st.just(MAX_TREES + 1)).map(str),
    "--bootstrap": st.one_of(st.floats(0.05, 1.0), st.floats()).map(repr),
    "--max-iter": st.sampled_from([-1, 0, 1, 2, 5, 30, MAX_ITER + 1]).map(str),
    "--cv-folds": st.integers(-1, 10).map(str),
    "--seed": st.integers(-3, 2**70).map(str),
}
KIND = st.sampled_from([*KINDS, "svm", ""])


@st.composite
def argvs(draw):
    """(catalog name, argv without the file flags, fold workers) for train,
    crossval or compare."""
    command = draw(st.sampled_from(["train", "crossval", "compare"]))
    if command == "compare":
        algo = ",".join(draw(st.lists(KIND, max_size=3)))
        sets = ",".join(draw(st.lists(st.sampled_from(["pf", "af", "capf", "zz"]), min_size=1, max_size=3)))
    else:
        algo, sets = draw(KIND), draw(st.sampled_from(["pf", "af", "capf"]))
    optional = dict(VALUED_FLAGS)
    if command != "train":
        optional["--folds"] = st.integers(-1, 24).map(str)
    values = draw(st.fixed_dictionaries({}, optional=optional))
    argv = [command, f"--algo={algo}"] + [f"{flag}={value}" for flag, value in values.items()]
    argv += draw(st.lists(st.sampled_from(["--prune", "--no-bootstrap"]), unique=True))
    if draw(st.booleans()):
        argv += ["--feature-set", sets]
    return draw(st.sampled_from(sorted(CATALOGS))), argv, draw(st.sampled_from([1, 2]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argvs())
def test_every_flag_value_exits_0_1_or_2_with_one_line(corpora, case):
    root, paths = corpora
    catalog, argv, workers = case
    out_flag = "--model" if argv[0] == "train" else "--out"
    argv = argv + ["--catalog", str(paths[catalog][0]), "--data", str(paths[catalog][1]), out_flag, str(root / "out")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            mock.patch.object(evaluation, "_default_workers", lambda: workers):
        rc = main(argv)
    assert rc in (0, 1, 2)
    if rc != 0:
        assert stdout.getvalue() == ""
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("droidtriage: error:"), (argv, stderr.getvalue())


@pytest.mark.parametrize("algo", ["rt", "rf", "sl"])
@pytest.mark.parametrize("command", ["train", "crossval"])
def test_no_feature_column_exits_2(corpora, capsys, command, algo):
    """--feature-set pf on a catalog without permissions leaves no column: a
    data fault for every kind that needs a feature to split or fit on."""
    root, paths = corpora
    catalog, data = paths["no-permissions"]
    out_flag = "--model" if command == "train" else "--out"
    argv = [command, "--algo", algo, "--feature-set", "pf", "--catalog", str(catalog), "--data", str(data)]
    rc = main(argv + [out_flag, str(root / "none")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.endswith("need at least one feature\n") and len(captured.err.splitlines()) == 1
