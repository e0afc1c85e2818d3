"""Labeled binary feature vectors: CSV I/O and the synthetic corpus generator.

A dataset pairs a feature catalog with an instance matrix of {0,1} bits and a
benign/malware label per instance. The synthetic generator draws each feature
independently per class from configurable Bernoulli rates, optionally forcing
an XOR interaction between two features and the label, which Bernoulli
marginals cannot express.

Randomness comes from numpy's default PCG64 generator, which has a fixed,
documented algorithm, so a (spec, seed) pair reproduces the same dataset on
every platform. Each synthesis call owns a single fresh stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .catalog import FeatureCatalog, read_lines


class Label(IntEnum):
    """Instance class. MALWARE is the detector's positive ("suspicious") class."""

    BENIGN = 0
    MALWARE = 1


# What follows a row's cells: [unlabeled] a newline; [labeled] the label tag
# and a newline, with a NUL pad after the shorter benign one.
_ROW_ENDS = (
    np.frombuffer(b"\n", np.uint8)[None],
    np.frombuffer(b",benign\n\0,malware\n", np.uint8).reshape(2, -1),
)
_CHUNK_BYTES = 1 << 18


class DatasetError(ValueError):
    """A dataset file or value violates the dataset contract."""


class Dataset:
    """An ordered collection of labeled binary feature vectors.

    Attributes
    ----------
    catalog : FeatureCatalog
        Defines the meaning and order of the bit positions.
    X : numpy.ndarray of uint8, shape (n, F)
        One row per instance, values in {0, 1}.
    y : numpy.ndarray of uint8, shape (n,)
        0 for benign, 1 for malware.
    """

    __slots__ = ("catalog", "X", "y")

    def __init__(self, catalog: FeatureCatalog, X, y):
        X = np.ascontiguousarray(X, dtype=np.uint8)
        y = np.ascontiguousarray(y, dtype=np.uint8)
        if X.ndim != 2:
            raise DatasetError(f"instance matrix must be 2-D, got shape {X.shape}")
        if X.shape[1] != len(catalog):
            raise DatasetError(
                f"vector length {X.shape[1]} does not match catalog size {len(catalog)}"
            )
        if y.shape != (X.shape[0],):
            raise DatasetError(
                f"label count {y.shape} does not match instance count {X.shape[0]}"
            )
        if X.size and X.max() > 1:
            raise DatasetError("feature bits must be 0 or 1")
        if y.size and y.max() > 1:
            raise DatasetError("labels must be 0 (benign) or 1 (malware)")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "catalog", catalog)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def feature_count(self) -> int:
        return self.X.shape[1]

    def class_counts(self) -> tuple[int, int]:
        """(number of benign instances, number of malware instances)."""
        n_mal = int(self.y.sum())
        return len(self) - n_mal, n_mal

    def subset(self, indices) -> "Dataset":
        """New dataset containing the rows `indices`, in that order."""
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.catalog, self.X[idx], self.y[idx])

    def select_features(self, names: Iterable[str]) -> "Dataset":
        """Project onto the named features, columns ordered as given."""
        names = list(names)
        cols = [self.catalog.index_of(n) for n in names]
        return Dataset(self.catalog.subset(names), self.X[:, cols], self.y)

    def equals(self, other: "Dataset") -> bool:
        return (
            self.catalog.names == other.catalog.names
            and np.array_equal(self.X, other.X)
            and np.array_equal(self.y, other.y)
        )


def read_csv(path, catalog: FeatureCatalog) -> Dataset:
    """Read a labeled dataset CSV whose header matches `catalog` exactly.

    The format is a UTF-8 header ``name1,...,nameF,class``, then ASCII rows
    of ``0``/``1`` cells and a lowercase ``benign``/``malware`` label, with
    LF, CRLF or lone-CR line ends. Errors name the offending data row and
    column; a file that is not UTF-8 is a :class:`DatasetError` too, so the
    command line exits 2.
    """
    X, y = read_vectors(path, catalog)
    if y is None:
        raise DatasetError(f"{path}: label column absent")
    return Dataset(catalog, X, y)


def read_vectors(path, catalog: FeatureCatalog) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a dataset CSV, tolerating a missing ``class`` column.

    Returns the bit matrix and the label array, or ``None`` for the labels
    when the file carries no ``class`` column (e.g. scanner output). Only the
    header is decoded, as UTF-8; rows are checked as ASCII bytes, and only
    the first bad row is decoded, to name the fault.
    """
    data = Path(path).read_bytes()
    if b"\r" in data:  # universal newlines, as text mode reads them
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data:
        raise DatasetError(f"{path}: empty file")
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == 10)
    starts = np.concatenate(([0], ends[:-1] + 1))

    def line(k: int) -> str:
        try:
            return data[starts[k] : ends[k]].decode("utf-8")
        except UnicodeDecodeError:
            raise DatasetError(f"{path}: {f'row {k}' if k else 'header'}: not valid UTF-8") from None

    header = line(0).split(",")
    names = list(catalog.names)
    labeled = header == names + ["class"]
    if not labeled and header != names:
        have = len(header)
        want = len(names) + 1
        if header and header[-1] != "class" and have in (want, want - 1):
            raise DatasetError(f"{path}: label column absent or misplaced")
        raise DatasetError(
            f"{path}: header does not match catalog "
            f"({have} columns, expected {want} including 'class')"
        )
    F = len(names)
    n = len(ends) - 1
    # A good row is F cells joined by commas (W bytes), then the newline, or
    # the ",benign" tag and newline, or the ",malware" tag, one byte longer
    # (with no comma when F is 0); it is exactly what the writer makes of
    # the bits read from it.
    W = max(2 * F - 1, 0)
    tails = _ROW_ENDS[labeled][:, int(F == 0) : len(",malware")]
    L = W + tails.shape[1]
    lengths = ends[1:] - starts[1:]
    y = (lengths == L).astype(np.uint8)
    good = (lengths == L - 1) | (lengths == L) & labeled
    bad_row = n if good.all() else int(np.argmin(good))
    X = np.empty((n, F), dtype=np.uint8)
    if bad_row:
        windows = sliding_window_view(buf, L)
        step = max(1, _CHUNK_BYTES // L)
        for lo in range(0, bad_row, step):
            hi = min(lo + step, bad_row)
            rows = windows[starts[lo + 1 : hi + 1]]
            bits = rows[:, 0:W:2] & 1
            bad = (rows != _render(bits, tails, y[lo:hi])).any(axis=1)
            if bad.any():
                bad_row = lo + int(np.argmax(bad))
                break
            X[lo:hi] = bits
    if bad_row < n:
        row = bad_row + 1
        cells = line(row).split(",")
        if len(cells) != F + labeled:
            raise DatasetError(f"{path}: row {row}: expected {F + labeled} cells, got {len(cells)}")
        if labeled and cells[-1] not in ("benign", "malware"):
            raise DatasetError(f"{path}: row {row}: unknown label {cells[-1]!r}")
        col = next(i for i, c in enumerate(cells[:F]) if c not in ("0", "1"))
        raise DatasetError(
            f"{path}: row {row}, column {names[col]!r}: cell must be 0 or 1, got {cells[col]!r}"
        )
    return X, y if labeled else None


def _render(bits: np.ndarray, ends: np.ndarray, labels) -> np.ndarray:
    """One byte row per row of `bits`: ``48 + bit`` cells joined by commas,
    then ``ends[label]``."""
    W = max(2 * bits.shape[1] - 1, 0)
    block = np.full((len(bits), W + ends.shape[1]), ord(","), dtype=np.uint8)
    block[:, 0:W:2] = bits
    block[:, 0:W:2] += ord("0")
    block[:, W:] = ends[labels]
    return block


def _write_rows(path, names: Sequence[str], X: np.ndarray, y: np.ndarray | None) -> None:
    """Write a header and one row per row of `X`, labeled when `y` is given,
    rendering the rows in bounded chunks."""
    ends = _ROW_ENDS[y is not None]
    step = max(1, _CHUNK_BYTES // (2 * X.shape[1] + ends.shape[1]))
    with open(path, "wb") as f:
        f.write((",".join(names) + ("" if y is None else ",class") + "\n").encode("utf-8"))
        for lo in range(0, len(X), step):
            block = _render(X[lo : lo + step], ends, 0 if y is None else y[lo : lo + step])
            f.write(block[block != 0])  # drops the pad after each benign tag


def write_csv(dataset: Dataset, path) -> None:
    """Write `dataset` in the CSV format accepted by :func:`read_csv`.

    Round-trips bit for bit: ``read_csv(write_csv(d)) == d``.
    """
    _write_rows(path, dataset.catalog.names, dataset.X, dataset.y)


def write_vector_csv(catalog: FeatureCatalog, bits, path, label: Label | None = None) -> None:
    """Write a single feature vector, optionally labeled (scanner output)."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape != (len(catalog),):
        raise DatasetError(
            f"vector length {bits.shape} does not match catalog size {len(catalog)}"
        )
    y = None if label is None else np.array([Label(label)], dtype=np.uint8)
    _write_rows(path, catalog.names, (bits != 0)[None, :], y)


BACKGROUND_RATE = 0.05


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    """Class-conditional Bernoulli rates for a synthetic corpus.

    Parameters
    ----------
    catalog : FeatureCatalog
        The features being synthesized, in vector order.
    p_benign, p_malware : arrays of shape (F,)
        Per-feature probability of bit 1 within each class.
    n_benign, n_malware : int
        Instance counts per class.
    xor_interaction : (int, int, float) or None
        Feature index pair (a, b) plus a strength q in [0.5, 1]. When set,
        bit b is rewritten so that ``bit_a XOR bit_b`` equals the instance
        label with probability q (exactly the label when q is 1). This plants
        a pairwise signal that is invisible to per-feature marginals.
    """

    catalog: FeatureCatalog
    p_benign: np.ndarray
    p_malware: np.ndarray
    n_benign: int
    n_malware: int
    xor_interaction: tuple[int, int, float] | None = None

    def __post_init__(self):
        F = len(self.catalog)
        for attr in ("p_benign", "p_malware"):
            p = np.ascontiguousarray(getattr(self, attr), dtype=np.float64)
            if p.shape != (F,):
                raise ValueError(f"{attr} must have shape ({F},), got {p.shape}")
            if np.any(p < 0.0) or np.any(p > 1.0):
                raise ValueError(f"{attr} entries must lie in [0, 1]")
            p.setflags(write=False)
            object.__setattr__(self, attr, p)
        if self.n_benign < 0 or self.n_malware < 0:
            raise ValueError("instance counts must be non-negative")
        if self.xor_interaction is not None:
            a, b, q = self.xor_interaction
            if not (0 <= a < F and 0 <= b < F):
                raise ValueError("xor feature indices out of range")
            if a == b:
                raise ValueError("xor feature indices must be distinct")
            if not 0.5 <= q <= 1.0:
                raise ValueError("xor strength q must lie in [0.5, 1]")

    @classmethod
    def from_rates(
        cls,
        catalog: FeatureCatalog,
        rates: dict[str, tuple[float, float]],
        n_benign: int,
        n_malware: int,
        background: float = BACKGROUND_RATE,
        xor_features: tuple[str, str, float] | None = None,
    ) -> "SyntheticSpec":
        """Build a spec from named rates; unnamed features get `background`."""
        F = len(catalog)
        p_ben = np.full(F, background, dtype=np.float64)
        p_mal = np.full(F, background, dtype=np.float64)
        for name, (pb, pm) in rates.items():
            i = catalog.index_of(name)
            p_ben[i] = pb
            p_mal[i] = pm
        xor = None
        if xor_features is not None:
            na, nb, q = xor_features
            xor = (catalog.index_of(na), catalog.index_of(nb), float(q))
        return cls(catalog, p_ben, p_mal, n_benign, n_malware, xor)


def load_spec(path, catalog: FeatureCatalog, background: float = BACKGROUND_RATE) -> SyntheticSpec:
    """Parse a synthesis spec file.

    The format is CSV rows ``name,p_benign,p_malware`` preceded by directive
    lines ``#n_benign=N``, ``#n_malware=N`` and optionally
    ``#xor=nameA,nameB,q``. Features not listed default to `background` in
    both classes.
    """
    n_benign = n_malware = None
    xor = None
    rates: dict[str, tuple[float, float]] = {}
    for lineno, line in enumerate(read_lines(path, DatasetError), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            try:
                if key == "n_benign":
                    n_benign = int(value)
                elif key == "n_malware":
                    n_malware = int(value)
                elif key == "xor":
                    na, nb, q = value.split(",")
                    xor = (na, nb, float(q))
                else:
                    raise DatasetError(f"{path}: line {lineno}: unknown directive {key!r}")
            except (ValueError, TypeError) as exc:
                if isinstance(exc, DatasetError):
                    raise
                raise DatasetError(f"{path}: line {lineno}: bad directive value") from None
            continue
        if line == "name,p_benign,p_malware":
            continue
        cells = line.split(",")
        if len(cells) != 3:
            raise DatasetError(f"{path}: line {lineno}: expected 3 fields, got {len(cells)}")
        name, pb, pm = cells
        if name not in catalog:
            raise DatasetError(f"{path}: line {lineno}: feature {name!r} not in catalog")
        if name in rates:
            raise DatasetError(f"{path}: line {lineno}: duplicate feature {name!r}")
        try:
            rates[name] = (float(pb), float(pm))
        except ValueError:
            raise DatasetError(f"{path}: line {lineno}: bad probability") from None
    if n_benign is None or n_malware is None:
        raise DatasetError(f"{path}: missing #n_benign= or #n_malware= directive")
    try:
        return SyntheticSpec.from_rates(
            catalog, rates, n_benign, n_malware, background=background, xor_features=xor
        )
    except (ValueError, KeyError) as exc:
        raise DatasetError(f"{path}: {exc}") from None


def write_spec(spec: SyntheticSpec, path) -> None:
    """Write `spec` in the file format accepted by :func:`load_spec`.

    Every feature is listed explicitly, so the round-trip does not depend on
    the reader's background-rate default.
    """
    lines = [f"#n_benign={spec.n_benign}", f"#n_malware={spec.n_malware}"]
    if spec.xor_interaction is not None:
        a, b, q = spec.xor_interaction
        names = spec.catalog.names
        lines.append(f"#xor={names[a]},{names[b]},{float(q)!r}")
    lines.append("name,p_benign,p_malware")
    for f, name in enumerate(spec.catalog.names):
        lines.append(f"{name},{float(spec.p_benign[f])!r},{float(spec.p_malware[f])!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def synthesize(spec: SyntheticSpec, seed: int) -> Dataset:
    """Draw a dataset from `spec`: a pure function of (spec, seed).

    Instances come out as the benign block followed by the malware block;
    shuffling, when needed, is the evaluation layer's concern. Each bit is an
    independent Bernoulli draw at its class rate unless rewritten by the
    spec's XOR interaction.
    """
    rng = np.random.default_rng(seed)
    F = len(spec.catalog)
    blocks = []
    for count, p, label_bit in (
        (spec.n_benign, spec.p_benign, 0),
        (spec.n_malware, spec.p_malware, 1),
    ):
        bits = (rng.random((count, F)) < p).astype(np.uint8)
        if spec.xor_interaction is not None:
            a, b, q = spec.xor_interaction
            agree = rng.random(count) < q
            target = np.where(agree, label_bit, 1 - label_bit).astype(np.uint8)
            bits[:, b] = bits[:, a] ^ target
        blocks.append(bits)
    X = np.vstack(blocks) if blocks else np.zeros((0, F), dtype=np.uint8)
    y = np.concatenate(
        [np.zeros(spec.n_benign, dtype=np.uint8), np.ones(spec.n_malware, dtype=np.uint8)]
    )
    return Dataset(spec.catalog, X, y)


def stratified_fold_indices(y: Sequence[int], k: int, seed: int) -> list[np.ndarray]:
    """Partition indices 0..n-1 into k folds preserving class proportions.

    Per-class fold sizes differ by at most one. Deterministic given `seed`.
    Each returned index array is sorted ascending.
    """
    y = np.asarray(y)
    n_mal = int(np.sum(y == 1))
    n_ben = int(y.size) - n_mal
    smallest = min(n_ben, n_mal)
    if not 2 <= k <= smallest:
        raise ValueError(
            f"fold count must satisfy 2 <= k <= min class size ({smallest}), got {k}"
        )
    rng = np.random.default_rng(seed)
    folds: list[list[np.ndarray]] = [[] for _ in range(k)]
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.size)]
        for i in range(k):
            folds[i].append(idx[i::k])
    return [np.sort(np.concatenate(parts)) for parts in folds]


def bootstrap_sample_size(n: int, fraction: float) -> int:
    """Number of with-replacement draws for a bagging fraction of `n`."""
    return int(math.ceil(fraction * n))
