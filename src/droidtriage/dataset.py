"""Labeled binary feature vectors: CSV I/O and the synthetic corpus generator.

A dataset pairs a feature catalog with an instance matrix of {0,1} bits and a
benign/malware label per instance. The synthetic generator draws each feature
independently per class from configurable Bernoulli rates, optionally forcing
an XOR interaction between two features and the label, which Bernoulli
marginals cannot express.

Randomness comes from numpy's default PCG64 generator, which has a fixed,
documented algorithm, so a (spec, seed) pair reproduces the same dataset on
every platform. Each synthesis call owns a single fresh stream.

Reading, writing and synthesis go a block of `_CHUNK_BYTES` at a time, so
they hold the bit matrix plus one block: the reader never holds the whole
file, and the generator draws its doubles a block of rows at a time.

A row's cells are little-endian uint16 pairs, each a cell byte and the
separator after it (see `_row_layout`). The writer renders a block of rows
with one add of the bits to the pairs' words, then writes the label tags;
the reader takes a block of rows when every pair's word less its cell-0
word is 0 or 1, that difference being the bit, and every tag is its
label's. A block that fails is checked row by row to name its first bad
row.
"""

from __future__ import annotations

import codecs
import itertools
import math
import os
import stat
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator, Sequence

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
# A line longer than this and than any valid header or row is counted, not
# held; a line within a block is never that long.
_LONG_ROW = _CHUNK_BYTES


class DatasetError(ValueError):
    """A dataset file or value violates the dataset contract."""


def _checked_matrix(X, n_features: int) -> np.ndarray:
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d matrix of rows, got shape {X.shape}")
    if X.shape[1] != n_features:
        raise ValueError(f"matrix width {X.shape[1]} does not match model features {n_features}")
    return X


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

    def class_feature_counts(self, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """Instances per class, shape (2,), and 1-bits per class and feature,
        shape (2, F), both int64, over the rows the bool mask `rows` selects
        (every row when None); row 0 is benign, row 1 malware. Each class's
        rows are summed a block of rows at a time, in uint32."""
        ones = np.zeros((2, self.feature_count), dtype=np.int64)
        step = _CHUNK_BYTES // max(self.feature_count, 1) + 1
        for lo in range(0, len(self), step):
            X, y = self.X[lo : lo + step], self.y[lo : lo + step]
            selected = True if rows is None else rows[lo : lo + step]
            for label in (0, 1):
                ones[label] += np.add.reduce(X[(y == label) & selected], axis=0, dtype=np.uint32)
        y = self.y if rows is None else self.y[rows]
        return np.bincount(y, minlength=2).astype(np.int64), ones

    def select_features(self, names: Iterable[str]) -> "Dataset":
        """Project onto the named features, columns ordered as given."""
        names = list(names)
        cols = [self.catalog.index_of(n) for n in names]
        return Dataset(self.catalog.subset(names), self.X[:, cols], self.y)


def read_csv(path, catalog: FeatureCatalog, columns: FeatureCatalog | None = None) -> Dataset:
    """Read a labeled dataset CSV whose header matches `catalog` exactly.

    The format is a UTF-8 header ``name1,...,nameF,class``, then ASCII rows
    of ``0``/``1`` cells and a lowercase ``benign``/``malware`` label, with
    LF, CRLF or lone-CR line ends. Errors name the offending data row and
    column; a file that is not UTF-8 is a :class:`DatasetError` too, so the
    command line exits 2. `columns` is as in :func:`read_vectors`.
    """
    X, y = read_vectors(path, catalog, columns)
    if y is None:
        raise DatasetError(f"{path}: label column absent")
    return Dataset(catalog if columns is None else columns, X, y)


def read_vectors(
    path, catalog: FeatureCatalog, columns: FeatureCatalog | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a dataset CSV, tolerating a missing ``class`` column.

    Returns the bit matrix and the label array, or ``None`` for the labels
    when the file carries no ``class`` column (e.g. scanner output). Only the
    header is decoded, as UTF-8; rows are checked as ASCII bytes, and only
    the first bad row is decoded, to name the fault. With `columns`, a
    sub-catalog of `catalog`, the header may name `columns`' features or
    `catalog`'s, and the matrix holds `columns`' features either way.

    The file is read in blocks of `_CHUNK_BYTES` (see `_whole_lines`), so
    memory holds the matrix and a few blocks, never the whole file nor a
    line longer than any valid one.
    """
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        longest_header = len(",".join([*catalog.names, "class"]).encode("utf-8"))
        longest_row = 2 * len(catalog) - 1 + len(",malware")  # a malware row of the widest columns
        blocks = _whole_lines(f, max(_LONG_ROW, longest_header), max(_LONG_ROW, longest_row))
        try:
            block = next(blocks, None)
        except _LongLine as line:  # too long to be any valid header
            if not line.utf8:
                raise _utf8_error(path, 0) from None
            raise _header_error(path, line.cells, line.last == b",class", len(catalog) + 1) from None
        if block is None:
            raise DatasetError(f"{path}: empty file")
        cut = block.index(b"\n")
        header = _decode(path, block[:cut], 0).split(",")
        if columns is not None and header in (list(columns.names) or [""], [*columns.names, "class"]):
            catalog, columns = columns, None
        names = list(catalog.names)
        labeled = header == names + ["class"]
        if not labeled and header != (names or [""]):  # no columns: an empty header
            raise _header_error(path, len(header), header[-1] == "class", len(names) + 1)
        F = len(names)
        # A good row is what the writer makes of the bits read from it (see
        # `_row_layout`): F cell pairs, each reading its bit above its
        # pair's word, then its tag, which ends at the newline of a benign
        # row; a malware row is one byte longer. It takes at least L bytes
        # of the file (the last L - 1 if it has no line end), so the file's
        # size bounds n.
        pairs, tails = _row_layout(F, labeled)
        tags = tails[:, : len("malware")]  # a malware row's newline is past L
        L = 2 * F + tags.shape[1]
        cols = None if columns is None else [catalog.index_of(name) for name in columns.names]
        # A FIFO reports size 0: the matrix then grows as rows arrive.
        rows = max(0, info.st_size - cut) // L if stat.S_ISREG(info.st_mode) else 0
        X = np.empty((rows, F if cols is None else len(cols)), dtype=np.uint8)
        y = np.empty(rows, dtype=np.uint8)
        n = 0  # rows read
        try:
            for block in itertools.chain((block[cut + 1 :],), blocks):
                buf = np.frombuffer(block, dtype=np.uint8)
                ends = np.flatnonzero(buf == 10)
                starts = np.concatenate(([0], ends[:-1] + 1))
                lengths = ends - starts
                good = (lengths == L - 1) | (lengths == L) & labeled
                m = ends.size if good.all() else int(np.argmin(good))
                labels = (lengths[:m] == L).astype(np.uint8)
                if m:
                    window = sliding_window_view(buf, L)[starts[:m]]
                    bits = window[:, : 2 * F].view("<u2")
                    bits -= pairs  # each cell's bit, or above 1 where a pair is bad
                    cells_ok, tags_ok = bits <= 1, window[:, 2 * F :] == tags[labels]
                    if not (cells_ok.all() and tags_ok.all()):
                        m = int(np.argmin(cells_ok.all(axis=1) & tags_ok.all(axis=1)))
                    if n + m > len(X):  # np.resize copies X's rows into the longer array
                        grown = max(n + m, 2 * len(X))
                        X, y = np.resize(X, (grown, X.shape[1])), np.resize(y, grown)
                    X[n : n + m] = bits[:m] if cols is None else bits[:m, cols]
                    y[n : n + m] = labels[:m]
                if m < ends.size:
                    _raise_bad_row(path, names, labeled, block[starts[m] : ends[m]], n + m + 1)
                n += m
        except _LongLine as row:
            _raise_bad_row(path, names, labeled, row, n + 1)
    return X[:n], y[:n] if labeled else None


class _LongLine(Exception):
    """A line longer than `_whole_lines`' limit: its length in bytes, its
    cell count, whether it is UTF-8 and its last bytes (up to ``,class``),
    counted a block at a time from the file `f` to the line's end."""

    def __init__(self, f, head: bytearray, ended: bool):
        super().__init__()
        decoder = codecs.getincrementaldecoder("utf-8")()
        self.size, self.cells, self.utf8, self.last = 0, 1, True, b""
        part = head
        while True:
            self.size += len(part)
            self.cells += part.count(b",")
            self.last = (self.last + part[-len(",class") :])[-len(",class") :]
            # ASCII after a whole character is UTF-8: only the rest is decoded.
            if self.utf8 and not (part.isascii() and not decoder.getstate()[0]):
                try:
                    decoder.decode(part, final=ended)
                except UnicodeDecodeError:
                    self.utf8 = False
            if ended:
                return
            chunk = f.read(_CHUNK_BYTES)
            end = min(i for i in (chunk.find(b"\n"), chunk.find(b"\r"), len(chunk)) if i >= 0)
            part, ended = chunk[:end], end < len(chunk) or not chunk


def _whole_lines(f, longest_header: int, longest_row: int) -> Iterator[bytearray]:
    """The bytes of the binary file `f`, read `_CHUNK_BYTES` at a time, in
    blocks of whole lines: CRLF and lone CR become LF, as text mode reads
    them, and a last line without a line end gets one. A line is carried
    into the next block while it is incomplete, and so is a block's last
    CR, which may begin a CRLF pair. A header longer than `longest_header`
    bytes, or a data row longer than `longest_row`, is not carried:
    :class:`_LongLine` counts it and is raised instead. Both limits are at
    least a block, so only a carried line can be that long. Each block is
    copied once, into the carried line."""
    carry = bytearray()
    cr = False
    longest = longest_header
    while chunk := f.read(_CHUNK_BYTES):
        if cr:
            chunk = b"\r" + chunk
        cr = chunk.endswith(b"\r")
        if cr:
            chunk = chunk[:-1]
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        cut = chunk.rfind(b"\n") + 1
        end = chunk.find(b"\n") if cut else len(chunk)  # where the carried line stops
        if len(carry) + end > longest:
            raise _LongLine(f, carry + chunk[:end], bool(cut) or cr)
        if cut:
            carry += memoryview(chunk)[:cut]
            yield carry
            carry = bytearray(memoryview(chunk)[cut:])
            longest = longest_row
        else:
            carry += chunk
    if cr or carry:
        carry += b"\n"
        yield carry


def _utf8_error(path, row: int) -> DatasetError:
    return DatasetError(f"{path}: {f'row {row}' if row else 'header'}: not valid UTF-8")


def _decode(path, line: bytes, row: int) -> str:
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError:
        raise _utf8_error(path, row) from None


def _header_error(path, cells: int, class_last: bool, want: int) -> DatasetError:
    """The fault of a header of `cells` cells, whose last cell is ``class``
    when `class_last`, that names neither the catalog's `want` - 1 features
    nor them and ``class``."""
    if not class_last and cells in (want, want - 1):
        return DatasetError(f"{path}: label column absent or misplaced")
    return DatasetError(
        f"{path}: header does not match catalog ({cells} columns, expected {want} including 'class')"
    )


def _raise_bad_row(path, names: list[str], labeled: bool, line: bytes | _LongLine, row: int) -> None:
    """Name the first fault of data row `row`: `line` is its bytes, or the
    `_LongLine` that counted it. A long row whose cell count is right is
    named by its length, as its cells are not held."""
    F = len(names)
    long = isinstance(line, _LongLine)
    if long and not line.utf8:
        raise _utf8_error(path, row)
    cells = None if long else _decode(path, line, row).split(",")
    count = line.cells if long else len(cells)
    if count != F + labeled:
        raise DatasetError(f"{path}: row {row}: expected {F + labeled} cells, got {count}")
    if long:
        raise DatasetError(f"{path}: row {row}: {line.size} bytes, longer than any valid row")
    if labeled and cells[-1] not in ("benign", "malware"):
        raise DatasetError(f"{path}: row {row}: unknown label {cells[-1]!r}")
    col = next(i for i, c in enumerate(cells[:F]) if c not in ("0", "1"))
    raise DatasetError(
        f"{path}: row {row}, column {names[col]!r}: cell must be 0 or 1, got {cells[col]!r}"
    )


def _row_layout(F: int, labeled: bool) -> tuple[np.ndarray, np.ndarray]:
    """How a row of F cells is laid out: its cells as F little-endian uint16
    pairs of a cell byte and the separator after it, here with every cell
    ``0``, so a row's pairs are these words plus its bits; and the rest of
    its tail by label. The last separator is the tail's first byte: the
    comma before a label, or an unlabeled row's newline. A row without cells
    is its bare tail, with no comma before the label."""
    ends = _ROW_ENDS[labeled]
    pairs = np.full(F, ord("0") | ord(",") << 8, dtype="<u2")
    pairs[-1:] = ord("0") | int(ends[0, 0]) << 8
    return pairs, ends[:, int(labeled or F > 0) :]


def _write_rows(path, names: Sequence[str], X: np.ndarray, y: np.ndarray | None) -> None:
    """Write a header and one row per row of `X`, labeled when `y` is given,
    rendering the rows in bounded chunks."""
    labeled = y is not None
    F = X.shape[1]
    pairs, tails = _row_layout(F, labeled)
    step = max(1, _CHUNK_BYTES // (2 * F + tails.shape[1]))
    with open(path, "wb") as f:
        f.write((",".join([*names, "class"] if labeled else names) + "\n").encode("utf-8"))
        for lo in range(0, len(X), step):
            bits = X[lo : lo + step]
            block = np.empty((len(bits), 2 * F + tails.shape[1]), dtype=np.uint8)
            np.add(bits, pairs, out=block[:, : 2 * F].view("<u2"))
            block[:, 2 * F :] = tails[y[lo : lo + step] if labeled else 0]
            f.write(block.tobytes().replace(b"\0", b""))  # drops the pad after each benign tag


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
        xor_features: tuple[str, str, float] | None = None,
    ) -> "SyntheticSpec":
        """Build a spec from named rates; unnamed features get `BACKGROUND_RATE`."""
        F = len(catalog)
        p_ben = np.full(F, BACKGROUND_RATE, dtype=np.float64)
        p_mal = np.full(F, BACKGROUND_RATE, dtype=np.float64)
        for name, (pb, pm) in rates.items():
            i = catalog.index_of(name)
            p_ben[i] = pb
            p_mal[i] = pm
        xor = None
        if xor_features is not None:
            na, nb, q = xor_features
            xor = (catalog.index_of(na), catalog.index_of(nb), float(q))
        return cls(catalog, p_ben, p_mal, n_benign, n_malware, xor)


def load_spec(path, catalog: FeatureCatalog) -> SyntheticSpec:
    """Parse a synthesis spec file.

    The format is CSV rows ``name,p_benign,p_malware`` preceded by directive
    lines ``#n_benign=N``, ``#n_malware=N`` and optionally
    ``#xor=nameA,nameB,q``. Features not listed default to `BACKGROUND_RATE`
    in both classes.
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
        return SyntheticSpec.from_rates(catalog, rates, n_benign, n_malware, xor_features=xor)
    except (ValueError, KeyError) as exc:
        raise DatasetError(f"{path}: {exc}") from None


def synthesize(spec: SyntheticSpec, seed: int) -> Dataset:
    """Draw a dataset from `spec`: a pure function of (spec, seed).

    Instances come out as the benign block followed by the malware block;
    shuffling, when needed, is the evaluation layer's concern. Each bit is an
    independent Bernoulli draw at its class rate unless rewritten by the
    spec's XOR interaction.
    """
    rng = np.random.default_rng(seed)
    F = len(spec.catalog)
    X = np.empty((spec.n_benign + spec.n_malware, F), dtype=np.uint8)
    # Rows are drawn a block at a time into X: PCG64 fills a (300, F) draw
    # and then a (700, F) draw with the doubles of one (1000, F) draw.
    draw = np.empty((max(1, _CHUNK_BYTES // (8 * max(F, 1))), F))
    lo = 0
    for count, p, label_bit in (
        (spec.n_benign, spec.p_benign, 0),
        (spec.n_malware, spec.p_malware, 1),
    ):
        bits = X[lo : lo + count]
        for i in range(0, count, len(draw)):
            u = rng.random(out=draw[: count - i])
            np.less(u, p, out=bits[i : i + len(u)].view(bool))
        if spec.xor_interaction is not None:
            a, b, q = spec.xor_interaction
            for i in range(0, count, len(draw)):
                rows = bits[i : i + len(draw)]
                agree = rng.random(len(rows)) < q
                rows[:, b] = rows[:, a] ^ np.where(agree, label_bit, 1 - label_bit).astype(np.uint8)
        lo += count
    y = np.repeat(np.array([0, 1], dtype=np.uint8), [spec.n_benign, spec.n_malware])
    return Dataset(spec.catalog, X, y)


def stratified_fold_indices(y: Sequence[int], k: int, seed: int) -> list[np.ndarray]:
    """Partition indices 0..n-1 into k folds preserving class proportions.

    Per-class fold sizes differ by at most one. Deterministic given `seed`.
    Each returned index array is sorted ascending. A `k` below 2 is a
    ValueError; a missing class, or one with fewer than `k` rows, is a
    `DatasetError`.
    """
    y = np.asarray(y)
    n_mal = int(np.sum(y == 1))
    n_ben = int(y.size) - n_mal
    smallest = min(n_ben, n_mal)
    message = f"fold count must satisfy 2 <= k <= min class size ({smallest}), got {k}"
    if k < 2:
        raise ValueError(message)
    if not smallest:
        raise DatasetError("stratified folds require both classes present")
    if k > smallest:
        raise DatasetError(message)
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
