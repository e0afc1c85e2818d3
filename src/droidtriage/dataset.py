"""Labeled binary feature vectors: CSV I/O and the synthetic corpus generator.

A dataset pairs a feature catalog with an instance matrix of {0,1} bits and a
benign/malware label per instance. The synthetic generator draws each feature
independently per class from configurable Bernoulli rates, optionally forcing
an XOR interaction between two features and the label, which Bernoulli
marginals cannot express.

Randomness comes from numpy's default PCG64 generator, which has a fixed,
documented algorithm, so a (spec, seed) pair reproduces the same dataset on
every platform. Each synthesis call owns a single fresh stream.

`_CHUNK_BYTES` is the one block size of every layer: `_block_len` turns an
item's width in bytes into items per block, and `_blocks` cuts a range into
such blocks. `_read_blocks` checks a file's rows and `_synthesized_blocks`
draws a corpus's rows a block at a time. A command holds what it keeps of
the blocks: `read_class_counts` (rank) and `write_synthesized` (synth) one
block; `read_packed` (predict, roc) the rows at 1 bit per cell, as
`PackedRows`, and the labels, plus one block; `read_vectors` (train,
compare) those and the bit matrix it unpacks them into a block at a time.
No reader holds the whole file.

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
import errno
import itertools
import math
import os
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator, NamedTuple, Sequence

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
_CHUNK_BYTES = 1 << 18  # 1 MiB blocks scanned app files no faster and raised a 64-app scan's peak RSS by a fifth
# A line longer than this and than any valid header or row is counted, not
# held; a line within a block is never that long.
_LONG_ROW = _CHUNK_BYTES
_PACK_ROWS = 4096  # rows per packing block of `PackedRows.pack`, a multiple of 64
_BYTE_BITS = (1 << np.arange(8)).astype(np.uint8)  # row r of 8 is bit r of a byte


def _block_len(item_bytes: int) -> int:
    """Items of `item_bytes` bytes (0 counts as 1) per block of `_CHUNK_BYTES`, at least one."""
    return max(1, _CHUNK_BYTES // max(item_bytes, 1))


def _blocks(n: int, item_bytes: int) -> Iterator[slice]:
    """``range(n)`` as slices of `_block_len(item_bytes)` items, the last shorter."""
    step = _block_len(item_bytes)
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


class DatasetError(ValueError):
    """A dataset file or value violates the dataset contract."""


@dataclass(frozen=True, eq=False)
class PackedRows:
    """Rows of F bits held at 1 bit per cell, as the row sets tree scoring
    descends: ``sets[f]`` holds, in ``ceil(n_rows / 64)`` uint64 words, the
    rows whose bit f is set, and ``sets[F]`` holds every row. Bit j of word w
    stands for row 64 w + j; the bits past the last row are 0. ``rows[lo:hi]``
    unpacks rows lo to hi as a C-ordered (hi - lo, F) uint8 matrix, so a
    scorer that reads a block of rows reads a matrix or packed rows alike."""

    sets: np.ndarray
    n_rows: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_rows, self.sets.shape[0] - 1

    def __getitem__(self, rows: slice) -> np.ndarray:
        lo, hi, _ = rows.indices(self.n_rows)
        words = self.sets[:-1, lo // 64 : -(-hi // 64)]
        bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
        return np.ascontiguousarray(bits[:, lo % 64 : lo % 64 + max(hi - lo, 0)].T)

    @classmethod
    def pack(cls, blocks: Iterable[np.ndarray], n_features: int) -> "PackedRows":
        """The rows of `blocks`, each an (m, n_features) matrix whose nonzero
        cells are set bits. Rows are gathered into one staging block of
        `_PACK_ROWS` rows and packed from there, so memory holds the sets,
        a copy of them while they are joined, and one block."""
        F = n_features
        stage = np.empty((_PACK_ROWS, F + 1), dtype=np.uint8)
        stage[:, F] = 1
        parts, staged = [], 0

        def pack_stage() -> None:
            padded = stage[: -(-staged // 64) * 64]
            padded[staged:] = 0
            packed = np.einsum("rbf,b->fr", padded.reshape(-1, 8, F + 1), _BYTE_BITS, dtype=np.uint8)
            parts.append(np.ascontiguousarray(packed).view(np.uint64))

        n = 0
        for block in blocks:
            lo = 0
            while lo < len(block):
                m = min(len(block) - lo, _PACK_ROWS - staged)
                np.not_equal(block[lo : lo + m], 0, out=stage[staged : staged + m, :F].view(bool))
                staged, lo, n = staged + m, lo + m, n + m
                if staged == _PACK_ROWS:
                    pack_stage()
                    staged = 0
        if staged:
            pack_stage()
        return cls(np.concatenate(parts, axis=1) if parts else np.zeros((F + 1, 0), np.uint64), n)


def _checked_matrix(X, n_features: int):
    """`X` as a 2-d matrix of rows, or as the `PackedRows` it is, `n_features` wide."""
    if not isinstance(X, PackedRows):
        X = np.asarray(X)
        if X.ndim != 2:
            raise ValueError(f"expected a 2-d matrix of rows, got shape {X.shape}")
    if X.shape[1] != n_features:
        raise ValueError(f"matrix width {X.shape[1]} does not match model features {n_features}")
    return X


def _packed(X, n_features: int) -> PackedRows:
    """`X` as row sets: itself when it is `PackedRows`, else its matrix packed."""
    X = _checked_matrix(X, n_features)
    return X if isinstance(X, PackedRows) else PackedRows.pack([X], n_features)


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
        counts, ones = np.zeros(2, dtype=np.int64), np.zeros((2, self.feature_count), dtype=np.int64)
        for s in _blocks(len(self), self.feature_count):
            _add_class_bits(counts, ones, self.X[s], self.y[s], True if rows is None else rows[s])
        return counts, ones

    def select_features(self, names: Iterable[str]) -> "Dataset":
        """Project onto the named features, columns ordered as given."""
        names = list(names)
        cols = [self.catalog.index_of(n) for n in names]
        return Dataset(self.catalog.subset(names), self.X[:, cols], self.y)


def _add_class_bits(counts, ones, X, y, selected=True) -> None:
    """Add the rows of the block `X` that `selected` selects (a bool mask,
    or True for all) to `counts`, rows per class, and `ones`, 1-bits per
    class and feature; each class's rows are summed in uint32."""
    for label in (0, 1):
        chosen = (y == label) & selected
        counts[label] += np.count_nonzero(chosen)
        ones[label] += np.add.reduce(X[chosen], axis=0, dtype=np.uint32)


def _no_labels(path) -> DatasetError:
    return DatasetError(f"{path}: label column absent")


def read_csv(path, catalog: FeatureCatalog, columns: FeatureCatalog | None = None) -> Dataset:
    """Read a labeled dataset CSV whose header matches `catalog` exactly.

    The format is a UTF-8 header ``name1,...,nameF,class``, then ASCII rows
    of ``0``/``1`` cells and a lowercase ``benign``/``malware`` label, with
    LF, CRLF or lone-CR line ends. Errors name the offending data row and
    column; a file that is not UTF-8 is a :class:`DatasetError` too, so the
    command line exits 2. `columns` is as in :func:`read_packed`.
    """
    X, y = read_vectors(path, catalog, columns)
    if y is None:
        raise _no_labels(path)
    return Dataset(catalog if columns is None else columns, X, y)


def read_vectors(
    path, catalog: FeatureCatalog, columns: FeatureCatalog | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """`read_packed`, faults and all, with the rows as a bit matrix: each
    block of rows is unpacked into it, so memory holds the matrix, the rows
    at 1 bit per cell and a few blocks, from a file or a pipe alike."""
    rows, y = read_packed(path, catalog, columns)
    X = np.empty(rows.shape, dtype=np.uint8)
    for s in _blocks(*rows.shape):
        X[s] = rows[s]
    return X, y


def read_class_counts(
    path, catalog: FeatureCatalog, columns: FeatureCatalog | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``read_csv(path, catalog, columns).class_feature_counts()``, with the
    same faults, summed a block at a time: memory holds one block."""
    blocks = _read_blocks(path, catalog, columns)
    header = next(blocks)
    counts, ones = np.zeros(2, dtype=np.int64), np.zeros((2, header.width), dtype=np.int64)
    for bits, labels in blocks:
        if header.labeled:
            _add_class_bits(counts, ones, bits, labels)
    if not header.labeled:  # named after every row is checked, as read_csv names it
        raise _no_labels(path)
    return counts, ones


def read_packed(
    path, catalog: FeatureCatalog, columns: FeatureCatalog | None = None
) -> tuple[PackedRows, np.ndarray | None]:
    """Read a dataset CSV, tolerating a missing ``class`` column.

    Returns the rows as `PackedRows` and the label array, or ``None`` for the
    labels when the file carries no ``class`` column (e.g. scanner output).
    Only the header is decoded, as UTF-8; rows are checked as ASCII bytes,
    and only the first bad row is decoded, to name the fault. With
    `columns`, a sub-catalog of `catalog`, the header may name `columns`'
    features or `catalog`'s, and the rows hold `columns`' features either way.

    The rows come from `_read_blocks`, and each block is packed as it is
    checked, so memory holds 1 bit a cell, the labels and a few blocks,
    never the whole file nor a line longer than any valid one.
    """
    blocks = _read_blocks(path, catalog, columns)
    header = next(blocks)
    labels = [np.empty(0, dtype=np.uint8)]  # each block's, kept as its bits are packed
    rows = PackedRows.pack((labels.append(y) or bits for bits, y in blocks), header.width)
    return rows, np.concatenate(labels) if header.labeled else None


class _Header(NamedTuple):
    """What a dataset CSV's header tells before any row is read."""

    width: int  # bits in each row of the blocks
    labeled: bool


def _read_blocks(path, catalog: FeatureCatalog, columns: FeatureCatalog | None = None):
    """Check the rows of a dataset CSV a block at a time, as `read_packed`
    reads them: a generator whose first item is the file's `_Header`, and
    each later item a block of good rows as (bits, labels). The bits are an
    (m, width) matrix of 0/1 integers, valid only until the next block, and
    the labels the block's own uint8 array, or None when the file is
    unlabeled. A bad row raises :class:`DatasetError` when its block is
    reached. The file is open while the generator runs, and is closed when
    it ends or is closed or collected unfinished.

    The file is read in blocks of `_CHUNK_BYTES` (see `_whole_lines`).
    """
    with open(path, "rb") as f:
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
        cut = int(np.argmax(np.frombuffer(block, dtype=np.uint8) == 10))
        header = _decode(path, bytes(block[:cut]), 0).split(",")
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
        # row; a malware row is one byte longer.
        pairs, tails = _row_layout(F, labeled)
        tags = tails[:, : len("malware")]  # a malware row's newline is past L
        L = 2 * F + tags.shape[1]
        cols = None if columns is None else [catalog.index_of(name) for name in columns.names]
        yield _Header(F if cols is None else len(cols), labeled)
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
                if m < ends.size:
                    _raise_bad_row(path, names, labeled, bytes(block[starts[m] : ends[m]]), n + m + 1)
                if m:
                    yield bits if cols is None else bits[:, cols], labels if labeled else None
                n += m
        except _LongLine as row:
            _raise_bad_row(path, names, labeled, row, n + 1)


class _LongLine(Exception):
    """A line longer than `_whole_lines`' limit: its length in bytes, its
    cell count, whether it is UTF-8 and its last bytes (up to ``,class``),
    counted a block at a time from the file `f` to the line's end. A hole
    of a sparse file is skipped, not read: its bytes are NULs, which hold
    no comma or line end and are ASCII, so one NUL stands for them all in
    every check but the length."""

    def __init__(self, f, head: bytes, ended: bool):
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
            if hole := _hole_size(f):
                self.size += hole - 1
                part = b"\0"
                continue
            chunk = f.read(_CHUNK_BYTES)
            end = min(i for i in (chunk.find(b"\n"), chunk.find(b"\r"), len(chunk)) if i >= 0)
            part, ended = chunk[:end], end < len(chunk) or not chunk


def _hole_size(f) -> int:
    """The bytes from the position of the binary file `f` to its next data,
    skipping them: a hole of a sparse file, which reads as NULs. 0 where
    there is no hole, or where the file cannot tell (a pipe, or a system
    without ``SEEK_DATA``)."""
    try:
        pos = f.tell()
        try:
            return f.seek(pos, os.SEEK_DATA) - pos
        except OSError as exc:
            if exc.errno != errno.ENXIO:
                raise
            return f.seek(0, os.SEEK_END) - pos  # no data past pos
    except (OSError, AttributeError):
        return 0


def _whole_lines(f, longest_header: int, longest_row: int) -> Iterator[memoryview]:
    """The bytes of the binary file `f`, read `_CHUNK_BYTES` at a time, in
    blocks of whole lines: CRLF and lone CR become LF, as text mode reads
    them, and a last line without a line end gets one. A line is carried
    into the next block while it is incomplete, and so is a block's last
    CR, which may begin a CRLF pair. A header longer than `longest_header`
    bytes, or a data row longer than `longest_row`, is not carried:
    :class:`_LongLine` counts it and is raised instead. Both limits are at
    least a block, so only a carried line can be that long.

    Every block is a view of one buffer, read into behind the carried line,
    so a block is valid only until the next one is asked for."""
    buf = bytearray(max(longest_header, longest_row, _CHUNK_BYTES + 1) + 2 + _CHUNK_BYTES)
    view = memoryview(buf)
    carry = 0  # bytes of the incomplete line at the buffer's start
    cr = False  # whether a CR was held back after them
    longest = longest_header
    while got := f.readinto(view[carry + cr : carry + cr + _CHUNK_BYTES]):
        if cr:
            buf[carry] = ord("\r")
        end = carry + cr + got
        cr = buf[end - 1] == ord("\r")
        end -= cr
        if buf.find(b"\r", carry, end) >= 0:
            chunk = bytes(view[carry:end]).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            end = carry + len(chunk)
            view[carry:end] = chunk
        cut = buf.rfind(b"\n", carry, end) + 1
        first = buf.find(b"\n", carry, end) if cut else end  # where the carried line stops
        if first > longest:
            raise _LongLine(f, bytes(view[:first]), bool(cut) or cr)
        if cut:
            yield view[:cut]
            view[: end - cut] = view[cut:end]
            carry = end - cut
            longest = longest_row
        else:
            carry = end
    if cr or carry:
        buf[carry] = ord("\n")
        yield view[: carry + 1]


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


def _write_rows(path, names: Sequence[str], blocks: Iterable[tuple], labeled: bool) -> None:
    """Write a header and the rows of `blocks`, each (bits, labels), a block
    at a time; rows are labeled when `labeled`, and labels are then ignored."""
    F = len(names)
    pairs, tails = _row_layout(F, labeled)
    with open(path, "wb") as f:
        f.write((",".join([*names, "class"] if labeled else names) + "\n").encode("utf-8"))
        for bits, labels in blocks:
            block = np.empty((len(bits), 2 * F + tails.shape[1]), dtype=np.uint8)
            np.add(bits, pairs, out=block[:, : 2 * F].view("<u2"))
            block[:, 2 * F :] = tails[labels if labeled else 0]
            f.write(block.tobytes().replace(b"\0", b""))  # drops the pad after each benign tag


def write_csv(dataset: Dataset, path) -> None:
    """Write `dataset` in the CSV format accepted by :func:`read_csv`.

    Round-trips bit for bit: ``read_csv(write_csv(d)) == d``.
    """
    X, y = dataset.X, dataset.y
    blocks = ((X[s], y[s]) for s in _blocks(len(X), 2 * X.shape[1] + len("malware\n")))
    _write_rows(path, dataset.catalog.names, blocks, True)


def write_vector_csv(catalog: FeatureCatalog, bits, path, label: Label | None = None) -> None:
    """Write a single feature vector, optionally labeled (scanner output)."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape != (len(catalog),):
        raise DatasetError(
            f"vector length {bits.shape} does not match catalog size {len(catalog)}"
        )
    labels = None if label is None else np.array([Label(label)], dtype=np.uint8)
    _write_rows(path, catalog.names, [((bits != 0)[None, :], labels)], label is not None)


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
            if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails both
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
    spec's XOR interaction. The rows are `_synthesized_blocks`'.
    """
    X = np.empty((spec.n_benign + spec.n_malware, len(spec.catalog)), dtype=np.uint8)
    lo = 0
    for bits, _ in _synthesized_blocks(spec, seed):
        X[lo : lo + len(bits)] = bits
        lo += len(bits)
    y = np.repeat(np.array([0, 1], dtype=np.uint8), [spec.n_benign, spec.n_malware])
    return Dataset(spec.catalog, X, y)


def write_synthesized(spec: SyntheticSpec, seed: int, path) -> None:
    """Write ``synthesize(spec, seed)`` as :func:`write_csv` writes it, each
    block of rows as it is drawn: memory holds one block, whatever the
    spec's row counts."""
    _write_rows(path, spec.catalog.names, _synthesized_blocks(spec, seed), True)


def _synthesized_blocks(spec: SyntheticSpec, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The rows of ``synthesize(spec, seed)``, a block at a time, as (bits,
    labels) arrays that are reused for the next block.

    One stream draws each class's bits, then its XOR draws, one per row.
    PCG64 fills a (300, F) draw and then a (700, F) draw with the doubles
    of one (1000, F) draw, so rows are drawn a block at a time; each block's
    XOR draws come from a copy of the stream advanced past the class's F
    doubles per row, and the stream goes on from that copy.
    """
    rng = np.random.default_rng(seed)
    F = len(spec.catalog)
    draw = np.empty((_block_len(8 * F), F))
    bits = np.empty(draw.shape, dtype=np.uint8)
    for count, p, label_bit in (
        (spec.n_benign, spec.p_benign, 0),
        (spec.n_malware, spec.p_malware, 1),
    ):
        labels = np.full(len(draw), label_bit, dtype=np.uint8)
        if spec.xor_interaction is not None:
            a, b, q = spec.xor_interaction
            xor_stream = np.random.PCG64()
            xor_stream.state = rng.bit_generator.state
            xor_stream.advance(count * F)
            xor_rng = np.random.Generator(xor_stream)
        for i in range(0, count, len(draw)):
            u = rng.random(out=draw[: count - i])
            rows = bits[: len(u)]
            np.less(u, p, out=rows.view(bool))
            if spec.xor_interaction is not None:
                agree = xor_rng.random(len(rows)) < q
                rows[:, b] = rows[:, a] ^ np.where(agree, label_bit, 1 - label_bit).astype(np.uint8)
            yield rows, labels[: len(rows)]
        if spec.xor_interaction is not None:
            rng = xor_rng


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
