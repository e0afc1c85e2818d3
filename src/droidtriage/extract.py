"""Directory scanner that turns an unpacked app tree into a feature vector.

The scanner works on plain files: the manifest ``AndroidManifest.xml`` at the
tree root supplies PERMISSION bits, and every other regular file under the
root (recursively) supplies API and COMMAND bits. Matching is raw,
case-sensitive substring search on bytes, so patterns are found inside
binary blobs as well as text. Permission names must additionally stand alone
as tokens: an occurrence flanked by identifier characters does not count, so
SEND_SMS never fires inside SEND_SMS_EXTRA.

Files are read in chunks that overlap by one byte less than the longest
pattern, and each chunk is searched for every pattern in one pass; the
manifest's overlap by one byte more, so a token's neighbours are read. FIFOs,
sockets, devices and symlinks whose target lies outside the root are skipped.

Bit contributions from individual files combine with OR, which makes the
result independent of traversal order.
"""

from __future__ import annotations

import os
import stat
import warnings
from pathlib import Path

import numpy as np

from .catalog import PERMISSION, FeatureCatalog
from .dataset import _block_len

MANIFEST_NAME = "AndroidManifest.xml"

_IDENT = frozenset(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")
_FOUR = np.arange(4)


def _contains_token(data: bytes, pattern: bytes) -> bool:
    """True when `pattern` occurs in `data` between non-identifier bytes of
    `data`, so neither at its start nor at its end."""
    start, stop = 1, len(data) - 1
    while (pos := data.find(pattern, start, stop)) >= 0:
        if data[pos - 1] not in _IDENT and data[pos + len(pattern)] not in _IDENT:
            return True
        start = pos + 1
    return False


class _PatternIndex:
    """Attribute patterns keyed for a one-pass search of a buffer.

    A pattern of 4 bytes or more can start only where the buffer's two bytes
    pass `first2` and its four bytes equal one of `prefixes`; each such
    position is confirmed against the patterns in `by_prefix`. Shorter
    patterns are searched for one by one.
    """

    def __init__(self, patterns: dict[int, bytes]):
        self.short = [(i, p) for i, p in patterns.items() if len(p) < 4]
        self.first2 = np.zeros(1 << 16, dtype=bool)
        self.by_prefix: dict[int, list[tuple[int, bytes]]] = {}
        for i, p in patterns.items():
            if len(p) >= 4:
                self.first2[p[0] | p[1] << 8] = True
                self.by_prefix.setdefault(int.from_bytes(p[:4], "little"), []).append((i, p))
        self.prefixes = np.array(sorted(self.by_prefix), dtype="<u4")
        self.overlap = max(map(len, patterns.values())) - 1

    def take_matches(self, buf: bytes, pending: set[int]) -> list[int]:
        """The indices in `pending` whose pattern occurs in `buf`, removed
        from `pending`."""
        found = [i for i, p in self.short if i in pending and p in buf]
        pending.difference_update(found)
        starts = len(buf) - 3  # positions with four bytes left
        if starts <= 0 or not self.by_prefix:
            return found
        at = np.concatenate((
            np.flatnonzero(self.first2.take(np.frombuffer(buf, "<u2", (starts + 1) // 2))) * 2,
            np.flatnonzero(self.first2.take(np.frombuffer(buf, "<u2", starts // 2, 1))) * 2 + 1,
        ))
        keys = np.frombuffer(buf, np.uint8)[at[:, None] + _FOUR].view("<u4")[:, 0]
        slot = np.minimum(np.searchsorted(self.prefixes, keys), len(self.prefixes) - 1)
        hit = self.prefixes[slot] == keys
        for pos, key in zip(at[hit].tolist(), keys[hit].tolist()):
            for i, p in self.by_prefix[key]:
                if i in pending and buf.startswith(p, pos):
                    pending.discard(i)
                    found.append(i)
        return found


def _open_regular(path: Path, inside: Path):
    """`path` opened for unbuffered binary reading, or None when it is not a
    regular file (FIFO, socket, device, directory) or is a symlink whose
    target lies outside the directory `inside`.

    The type is checked on the open descriptor, so nothing can swap the file
    between the check and the read; the non-blocking open returns at once
    on a FIFO that no process writes to.
    """
    if path.is_symlink() and not Path(os.path.realpath(path)).is_relative_to(inside):
        return None
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        return None
    return os.fdopen(fd, "rb", buffering=0)


def _scan_manifest(f, tokens: dict[int, bytes], bits: np.ndarray) -> None:
    """Set the bits of the permission `tokens` that stand alone in the open
    manifest `f`; reading stops once all are found. A chunk is searched
    behind the last bytes before it, as many as the longest token has, and
    ahead of the byte after it; a newline stands before the file and after
    it."""
    keep = max(map(len, tokens.values()), default=0)
    tail, data = b"\n", f.read(_block_len(1))
    while tokens:
        ahead = f.read(_block_len(1))
        buf = b"".join((tail, data, ahead[:1] or b"\n"))
        found = [i for i, token in tokens.items() if _contains_token(buf, token)]
        bits[found] = 1
        for i in found:
            del tokens[i]
        if not ahead:
            break
        tail, data = buf[-keep - 1 : -1], ahead


def _scan_file(f, index: _PatternIndex, pending: set[int], bits: np.ndarray) -> None:
    """Set the bits of the `pending` patterns found in the open file `f` and
    remove them from `pending`. Reading stops once none is left."""
    tail = b""
    while pending:
        data = f.read(_block_len(1))
        if not data:
            break
        buf = tail + data
        bits[index.take_matches(buf, pending)] = 1
        tail = buf[-index.overlap:] if index.overlap else b""


def scan_app(root, catalog: FeatureCatalog) -> np.ndarray:
    """Scan the unpacked app tree at `root` against `catalog`.

    Returns a uint8 bit vector aligned to the catalog. A missing manifest
    leaves every PERMISSION bit at 0 and emits a warning instead of aborting,
    so partial trees still yield the attribute bits.
    """
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"{root} is not a readable directory")
    inside = root.resolve()

    patterns = [f.pattern.encode("utf-8") for f in catalog]
    bits = np.zeros(len(catalog), dtype=np.uint8)

    manifest = root / MANIFEST_NAME
    try:
        f = _open_regular(manifest, inside)
    except FileNotFoundError:
        warnings.warn(f"{manifest} missing; permission bits left at 0", stacklevel=2)
    else:
        if f is None:
            warnings.warn(
                f"{manifest} is not a regular file inside the app tree; permission bits left at 0",
                stacklevel=2,
            )
        else:
            with f:
                tokens = {i: patterns[i] for i, feat in enumerate(catalog) if feat.category == PERMISSION}
                _scan_manifest(f, tokens, bits)

    pending = {i for i, f in enumerate(catalog) if f.category != PERMISSION}
    if not pending:
        return bits
    index = _PatternIndex({i: patterns[i] for i in pending})
    for dirpath, _dirnames, filenames in os.walk(root):
        for fname in filenames:
            path = Path(dirpath) / fname
            if path == manifest:
                continue
            try:
                f = _open_regular(path, inside)
                if f is None:
                    continue
                with f:
                    _scan_file(f, index, pending, bits)
            except OSError:
                continue
            if not pending:
                return bits
    return bits
