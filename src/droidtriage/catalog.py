"""Feature catalog: the registry of detectable features.

A catalog is an ordered list of feature definitions. Each definition names a
feature, assigns it a category (PERMISSION, API, or COMMAND), and records the
literal pattern the scanner looks for. The catalog order defines the bit
positions of every feature vector built against it.

The shipped default catalog holds 179 features: 125 permissions plus 54
API/command attributes.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

PERMISSION = "PERMISSION"
API = "API"
COMMAND = "COMMAND"
CATEGORIES = (PERMISSION, API, COMMAND)

_HEADER = "name,category,pattern"


class CatalogError(ValueError):
    """A catalog file or feature definition violates the catalog contract."""


@dataclass(frozen=True)
class FeatureDef:
    """A single detectable feature.

    Parameters
    ----------
    name : str
        Unique identifier within a catalog.
    category : str
        One of ``PERMISSION``, ``API``, ``COMMAND``.
    pattern : str
        Literal token the scanner searches for. For permissions this is the
        fully qualified permission name.
    """

    name: str
    category: str
    pattern: str

    def __post_init__(self):
        if not self.name:
            raise CatalogError("feature name must be nonempty")
        if self.category not in CATEGORIES:
            raise CatalogError(
                f"unknown category {self.category!r} for feature {self.name!r}"
            )
        if not self.pattern:
            raise CatalogError(f"empty pattern for feature {self.name!r}")


class FeatureSet(Enum):
    """The three feature subsets used for model building.

    PF is all PERMISSION features, AF is all API and COMMAND features, and
    CAPF is their union, i.e. the whole catalog.
    """

    PF = "pf"
    AF = "af"
    CAPF = "capf"


class FeatureCatalog:
    """An ordered, immutable collection of feature definitions.

    The position of a feature in the catalog is the bit position it occupies
    in every feature vector built against the catalog.
    """

    __slots__ = ("features", "_index")

    def __init__(self, features: Iterable[FeatureDef]):
        feats = tuple(features)
        index: dict[str, int] = {}
        for i, f in enumerate(feats):
            if f.name in index:
                raise CatalogError(f"duplicate feature name {f.name!r}")
            index[f.name] = i
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, value):
        raise AttributeError("FeatureCatalog is immutable")

    def __len__(self) -> int:
        return len(self.features)

    def __iter__(self) -> Iterator[FeatureDef]:
        return iter(self.features)

    def __getitem__(self, i: int) -> FeatureDef:
        return self.features[i]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"feature {name!r} not in catalog") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def subset(self, names: Iterable[str]) -> "FeatureCatalog":
        """Sub-catalog containing `names` in the order given."""
        return FeatureCatalog(self.features[self.index_of(n)] for n in names)

    def fingerprint(self) -> str:
        """Order-sensitive hash of the feature names.

        Used to guard trained models against silent feature misalignment:
        two catalogs share a fingerprint exactly when they list the same
        names in the same order.
        """
        digest = hashlib.sha256("\n".join(self.names).encode("utf-8"))
        return digest.hexdigest()


def select_feature_set(catalog: FeatureCatalog, feature_set: FeatureSet) -> FeatureCatalog:
    """Return the sub-catalog for `feature_set`, preserving relative order.

    The category-to-set mapping is fixed: PERMISSION features form PF and
    everything else forms AF, so PF and AF are always disjoint and exhaustive.
    CAPF returns the input catalog unchanged.
    """
    if feature_set is FeatureSet.CAPF:
        return catalog
    if feature_set is FeatureSet.PF:
        return FeatureCatalog(f for f in catalog if f.category == PERMISSION)
    if feature_set is FeatureSet.AF:
        return FeatureCatalog(f for f in catalog if f.category != PERMISSION)
    raise ValueError(f"unknown feature set {feature_set!r}")


def read_lines(path, error: type[Exception]) -> list[str]:
    """The lines of text file `path`, read with universal newlines and
    without the final empty one; bytes that are not UTF-8 raise `error`."""
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError:
        raise error(f"{path}: not valid UTF-8") from None
    return lines[:-1] if lines[-1] == "" else lines


def load_catalog(path) -> FeatureCatalog:
    """Load a catalog from a CSV file.

    The format is UTF-8 text with LF line endings, a ``name,category,pattern``
    header, and one feature per row. Fields must not contain commas, so no
    quoting is involved. Errors report the offending line number.
    """
    lines = read_lines(path, CatalogError)
    if not lines:
        raise CatalogError(f"{path}: no features defined")
    if lines[0] != _HEADER:
        raise CatalogError(f"{path}: line 1: expected header {_HEADER!r}, got {lines[0]!r}")
    feats: list[FeatureDef] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 3:
            raise CatalogError(f"{path}: line {lineno}: expected 3 fields, got {len(cells)}")
        name, category, pattern = cells
        if name in seen:
            raise CatalogError(f"{path}: line {lineno}: duplicate feature name {name!r}")
        seen.add(name)
        try:
            feats.append(FeatureDef(name, category, pattern))
        except CatalogError as exc:
            raise CatalogError(f"{path}: line {lineno}: {exc}") from None
    if not feats:
        raise CatalogError(f"{path}: no features defined")
    return FeatureCatalog(feats)


def write_catalog(catalog: FeatureCatalog, path) -> None:
    """Write `catalog` in the CSV format accepted by :func:`load_catalog`."""
    rows = [_HEADER]
    for f in catalog:
        for field in (f.name, f.category, f.pattern):
            if "," in field or "\n" in field:
                raise CatalogError(f"field {field!r} cannot be written to CSV")
        rows.append(f"{f.name},{f.category},{f.pattern}")
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")


@functools.cache
def default_catalog() -> FeatureCatalog:
    """The shipped 179-feature catalog (125 PERMISSION, 54 API+COMMAND)."""
    ref = resources.files("droidtriage").joinpath("data/default_catalog.csv")
    with resources.as_file(ref) as p:
        return load_catalog(p)
