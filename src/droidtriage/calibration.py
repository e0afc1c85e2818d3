"""Reference corpus statistics used to calibrate the synthetic generator.

The original model-building corpus (6863 apps: 3938 benign, 2925 malware) is
proprietary and cannot be shipped. What is public is the per-class occurrence
count of its 20 highest-ranked features. Those counts, converted to rates,
drive the shipped synthesis spec so that generated corpora reproduce the
published feature-vs-class frequency structure; every other catalog feature
falls back to an uninformative background rate.

Two rows of ``REFERENCE_TOP20_COUNTS`` are misprints in the published table:
the counts of RESTART_PACKAGES and CHANGE_WIFI_STATE do not yield their
published scores, while swapping two adjacent digits of one count does. They
are kept here as printed, so seeded corpora do not change; the diagnosis is
in ``tests/test_ranking.py``.
"""

from __future__ import annotations

from .catalog import FeatureCatalog, default_catalog
from .dataset import SyntheticSpec

REFERENCE_N_BENIGN = 3938
REFERENCE_N_MALWARE = 2925

# (feature name, occurrences among benign, occurrences among malware)
REFERENCE_TOP20_COUNTS = (
    ("SEND_SMS", 128, 1557),
    ("RECEIVE_SMS", 127, 976),
    ("READ_SMS", 140, 900),
    ("remount", 30, 628),
    ("/system/app", 55, 687),
    ("chown", 51, 668),
    ("createSubprocess", 5, 531),
    ("WRITE_SMS", 89, 720),
    ("/system/bin/sh", 36, 596),
    ("mount", 146, 810),
    ("abortBroadcast", 48, 618),
    ("READ_PHONE_STATE", 2016, 2378),
    ("TelephonyManager", 2168, 2451),
    ("TelephonyManager_getSubscriberId", 480, 1094),
    ("chmod", 459, 999),
    ("Ljava_net_URLDecoder", 1539, 445),
    ("ACCESS_NETWORK_STATE", 2973, 1453),
    ("RESTART_PACKAGES", 142, 597),
    ("CHANGE_WIFI_STATE", 297, 756),
    ("Ljavax_crypto_spec_SecretKeySpec", 1719, 592),
)


def reference_rates() -> dict[str, tuple[float, float]]:
    """Per-class occurrence rates of the 20 reference features."""
    return {
        name: (ben / REFERENCE_N_BENIGN, mal / REFERENCE_N_MALWARE)
        for name, ben, mal in REFERENCE_TOP20_COUNTS
    }


def reference_spec(catalog: FeatureCatalog | None = None) -> SyntheticSpec:
    """Synthesis spec mirroring the reference corpus shape (3938/2925).

    The 20 reference features carry their observed per-class rates; all other
    features sit at `BACKGROUND_RATE` in both classes, mimicking the long tail
    of weakly informative features.
    """
    if catalog is None:
        catalog = default_catalog()
    return SyntheticSpec.from_rates(
        catalog,
        reference_rates(),
        n_benign=REFERENCE_N_BENIGN,
        n_malware=REFERENCE_N_MALWARE,
    )
