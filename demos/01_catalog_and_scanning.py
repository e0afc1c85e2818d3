"""Tour of the feature catalog and the directory scanner.

Builds a tiny fake app tree on disk, scans it against the shipped
179-feature catalog, and shows which bits light up.
"""

import tempfile
from pathlib import Path

from droidtriage import FeatureSet, default_catalog, scan_app, select_feature_set

catalog = default_catalog()
print(f"shipped catalog: {len(catalog)} features")
for fs in FeatureSet:
    sub = select_feature_set(catalog, fs)
    print(f"  {fs.value:5s}: {len(sub)} features")

print("\nfirst few definitions per category:")
seen = set()
for feat in catalog:
    if feat.category not in seen:
        seen.add(feat.category)
        print(f"  {feat.category:10s} {feat.name!r} -> pattern {feat.pattern!r}")

# A minimal unpacked app: a manifest plus a couple of "code" files.
with tempfile.TemporaryDirectory(prefix="droidtriage-demo-") as tmp:
    workdir = Path(tmp)
    app = workdir / "suspicious_app"
    app.mkdir()
    (app / "AndroidManifest.xml").write_text(
        '<manifest>\n'
        '  <uses-permission android:name="android.permission.SEND_SMS"/>\n'
        '  <uses-permission android:name="android.permission.READ_PHONE_STATE"/>\n'
        '  <uses-permission android:name="android.permission.INTERNET"/>\n'
        '</manifest>\n'
    )
    (app / "classes.smali").write_text(
        "invoke-virtual {v0}, Landroid/telephony/TelephonyManager;->getSubscriberId()\n"
        "invoke-static {}, Landroid/os/Exec;->createSubprocess()\n"
    )
    (app / "assets" / "payload").parent.mkdir(parents=True)
    (app / "assets" / "payload").write_bytes(b"\x7fELF...pm install /data/local/tmp/extra.apk\x00")

    bits = scan_app(app, catalog)
    print(f"\nscanned {app.name}: {int(bits.sum())} of {len(catalog)} bits set")
    for i in bits.nonzero()[0]:
        feat = catalog[i]
        print(f"  bit {i:3d} {feat.category:10s} {feat.name}")
