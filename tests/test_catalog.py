import pytest

from droidtriage.catalog import (
    CatalogError,
    FeatureCatalog,
    FeatureDef,
    FeatureSet,
    default_catalog,
    load_catalog,
    select_feature_set,
)

from conftest import toy_catalog, write_catalog


class TestDefaultCatalog:
    def test_shipped_sizes(self):
        cat = default_catalog()
        assert len(cat) == 179
        assert len(select_feature_set(cat, FeatureSet.PF)) == 125
        assert len(select_feature_set(cat, FeatureSet.AF)) == 54

    def test_eliminated_permissions_absent(self):
        cat = default_catalog()
        for name in (
            "ADD_VOICEMAIL",
            "SET_POINTER_SPEED",
            "USE_SIP",
            "WRITE_PROFILE",
            "WRITE_SOCIAL_STREAM",
        ):
            assert name not in cat

    def test_reference_features_present(self):
        cat = default_catalog()
        for name in (
            "SEND_SMS",
            "RECEIVE_SMS",
            "READ_SMS",
            "remount",
            "/system/app",
            "chown",
            "createSubprocess",
            "WRITE_SMS",
            "/system/bin/sh",
            "mount",
            "abortBroadcast",
            "READ_PHONE_STATE",
            "TelephonyManager",
            "TelephonyManager_getSubscriberId",
            "chmod",
            "Ljava_net_URLDecoder",
            "ACCESS_NETWORK_STATE",
            "RESTART_PACKAGES",
            "CHANGE_WIFI_STATE",
            "Ljavax_crypto_spec_SecretKeySpec",
        ):
            assert name in cat

    def test_permission_patterns_fully_qualified(self):
        cat = default_catalog()
        i = cat.index_of("SEND_SMS")
        assert cat[i].pattern == "android.permission.SEND_SMS"


class TestSelectFeatureSet:
    def test_pf_af_partition_catalog(self):
        cat = default_catalog()
        pf = select_feature_set(cat, FeatureSet.PF)
        af = select_feature_set(cat, FeatureSet.AF)
        assert set(pf.names) | set(af.names) == set(cat.names)
        assert set(pf.names) & set(af.names) == set()

    def test_capf_returns_input_unchanged(self):
        cat = default_catalog()
        assert select_feature_set(cat, FeatureSet.CAPF) is cat

    def test_subsets_preserve_relative_order(self):
        cat = default_catalog()
        pf = select_feature_set(cat, FeatureSet.PF)
        positions = [cat.index_of(n) for n in pf.names]
        assert positions == sorted(positions)


class TestValidation:
    def test_duplicate_name_rejected(self):
        with pytest.raises(CatalogError, match="duplicate"):
            FeatureCatalog(
                [FeatureDef("a", "API", "x"), FeatureDef("a", "COMMAND", "y")]
            )

    def test_empty_pattern_rejected(self):
        with pytest.raises(CatalogError, match="pattern"):
            FeatureDef("a", "API", "")

    def test_unknown_category_rejected(self):
        with pytest.raises(CatalogError, match="category"):
            FeatureDef("a", "permission", "x")

    def test_index_of_missing(self):
        with pytest.raises(KeyError):
            toy_catalog(3).index_of("nope")


class TestCatalogFile:
    def test_round_trip(self, tmp_path):
        cat = default_catalog()
        path = tmp_path / "cat.csv"
        write_catalog(cat, path)
        back = load_catalog(path)
        assert back.features == cat.features

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CatalogError, match="no features defined"):
            load_catalog(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("name,category,pattern\n")
        with pytest.raises(CatalogError, match="no features defined"):
            load_catalog(path)

    def test_duplicate_row_names_error_with_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "name,category,pattern\n"
            "SEND_SMS,PERMISSION,android.permission.SEND_SMS\n"
            "SEND_SMS,PERMISSION,android.permission.SEND_SMS\n"
        )
        with pytest.raises(CatalogError, match="line 3.*duplicate"):
            load_catalog(path)

    def test_unknown_category_error_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,category,pattern\na,WEIRD,x\n")
        with pytest.raises(CatalogError, match="line 2"):
            load_catalog(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_catalog(tmp_path / "absent.csv")

    def test_fingerprint_is_order_sensitive(self):
        a = FeatureCatalog([FeatureDef("a", "API", "x"), FeatureDef("b", "API", "y")])
        b = FeatureCatalog([FeatureDef("b", "API", "y"), FeatureDef("a", "API", "x")])
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == FeatureCatalog(a.features).fingerprint()
