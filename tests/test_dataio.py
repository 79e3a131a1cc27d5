import numpy as np
import pytest

from fairtriplet.core import TAXONOMY_HASH, ConfigError, savez_deterministic
from fairtriplet.datagen import GeneratorConfig, generate_dataset
from fairtriplet.dataio import (
    load_dataset,
    read_embeddings_csv,
    save_dataset,
    write_embeddings_csv,
    write_summary_csv,
)
from fairtriplet.model import EmbeddingNetwork


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(GeneratorConfig(seed=7, n_pairs=300, input_dim=8))


class TestDatasetFile:
    def test_roundtrip_lossless(self, dataset, tmp_path):
        path = tmp_path / "data.npz"
        save_dataset(path, dataset)
        back = load_dataset(path)
        assert np.array_equal(back.identity_ids, dataset.identity_ids)
        assert np.array_equal(back.countries, dataset.countries)
        assert np.array_equal(back.genders, dataset.genders)
        assert np.array_equal(back.selfie_features, dataset.selfie_features)
        assert np.array_equal(back.doc_features, dataset.doc_features)

    def test_header_fields(self, dataset, tmp_path):
        path = tmp_path / "data.npz"
        save_dataset(path, dataset)
        with np.load(path) as z:
            assert int(z["format_version"]) == 1
            assert int(z["n_pairs"]) == len(dataset)
            assert int(z["input_dim"]) == dataset.input_dim
            assert str(z["taxonomy_hash"]) == TAXONOMY_HASH

    def test_taxonomy_mismatch_rejected(self, dataset, tmp_path):
        path = tmp_path / "data.npz"
        save_dataset(path, dataset)
        with np.load(path) as z:
            entries = {k: z[k] for k in z.files}
        savez_deterministic(path, {**entries, "taxonomy_hash": np.str_("0123456789abcdef")})
        with pytest.raises(ConfigError):
            load_dataset(path)


def rewritten(path, dataset, tmp_path, name, **arrays):
    """A copy of the saved dataset file with some arrays replaced (None
    drops one)."""
    save_dataset(path, dataset)
    with np.load(path) as z:
        entries = {k: z[k] for k in z.files}
    bad = tmp_path / name
    savez_deterministic(bad, {k: v for k, v in {**entries, **arrays}.items() if v is not None})
    return bad


class TestMalformedDatasetFile:
    """Each failure is a ``ConfigError`` that names the file."""

    def check(self, path, problem):
        with pytest.raises(ConfigError, match=problem) as err:
            load_dataset(path)
        assert str(path) in str(err.value)

    def test_non_finite_feature(self, dataset, tmp_path):
        selfie = dataset.selfie_features.copy()
        selfie[17, 3] = np.nan
        self.check(rewritten(tmp_path / "d.npz", dataset, tmp_path, "nan.npz", selfie=selfie),
                   "non-finite features")

    def test_missing_array(self, dataset, tmp_path):
        self.check(rewritten(tmp_path / "d.npz", dataset, tmp_path, "nodoc.npz", doc=None),
                   "doc is not a file")

    def test_unknown_country_code(self, dataset, tmp_path):
        countries = dataset.countries.copy()
        countries[0] = "atlantis"
        self.check(rewritten(tmp_path / "d.npz", dataset, tmp_path, "c.npz", country=countries),
                   "unknown country codes")

    def test_misaligned_column(self, dataset, tmp_path):
        self.check(rewritten(tmp_path / "d.npz", dataset, tmp_path, "g.npz",
                             gender=dataset.genders[:-1]),
                   "column genders has length")

    @pytest.mark.parametrize("content", [b"not a dataset archive", b"", b"PK\x03\x04 cut short"])
    def test_not_a_zip_archive(self, tmp_path, content):
        path = tmp_path / "junk.npz"
        path.write_bytes(content)
        self.check(path, "is malformed")


class TestEmbeddingExport:
    def test_roundtrip_and_contracts(self, dataset, tmp_path):
        net = EmbeddingNetwork.create(8, (8,), 6, "tanh", np.random.default_rng(0))
        path = tmp_path / "emb.csv"
        rows = write_embeddings_csv(path, net, dataset)
        assert rows == 2 * len(dataset)

        ids, countries, genders, domains, vecs = read_embeddings_csv(path)
        assert len(ids) == rows
        assert set(domains.tolist()) == {"selfie", "doc"}
        # unit-norm contract on every exported row
        assert np.abs(np.linalg.norm(vecs, axis=1) - 1.0).max() < 1e-6
        # bit-exact roundtrip against a fresh forward pass
        selfie_rows = domains == "selfie"
        assert np.array_equal(vecs[selfie_rows], net.forward(dataset.selfie_features))
        assert np.array_equal(vecs[~selfie_rows], net.forward(dataset.doc_features))
        assert np.array_equal(ids[selfie_rows], dataset.identity_ids)
        assert np.array_equal(countries[selfie_rows], dataset.countries)


class TestCsvOutputs:
    def test_interrupted_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [{"run": "a", "theta": 0.5}])
        before = path.read_bytes()
        assert before == b"run,theta\r\na,0.5\r\n"

        class Unwritable:
            def __str__(self):
                raise OSError("disk full")

        # Enough rows ahead of the failure to fill the file buffer, so a
        # direct write would leave a truncated file behind.
        rows = [{"run": f"r{i}", "theta": 0.25} for i in range(5000)]
        with pytest.raises(OSError, match="disk full"):
            write_summary_csv(path, rows + [{"run": "bad", "theta": Unwritable()}])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
