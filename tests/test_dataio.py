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
