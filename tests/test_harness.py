import ctypes
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fairtriplet.config import (
    EvalConfig,
    ExperimentConfig,
    SamplerConfig,
    config_from_dict,
    load_config,
)
from fairtriplet.core import CONTINENTS, ConfigError, axis_groups
from fairtriplet.datagen import GeneratorConfig, generate_dataset
from fairtriplet.dataio import read_embeddings_csv, save_dataset
from fairtriplet import harness
from fairtriplet.harness import (
    aggregate_reports,
    export_embeddings,
    latest_checkpoint,
    run_eval,
    run_training,
    write_summary_csv,
)
from fairtriplet.model import TrainingConfig


def tiny_config(tmp_path, name="run", variant="natural", seed=5, **kw):
    sampler = SamplerConfig(variant=variant, axis="continent",
                            weights="equal" if variant in ("fixed", "homogeneous") else None)
    defaults = dict(
        seed=seed,
        output_dir=str(tmp_path / name),
        data=GeneratorConfig(n_pairs=1500, input_dim=16),
        training=TrainingConfig(total_steps=6, batch_n=128, minibatch_size=32,
                                hidden_dims=(16,), embed_dim=8),
        sampler=sampler,
        eval=EvalConfig(target_far=1e-2, n_eval_pairs=300, group_pool_size=60,
                        validation_every=3, roc_points=12),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


REPO = Path(__file__).resolve().parent.parent

# (config_hash, model_hash) of each preset, by path under configs/; a change
# here invalidates every run directory and checkpoint made with that preset.
# The five desk presets equal the acceptance gate's desk runs.
PRESET_HASHES = {
    "adjusted.yaml": ("14d9cb2f288e17bc", "c0313cdb71ee7684"),
    "country_adjusted.yaml": ("3568924a21cbf91f", "b6fc9eb9258ebfd0"),
    "dynamic.yaml": ("4488af9cfd021442", "b8ae5b4ffeaa6b1a"),
    "equal.yaml": ("40006cc83d4070bf", "d077ffaadf13b80e"),
    "homogeneous.yaml": ("bb7f1aed781abbc2", "8248135e6ac3ebcc"),
    "natural.yaml": ("403386bbcd5f1c0c", "1cedf48ce9a11b8d"),
    "paper_country/adjusted.yaml": ("af9f7358fa731590", "24960ad82b90e1ee"),
    "paper_country/dynamic.yaml": ("c48af8fdf14bbbdc", "ef93d4a9e1e80aea"),
    "paper_country/equal.yaml": ("5a21488fbff034a8", "2d574864288504cd"),
    "paper_country/natural.yaml": ("88ffbf0d6ab18a77", "f513e0c926178660"),
}

# Every key a config file can set, each off its default; some numbers are
# written as ints or YAML 1.1 strings to pin their coercion too.
EVERY_KEY = {
    "seed": 3,
    "output_dir": "runs/every-key",
    "data": {
        "path": "configs/natural.yaml",
        "seed": 4,
        "geometry_seed": 5,
        "input_dim": 12,
        "n_pairs": 3000,
        "composition": {"EU": 0.5, "AM": 0.2, "AF": 0.1, "AS": 0.1, "OC": 0.05, "UN": 0.05},
        "country_weights": {"usa": 2.0, "nigeria": 3},
        "gender_split": {c: {"male": 0.5, "female": 0.25, "unknown": 0.25} for c in CONTINENTS},
        "identity_spread": 0.35,
        "gender_spread": {"male": 1.1, "female": 0.9, "unknown": 1},
        "gender_offset": 0.2,
        "selfie_noise": 0.15,
        "doc_noise": {c: 0.25 for c in CONTINENTS},
        "domain_shift_strength": 0.4,
        "duplicate_rate": 0.03,
        "geometry": {"separation": 2.0, "near_radius": 1.1, "far_radius": 1.6,
                     "unknown_radius": 1.3, "country_spread": 0.1},
    },
    "training": {"margin": 0.5, "batch_n": 512, "minibatch_size": 16, "total_steps": 30,
                 "lr_init": "2e-3", "lr_final": 2e-5, "hidden_dims": [24, 16],
                 "embed_dim": 12, "activation": "relu"},
    "sampler": {"variant": "fixed", "axis": "country", "weights": {"usa": 2, "nigeria": 4.0},
                "lam": 0.5, "alpha_smooth": 0.3},
    "eval": {"target_far": 2e-3, "n_eval_pairs": 1500, "group_pool_size": 200,
             "matrix_axis": "country", "roc_points": 30, "n_roc_splits": 3,
             "split_fraction": 0.6, "validation_every": 15, "far_floor": 1e-4},
}


def read_all_outputs(run_dir):
    """Deterministic output files as bytes, keyed by relative path."""
    out = {}
    for path in sorted(Path(run_dir).rglob("*")):
        if path.is_file() and path.name != "timings.json":
            out[str(path.relative_to(run_dir))] = path.read_bytes()
    return out


class TestConfig:
    def test_yaml_roundtrip(self, tmp_path):
        text = """
seed: 42
output_dir: runs/demo
data:
  n_pairs: 5000
  input_dim: 16
  doc_noise: {EU: 0.2, AM: 0.2, AF: 0.5, AS: 0.4, OC: 0.2, UN: 0.25}
training:
  total_steps: 10
  batch_n: 256
  lr_init: 1e-3
  lr_final: 1e-5
sampler:
  variant: fixed
  weights: adjusted
eval:
  target_far: 1e-2
  validation_every: 5
"""
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.seed == 42
        assert cfg.data.n_pairs == 5000
        assert cfg.training.lr_init == 1e-3  # YAML-as-string coerced
        assert cfg.sampler.resolved_weights()["AF"] == 3.0
        assert cfg.eval.target_far == 1e-2

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"seed": 1, "bogus": {}})
        with pytest.raises(ConfigError):
            config_from_dict({"training": {"nope": 3}})

    def test_hash_stable_and_sensitive(self, tmp_path):
        a = tiny_config(tmp_path)
        b = tiny_config(tmp_path)
        assert a.config_hash() == b.config_hash()
        c = tiny_config(tmp_path, seed=6)
        assert a.config_hash() != c.config_hash()

    def test_model_hash_ignores_eval_section(self, tmp_path):
        a = tiny_config(tmp_path)
        b = tiny_config(tmp_path, eval=EvalConfig(target_far=5e-3, n_eval_pairs=300,
                                                  group_pool_size=60, validation_every=3))
        assert a.model_hash() == b.model_hash()
        assert a.config_hash() != b.config_hash()
        # A dynamic sampler's validations steer its weights, so the eval
        # fields they read move its model hash; the others do not.
        dyn = tiny_config(tmp_path, variant="dynamic")
        assert dyn.with_(eval=replace(dyn.eval, roc_points=30)).model_hash() == dyn.model_hash()
        assert dyn.with_(eval=replace(dyn.eval, target_far=5e-3)).model_hash() != dyn.model_hash()

    def test_model_hash_covers_the_sampler(self, tmp_path):
        hashes = {tiny_config(tmp_path, variant=v).model_hash()
                  for v in ("natural", "fixed", "dynamic", "homogeneous")}
        assert len(hashes) == 4

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.yaml")

    @pytest.mark.parametrize("name", sorted(PRESET_HASHES))
    def test_preset_hashes_pinned(self, name):
        cfg = load_config(REPO / "configs" / name)
        assert (cfg.config_hash(), cfg.model_hash()) == PRESET_HASHES[name]

    def test_every_preset_is_pinned(self):
        configs = REPO / "configs"
        found = {p.relative_to(configs).as_posix() for p in configs.rglob("*.yaml")}
        assert found == set(PRESET_HASHES)

    @pytest.mark.parametrize("raw, where", [
        pytest.param({"data": {"geometry": {"bogus": 1}}}, "data.geometry", id="geometry-key"),
        pytest.param({"training": {"hidden_dims": 5}}, "training.hidden_dims",
                     id="hidden-dims-scalar"),
        pytest.param({"training": {"hidden_dims": ["a"]}}, "training.hidden_dims[0]",
                     id="hidden-dims-entry"),
        pytest.param({"data": {"gender_split": 5}}, "data.gender_split", id="gender-split"),
        pytest.param({"data": {"composition": [1]}}, "data.composition", id="composition"),
        pytest.param({"sampler": {"weights": [1, 2]}}, "sampler.weights", id="weights"),
        pytest.param({"training": {"batch_n": 2048.7}}, "training.batch_n", id="fractional-int"),
        pytest.param({"output_dir": None}, "output_dir", id="null-output-dir"),
        pytest.param({"eval": {"target_far": None}}, "eval.target_far", id="null-target-far"),
        pytest.param({"training": {"seed": 9}}, "unknown training keys: ['seed']",
                     id="training-seed"),
        pytest.param({"eval": {"group_pool_size": 1}}, "group_pool_size must be >= 2",
                     id="one-pair-pool"),
        pytest.param({"sampler": {"variant": "dynamic", "weights": "adjusted"}},
                     "sampler.weights has no effect on a dynamic sampler", id="dynamic-weights"),
        pytest.param({"sampler": {"variant": "dynamic", "lam": 0}},
                     "sampler.lam must be > 0", id="dynamic-lam-zero"),
        pytest.param({"sampler": {"variant": "dynamic", "alpha_smooth": 0}},
                     "sampler.alpha_smooth must be in (0, 1]", id="dynamic-alpha-zero"),
        pytest.param({"sampler": {"variant": "dynamic", "alpha_smooth": 1.5}},
                     "sampler.alpha_smooth must be in (0, 1]", id="dynamic-alpha-above-one"),
        pytest.param({"sampler": {"variant": "natural", "weights": {"EU": 5.0}}},
                     "sampler.weights has no effect on a natural sampler", id="natural-weights"),
        pytest.param({"data": {"country_weights": {"usaa": 50.0}}},
                     "data.country_weights keys outside the group table: ['usaa']",
                     id="country-weights-code"),
        pytest.param({"data": {"composition": {"usa": 1.0}, "country_weights": {"usa": 2.0}}},
                     "data.country_weights has no effect on a country-keyed composition",
                     id="country-weights-by-country"),
        pytest.param({"data": {"doc_noise": {**{c: 0.2 for c in CONTINENTS}, "EUR": 0.3}}},
                     "data.doc_noise keys outside the group table: ['EUR']",
                     id="doc-noise-code"),
        pytest.param({"data": {"gender_split": {
            **{c: {"male": 0.5, "female": 0.5} for c in CONTINENTS}, "XX": {"male": 1.0}}}},
                     "data.gender_split keys outside the group table: ['XX']",
                     id="gender-split-code"),
        pytest.param({"data": {"gender_split": {
            c: {"male": 0.5, "female": 0.5, "other": 0.0} for c in CONTINENTS}}},
                     "data.gender_split.EU keys outside the group table: ['other']",
                     id="gender-split-row-code"),
        pytest.param({"data": {"gender_spread": {"male": 1.0, "female": 1.0, "unknown": 1.0,
                                                 "nonbinary": 1.0}}},
                     "data.gender_spread keys outside the group table: ['nonbinary']",
                     id="gender-spread-code"),
    ])
    def test_malformed_value_is_config_error(self, raw, where):
        with pytest.raises(ConfigError, match=re.escape(where)):
            config_from_dict(raw)

    def test_integral_floats_load_as_ints(self):
        cfg = config_from_dict({"data": {"n_pairs": 5.0e+4},
                                "training": {"batch_n": 2048.0, "hidden_dims": [16.0]}})
        assert cfg.data.n_pairs == 50_000 and type(cfg.data.n_pairs) is int
        assert cfg.training.batch_n == 2048 and type(cfg.training.batch_n) is int
        assert cfg.training.hidden_dims == (16,) and type(cfg.training.hidden_dims[0]) is int

    def test_every_settable_key_hashes_pinned(self, monkeypatch):
        monkeypatch.chdir(REPO)  # data.path is relative and must exist
        cfg = config_from_dict(EVERY_KEY)
        assert (cfg.config_hash(), cfg.model_hash()) == ("1ed8c93e0a8e40c0", "87bf9014f36ce143")


    def test_read_only_mappings_hash_like_dicts(self):
        from types import MappingProxyType

        def cfg(wrap):
            return ExperimentConfig(
                data=GeneratorConfig(doc_noise=wrap({c: 0.25 for c in CONTINENTS})),
                sampler=SamplerConfig(variant="fixed", weights=wrap({"EU": 1.0})))

        proxied = cfg(MappingProxyType)
        assert proxied.config_hash() == cfg(dict).config_hash()
        assert proxied.model_hash() == cfg(dict).model_hash()


class TestTrainingRuns:
    def test_determinism_byte_identical(self, tmp_path):
        cfg_a = tiny_config(tmp_path, "a")
        cfg_b = tiny_config(tmp_path, "b")
        rec_a = run_training(cfg_a)
        rec_b = run_training(cfg_b)
        assert rec_a.epochs == rec_b.epochs
        run_eval(cfg_a, latest_checkpoint(cfg_a.output_dir))
        run_eval(cfg_b, latest_checkpoint(cfg_b.output_dir))
        outs_a = read_all_outputs(cfg_a.output_dir)
        outs_b = read_all_outputs(cfg_b.output_dir)
        assert list(outs_a) == list(outs_b)
        for k in outs_a:
            assert outs_a[k] == outs_b[k], k

    # Stop before the first validation, at a validation step, between
    # validations, and at the end; the last case is `train --resume` on a
    # finished run. The dynamic sampler draws its groups in the order of its
    # weights, which resume reads back from the last validation epoch; on
    # neither axis is that order sorted.
    @pytest.mark.parametrize("variant, axis, stop_after", [
        pytest.param(variant, axis, stop, id=prefix + name)
        for variant, axis, prefix in (("natural", "continent", ""),
                                      ("dynamic", "continent", "dynamic-continent-"),
                                      ("dynamic", "country", "dynamic-country-"))
        for name, stop in (("before-validation", 2), ("validation-step", 3),
                           ("between-validations", 4), ("finished", 6))
    ])
    def test_resume_equals_uninterrupted(self, tmp_path, variant, axis, stop_after):
        assert variant == "natural" or list(axis_groups(axis)) != sorted(axis_groups(axis))
        # Every group on the axis needs training pairs to be drawn from.
        kw = dict(sampler=SamplerConfig(variant=variant, axis=axis),
                  data=GeneratorConfig(n_pairs=1500 if axis == "continent" else 5000,
                                       input_dim=16))
        cfg_full = tiny_config(tmp_path, "full", **kw)
        rec_full = run_training(cfg_full)

        cfg_part = tiny_config(tmp_path, "part", **kw)
        run_training(cfg_part, stop_after=stop_after)
        rec_resumed = run_training(
            cfg_part, resume_from=latest_checkpoint(cfg_part.output_dir)
        )
        assert rec_resumed.epochs == rec_full.epochs
        assert rec_resumed.final_step == rec_full.final_step
        m_full = json.loads((Path(cfg_full.output_dir) / "metrics.json").read_text())
        m_part = json.loads((Path(cfg_part.output_dir) / "metrics.json").read_text())
        assert m_part == m_full
        # Parameters, Adam moments, RNG states and dynamic weights, bit for bit.
        last_full = latest_checkpoint(cfg_full.output_dir)
        last_part = latest_checkpoint(cfg_part.output_dir)
        assert last_part.name == last_full.name
        assert last_part.read_bytes() == last_full.read_bytes()

    def test_dynamic_weights_are_kept_once_and_read_back_from_the_epochs(self, tmp_path):
        from fairtriplet.model import load_checkpoint, save_checkpoint

        cfg_full = tiny_config(tmp_path, "full", variant="dynamic")
        run_training(cfg_full)
        cfg = tiny_config(tmp_path, "part", variant="dynamic")
        run_training(cfg, stop_after=4)
        ckpts = sorted(Path(cfg.output_dir).glob("checkpoints/ckpt_*.npz"))
        assert [c.name for c in ckpts] == ["ckpt_000003.npz", "ckpt_000004.npz"]
        for ckpt in ckpts:
            state = load_checkpoint(ckpt)[4]
            assert "dynamic_weights" not in state
            assert state["epochs"][-1]["dynamic_weights"]
        # A checkpoint that still carries the weights as a run-state key of
        # its own resumes as before: the key is ignored.
        net, opt, step, config_hash, state = load_checkpoint(ckpts[-1])
        save_checkpoint(ckpts[-1], net, opt, step, config_hash,
                        run_state={**state, "dynamic_weights": {"EU": 1.0}})
        run_training(cfg, resume_from=ckpts[-1])
        last_full = latest_checkpoint(cfg_full.output_dir)
        assert latest_checkpoint(cfg.output_dir).read_bytes() == last_full.read_bytes()

    def test_resume_rejects_changed_config(self, tmp_path):
        cfg = tiny_config(tmp_path, "orig")
        run_training(cfg, stop_after=3)
        changed = tiny_config(tmp_path, "orig", seed=99)
        with pytest.raises(ConfigError):
            run_training(changed, resume_from=latest_checkpoint(cfg.output_dir))

    def test_balanced_data_natural_sampler_groups_indistinguishable(self, tmp_path):
        # Groups made exchangeable by construction (equal shares, shared
        # noise and gender mix, coincident centers), so per-group FARs are
        # binomial draws around one rate.
        from fairtriplet.datagen import GroupGeometry

        continents = ("EU", "AM", "AF", "AS", "OC", "UN")
        shared_gender = {"male": 0.4, "female": 0.4, "unknown": 0.2}
        cfg = tiny_config(
            tmp_path, "balanced",
            data=GeneratorConfig(
                n_pairs=1500, input_dim=16,
                composition={c: 1 / 6 for c in continents},
                doc_noise={c: 0.25 for c in continents},
                gender_split={c: dict(shared_gender) for c in continents},
                geometry=GroupGeometry(separation=0.0),
            ),
        )
        run_training(cfg)
        rep = run_eval(cfg, latest_checkpoint(cfg.output_dir))
        rates = rep["group_far"]
        pooled = float(np.mean(list(rates.values())))
        n = cfg.eval.group_pool_size * (cfg.eval.group_pool_size - 1)
        sigma = np.sqrt(max(pooled * (1 - pooled) / n, 1e-12))
        for g, v in rates.items():
            assert abs(v - pooled) <= 4 * sigma, (g, v, pooled, sigma)


# test_eval_output_bytes_pinned's sha256 per OpenBLAS kernel (numpy 2.4.6,
# OpenBLAS 0.3.31), each measured with OPENBLAS_CORETYPE set to it.
EVAL_DIGESTS = {
    "SkylakeX": {
        "report.json": "24e59ca8f05d8a3dd056a7c1cc5826605b1872325576700e13fce4a7b03a6881",
        "far_matrix_country.csv":
            "17ba210991a62b2c1f9a00f13a1a76f17b11b9c0dae8f620404b1075d71aaa6d",
        "roc.csv": "d5359ff5abdf8d89aa9221513d9933b53c1aebfabc727fb204b5ce7cb44e37a5",
    },
    "Haswell": {
        "report.json": "9791cdd929cb5c41ecebc2cb21f8b46f371d542a070eeb0dc2f8c5e3d6c7c4d3",
        "far_matrix_country.csv":
            "036901a82f9eefe5b723a296d7849d98d3196d39cf2829b84ade2fac9e04d0b9",
        "roc.csv": "f78679b9faea628d2755a3de2bd73a98246586f0fcbb35a5c517a94690aca77d",
    },
    "Sandybridge": {
        "report.json": "182263c8617080c294448d0405a766536cfa732dbc7d65aa31844420e6c4b579",
        "far_matrix_country.csv":
            "d502ade4d2b15728d8cd1776bbe80fabdd7834e9028043875d52352bab3d124e",
        "roc.csv": "0d0badfde74d0fbb57d1467b279aa423450e175e988a3070c259dff8cc051343",
    },
}


def openblas_core() -> str:
    """The core name of the OpenBLAS kernel numpy loaded, or "unknown"."""
    build = harness.openblas_build()
    return "unknown" if build is None else build[0]


def test_timings_record_the_blas_build(tmp_path):
    cfg = tiny_config(tmp_path, "timed", training=TrainingConfig(
        total_steps=2, batch_n=128, minibatch_size=32, hidden_dims=(16,), embed_dim=8))
    run_training(cfg)
    timings = json.loads((Path(cfg.output_dir) / harness.TIMINGS_FILE).read_text())
    core, config = harness.openblas_build() or (None, None)
    assert timings["numpy"] == np.__version__
    assert (timings["openblas_core"], timings["openblas_config"]) == (core, config)
    if core is not None:
        assert core in config  # the build string names the kernel it picked


class TestEval:
    def test_eval_reports_deterministic(self, tmp_path):
        cfg = tiny_config(tmp_path, "evalrun")
        run_training(cfg)
        ckpt = latest_checkpoint(cfg.output_dir)
        rep1 = run_eval(cfg, ckpt, out_dir=tmp_path / "e1")
        rep2 = run_eval(cfg, ckpt, out_dir=tmp_path / "e2")
        assert rep1 == rep2
        for name in ("report.json", "roc.csv", "far_matrix_continent.csv"):
            assert (tmp_path / "e1" / name).read_bytes() == (tmp_path / "e2" / name).read_bytes()

    def test_eval_output_bytes_pinned(self, tmp_path):
        # A change to the float operation order anywhere in evaluation shows
        # here as a hash change. The hashes hold for one numpy/BLAS build and
        # one OpenBLAS kernel (other kernels round the products differently),
        # so they are pinned per kernel, and an unmeasured kernel fails here.
        cfg = tiny_config(tmp_path, "pinned", seed=7, eval=EvalConfig(
            target_far=1e-2, n_eval_pairs=300, group_pool_size=60, matrix_axis="country",
            validation_every=3, roc_points=12, n_roc_splits=3))
        run_training(cfg)
        run_eval(cfg, latest_checkpoint(cfg.output_dir))
        out = Path(cfg.output_dir) / "eval"
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("report.json", "far_matrix_country.csv", "roc.csv")}
        kernel = openblas_core()
        assert kernel in EVAL_DIGESTS, f"no digests pinned for OpenBLAS kernel {kernel}: {digests}"
        assert digests == EVAL_DIGESTS[kernel]

    def test_group_far_equals_per_group_far(self, tmp_path):
        from fairtriplet.evaluation import EvalSet, per_group_far
        from fairtriplet.harness import _group_pool_datasets
        from fairtriplet.model import load_checkpoint

        cfg = tiny_config(tmp_path, "diagonal")
        run_training(cfg)
        ckpt = latest_checkpoint(cfg.output_dir)
        rep = run_eval(cfg, ckpt)
        net = load_checkpoint(ckpt)[0]
        pool_ds = _group_pool_datasets(cfg, cfg.eval.matrix_axis, "datagen-eval-pools",
                                       cfg.eval.group_pool_size)
        pools = {g: EvalSet.from_dataset(net, ds) for g, ds in pool_ds.items()}
        expected = per_group_far(pools, rep["theta"])
        assert list(rep["group_far"].items()) == list(expected.items())

    def test_untrained_checkpoint_worse_than_trained(self, tmp_path):
        from fairtriplet.harness import stream_rng
        from fairtriplet.model import EmbeddingNetwork, OptimizerState, save_checkpoint

        cfg = tiny_config(tmp_path, "trained", training=TrainingConfig(
            total_steps=12, batch_n=256, minibatch_size=32,
            hidden_dims=(16,), embed_dim=8))
        run_training(cfg)

        net0 = EmbeddingNetwork.create(16, (16,), 8, "tanh", stream_rng(cfg, "init"))
        untrained = tmp_path / "untrained.npz"
        save_checkpoint(untrained, net0,
                        OptimizerState.for_network(net0, 1e-3, 1e-5, 1),
                        step=0, config_hash=cfg.config_hash(),
                        run_state={"model_hash": cfg.model_hash()})
        rep_untrained = run_eval(cfg, untrained, out_dir=tmp_path / "first")
        rep_trained = run_eval(cfg, latest_checkpoint(cfg.output_dir),
                               out_dir=tmp_path / "last")
        assert rep_trained["overall"]["frr"] < rep_untrained["overall"]["frr"]

    def test_model_hash_mismatch_rejected(self, tmp_path):
        cfg = tiny_config(tmp_path, "hashcheck")
        run_training(cfg)
        other = tiny_config(tmp_path, "hashcheck", seed=123)
        with pytest.raises(ConfigError):
            run_eval(other, latest_checkpoint(cfg.output_dir))

    def test_report_far_recount_from_export_exact(self, tmp_path):
        # Independent recount: dump embeddings losslessly, recompute the
        # overall impostor acceptance count at the reported theta.
        cfg = tiny_config(tmp_path, "recount")
        run_training(cfg)
        ckpt = latest_checkpoint(cfg.output_dir)
        rep = run_eval(cfg, ckpt)

        from fairtriplet.harness import _natural_dataset
        eval_ds = _natural_dataset(cfg, "datagen-eval", cfg.eval.n_eval_pairs)
        save_dataset(tmp_path / "evalset.npz", eval_ds)
        export_embeddings(ckpt, eval_ds, tmp_path / "emb.csv")

        ids, _, _, domains, vecs = read_embeddings_csv(tmp_path / "emb.csv")
        selfies = vecs[domains == "selfie"]
        docs = vecs[domains == "doc"]
        sid = ids[domains == "selfie"]
        did = ids[domains == "doc"]
        theta = rep["theta"]
        # Canonical distance kernel (same operation order as the toolkit, so
        # the grid threshold compares exactly) in the README's 128-row
        # windows, the last one ending at the last selfie: one dense product
        # can round a cell differently. Counting logic independent.
        doc_sq = np.einsum("ij,ij->i", docs, docs)
        height = min(128, len(selfies))
        accepted = 0
        for start in range(0, len(selfies), 128):
            stop = min(start + 128, len(selfies))
            window = selfies[stop - height:stop]
            d = window @ docs.T
            d *= -2.0
            d += np.einsum("ij,ij->i", window, window)[:, None]
            d += doc_sq[None, :]
            np.maximum(d, 0.0, out=d)
            own = d[start - (stop - height):]
            impostor = sid[start:stop, None] != did[None, :]
            accepted += int(np.count_nonzero((own < theta) & impostor))
        comparisons = int(np.count_nonzero(sid[:, None] != did[None, :]))
        assert accepted == rep["overall"]["far_accepted"]
        assert comparisons == rep["overall"]["far_comparisons"]


class TestWeightTrajectory:
    """A report's weight_trajectory is the evaluated checkpoint's own
    validation epochs, up to its step, whatever ``output_dir`` holds."""

    @staticmethod
    def dynamic_config(tmp_path, name, total_steps):
        return tiny_config(
            tmp_path, name, variant="dynamic",
            training=TrainingConfig(total_steps=total_steps, batch_n=128, minibatch_size=32,
                                    hidden_dims=(16,), embed_dim=8),
            eval=EvalConfig(target_far=1e-2, n_eval_pairs=300, group_pool_size=60,
                            validation_every=2, roc_points=12))

    def test_earlier_checkpoint_lists_only_its_own_epochs(self, tmp_path):
        cfg = self.dynamic_config(tmp_path, "run", 4)
        run_training(cfg)
        early = run_eval(cfg, Path(cfg.output_dir, harness.checkpoint_name(2)),
                         out_dir=tmp_path / "early")
        last = run_eval(cfg, latest_checkpoint(cfg.output_dir), out_dir=tmp_path / "last")
        assert [e["step"] for e in early["weight_trajectory"]] == [2]
        assert early["weight_trajectory"] == last["weight_trajectory"][:1]
        # The last checkpoint's epochs are those of metrics.json.
        epochs = json.loads((Path(cfg.output_dir) / "metrics.json").read_text())["epochs"]
        assert [e["step"] for e in epochs] == [2, 4]
        for entry, epoch in zip(last["weight_trajectory"], epochs, strict=True):
            assert set(entry) == {"step", "sampling_probabilities", "dynamic_weights",
                                  "dynamic_weights_prev", "group_far"}
            assert entry == {k: epoch[k] for k in entry}

    def test_checkpoint_keeps_its_runs_trajectory(self, tmp_path):
        run_a = self.dynamic_config(tmp_path, "a", 4)
        run_b = self.dynamic_config(tmp_path, "b", 6)
        run_training(run_a)
        run_training(run_b)
        report = run_eval(run_a.with_(output_dir=run_b.output_dir),
                          latest_checkpoint(run_a.output_dir), out_dir=tmp_path / "eval")
        assert [e["step"] for e in report["weight_trajectory"]] == [2, 4]


class TestJsonOutputs:
    def test_interrupted_dump_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "metrics.json"
        harness._dump_json(path, {"a": 1})
        before = path.read_bytes()
        # Keys are written sorted, so "a" is out before "b" fails.
        with pytest.raises(TypeError):
            harness._dump_json(path, {"a": 2, "b": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]


class TestExport:
    def test_export_rows_and_roundtrip(self, tmp_path):
        cfg = tiny_config(tmp_path, "export")
        run_training(cfg)
        ds = generate_dataset(cfg.data.with_(seed=1, n_pairs=100))
        out = tmp_path / "emb.csv"
        rows = export_embeddings(latest_checkpoint(cfg.output_dir), ds, out)
        assert rows == 200
        _, _, _, _, vecs = read_embeddings_csv(out)
        assert np.abs(np.linalg.norm(vecs, axis=1) - 1.0).max() < 1e-6

    def test_dimension_mismatch_rejected(self, tmp_path):
        cfg = tiny_config(tmp_path, "dimcheck")
        run_training(cfg)
        ds = generate_dataset(GeneratorConfig(seed=1, n_pairs=50, input_dim=8))
        with pytest.raises(ConfigError):
            export_embeddings(latest_checkpoint(cfg.output_dir), ds, tmp_path / "x.csv")


def test_latest_checkpoint_is_the_largest_step(tmp_path):
    # Names are padded to six digits, so step 10^6's name sorts before
    # step 999,999's.
    ckpts = tmp_path / "checkpoints"
    ckpts.mkdir()
    for name in ("ckpt_000010.npz", "ckpt_999999.npz", "ckpt_1000000.npz"):
        (ckpts / name).touch()
    assert latest_checkpoint(tmp_path) == ckpts / "ckpt_1000000.npz"
    with pytest.raises(ConfigError):
        latest_checkpoint(tmp_path / "empty")


class TestReportAggregation:
    def test_summary_rows(self, tmp_path):
        cfg = tiny_config(tmp_path, "agg")
        run_training(cfg)
        run_eval(cfg, latest_checkpoint(cfg.output_dir))
        rows = aggregate_reports([cfg.output_dir])
        assert rows[0]["sampler"] == "natural/continent"
        assert rows[0]["worst_group"] in ("EU", "AM", "AF", "AS", "OC", "UN")
        report = json.loads((Path(cfg.output_dir) / "eval" / "report.json").read_text())
        g_frr = report["group_frr"]
        assert rows[0]["worst_group_frr"] == g_frr[rows[0]["worst_frr_group"]] == max(g_frr.values())
        overall_frr = report["overall"]["frr"]
        assert rows[0]["worst_frr_to_overall"] == (
            rows[0]["worst_group_frr"] / overall_frr if overall_frr > 0 else float("inf"))
        out = tmp_path / "summary.csv"
        write_summary_csv(out, rows)
        header = out.read_text().splitlines()[0].split(",")
        assert {"worst_to_overall", "worst_frr_group", "worst_group_frr",
                "worst_frr_to_overall"} <= set(header)


# Run in a fresh interpreter, so no other test's arrays are freed meanwhile.
_MAPPED_PROBE = """
import ctypes
import numpy as np
import fairtriplet.harness

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = MallInfo2
big = np.ones(24 << 20, dtype=np.uint8)
del big
mapped = mallinfo2().hblkhd
block = np.ones(3 << 20, dtype=np.uint8)
print(mallinfo2().hblkhd - mapped)
"""


class TestHeapThresholds:
    def test_large_block_is_mapped_after_a_larger_one_is_freed(self):
        if getattr(ctypes.CDLL(None), "mallinfo2", None) is None:
            pytest.skip("C library has no mallinfo2")
        # Freeing a 24 MiB mapped block would raise glibc's dynamic mmap
        # threshold to 24 MiB, and the 3 MiB block would then come from the heap.
        src = str(Path(harness.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _MAPPED_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        assert int(proc.stdout) >= 3 << 20

    def test_pin_is_a_no_op_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(harness.ctypes, "CDLL", lambda name: object())
        harness._pin_heap_thresholds()
