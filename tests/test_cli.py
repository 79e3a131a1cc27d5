import csv
import json
from pathlib import Path

import numpy as np
import pytest

from fairtriplet.cli import EXIT_CONFIG, EXIT_OK, EXIT_RESOLUTION, main
from fairtriplet.core import savez_deterministic
from fairtriplet.dataio import load_dataset

CONFIG_TEXT = """
seed: 9
output_dir: "{out}"
data:
  n_pairs: 1200
  input_dim: 16
training:
  total_steps: 4
  batch_n: 128
  minibatch_size: 32
  hidden_dims: [16]
  embed_dim: 8
sampler:
  variant: fixed
  weights: equal
eval:
  target_far: 1.0e-2
  n_eval_pairs: 250
  group_pool_size: 50
  validation_every: 2
  roc_points: 10
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(CONFIG_TEXT.replace("{out}", str(tmp_path / "run")))
    return path


def test_generate_train_eval_export_report(config_path, tmp_path, capsys):
    data_path = tmp_path / "data.npz"
    assert main(["generate", "-c", str(config_path), "-o", str(data_path)]) == EXIT_OK
    ds = load_dataset(data_path)
    assert len(ds) == 1200

    assert main(["train", "-c", str(config_path)]) == EXIT_OK
    run_dir = tmp_path / "run"
    assert (run_dir / "metrics.json").exists()
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert metrics["final_step"] == 4

    assert main(["eval", "-c", str(config_path)]) == EXIT_OK
    report = json.loads((run_dir / "eval" / "report.json").read_text())
    assert report["overall"]["far_comparisons"] > 0

    ckpt = sorted((run_dir / "checkpoints").glob("ckpt_*.npz"))[-1]
    emb_path = tmp_path / "emb.csv"
    assert main(["export", "--checkpoint", str(ckpt),
                 "--data", str(data_path), "-o", str(emb_path)]) == EXIT_OK
    assert emb_path.read_text().count("\n") == 2 * 1200 + 1

    summary = tmp_path / "summary.csv"
    assert main(["report", str(run_dir), "-o", str(summary)]) == EXIT_OK
    assert "worst_to_overall" in summary.read_text()
    capsys.readouterr()


def test_train_resume_flag(config_path, tmp_path):
    assert main(["train", "-c", str(config_path), "--stop-after", "2"]) == EXIT_OK
    assert main(["train", "-c", str(config_path), "--resume"]) == EXIT_OK
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert metrics["final_step"] == 4


def test_resume_from_a_run_state_without_its_keys_exit_code(config_path, tmp_path, capsys):
    # A checkpoint of this config whose run state holds only the model hash,
    # as a checkpoint saved outside a training run does.
    from fairtriplet.model import load_checkpoint, save_checkpoint

    assert main(["train", "-c", str(config_path), "--stop-after", "2"]) == EXIT_OK
    ckpt = tmp_path / "run" / "checkpoints" / "ckpt_000002.npz"
    net, opt, step, config_hash, state = load_checkpoint(ckpt)
    save_checkpoint(ckpt, net, opt, step, config_hash,
                    run_state={"model_hash": state["model_hash"]})
    assert main(["train", "-c", str(config_path), "--resume"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "['rng_sampler', 'rng_miner', 'epochs', 'loss_buffer']" in err


def test_generate_has_no_seed_option(config_path, tmp_path, capsys):
    # generate writes the config's data, whose seed is data.seed; a --seed
    # that changed only the run seed would leave the file as it was.
    with pytest.raises(SystemExit) as exit_info:
        main(["generate", "-c", str(config_path), "-o", str(tmp_path / "d.npz"),
              "--seed", "1"])
    assert exit_info.value.code == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "d.npz").exists()


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("data:\n  n_pairs: -5\n")
    assert main(["train", "-c", str(bad)]) == EXIT_CONFIG
    assert main(["train", "-c", str(tmp_path / "missing.yaml")]) == EXIT_CONFIG
    capsys.readouterr()


def test_malformed_value_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("data:\n  geometry: {bogus: 1}\n")
    assert main(["train", "-c", str(bad)]) == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize("dims", ["[0]", "[-3]", "[16, 0]"])
def test_non_positive_hidden_dims_exit_code(config_path, tmp_path, capsys, dims):
    text = config_path.read_text().replace("hidden_dims: [16]", f"hidden_dims: {dims}")
    bad = tmp_path / "hidden_dims.yaml"
    bad.write_text(text)
    assert main(["train", "-c", str(bad)]) == EXIT_CONFIG
    assert not (tmp_path / "run").exists()
    assert "hidden_dims" in capsys.readouterr().err


def test_one_pair_pool_exit_code(config_path, tmp_path, capsys):
    # A one-pair pool has no within-group impostor comparison; the config is
    # refused before any data is generated.
    text = config_path.read_text().replace("group_pool_size: 50", "group_pool_size: 1")
    bad = tmp_path / "one_pair.yaml"
    bad.write_text(text)
    assert main(["train", "-c", str(bad)]) == EXIT_CONFIG
    assert not (tmp_path / "run").exists()
    assert "group_pool_size" in capsys.readouterr().err


def test_weights_on_dynamic_sampler_exit_code(config_path, tmp_path, capsys):
    # A dynamic sampler starts from uniform weights; configured ones would be
    # silently ignored, so the config is refused.
    text = config_path.read_text().replace("variant: fixed", "variant: dynamic")
    bad = tmp_path / "dynamic_weights.yaml"
    bad.write_text(text)
    assert main(["train", "-c", str(bad)]) == EXIT_CONFIG
    assert not (tmp_path / "run").exists()
    assert "sampler.weights" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["lam: 0", "alpha_smooth: 0", "alpha_smooth: 1.5"])
def test_dynamic_sampler_settings_exit_code(config_path, tmp_path, capsys, setting):
    text = config_path.read_text().replace("variant: fixed\n  weights: equal",
                                           f"variant: dynamic\n  {setting}")
    bad = tmp_path / "dynamic_setting.yaml"
    bad.write_text(text)
    assert main(["train", "-c", str(bad)]) == EXIT_CONFIG
    assert not (tmp_path / "run").exists()
    assert f"sampler.{setting.split(':')[0]}" in capsys.readouterr().err


def test_absent_weighted_group_exit_code(config_path, tmp_path, capsys):
    # 1500 pairs at seed 5 hold no africa_rem pair, which the dynamic country
    # sampler weights; the run stops before any round or validation.
    text = (config_path.read_text().replace("seed: 9", "seed: 5")
            .replace("n_pairs: 1200", "n_pairs: 1500")
            .replace("variant: fixed\n  weights: equal", "variant: dynamic\n  axis: country"))
    bad = tmp_path / "absent.yaml"
    bad.write_text(text)
    assert main(["train", "-c", str(bad)]) == EXIT_CONFIG
    assert "['africa_rem']" in capsys.readouterr().err
    assert not (tmp_path / "run" / "metrics.json").exists()


def test_eval_of_another_samplers_checkpoint_exit_code(config_path, tmp_path, capsys):
    natural = tmp_path / "natural.yaml"
    natural.write_text(CONFIG_TEXT.replace("{out}", str(tmp_path / "natural"))
                       .replace("variant: fixed\n  weights: equal", "variant: natural"))
    assert main(["train", "-c", str(natural), "--stop-after", "2"]) == EXIT_OK
    ckpt = tmp_path / "natural" / "checkpoints" / "ckpt_000002.npz"
    assert main(["eval", "-c", str(config_path), "--checkpoint", str(ckpt)]) == EXIT_CONFIG
    assert "sampler" in capsys.readouterr().err
    assert not (tmp_path / "run" / "eval").exists()


def test_version_1_checkpoint_exit_code(config_path, tmp_path, capsys):
    v1 = tmp_path / "v1.npz"
    savez_deterministic(v1, {"checkpoint_version": np.int64(1),
                             "config_hash": np.str_("0" * 16)})
    v2 = tmp_path / "v2.npz"
    savez_deterministic(v2, {"header": np.str_(json.dumps({"version": 2,
                                                          "config_hash": "0" * 16}))})
    for old in (v1, v2):
        assert main(["eval", "-c", str(config_path), "--checkpoint", str(old)]) == EXIT_CONFIG
        assert "version-3" in capsys.readouterr().err


def test_malformed_checkpoint_exit_code(config_path, tmp_path, capsys):
    # A version-3 header without its keys, and one whose shapes do not fit
    # the stored parameter vector.
    from fairtriplet.model import EmbeddingNetwork, OptimizerState, save_checkpoint

    net = EmbeddingNetwork.create(16, (16,), 8, "tanh", np.random.default_rng(0))
    shapes = tmp_path / "shapes.npz"
    save_checkpoint(shapes, net, OptimizerState.for_network(net, 1e-3, 1e-5, 7), 0, "x")
    with np.load(shapes) as z:
        arrays = {name: z[name] for name in z.files}
    header = json.loads(arrays["header"].tobytes())
    header["shapes"][0] = [17, 16]
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    savez_deterministic(shapes, arrays)
    keys = tmp_path / "keys.npz"
    arrays["header"] = np.frombuffer(b'{"version": 3}', dtype=np.uint8)
    savez_deterministic(keys, arrays)
    for bad, problem in ((keys, "lacks"), (shapes, "shapes do not fit")):
        assert main(["eval", "-c", str(config_path), "--checkpoint", str(bad)]) == EXIT_CONFIG
        assert problem in capsys.readouterr().err


def test_malformed_dataset_file_exit_code(config_path, tmp_path, capsys):
    # A NaN feature in a dataset file stops `train` with data.path and
    # `export --data` before any work, as a configuration error.
    data_path = tmp_path / "data.npz"
    assert main(["generate", "-c", str(config_path), "-o", str(data_path)]) == EXIT_OK
    with np.load(data_path) as z:
        arrays = {name: z[name] for name in z.files}
    arrays["selfie"][5, 0] = np.nan
    savez_deterministic(data_path, arrays)
    with_data = tmp_path / "with_data.yaml"
    with_data.write_text(config_path.read_text().replace(
        "data:\n", f"data:\n  path: \"{data_path}\"\n"))
    assert main(["train", "-c", str(with_data)]) == EXIT_CONFIG
    assert "non-finite features" in capsys.readouterr().err
    assert not (tmp_path / "run" / "checkpoints").exists()
    assert main(["train", "-c", str(config_path), "--stop-after", "2"]) == EXIT_OK
    ckpt = tmp_path / "run" / "checkpoints" / "ckpt_000002.npz"
    assert main(["export", "--checkpoint", str(ckpt), "--data", str(data_path),
                 "-o", str(tmp_path / "emb.csv")]) == EXIT_CONFIG
    assert str(data_path) in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["bogus", "gender"])
def test_unknown_sampler_axis_exit_code(config_path, tmp_path, monkeypatch, capsys, axis):
    # The sampler draws by continent or country only; any other axis is
    # refused when the config loads, before the training set is generated.
    from fairtriplet import harness

    def refuse(*args, **kwargs):
        raise AssertionError("a dataset was generated")

    monkeypatch.setattr(harness, "generate_dataset", refuse)
    bad = tmp_path / "axis.yaml"
    bad.write_text(config_path.read_text().replace("weights: equal",
                                                   f"weights: equal\n  axis: {axis}"))
    assert main(["train", "-c", str(bad)]) == EXIT_CONFIG
    assert "sampler.axis" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kind", ["missing", "not_zip", "truncated"])
def test_unreadable_checkpoint_exit_code(config_path, tmp_path, capsys, kind):
    from fairtriplet.model import EmbeddingNetwork, OptimizerState, save_checkpoint

    bad = tmp_path / f"{kind}.npz"
    if kind == "not_zip":
        bad.write_text("not a zip archive\n")
    elif kind == "truncated":
        net = EmbeddingNetwork.create(16, (16,), 8, "tanh", np.random.default_rng(0))
        save_checkpoint(bad, net, OptimizerState.for_network(net, 1e-3, 1e-5, 7), 0, "x")
        bad.write_bytes(bad.read_bytes()[:-100])
    assert main(["eval", "-c", str(config_path), "--checkpoint", str(bad)]) == EXIT_CONFIG
    assert f"cannot read checkpoint {bad}" in capsys.readouterr().err
    assert not (tmp_path / "run" / "eval").exists()


def test_resume_from_a_truncated_checkpoint_exit_code(config_path, tmp_path, capsys):
    assert main(["train", "-c", str(config_path), "--stop-after", "2"]) == EXIT_OK
    ckpt = tmp_path / "run" / "checkpoints" / "ckpt_000002.npz"
    ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])
    assert main(["train", "-c", str(config_path), "--resume"]) == EXIT_CONFIG
    assert f"cannot read checkpoint {ckpt}" in capsys.readouterr().err


def test_missing_dataset_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.npz"
    assert main(["export", "--checkpoint", str(tmp_path / "ckpt.npz"), "--data", str(missing),
                 "-o", str(tmp_path / "emb.csv")]) == EXIT_CONFIG
    assert f"cannot read dataset {missing}" in capsys.readouterr().err
    assert not (tmp_path / "emb.csv").exists()


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_stop_after_below_one_exit_code(config_path, tmp_path, capsys, rounds):
    # A run stops after a round it has trained, so it cannot stop before the first.
    assert main(["train", "-c", str(config_path), "--stop-after", rounds]) == EXIT_CONFIG
    assert "stop_after must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_shorter_run_replaces_a_longer_runs_checkpoints(config_path, tmp_path, capsys):
    # A 6-round run, then a 4-round run of another config into the same
    # directory: eval must find the second run's last checkpoint, not the
    # first run's ckpt_000006.
    longer = tmp_path / "longer.yaml"
    longer.write_text(config_path.read_text().replace("total_steps: 4", "total_steps: 6"))
    run_dir = tmp_path / "shared"
    assert main(["train", "-c", str(longer), "-o", str(run_dir)]) == EXIT_OK
    assert main(["train", "-c", str(config_path), "-o", str(run_dir)]) == EXIT_OK
    assert sorted(p.name for p in (run_dir / "checkpoints").iterdir()) == [
        "ckpt_000002.npz", "ckpt_000004.npz"]
    assert main(["eval", "-c", str(config_path), "--output-dir", str(run_dir)]) == EXIT_OK
    capsys.readouterr()


def test_resolution_error_exit_code(config_path, tmp_path, capsys):
    # target FAR far below what n_eval_pairs can resolve
    text = config_path.read_text().replace("target_far: 1.0e-2", "target_far: 1.0e-9")
    strict = tmp_path / "strict.yaml"
    strict.write_text(text)
    assert main(["train", "-c", str(strict)]) == EXIT_RESOLUTION
    capsys.readouterr()


def test_seed_override_changes_outputs(config_path, tmp_path):
    assert main(["train", "-c", str(config_path), "-o", str(tmp_path / "r1")]) == EXIT_OK
    assert main(["train", "-c", str(config_path), "-o", str(tmp_path / "r2"),
                 "--seed", "123"]) == EXIT_OK
    m1 = json.loads((tmp_path / "r1" / "metrics.json").read_text())
    m2 = json.loads((tmp_path / "r2" / "metrics.json").read_text())
    assert m1["config_hash"] != m2["config_hash"]


def _compare_configs(tmp_path):
    """Three small configs under one directory, the last a dynamic sampler on
    the country axis; 6000 pairs hold every country at seed 9."""
    texts = {
        "equal": CONFIG_TEXT,
        "natural": CONFIG_TEXT.replace("variant: fixed\n  weights: equal", "variant: natural"),
        "dynamic": (CONFIG_TEXT.replace("n_pairs: 1200", "n_pairs: 6000")
                    .replace("variant: fixed\n  weights: equal",
                             "variant: dynamic\n  axis: country")),
    }
    paths = []
    for stem, text in texts.items():
        path = tmp_path / "configs" / f"{stem}.yaml"
        path.parent.mkdir(exist_ok=True)
        path.write_text(text.replace("{out}", str(tmp_path / "unused")))
        paths.append(str(path))
    return paths


def test_compare_trains_evaluates_and_skips_finished_runs(tmp_path, monkeypatch, capsys):
    paths = _compare_configs(tmp_path)
    out = tmp_path / "cmp"
    assert main(["compare", *paths, "-o", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    with open(out / "summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["run"] for row in rows] == [str(out / s) for s in ("equal", "natural", "dynamic")]
    assert rows[2]["sampler"] == "dynamic/country"
    for row in rows:
        assert row["run"] in printed
        for key in ("worst_frr_group", "worst_group_frr", "worst_frr_to_overall",
                    "mean_log_far_variance"):
            assert row[key] != ""
    # The same report as train then eval of the same config elsewhere.
    for path in paths:
        other = tmp_path / "alone" / Path(path).stem
        assert main(["train", "-c", path, "-o", str(other)]) == EXIT_OK
        assert main(["eval", "-c", path, "--output-dir", str(other)]) == EXIT_OK
        assert ((other / "eval" / "report.json").read_bytes()
                == (out / Path(path).stem / "eval" / "report.json").read_bytes())

    # Every run is finished, so a second call trains nothing.
    summary = (out / "summary.csv").read_bytes()

    def refuse(*args, **kwargs):
        raise AssertionError("a finished run was trained again")

    monkeypatch.setattr("fairtriplet.cli.run_training", refuse)
    assert main(["compare", *paths, "-o", str(out)]) == EXIT_OK
    assert (out / "summary.csv").read_bytes() == summary
    capsys.readouterr()


def test_compare_retrains_an_interrupted_run(tmp_path, capsys):
    path = _compare_configs(tmp_path)[0]
    run = tmp_path / "cmp" / "equal"
    assert main(["train", "-c", path, "-o", str(run), "--stop-after", "2"]) == EXIT_OK
    assert main(["eval", "-c", path, "--output-dir", str(run)]) == EXIT_OK
    report = run / "eval" / "report.json"
    assert json.loads(report.read_text())["checkpoint_step"] == 2
    assert main(["compare", path, "-o", str(tmp_path / "cmp")]) == EXIT_OK
    assert json.loads(report.read_text())["checkpoint_step"] == 4
    capsys.readouterr()


def test_compare_checks_every_config_before_training(tmp_path, capsys):
    paths = _compare_configs(tmp_path)
    twin = tmp_path / "twin" / "equal.yaml"
    twin.parent.mkdir()
    twin.write_text(Path(paths[0]).read_text())
    bad = tmp_path / "bad.yaml"
    bad.write_text("data:\n  n_pairs: -5\n")
    out = tmp_path / "cmp"
    assert main(["compare", *paths, str(twin), "-o", str(out)]) == EXIT_CONFIG
    assert "equal" in capsys.readouterr().err
    assert main(["compare", *paths, str(bad), "-o", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    capsys.readouterr()


def test_non_finite_gradient_stops_before_adam(config_path, tmp_path, monkeypatch):
    # Round 3's second minibatch gets a NaN gradient: training stops before
    # its Adam step, with the round and the minibatch in the failure record.
    from fairtriplet import harness

    seen = {"round": 0, "minibatch": 0}
    snapshot = {}
    assemble_batch, loss_gradients, adam_step = (
        harness.assemble_batch, harness.loss_gradients, harness.adam_step)

    def counting_rounds(*args, **kwargs):
        seen["round"] += 1
        seen["minibatch"] = 0
        return assemble_batch(*args, **kwargs)

    def nan_at_round_3(net, *args, **kwargs):
        loss, grads = loss_gradients(net, *args, **kwargs)
        if (seen["round"], seen["minibatch"]) == (3, 1):
            grads[len(grads) // 2] = np.nan
            snapshot.update(net=net, params=net.params.copy(), m=seen["opt"].m.copy(),
                            v=seen["opt"].v.copy(), step=seen["opt"].step)
        seen["minibatch"] += 1
        return loss, grads

    def recording_opt(opt, *args):
        seen["opt"] = opt
        return adam_step(opt, *args)

    monkeypatch.setattr(harness, "assemble_batch", counting_rounds)
    monkeypatch.setattr(harness, "loss_gradients", nan_at_round_3)
    monkeypatch.setattr(harness, "adam_step", recording_opt)
    assert main(["train", "-c", str(config_path)]) == 1
    assert snapshot, "round 3 had no second minibatch"
    opt = seen["opt"]
    assert np.array_equal(snapshot["net"].params, snapshot["params"])
    assert np.array_equal(opt.m, snapshot["m"]) and np.array_equal(opt.v, snapshot["v"])
    assert opt.step == snapshot["step"]
    record = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert record["failed_at_step"] == 3
    assert record["error"] == ("FloatingPointError: non-finite loss or gradient "
                               "in round 3, minibatch 1")
    assert [e["step"] for e in record["epochs"]] == [2]
