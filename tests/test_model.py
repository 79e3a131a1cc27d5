import json
import zipfile

import numpy as np
import pytest

from fairtriplet.core import ConfigError, normalize, savez_deterministic
from fairtriplet.model import (
    EmbeddingNetwork,
    OptimizerState,
    TrainingConfig,
    adam_step,
    load_checkpoint,
    loss_gradients,
    save_checkpoint,
    triplet_loss,
)


def make_net(seed=0, input_dim=6, hidden=(8,), out=5, activation="tanh"):
    return EmbeddingNetwork.create(
        input_dim, hidden, out, activation, np.random.default_rng(seed)
    )


def finite_difference_grads(net, loss_fn, h=1e-5):
    """Central-difference gradient of loss_fn(net) w.r.t. every parameter."""
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp = loss_fn(net)
            p[idx] = orig - h
            lm = loss_fn(net)
            p[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric):
    """Per-tensor max abs difference relative to the gradient scale."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        scale = max(np.abs(a).max(), np.abs(n).max(), 1e-8)
        worst = max(worst, float(np.abs(a - n).max() / scale))
    return worst


def unit_vec_at_distance(d2):
    """A 3-D unit vector at squared distance d2 from e1 (d2 in [0, 4])."""
    cos = 1.0 - d2 / 2.0
    return np.array([cos, np.sqrt(max(1.0 - cos**2, 0.0)), 0.0])


E1 = np.array([1.0, 0.0, 0.0])


class TestForward:
    def test_unit_norm_output(self):
        net = make_net()
        x = np.random.default_rng(1).normal(size=(1000, 6))
        z = net.forward(x)
        assert np.abs(np.linalg.norm(z, axis=1) - 1.0).max() < 1e-6

    def test_deterministic(self):
        net = make_net()
        x = np.random.default_rng(2).normal(size=(4, 6))
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_zero_weights_bias_only(self):
        # With all-zero weights the output is input-independent and equals the
        # normalized activation chain of the biases.
        net = make_net()
        for w in net.weights:
            w[:] = 0.0
        net.biases[0][:] = np.linspace(-1.0, 1.0, net.biases[0].size)
        net.biases[1][:] = np.linspace(0.5, 2.0, net.biases[1].size)
        rng = np.random.default_rng(3)
        z = net.forward(rng.normal(size=(5, 6)))
        h = np.tanh(net.biases[0])
        expected = normalize(h @ net.weights[1] + net.biases[1])
        for row in z:
            assert np.allclose(row, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        net = make_net()
        with pytest.raises(ValueError):
            net.forward(np.zeros((3, 7)))

    def test_single_vector_roundtrip(self):
        net = make_net()
        x = np.random.default_rng(4).normal(size=6)
        assert np.array_equal(net.forward(x), net.forward(x[None, :])[0])


class TestTripletLoss:
    def test_active_hinge_arithmetic(self):
        z_a = E1
        z_p = unit_vec_at_distance(0.5)
        z_n = unit_vec_at_distance(0.7)
        assert abs(triplet_loss(z_a, z_p, z_n, 0.6) - 0.4) < 1e-12

    def test_inactive_hinge(self):
        assert triplet_loss(E1, unit_vec_at_distance(0.1), unit_vec_at_distance(1.5), 0.6) == 0.0

    def test_hinge_boundary_zero(self):
        # anchor == positive and D2_an exactly equal to the margin.
        z_n = unit_vec_at_distance(0.6)
        assert triplet_loss(E1, E1, z_n, 0.6) == 0.0


class TestLossGradients:
    def test_all_inactive_zero_gradient(self):
        net = make_net()
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(9, 6))
        z = net.forward(feats)
        # Pick triplets that are comfortably inactive under a tiny margin.
        trips = []
        for a in range(3):
            for n in range(3, 6):
                d_pp = float(((z[a] - z[a + 3]) ** 2).sum())
                d_nn = float(((z[a] - z[n + 3]) ** 2).sum())
                if d_pp + 1e-3 < d_nn:
                    trips.append((a, a + 3, n + 3))
        if not trips:
            pytest.skip("no inactive triplet available for this seed")
        arr = tuple(np.array(x) for x in zip(*trips))
        loss, grads = loss_gradients(net, feats, arr, margin=1e-6)
        if loss == 0.0:
            assert np.all(grads == 0.0)

    def test_matches_finite_differences(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            net = make_net(seed=seed)
            feats = rng.normal(size=(12, 6))
            trips = (np.arange(0, 4), np.arange(4, 8), np.arange(8, 12))
            loss, grads = loss_gradients(net, feats, trips, 0.6)

            def loss_fn(m, feats=feats, trips=trips):
                z = m.forward(feats)
                vals = [
                    triplet_loss(z[a], z[p], z[n], 0.6)
                    for a, p, n in zip(*trips)
                ]
                return sum(vals) / len(vals)

            fd = finite_difference_grads(net, loss_fn)
            assert max_relative_error(net.layout(grads), fd) < 1e-4

    def test_duplicated_minibatch_same_mean_gradient(self):
        net = make_net()
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(9, 6))
        trips = (np.array([0, 1, 2]), np.array([3, 4, 5]), np.array([6, 7, 8]))
        doubled = tuple(np.concatenate([t, t]) for t in trips)
        loss1, g1 = loss_gradients(net, feats, trips, 0.6)
        loss2, g2 = loss_gradients(net, feats, doubled, 0.6)
        assert abs(loss1 - loss2) < 1e-15
        assert np.allclose(g1, g2, atol=1e-15)

    def test_empty_minibatch_rejected(self):
        net = make_net()
        with pytest.raises(ValueError):
            loss_gradients(net, np.zeros((2, 6)), (np.array([]), np.array([]), np.array([])), 0.6)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        net = make_net()
        state = OptimizerState.for_network(net, lr_init=1e-3, lr_final=1e-3, decay_steps=10)
        before = [p.copy() for p in net.parameters()]
        grads = np.zeros_like(net.params)
        for g in net.layout(grads):
            g[...] = 0.5 * np.sign(np.arange(g.size).reshape(g.shape) % 3 - 1)
        adam_step(state, net, grads)
        for p0, p1, g in zip(before, net.parameters(), net.layout(grads)):
            delta = p1 - p0
            nonzero = g != 0
            assert np.allclose(delta[nonzero], -1e-3 * np.sign(g[nonzero]), atol=1e-6)
            assert np.all(delta[~nonzero] == 0.0)

    def test_zero_gradient_no_change(self):
        net = make_net()
        state = OptimizerState.for_network(net, 1e-3, 1e-5, 10)
        before = [p.copy() for p in net.parameters()]
        adam_step(state, net, np.zeros_like(net.params))
        for p0, p1 in zip(before, net.parameters()):
            assert np.array_equal(p0, p1)

    def test_bit_identical_across_runs(self):
        results = []
        for _ in range(2):
            net = make_net(seed=7)
            state = OptimizerState.for_network(net, 1e-3, 1e-5, 50)
            rng = np.random.default_rng(8)
            for _ in range(20):
                adam_step(state, net, rng.normal(size=net.params.shape))
            results.append((net.params.copy(), state.m.copy(), state.v.copy()))
        for a, b in zip(results[0], results[1]):
            assert np.array_equal(a, b)

    def test_flat_state(self):
        net = make_net(hidden=(8, 7))
        views = net.weights + net.biases
        assert all(np.shares_memory(p, net.params) for p in views)
        state = OptimizerState.for_network(net, 1e-3, 1e-5, 10)
        assert state.m.shape == state.v.shape == net.params.shape
        before = [p.copy() for p in views]
        grads = np.ones_like(net.params)
        adam_step(state, net, grads)
        for p0, p in zip(before, net.weights + net.biases):
            assert np.allclose(p - p0, -1e-3)
        assert all(p is q for p, q in zip(views, net.weights + net.biases))
        params, step = net.params.copy(), state.step
        for bad in (grads[:-1], grads[None], np.ones(grads.size + 1)):
            with pytest.raises(ValueError, match="shape"):
                adam_step(state, net, bad)
        assert np.array_equal(net.params, params) and state.step == step

    def test_rebinding_params_copies_into_the_views(self):
        a, b = make_net(seed=1), make_net(seed=2)
        x = np.random.default_rng(3).normal(size=(4, 6))
        vector = a.params
        a.params = b.params.copy()
        assert a.params is vector
        assert all(np.shares_memory(p, a.params) for p in a.weights + a.biases)
        assert np.array_equal(a.forward(x), b.forward(x))
        with pytest.raises(ValueError, match="shape"):
            a.params = b.params[:-1]
        assert np.array_equal(a.params, b.params)

    def test_lr_schedule_endpoints(self):
        net = make_net()
        state = OptimizerState.for_network(net, 1e-3, 1e-5, 100)
        assert state.learning_rate(1) == pytest.approx(1e-3)
        assert state.learning_rate(101) == pytest.approx(1e-5)
        assert state.learning_rate(100000) == pytest.approx(1e-5)
        mid = state.learning_rate(51)
        assert 1e-5 < mid < 1e-3

    def test_normalization_preserved_after_steps(self):
        net = make_net()
        state = OptimizerState.for_network(net, 1e-2, 1e-2, 10)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(50, 6))
        for _ in range(5):
            adam_step(state, net, rng.normal(size=net.params.shape) * 0.1)
            z = net.forward(x)
            assert np.abs(np.linalg.norm(z, axis=1) - 1.0).max() < 1e-6


class TestTrainingLossDecreases:
    def test_tiny_dataset_mean_loss_decreases(self):
        # 10 identities, two views each; loss should trend down on average.
        from fairtriplet.mining import MiningBatch, mine_semi_hard, schedule_minibatches

        rng = np.random.default_rng(10)
        n_id, dim = 10, 6
        latents = rng.normal(size=(n_id, dim)) * 2.0
        selfies = latents + 0.1 * rng.normal(size=(n_id, dim))
        docs = latents + 0.1 * rng.normal(size=(n_id, dim))
        net = make_net(seed=11, input_dim=dim)
        state = OptimizerState.for_network(net, 1e-3, 1e-4, 400)
        batch = MiningBatch(
            pair_indices=np.arange(n_id),
            identity_ids=np.arange(n_id),
            features=np.vstack([selfies, docs]),
        )
        steps = 100
        losses = []
        for _ in range(steps):
            embedded = batch.embed_with(net)
            trips = mine_semi_hard(embedded, 0.6, rng)
            if len(trips[0]) == 0:
                losses.append(0.0)
                continue
            step_losses = []
            for mb in schedule_minibatches(trips, 8, rng):
                loss, grads = loss_gradients(net, embedded.features, mb, 0.6)
                adam_step(state, net, grads)
                step_losses.append(loss)
            losses.append(float(np.mean(step_losses)))
        head = np.mean(losses[: steps // 10])
        tail = np.mean(losses[-steps // 10:])
        assert tail < head


def write_v1_checkpoint(path, net, state, step, config_hash):
    """A checkpoint in the version-1 layout: one member per scalar."""
    arrays = {
        "checkpoint_version": np.int64(1),
        "config_hash": np.str_(config_hash),
        "activation": np.str_(net.activation),
        "layer_dims": np.asarray([net.input_dim, *(w.shape[1] for w in net.weights)]),
        "step": np.int64(step),
        "adam_step": np.int64(state.step),
        "lr_init": np.float64(state.lr_init),
        "lr_final": np.float64(state.lr_final),
        "decay_steps": np.int64(state.decay_steps),
    }
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"w{i}"], arrays[f"b{i}"] = w, b
    for i, (m, v) in enumerate(zip(net.layout(state.m), net.layout(state.v))):
        arrays[f"adam_m{i}"], arrays[f"adam_v{i}"] = m, v
    savez_deterministic(path, arrays)


def write_v2_checkpoint(path, net, state, step, config_hash):
    """A checkpoint in the version-2 layout: a unicode JSON header and one
    member per parameter and Adam moment."""
    header = {"version": 2, "config_hash": config_hash, "activation": net.activation,
              "step": step, "adam_step": state.step, "lr_init": state.lr_init,
              "lr_final": state.lr_final, "decay_steps": state.decay_steps, "run_state": {}}
    arrays = {"header": np.str_(json.dumps(header))}
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"w{i}"], arrays[f"b{i}"] = w, b
    for i, (m, v) in enumerate(zip(net.layout(state.m), net.layout(state.v))):
        arrays[f"adam_m{i}"], arrays[f"adam_v{i}"] = m, v
    savez_deterministic(path, arrays)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        net = make_net(seed=12, hidden=(8, 7))
        state = OptimizerState.for_network(net, 1e-3, 1e-5, 7)
        rng = np.random.default_rng(13)
        for _ in range(3):
            adam_step(state, net, rng.normal(size=net.params.shape))
        # Keys out of sorted order, at the top and nested: order must survive.
        run_state = {"zeta": [0.1, None], "weights": {"UN": 0.5, "EU": 2.0, "AF": 1 / 3},
                     "alpha": 7}
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, net, state, step=3, config_hash="abc123", run_state=run_state)
        net2, state2, step, chash, run_state2 = load_checkpoint(path, "abc123")
        assert step == 3 and chash == "abc123"
        assert run_state2 == run_state
        assert list(run_state2) == list(run_state)
        assert list(run_state2["weights"]) == list(run_state["weights"])
        assert net2.activation == net.activation
        assert len(net2.weights) == len(net.weights) == 3
        for a, b in zip(net.parameters(), net2.parameters()):
            assert np.array_equal(a, b)
        assert np.array_equal(state.m, state2.m) and np.array_equal(state.v, state2.v)
        assert (state2.step, state2.lr_init, state2.lr_final, state2.decay_steps) == (
            state.step, state.lr_init, state.lr_final, state.decay_steps)
        with np.load(path) as z:
            assert z.files == ["header", "params", "adam_m", "adam_v"]
            assert z["header"].dtype == np.uint8
            header = json.loads(z["header"].tobytes().decode("utf-8"))
        assert header["shapes"] == [list(s) for s in net.shapes]

    def test_interrupted_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        net = make_net()
        state = OptimizerState.for_network(net, 1e-3, 1e-5, 7)
        path = tmp_path / "ckpt_000000.npz"
        save_checkpoint(path, net, state, 0, "x")
        before = path.read_bytes()
        writestr = zipfile.ZipFile.writestr

        def fail_after_header(zf, info, data):
            if info.filename != "header.npy":
                raise OSError("disk full")
            writestr(zf, info, data)

        monkeypatch.setattr(zipfile.ZipFile, "writestr", fail_after_header)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, net, state, 1, "x")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_hash_mismatch_rejected(self, tmp_path):
        net = make_net()
        state = OptimizerState.for_network(net, 1e-3, 1e-5, 7)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, net, state, 0, "deadbeef")
        with pytest.raises(ConfigError):
            load_checkpoint(path, "someotherhash")

    def test_version_1_rejected(self, tmp_path):
        net = make_net()
        state = OptimizerState.for_network(net, 1e-3, 1e-5, 7)
        for version, write in ((1, write_v1_checkpoint), (2, write_v2_checkpoint)):
            path = tmp_path / f"v{version}.npz"
            write(path, net, state, 0, "deadbeef")
            with pytest.raises(ConfigError, match="version-3"):
                load_checkpoint(path)

    # A dict updates the saved header; make_net's true shapes are
    # [[6, 8], [8], [8, 5], [5]].
    @pytest.mark.parametrize("header, match", [
        ("{not json", "version-3"), ('{"version": 2}', "version-3"), ("[3]", "version-3"),
        ('{"version": 3}', "lacks .*'config_hash'"),
        ({"shapes": [[6, 9], [9], [9, 5], [5]]}, "shapes do not fit"),
    ], ids=["not-json", "other-version", "not-an-object", "missing-keys", "shapes-disagree"])
    def test_bad_header_rejected(self, tmp_path, header, match):
        net = make_net()
        path = tmp_path / "bad.npz"
        save_checkpoint(path, net, OptimizerState.for_network(net, 1e-3, 1e-5, 7), 0, "x")
        with np.load(path) as z:
            arrays = {name: z[name] for name in z.files}
        if isinstance(header, dict):
            header = json.dumps({**json.loads(arrays["header"].tobytes()), **header})
        arrays["header"] = np.frombuffer(header.encode(), dtype=np.uint8)
        savez_deterministic(path, arrays)
        with pytest.raises(ConfigError, match=match):
            load_checkpoint(path)

    def test_moments_must_fit_the_parameters(self, tmp_path):
        net = make_net()
        path = tmp_path / "bad.npz"
        save_checkpoint(path, net, OptimizerState.for_network(net, 1e-3, 1e-5, 7), 0, "x")
        with np.load(path) as z:
            arrays = {name: z[name] for name in z.files}
        arrays["adam_v"] = arrays["adam_v"][:-1]
        savez_deterministic(path, arrays)
        with pytest.raises(ConfigError, match="Adam moments"):
            load_checkpoint(path)


class TestTrainingConfig:
    def test_defaults_valid(self):
        TrainingConfig().validate()

    def test_minibatch_bound(self):
        with pytest.raises(ConfigError):
            TrainingConfig(batch_n=4, minibatch_size=9).validate()

    def test_margin_positive(self):
        with pytest.raises(ConfigError):
            TrainingConfig(margin=0.0).validate()
