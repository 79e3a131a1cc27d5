"""Acceptance gate: one test per criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v`; a PASS/FAIL line per criterion
is printed in the terminal summary. The end-to-end criteria (5 and 6) train
the five desk presets (configs/{natural,equal,adjusted,dynamic,homogeneous}.yaml)
and take a few minutes; everything else is fast.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from fairtriplet.config import EvalConfig, ExperimentConfig, SamplerConfig, load_config
from fairtriplet.core import CONTINENTS, normalize_rows
from fairtriplet.datagen import GeneratorConfig
from fairtriplet.evaluation import (
    EvalSet,
    calibrate_threshold_from_distances,
    default_theta_grid,
    far_counts,
    frr_counts,
    roc_curve,
    roc_curve_over_splits,
)
from fairtriplet.harness import latest_checkpoint, run_eval, run_training
from fairtriplet.mining import MiningBatch, assemble_batch, mine_semi_hard, semi_hard_candidates
from fairtriplet.model import (
    EmbeddingNetwork,
    TrainingConfig,
    loss_gradients,
    triplet_loss,
)
from fairtriplet.sampling import (
    FAR_WEIGHT_EXPONENT,
    SamplerSpec,
    choose_homogeneous_group,
    continent_adjusted_weights,
    probabilities,
    raw_dynamic_weights,
    update_dynamic_weights,
)

# ---------------------------------------------------------------------------
# Shared desk-scale training runs (criteria 5 and 6)
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parent.parent
DESK_PRESETS = ("natural", "equal", "adjusted", "dynamic", "homogeneous")


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """Train the five desk presets in configs/ once; reports and wall-clock per
    strategy."""
    root = tmp_path_factory.mktemp("desk")
    out = {}
    for name in DESK_PRESETS:
        cfg = load_config(REPO / "configs" / f"{name}.yaml").with_(output_dir=str(root / name))
        t0 = time.perf_counter()
        record = run_training(cfg)
        report = run_eval(cfg, latest_checkpoint(cfg.output_dir))
        out[name] = {
            "config": cfg,
            "record": record,
            "report": report,
            "seconds": time.perf_counter() - t0,
        }
    return out


# ---------------------------------------------------------------------------
# Criterion 1: far/frr match brute-force enumeration exactly
# ---------------------------------------------------------------------------

def _brute_counts(selfies, sids, docs, dids, genuine_s, genuine_d, theta):
    accepted = comparisons = 0
    for i in range(len(selfies)):
        for j in range(len(docs)):
            if sids[i] == dids[j]:
                continue
            comparisons += 1
            diff = selfies[i] - docs[j]
            if float(np.dot(diff, diff)) < theta:
                accepted += 1
    rejected = 0
    for i in range(len(genuine_s)):
        diff = genuine_s[i] - genuine_d[i]
        if float(np.dot(diff, diff)) >= theta:
            rejected += 1
    return accepted, comparisons, rejected


def test_criterion_1_metric_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    for trial in range(50):
        m = int(rng.integers(5, 201))
        dim = int(rng.integers(3, 12))
        selfie = normalize_rows(rng.normal(size=(m, dim)))
        doc = normalize_rows(rng.normal(size=(m, dim)))
        # duplicated identities in roughly a third of the trials
        if trial % 3 == 0:
            ids = rng.integers(0, max(m - 2, 1), size=m).astype(np.int64)
        else:
            ids = np.arange(m, dtype=np.int64)
        theta = float(rng.uniform(0.0, 4.2))
        accepted, comparisons = far_counts(selfie, ids, doc, ids, theta)
        es = EvalSet(
            selfie_emb=selfie, doc_emb=doc, identity_ids=ids,
            genders=np.array(["male"] * m),
        )
        rejected, total = frr_counts(es, theta)
        b_acc, b_comp, b_rej = _brute_counts(selfie, ids, doc, ids, selfie, doc, theta)
        assert (accepted, comparisons) == (b_acc, b_comp)
        assert (rejected, total) == (b_rej, m)
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# Criterion 2: analytic gradients vs central finite differences
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(2002)
    t0 = time.perf_counter()
    h = 1e-5
    margin = 0.6
    worst = 0.0
    checked = 0
    for _ in range(20):
        dim_in = int(rng.integers(4, 8))
        net = EmbeddingNetwork.create(dim_in, (int(rng.integers(5, 10)),),
                                      int(rng.integers(3, 7)), "tanh", rng)
        n_images = 15
        feats = rng.normal(size=(n_images, dim_in)) * 1.5
        a = rng.integers(0, 5, size=6)
        p = rng.integers(5, 10, size=6)
        n = rng.integers(10, 15, size=6)

        # exclude triplets on the hinge boundary (|D2_ap - D2_an + margin| < 1e-6)
        z = net.forward(feats)
        viol = np.array([
            float(((z[ai] - z[pi]) ** 2).sum() - ((z[ai] - z[ni]) ** 2).sum() + margin)
            for ai, pi, ni in zip(a, p, n)
        ])
        keep = np.abs(viol) >= 1e-6
        if not np.any(keep):
            continue
        trips = (a[keep], p[keep], n[keep])
        _, grads = loss_gradients(net, feats, trips, margin)

        def loss_fn(m):
            zz = m.forward(feats)
            vals = [triplet_loss(zz[ai], zz[pi], zz[ni], margin)
                    for ai, pi, ni in zip(*trips)]
            return sum(vals) / len(vals)

        for param, g in zip(net.parameters(), net.layout(grads)):
            fd = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + h
                lp = loss_fn(net)
                param[idx] = orig - h
                lm = loss_fn(net)
                param[idx] = orig
                fd[idx] = (lp - lm) / (2 * h)
            scale = max(np.abs(fd).max(), np.abs(g).max(), 1e-8)
            worst = max(worst, float(np.abs(fd - g).max() / scale))
        checked += 1
    assert checked >= 15
    assert worst < 1e-4
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# Criterion 3: semi-hard miner vs O(N^2) brute force
# ---------------------------------------------------------------------------

def _random_mining_batch(rng, n, dim=6):
    ids = rng.integers(0, max(2 * n // 3, 2), size=n).astype(np.int64)
    return MiningBatch(
        pair_indices=np.arange(n),
        identity_ids=ids,
        features=np.vstack([rng.normal(size=(n, dim)), rng.normal(size=(n, dim))]),
        selfie_emb=normalize_rows(rng.normal(size=(n, dim))),
        doc_emb=normalize_rows(rng.normal(size=(n, dim))),
    )


def test_criterion_3_miner_oracle():
    rng = np.random.default_rng(3003)
    margin = 0.6
    for _ in range(50):
        n = int(rng.integers(4, 257))
        batch = _random_mining_batch(rng, n)
        got = semi_hard_candidates(batch, margin)
        # brute force by scalar distances
        for i in range(n):
            diff = batch.selfie_emb[i] - batch.doc_emb[i]
            d_ap = float(np.dot(diff, diff))
            sel, doc = [], []
            for j in range(n):
                if batch.identity_ids[j] == batch.identity_ids[i]:
                    continue
                ds = batch.selfie_emb[i] - batch.doc_emb[j]
                if float(np.dot(ds, ds)) < d_ap + margin:
                    sel.append(j)
                dd = batch.doc_emb[i] - batch.selfie_emb[j]
                if float(np.dot(dd, dd)) < d_ap + margin:
                    doc.append(j)
            assert got[(i, "selfie")].tolist() == sel
            assert got[(i, "doc")].tolist() == doc

    # constraint audit over >= 1e5 mined triplets
    total = 0
    while total < 100_000:
        batch = _random_mining_batch(rng, 256)
        trips = mine_semi_hard(batch, margin, rng)
        ids = batch.identity_ids
        n = batch.n
        for anchor, positive, negative in zip(*trips):
            if anchor < n:  # selfie anchor
                assert anchor < n and positive >= n and negative >= n
                a, p, neg = anchor, positive - n, negative - n
            else:
                assert anchor >= n and positive < n and negative < n
                a, p, neg = anchor - n, positive, negative
            assert a == p and ids[a] == ids[p] and ids[neg] != ids[a]
        total += len(trips[0])
    assert total >= 100_000


# ---------------------------------------------------------------------------
# Criterion 4: dynamic-weight power law and averaging identities
# ---------------------------------------------------------------------------

def test_criterion_4_dynamic_weight_law():
    rng = np.random.default_rng(4004)
    lam = FAR_WEIGHT_EXPONENT
    for _ in range(200):
        fars = {f"g{k}": float(rng.uniform(1e-7, 1.0)) for k in range(6)}
        w = raw_dynamic_weights(fars, lam, far_floor=1e-9)
        groups = list(fars)
        for g1 in groups[:3]:
            for g2 in groups[3:]:
                expected = (fars[g1] / fars[g2]) ** lam
                assert abs(w[g1] / w[g2] - expected) <= 1e-12 * max(expected, 1.0)
    # a 10x FAR increase is exactly a 4x weight increase
    w = raw_dynamic_weights({"a": 1e-4, "b": 1e-3}, lam, 1e-9)
    assert abs(w["b"] / w["a"] - 4.0) < 1e-12

    # exponential-averaging fixed point, exactly
    weights = {"a": 0.377, "b": 0.911}
    new = update_dynamic_weights(weights, {"a": 0.377, "b": 0.911}, lam=1.0,
                                 alpha_smooth=0.2, far_floor=1e-12)
    assert new == weights

    # alpha_smooth = 1 returns the raw weights, exactly
    new = update_dynamic_weights({"a": 0.5, "b": 0.25}, {"a": 0.125, "b": 0.75}, lam=1.0,
                                 alpha_smooth=1.0, far_floor=1e-12)
    assert new == {"a": 0.125, "b": 0.75}


# ---------------------------------------------------------------------------
# Criterion 5: end-to-end differential reproduction
# ---------------------------------------------------------------------------

def test_criterion_5_differential_reproduction(desk_runs):
    natural = desk_runs["natural"]["report"]
    ratio = {}
    for name in ("natural", "equal", "adjusted", "dynamic"):
        rep = desk_runs[name]["report"]
        worst = max(rep["group_far"].values())
        ratio[name] = worst / rep["overall"]["far"]

    # (a) natural sampling leaves the worst group >= 10x the overall FAR
    assert ratio["natural"] >= 10.0, ratio

    # (b) every mitigation cuts the worst-to-overall ratio by >= 3x
    for name in ("equal", "adjusted", "dynamic"):
        assert ratio[name] <= ratio["natural"] / 3.0, (name, ratio)

    # (c) the FRR cost of mitigation stays within 2x of the baseline
    base_frr = natural["overall"]["frr"]
    for name in ("equal", "adjusted", "dynamic"):
        frr = desk_runs[name]["report"]["overall"]["frr"]
        assert frr <= 2.0 * base_frr, (name, frr, base_frr)

    # runtime budget for the four strategy runs
    total = sum(desk_runs[n]["seconds"] for n in ("natural", "equal", "adjusted", "dynamic"))
    assert total < 1200.0, f"strategy runs took {total:.0f}s"


# ---------------------------------------------------------------------------
# Criterion 6: homogeneous-batch instability
# ---------------------------------------------------------------------------

def test_criterion_6_homogeneous_instability(desk_runs):
    floor = desk_runs["equal"]["config"].eval.resolved_far_floor()

    def group_log_far_variances(record):
        epochs = record.epochs
        out = {}
        for g in CONTINENTS:
            series = np.log10([max(e["group_far"][g], floor) for e in epochs])
            out[g] = float(np.var(series))
        return out

    var_h = group_log_far_variances(desk_runs["homogeneous"]["record"])
    var_m = group_log_far_variances(desk_runs["equal"]["record"])
    mean_h = float(np.mean(list(var_h.values())))
    mean_m = float(np.mean(list(var_m.values())))
    assert mean_h > mean_m, (var_h, var_m)


# ---------------------------------------------------------------------------
# Criterion 7: sampler statistics within multinomial bounds
# ---------------------------------------------------------------------------

def test_criterion_7_sampler_statistics():
    ds = __import__("fairtriplet.datagen", fromlist=["generate_dataset"]).generate_dataset(
        GeneratorConfig(seed=707, n_pairs=30_000, input_dim=8)
    )
    rng = np.random.default_rng(707)
    specs = {
        "natural": SamplerSpec("natural", axis="continent"),
        "equal": SamplerSpec("fixed", axis="continent",
                             weights={g: 1.0 for g in CONTINENTS}),
        "adjusted": SamplerSpec("fixed", axis="continent",
                                weights=continent_adjusted_weights()),
        "dynamic": SamplerSpec("dynamic", axis="continent",
                               weights={"EU": 1.0, "AM": 0.5, "AF": 4.0,
                                        "AS": 2.0, "OC": 0.25, "UN": 1.25}),
    }
    n_draws = 10_000
    for name, spec in specs.items():
        probs = probabilities(spec, ds)
        counts = {g: 0 for g in probs}
        drawn = 0
        while drawn < n_draws:
            batch = assemble_batch(ds, spec, 1000, rng)
            for g in ds.labels(spec.axis)[batch.pair_indices].tolist():
                counts[g] += 1
            drawn += batch.n
        for g, p in probs.items():
            if p == 0:
                assert counts[g] == 0
                continue
            sigma = np.sqrt(drawn * p * (1 - p))
            assert abs(counts[g] - drawn * p) <= 4 * sigma, (name, g, counts[g], drawn * p)

    # homogeneous: the batch-level group draw follows the weights
    weights = continent_adjusted_weights()
    total_w = sum(weights.values())
    counts = {g: 0 for g in weights}
    for _ in range(n_draws):
        counts[choose_homogeneous_group(weights, rng)] += 1
    for g, w in weights.items():
        p = w / total_w
        sigma = np.sqrt(n_draws * p * (1 - p))
        assert abs(counts[g] - n_draws * p) <= 4 * sigma, (g, counts[g])


# ---------------------------------------------------------------------------
# Criterion 8: calibration contract and ROC monotonicity
# ---------------------------------------------------------------------------

def test_criterion_8_calibration_contract():
    rng = np.random.default_rng(808)
    for _ in range(100):
        n = int(rng.integers(20, 2000))
        dists = np.sort(rng.uniform(0.0, 4.0, size=n))
        if rng.random() < 0.3:  # ties
            dists = np.round(dists, 1)
            dists.sort()
        target = float(rng.uniform(1.5 / n, 1.0))
        theta = calibrate_threshold_from_distances(dists, target)
        assert np.sum(dists < theta) / n <= target
        above = dists[dists > theta]
        if above.size:
            assert np.sum(dists < above[0]) / n > target

    for seed in range(5):
        r = np.random.default_rng(900 + seed)
        m = int(r.integers(30, 120))
        es = EvalSet(
            selfie_emb=normalize_rows(r.normal(size=(m, 5))),
            doc_emb=normalize_rows(r.normal(size=(m, 5))),
            identity_ids=np.arange(m, dtype=np.int64),
            genders=np.array(["male"] * m),
        )
        grid = default_theta_grid(es, 30)
        for curve in (roc_curve(es, grid),
                      roc_curve_over_splits(es, grid, 5, 0.6, r)):
            assert np.all(np.diff(curve.thetas) > 0)
            assert np.all(np.diff(curve.far) >= 0)
            assert np.all(np.diff(curve.frr) <= 0)


# ---------------------------------------------------------------------------
# Criterion 9: determinism and checkpoint resume
# ---------------------------------------------------------------------------

def _tiny_cfg(out_dir: Path, seed=55) -> ExperimentConfig:
    return ExperimentConfig(
        seed=seed,
        output_dir=str(out_dir),
        data=GeneratorConfig(n_pairs=1500, input_dim=16),
        training=TrainingConfig(total_steps=6, batch_n=128, minibatch_size=32,
                                hidden_dims=(16,), embed_dim=8),
        sampler=SamplerConfig(variant="dynamic", axis="continent"),
        eval=EvalConfig(target_far=1e-2, n_eval_pairs=300, group_pool_size=60,
                        validation_every=2, roc_points=10),
    )


def _deterministic_outputs(run_dir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(run_dir)): p.read_bytes()
        for p in sorted(Path(run_dir).rglob("*"))
        if p.is_file() and p.name != "timings.json"
    }


def test_criterion_9_determinism_and_resume(tmp_path):
    cfg_a = _tiny_cfg(tmp_path / "a")
    cfg_b = _tiny_cfg(tmp_path / "b")
    run_training(cfg_a)
    run_training(cfg_b)
    run_eval(cfg_a, latest_checkpoint(cfg_a.output_dir))
    run_eval(cfg_b, latest_checkpoint(cfg_b.output_dir))
    outs_a = _deterministic_outputs(Path(cfg_a.output_dir))
    outs_b = _deterministic_outputs(Path(cfg_b.output_dir))
    assert list(outs_a) == list(outs_b)
    for name in outs_a:
        assert outs_a[name] == outs_b[name], f"{name} differs between identical runs"

    # interrupt at a non-validation step, resume, compare everything
    cfg_c = _tiny_cfg(tmp_path / "c")
    run_training(cfg_c, stop_after=3)
    run_training(cfg_c, resume_from=latest_checkpoint(cfg_c.output_dir))
    run_eval(cfg_c, latest_checkpoint(cfg_c.output_dir))
    outs_c = _deterministic_outputs(Path(cfg_c.output_dir))
    # the interrupt checkpoint is an artifact of stopping; ignore it
    extra = set(outs_c) - set(outs_a)
    assert extra <= {"checkpoints/ckpt_000003.npz"}
    for name in outs_a:
        assert outs_c[name] == outs_a[name], f"{name} differs after resume"

    metrics = json.loads((Path(cfg_c.output_dir) / "metrics.json").read_text())
    # dynamic-weight trajectory obeys the update law exactly, from the logs
    floor = cfg_c.eval.resolved_far_floor()
    for entry in metrics["epochs"]:
        prev = entry["dynamic_weights_prev"]
        fars = entry["group_far"]
        new = entry["dynamic_weights"]
        for g, w_prev in prev.items():
            raw = max(fars[g], floor) ** FAR_WEIGHT_EXPONENT
            assert new[g] == w_prev + 0.2 * (raw - w_prev), g
