import gc
import importlib
import json
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from gridcast.data import SplitSpec, chronological_split, standardize, synthetic_sines
from gridcast.errors import ConfigError, DivergenceError, GridcastError, NumericError, ShapeError
from gridcast.model import ModelConfig, build, forward
from gridcast.tensor import Tensor
from gridcast.train import (
    OptimState,
    TrainHyper,
    adam_step,
    clip_gradients,
    evaluate,
    mse,
    persistence_baseline,
    sample_variates,
    train,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# -- losses ------------------------------------------------------------------


def test_mse_identical_is_zero():
    x = rng(1).normal(size=(2, 3, 2))
    assert mse(Tensor(x), x).item() == 0.0


def test_mse_unit_offset():
    x = rng(2).normal(size=(2, 3, 2))
    assert abs(mse(Tensor(x + 1.0), x).item() - 1.0) < 1e-12


def test_losses_match_loop_oracle():
    a = rng(4).normal(size=(2, 3, 2))
    b = rng(5).normal(size=(2, 3, 2))
    assert abs(mse(Tensor(a), b).item() - oracles.mse_oracle(a, b)) < 1e-12


def test_losses_shape_mismatch():
    with pytest.raises(ShapeError):
        mse(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))


def test_mse_gradient():
    pred = Tensor(rng(6).normal(size=(4,)), requires_grad=True)
    target = rng(7).normal(size=(4,))
    mse(pred, target).backward()
    np.testing.assert_allclose(pred.grad, 2.0 * (pred.data - target) / 4.0)


def test_mse_node_matches_composite_bit_for_bit_in_c_order():
    # forward's prediction is a [B, F, N] view of a [B, N, F] array, and
    # train() takes the target's variate subset by fancy indexing
    r = rng(8)
    B, F, N, k = 6, 24, 21, 17
    pred_data = r.normal(size=(B, k, F)).transpose(0, 2, 1)
    target = r.normal(size=(B, F, N))[:, :, np.sort(r.choice(N, size=k, replace=False))]
    node_pred = Tensor(pred_data, requires_grad=True)
    composite_pred = Tensor(pred_data, requires_grad=True)
    loss = mse(node_pred, target)
    reference = oracles.mse_composite(composite_pred, target)
    loss.backward()
    reference.backward()
    assert loss.data.tobytes() == reference.data.tobytes()
    assert node_pred.grad.tobytes() == composite_pred.grad.tobytes()
    # the gradient's layout sets the sum order of every op downstream
    assert node_pred.grad.flags.c_contiguous and composite_pred.grad.flags.c_contiguous


def test_mse_node_keeps_model_gradients_bit_for_bit():
    cfg, params, (tr, _, _) = tiny_setup(seed=9, N=6)
    x = tr.values[None, : cfg.T + cfg.F].repeat(3, axis=0) + rng(9).normal(size=(3, 1, 6))
    sub = np.array([0, 2, 3, 5])
    inputs, targets = x[:, : cfg.T, sub], x[:, cfg.T :, sub]
    grads = []
    for loss_fn in (mse, oracles.mse_composite):
        for _, t in params.named_parameters():
            t.zero_grad()
        pred, _ = forward(inputs, params, cfg, training=True)
        loss_fn(pred, targets).backward()
        grads.append([t.grad.tobytes() for _, t in params.named_parameters()])
    assert grads[0] == grads[1]


# -- adam --------------------------------------------------------------------


def test_adam_zero_grad_no_move():
    t = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = OptimState(lr=0.1)
    adam_step([("w", t)], {"w": np.zeros(2)}, state)
    np.testing.assert_array_equal(t.data, [1.0, -2.0])
    assert state.step == 1


def test_adam_first_step_scalar_trace():
    # m_hat = g, v_hat = g^2 on step 1, so the move is -lr * 1 / (1 + eps)
    t = Tensor(np.array([0.0]), requires_grad=True)
    state = OptimState(lr=0.1)
    adam_step([("w", t)], {"w": np.array([1.0])}, state)
    np.testing.assert_allclose(t.data, [-0.1 / (1.0 + 1e-8)], rtol=1e-15)


def test_adam_identical_params_identical_updates():
    a = Tensor(np.array([0.5]), requires_grad=True)
    b = Tensor(np.array([0.5]), requires_grad=True)
    g = np.array([0.3])
    state = OptimState(lr=0.01)
    for _ in range(5):
        adam_step([("a", a), ("b", b)], {"a": g, "b": g}, state)
    assert (a.data == b.data).all()


def test_adam_missing_grad_names_parameter():
    t = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(GridcastError) as err:
        adam_step([("encoder.w", t)], {}, OptimState())
    assert "encoder.w" in str(err.value)


def test_adam_descends_quadratic():
    t = Tensor(np.array([3.0]), requires_grad=True)
    state = OptimState(lr=0.05)
    for _ in range(200):
        adam_step([("w", t)], {"w": 2.0 * t.data}, state)
    assert abs(t.data[0]) < 0.5


# -- gradient clipping -------------------------------------------------------


def test_clip_below_threshold_untouched():
    t = Tensor(np.zeros(3), requires_grad=True)
    t.grad = np.array([0.3, 0.0, 0.4])
    norm = clip_gradients([("w", t)], max_norm=5.0)
    assert abs(norm - 0.5) < 1e-12
    np.testing.assert_array_equal(t.grad, [0.3, 0.0, 0.4])


def test_clip_scales_to_max_norm():
    a = Tensor(np.zeros(2), requires_grad=True)
    b = Tensor(np.zeros(1), requires_grad=True)
    a.grad = np.array([3.0, 0.0])
    b.grad = np.array([4.0])
    norm = clip_gradients([("a", a), ("b", b)], max_norm=1.0)
    assert abs(norm - 5.0) < 1e-12
    total = float((a.grad**2).sum() + (b.grad**2).sum())
    assert abs(np.sqrt(total) - 1.0) < 1e-12


# -- variate sampling --------------------------------------------------------


def test_sample_variates_full_ratio():
    np.testing.assert_array_equal(sample_variates(6, 1.0, rng(0)), np.arange(6))


def test_sample_variates_size():
    out = sample_variates(10, 0.2, rng(1))
    assert out.shape == (2,)
    assert (np.sort(out) == out).all()
    assert len(set(out.tolist())) == 2


def test_sample_variates_minimum_one():
    assert sample_variates(7, 0.01, rng(2)).shape == (1,)


def test_sample_variates_uniform_frequency():
    r = rng(3)
    counts = np.zeros(10)
    draws = 10_000
    for _ in range(draws):
        counts[sample_variates(10, 0.5, r)] += 1
    freq = counts / draws
    assert np.abs(freq - 0.5).max() < 0.02




# -- persistence baseline ----------------------------------------------------


def test_persistence_constant_series():
    from gridcast.data import TimeSeriesDataset

    ds = TimeSeriesDataset("c", np.full((50, 2), 3.0))
    m, a = persistence_baseline(ds, T=8, F=4)
    assert m == 0.0 and a == 0.0


def test_persistence_sine_matches_direct_evaluation():
    from gridcast.data import TimeSeriesDataset

    period = 24
    t = np.arange(200, dtype=np.float64)
    ds = TimeSeriesDataset("s", np.sin(2 * np.pi * t / period)[:, None])
    T, F = 16, period // 2
    got_mse, got_mae = persistence_baseline(ds, T, F)
    # direct evaluation, window by window
    se = ae = 0.0
    count = 0
    x = ds.values[:, 0]
    for s in range(200 - T - F + 1):
        last = x[s + T - 1]
        for i in range(F):
            d = last - x[s + T + i]
            se += d * d
            ae += abs(d)
            count += 1
    assert abs(got_mse - se / count) < 1e-12
    assert abs(got_mae - ae / count) < 1e-12
    assert got_mae >= 0.0


# -- evaluate ----------------------------------------------------------------


def tiny_setup(seed=0, N=4, **cfg_kw):
    base = dict(T=24, F=8, P=8, S=4, D=8, H=2, L=2, D_ff=16, dropout=0.0, seed=seed)
    base.update(cfg_kw)
    cfg = ModelConfig(**base)
    ds = synthetic_sines(700, n_variates=N, period=48, noise=0.05, seed=seed)
    tr, va, te = chronological_split(ds, SplitSpec(6, 2, 2))
    tr, va, te, _ = standardize(tr, va, te)
    return cfg, build(cfg, rng(seed)), (tr, va, te)


def test_evaluate_matches_manual_batching():
    cfg, params, (tr, va, te) = tiny_setup(seed=8)
    got_mse, got_mae = evaluate(params, cfg, va, batch_size=7)
    from gridcast.data import make_windows

    se = ae = 0.0
    count = 0
    for batch in make_windows(va, cfg.T, cfg.F, batch_size=1):
        pred, _ = forward(batch.inputs, params, cfg)
        diff = pred.data - batch.targets
        se += float((diff**2).sum())
        ae += float(np.abs(diff).sum())
        count += diff.size
    assert abs(got_mse - se / count) < 1e-10
    assert abs(got_mae - ae / count) < 1e-10


# -- training loop -----------------------------------------------------------


def test_train_lr_zero_val_constant():
    cfg, params, datasets = tiny_setup(seed=9)
    report = train(params, cfg, datasets, TrainHyper(lr=0.0, batch_size=32, max_epochs=3, patience=10))
    assert len(set(report.val_mse)) == 1
    assert report.epochs_run == 3


def test_a_frozen_step_builds_no_graph(monkeypatch):
    losses = []

    def recording_mse(pred, target):
        losses.append(mse(pred, target))
        return losses[-1]

    monkeypatch.setattr(importlib.import_module("gridcast.train"), "mse", recording_mse)
    cfg, params, datasets = tiny_setup(seed=9)
    train(params, cfg, datasets, TrainHyper(lr=0.0, batch_size=32, max_epochs=1))
    assert losses and all(loss._node is None for loss in losses)
    losses.clear()
    train(params, cfg, datasets, TrainHyper(lr=1e-3, batch_size=32, max_epochs=1))
    assert losses and all(loss._node is not None for loss in losses)


def test_single_step_decreases_batch_loss():
    from gridcast.data import make_windows
    from gridcast.train import OptimState

    cfg, params, (tr, _, _) = tiny_setup(seed=10)
    batch = next(make_windows(tr, cfg.T, cfg.F, batch_size=32))

    def loss_after_step(lr):
        p = build(cfg, rng(10))
        named = p.named_parameters()
        pred, _ = forward(batch.inputs, p, cfg, training=True)
        before = mse(pred, batch.targets)
        before.backward()
        adam_step(named, {n: t.grad for n, t in named}, OptimState(lr=lr))
        pred2, _ = forward(batch.inputs, p, cfg, training=True)
        return before.item(), mse(pred2, batch.targets).item()

    before, after = loss_after_step(1e-4)
    if after >= before:  # one retry at a smaller step, then it must hold
        before, after = loss_after_step(1e-5)
    assert after < before


def test_train_improves_and_reports(tmp_path):
    cfg, params, datasets = tiny_setup(seed=11)
    log = tmp_path / "epochs.jsonl"
    hyper = TrainHyper(lr=1e-3, batch_size=32, max_epochs=3, patience=5, seed=11)
    report = train(params, cfg, datasets, hyper, log_path=str(log))
    assert report.epochs_run == 3
    assert report.train_loss[-1] < report.train_loss[0]
    assert np.isfinite(report.test_mse) and report.test_mse >= 0
    assert report.best_epoch >= 0
    assert report.wall_time_s > 0 and report.peak_rss_mb > 0
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(lines) == 3
    assert lines[0]["epoch"] == 0 and "val_mse" in lines[0]
    np.testing.assert_allclose([l["val_mse"] for l in lines], report.val_mse)


def test_train_frees_each_step_graph_before_the_next_forward(monkeypatch):
    # gridcast.train the attribute is the re-exported train() function
    train_mod = importlib.import_module("gridcast.train")
    real_forward = train_mod.forward
    preds, seen_alive = [], []

    def forward_watching_preds(*args, **kwargs):
        seen_alive.append(sum(ref() is not None for ref in preds))
        pred, maps = real_forward(*args, **kwargs)
        preds.append(weakref.ref(pred))
        return pred, maps

    monkeypatch.setattr(train_mod, "forward", forward_watching_preds)
    cfg, params, datasets = tiny_setup(seed=17)
    enabled = gc.isenabled()
    gc.disable()
    try:
        hyper = TrainHyper(lr=1e-3, batch_size=32, max_epochs=1, seed=17)
        steps = train(params, cfg, datasets, hyper).steps
    finally:
        if enabled:
            gc.enable()
    # every training forward and the first validation forward
    assert steps > 2
    assert seen_alive[: steps + 1] == [0] * (steps + 1)


def kept_by_training_forward(N, B=4, **model):
    """Bytes a training forward of the reference model (dropout 0.2), with
    ``model``'s config fields changed, on B windows of N variates leaves
    alive until backward, and the activations its graph keeps:
    ``oracles.kept_arrays`` without the parameters. Its parameters'
    gradients are finite."""
    cfg = ModelConfig(T=96, F=24, **model)
    params = build(cfg, rng(0))
    x = rng(5).normal(size=(B, cfg.T + cfg.F, N))
    drop = rng(7)

    def loss_of_forward():
        pred, _ = forward(x[:, : cfg.T], params, cfg, training=True, rng=drop)
        return mse(pred, x[:, cfg.T :])

    loss_of_forward().backward()  # the batch-norm running statistics now exist
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = loss_of_forward()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    weights = [t.data for _, t in params.named_parameters()]
    activations = [
        (op, a) for op, a in oracles.kept_arrays(loss)
        if not any(np.may_share_memory(a, w) for w in weights)
    ]
    loss.backward()
    assert all(np.isfinite(t.grad).all() for _, t in params.named_parameters())
    return kept, activations


def test_a_training_forward_keeps_only_what_backward_reads():
    # At 8 variates, batch 4: 2,374,504 bytes while products with a constant
    # and dropout kept their other operand and gelu kept x and tanh,
    # 1,705,120 once each vjp kept only what its parents' gradients read,
    # 1,457,976 since the attention weights are recomputed in backward,
    # 1,059,320 since Q, K and V are recomputed from the layer input too,
    # 664,000 since the FFN's hidden array and gelu's slope are too,
    # about 639,750 since the embedding keeps a view of the padded series,
    # not a copy of its patches.
    # Pinning one more [4, 12, 8, 32] FFN array per layer (98 KB) crosses
    # the bound.
    kept, activations = kept_by_training_forward(8)
    by_op = oracles.kept_bytes_by_op(activations)
    assert kept < 700_000, f"{kept:,} bytes; activations by op: {by_op}"


def test_a_training_forward_keeps_no_d_ff_wide_activation():
    # the FFN's checkpoint node keeps its input; its [B, M, N, D_ff] hidden
    # array and gelu's slope are recomputed in backward
    D_ff = ModelConfig(T=96, F=24).D_ff
    _, activations = kept_by_training_forward(8)
    assert activations, "the walk found no kept arrays"
    wide = [(op, a.shape) for op, a in activations if a.shape[-1:] == (D_ff,)]
    assert wide == []


def test_a_training_forward_keeps_no_patch_buffer():
    # the embedding's node keeps the [B, T', N] padded series that its
    # [B, M, N, P] patches view, not a patch-sized copy; D=8 keeps the token
    # grids smaller than the patches, which have P = 16 entries per token
    B, N = 4, 8
    cfg = ModelConfig(T=96, F=24, D=8)
    _, activations = kept_by_training_forward(N, B, D=8)
    owners = [oracles._owner(a) for _, a in activations]
    padded_len = (cfg.M - 1) * cfg.S + cfg.P
    patch_sized = [o.shape for o in owners if o.size == B * cfg.M * N * cfg.P]
    assert patch_sized == []
    assert (B, padded_len, N) in [o.shape for o in owners]


def test_kept_bytes_grow_linearly_in_the_variates():
    # token-sized activations grow as N, stored N x N attention weights as
    # N^2: 16 -> 64 variates keeps 3.90x the bytes with recompute, and 5.30x
    # when the weights were kept
    assert kept_by_training_forward(64)[0] / kept_by_training_forward(16)[0] < 4.5


def test_train_restores_best_checkpoint():
    cfg, params, datasets = tiny_setup(seed=12)
    hyper = TrainHyper(lr=1e-3, batch_size=32, max_epochs=4, patience=10, seed=12)
    report = train(params, cfg, datasets, hyper)
    v_mse, _ = evaluate(params, cfg, datasets[1], batch_size=32)
    assert abs(v_mse - report.val_mse[report.best_epoch]) < 1e-12
    assert min(report.val_mse) == report.val_mse[report.best_epoch]


def test_train_deterministic_per_seed():
    def run():
        cfg, params, datasets = tiny_setup(seed=13)
        return train(
            params, cfg, datasets, TrainHyper(lr=1e-3, batch_size=32, max_epochs=2, seed=13)
        )

    a, b = run(), run()
    assert a.train_loss == b.train_loss
    assert a.val_mse == b.val_mse
    assert a.test_mse == b.test_mse


def test_train_divergence_aborts_with_diagnostics():
    # batch-norm keeps lr-driven blowups finite, so plant a non-finite
    # parameter and check the loop's abort path directly
    cfg, params, datasets = tiny_setup(seed=14)
    params.head_b.data[0] = np.inf
    hyper = TrainHyper(lr=1e-3, batch_size=32, max_epochs=1, seed=14)
    with pytest.raises(DivergenceError) as err:
        train(params, cfg, datasets, hyper)
    msg = str(err.value)
    assert "loss=inf" in msg and "epoch 0 step 0" in msg and "lr=0.001" in msg


def test_train_divergence_in_attention_names_softmax():
    # a non-finite score stops softmax, which checks its input, inside the
    # first step's forward; the abort carries the same diagnostics
    cfg, params, datasets = tiny_setup(seed=14)
    params.layers[0].w_query.data[0, 0, 0] = np.nan
    hyper = TrainHyper(lr=1e-3, batch_size=32, max_epochs=1, seed=14)
    with pytest.raises(DivergenceError) as err:
        train(params, cfg, datasets, hyper)
    msg = str(err.value)
    assert "softmax input" in msg and "epoch 0 step 0" in msg and "lr=0.001" in msg
    assert isinstance(err.value.__cause__, NumericError)


def test_train_variate_sampling_counts():
    cfg, params, datasets = tiny_setup(seed=15)
    hyper = TrainHyper(lr=1e-3, batch_size=32, max_epochs=1, variate_ratio=0.5, seed=15)
    report = train(params, cfg, datasets, hyper)
    # alternate mode, L=2: one vertical layer; M patches, 2 of 4 variates,
    # 32 windows per batch
    assert report.vertical_entries_per_batch == cfg.M * 2 * 2 * 32
    full = train(
        build(cfg, rng(15)), cfg, datasets, TrainHyper(lr=1e-3, max_epochs=1, seed=15)
    )
    assert full.vertical_entries_per_batch == cfg.M * 4 * 4 * 32
    assert report.vertical_entries_per_batch * 4 == full.vertical_entries_per_batch
    assert report.variate_ratio == 0.5


def test_train_on_a_variate_subset_then_evaluate_on_all_variates():
    # batch norm keeps one statistic per feature, never per variate, so a
    # model trained on 2 of 4 variates per batch evaluates on all 4
    cfg, params, datasets = tiny_setup(seed=16)
    hyper = TrainHyper(lr=1e-3, batch_size=32, max_epochs=2, variate_ratio=0.5, seed=16)
    report = train(params, cfg, datasets, hyper)
    for layer in params.layers:
        for state in (layer.norm1_state, layer.norm2_state):
            assert state.running_mean.shape == state.running_var.shape == (1, 1, 1, cfg.D)
    test_mse, _ = evaluate(params, cfg, datasets[2], batch_size=32)
    assert np.isfinite(test_mse) and test_mse == report.test_mse


def test_train_split_too_short():
    from gridcast.data import TimeSeriesDataset
    from gridcast.errors import DataError

    cfg, params, (tr, va, te) = tiny_setup(seed=16)
    short = TimeSeriesDataset("v", va.values[:10])
    with pytest.raises(DataError):
        train(params, cfg, (tr, short, te), TrainHyper(max_epochs=1))


@pytest.mark.parametrize(
    "setting",
    [
        {"batch_size": 0}, {"batch_size": -1}, {"clip_norm": -1.0}, {"lr": -1e-3}, {"max_epochs": 0},
        {"variate_ratio": 0.0}, {"variate_ratio": 1.5}, {"patience": 0}, {"patience": -3},
    ],
)
def test_train_hyper_rejects_bad_settings(setting):
    (name,) = setting
    with pytest.raises(ConfigError, match=f"train.{name}"):
        TrainHyper(**setting)


def test_train_hyper_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        TrainHyper(seed=-1)
