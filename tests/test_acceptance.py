"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen. Criteria 1-7 and 9 are self-contained; criterion 8 needs a real
benchmark CSV and is skipped unless GRIDCAST_ETTH1 points at one.
"""

import math
import os
import time

import numpy as np
import pytest

import oracles
from gridcast.attention import AttentionParams, apply_horizontal, apply_vertical, count_attention_cost, grid_transpose
from gridcast.data import (
    SplitSpec,
    chronological_split,
    load_csv,
    n_windows,
    standardize,
    synthetic_sines,
)
from gridcast.embed import pad_tail, patch_count, revin_denormalize, revin_normalize
from gridcast.model import ModelConfig, build, forward
from gridcast.tensor import Tensor, grad_check
from gridcast.train import TrainHyper, evaluate, mse, persistence_baseline, train


def report_line(number, description, ok):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def rng(seed):
    return np.random.default_rng(seed)


# -- 1: finite-difference gradients ------------------------------------------


def test_01_gradient_suite_ops_and_full_model():
    t0 = time.monotonic()
    worst = 0.0
    for name, fn, shapes in oracles.OP_CASES:
        worst = max(worst, grad_check(fn, oracles.op_case_inputs(name, shapes)))

    # full model: 2-variate 32-step window through both encoder layers, loss
    # checked against central differences for every parameter coordinate
    cfg = ModelConfig(T=32, F=8, P=8, S=4, D=8, H=2, L=2, D_ff=16, dropout=0.0, seed=0)
    params = build(cfg)
    tensors = [t for _, t in params.named_parameters()]
    r = rng(20)
    x = r.normal(size=(1, 32, 2)) + np.array([0.0, 3.0])
    target = Tensor(r.normal(size=(1, 8, 2)))

    def model_loss(_):
        pred, _maps = forward(x, params, cfg, training=True)
        return mse(pred, target)

    model_err = grad_check(model_loss, tensors)
    worst = max(worst, model_err)
    elapsed = time.monotonic() - t0
    report_line(
        1,
        f"finite differences: max rel err {worst:.2e} < 1e-3 over {len(oracles.OP_CASES)} ops "
        f"+ full model ({sum(t.data.size for t in tensors)} params), {elapsed:.1f}s < 120s",
        worst < 1e-3 and elapsed < 120.0,
    )


# -- 2: attention rows are probability distributions -------------------------


def test_02_attention_rows_sum_to_one():
    worst = 0.0
    forwards = 0
    for mode in ("alternate", "channel_first", "time_first"):
        cfg = ModelConfig(
            T=32, F=8, P=8, S=4, D=8, H=2, L=2, D_ff=16, dropout=0.0, mode=mode, seed=1
        )
        params = build(cfg)
        r = rng(2)
        for _ in range(34 if mode == "alternate" else 33):
            x = r.normal(size=(r.integers(1, 3), 32, 3)) * r.uniform(0.1, 10.0)
            _, maps = forward(x, params, cfg, capture_attention=True)
            for m in maps:
                worst = max(worst, float(np.abs(m.weights.sum(axis=1) - 1.0).max()))
            forwards += 1
    report_line(
        2,
        f"attention normalization: {forwards} randomized forwards, "
        f"max |row sum - 1| = {worst:.2e} <= 1e-6",
        forwards == 100 and worst <= 1e-6,
    )


# -- 3: structural oracles ---------------------------------------------------


def test_03_structural_oracles():
    r = rng(3)
    grid = Tensor(r.normal(size=(2, 5, 3, 8)))
    p = AttentionParams.init(8, 2, 16, rng(30))
    via_vertical = apply_vertical(grid, p)
    via_transpose = grid_transpose(apply_horizontal(grid_transpose(grid), p))
    exact = bool((via_vertical.data == via_transpose.data).all())

    cfg = ModelConfig(T=32, F=8, P=8, S=4, D=8, H=2, L=2, D_ff=16, dropout=0.0, seed=4)
    params = build(cfg)
    x = r.normal(size=(2, 32, 3)) * 2.0 + 1.0
    pred, _ = forward(x, params, cfg)
    oracle = oracles.forward_oracle(x, params, cfg)
    oracle_err = float(np.abs(pred.data - oracle).max())

    perm = np.array([2, 0, 1])
    pred_perm, _ = forward(x[:, :, perm], params, cfg)
    equiv_err = float(np.abs(pred_perm.data - pred.data[:, :, perm]).max())

    report_line(
        3,
        "structural oracles: vertical==transposed-horizontal bit-exact; "
        f"loop-oracle err {oracle_err:.2e} < 1e-6; "
        f"variate-permutation err {equiv_err:.2e} < 1e-5",
        exact and oracle_err < 1e-6 and equiv_err < 1e-5,
    )


# -- 4: shape and formula suite ----------------------------------------------


def test_04_shape_and_formula_suite():
    formula_ok = True
    for P in (8, 16, 24):
        for S in (P // 2, P):
            for T in range(P, 340, 7):
                M = patch_count(T, P, S)
                if M != math.ceil((T - P) / S) + 2:
                    formula_ok = False
                padded = pad_tail(np.zeros((T, 1)), P, S)
                if (padded.shape[0] - P) // S + 1 != M:
                    formula_ok = False

    windows_ok = True
    for T in (1, 5, 24):
        for F in (1, 8):
            for extra in (0, 3, 50):
                ts = T + F + extra
                brute = sum(1 for s in range(ts) if s + T + F <= ts)
                if n_windows(ts, T, F) != brute:
                    windows_ok = False

    r = rng(40)
    x = r.normal(size=(5, 48, 6)) * r.uniform(0.5, 20, size=6) + r.normal(size=6) * 10
    xn, stats = revin_normalize(x)
    back = revin_denormalize(xn, stats)
    roundtrip_err = float(np.abs(back - x).max())

    report_line(
        4,
        f"shapes/formulas: patch-count sweep {'ok' if formula_ok else 'BAD'}; "
        f"window counts {'ok' if windows_ok else 'BAD'}; "
        f"instance-norm roundtrip err {roundtrip_err:.2e} < 1e-9",
        formula_ok and windows_ok and roundtrip_err < 1e-9,
    )


# -- 5: attention cost accounting --------------------------------------------


def test_05_complexity_counts():
    M, N, D = 42, 7, 16
    mixed = count_attention_cost(M, N, D, "alternate", n_layers=2)
    allh = count_attention_cost(M, N, D, "horizontal_only", n_layers=2)
    expect_mixed = N * M * M + M * N * N  # one layer each direction
    expect_allh = 2 * N * M * M
    ok = (
        mixed.score_entries == expect_mixed == 14406
        and allh.score_entries == expect_allh == 24696
        and mixed.score_entries < allh.score_entries
        and mixed.macs == expect_mixed * D
        and allh.macs == expect_allh * D
    )
    report_line(
        5,
        f"cost accounting (M=42, N=7): mixed stack {mixed.score_entries} score entries "
        f"< all-horizontal {allh.score_entries}, exact counts",
        ok,
    )


# -- 6, 7 and 9: training behaviour on synthetic data ------------------------


SMOKE_CFG = ModelConfig(T=96, F=24, P=16, S=8, D=16, H=4, L=2, D_ff=32, dropout=0.0, seed=0)


def smoke_hyper(ratio):
    return TrainHyper(lr=2e-3, batch_size=64, max_epochs=6, patience=5, variate_ratio=ratio, seed=0)


@pytest.fixture(scope="module")
def smoke_runs():
    ds = synthetic_sines(10_000, n_variates=4, period=48, noise=0.1, seed=0)
    tr, va, te = chronological_split(ds, SplitSpec(6, 2, 2))
    tr, va, te, _ = standardize(tr, va, te)
    splits = (tr, va, te)
    p_mse, _ = persistence_baseline(te, SMOKE_CFG.T, SMOKE_CFG.F)

    t0 = time.monotonic()
    full_params = build(SMOKE_CFG)
    full = train(full_params, SMOKE_CFG, splits, smoke_hyper(1.0))
    full_wall = time.monotonic() - t0
    rerun = train(build(SMOKE_CFG), SMOKE_CFG, splits, smoke_hyper(1.0))
    half = train(build(SMOKE_CFG), SMOKE_CFG, splits, smoke_hyper(0.5))
    return {
        "persistence": p_mse, "full": full, "full_params": full_params,
        "full_wall": full_wall, "rerun": rerun, "half": half,
    }


def test_06_learning_smoke_beats_persistence(smoke_runs):
    p_mse = smoke_runs["persistence"]
    run = smoke_runs["full"]
    improvement = 1.0 - run.test_mse / p_mse
    deterministic = (
        run.test_mse == smoke_runs["rerun"].test_mse
        and run.val_mse == smoke_runs["rerun"].val_mse
    )
    report_line(
        6,
        f"learning smoke test: MSE {run.test_mse:.4f} vs persistence {p_mse:.4f} "
        f"({improvement:.0%} better, need >=30%), {smoke_runs['full_wall']:.0f}s < 300s, "
        f"rerun bit-identical: {deterministic}",
        improvement >= 0.30 and smoke_runs["full_wall"] < 300.0 and deterministic,
    )


def test_07_variate_sampling_stability(smoke_runs):
    full, half = smoke_runs["full"], smoke_runs["half"]
    gap = abs(half.test_mse - full.test_mse) / full.test_mse
    # half the variates -> a quarter of the vertical attention score entries
    entries_exact = half.vertical_entries_per_batch * 4 == full.vertical_entries_per_batch
    report_line(
        7,
        f"variate sampling: MSE(0.5)={half.test_mse:.4f} vs MSE(1.0)={full.test_mse:.4f}, "
        f"gap {gap:.0%} <= 20%; vertical entries {half.vertical_entries_per_batch} "
        f"= 1/4 of {full.vertical_entries_per_batch}: {entries_exact}",
        gap <= 0.20 and entries_exact,
    )


def test_09_trained_model_forecasts_other_variate_counts(smoke_runs):
    # the 4-variate model, unchanged, on series of the same period but another
    # width and draw; every parameter is shared across variates
    gains = {}
    for n_variates in (2, 7):
        ds = synthetic_sines(10_000, n_variates=n_variates, period=48, noise=0.1, seed=3)
        tr, va, te = chronological_split(ds, SplitSpec(6, 2, 2))
        te = standardize(tr, va, te)[2]
        p_mse, _ = persistence_baseline(te, SMOKE_CFG.T, SMOKE_CFG.F)
        test_mse, _ = evaluate(smoke_runs["full_params"], SMOKE_CFG, te)
        gains[n_variates] = 1.0 - test_mse / p_mse
    report_line(
        9,
        "cross-variate forecasts: the model trained on 4 variates beats persistence by "
        + ", ".join(f"{gain:.0%} on {n}" for n, gain in gains.items())
        + " variates (need >=30%)",
        min(gains.values()) >= 0.30,
    )


# -- 8: extended benchmark run (opt-in) --------------------------------------


def test_08_extended_benchmark_run():
    path = os.environ.get("GRIDCAST_ETTH1")
    if not path:
        print("\nACCEPTANCE 8: SKIP - set GRIDCAST_ETTH1=/path/to/ETTh1.csv to run the stretch check")
        pytest.skip("benchmark CSV not configured")
    ds = load_csv(path, drop_columns=["date"])
    tr, va, te = chronological_split(ds, SplitSpec(6, 2, 2))
    tr, va, te, _ = standardize(tr, va, te)
    cfg = ModelConfig(
        T=336, F=96, P=16, S=8, D=64, H=8, L=3, D_ff=128, dropout=0.0, seed=0
    )
    hyper = TrainHyper(lr=1e-3, batch_size=64, max_epochs=4, patience=2, seed=0)
    t0 = time.monotonic()
    run = train(build(cfg), cfg, (tr, va, te), hyper)
    elapsed = time.monotonic() - t0
    report_line(
        8,
        f"extended run: test MSE {run.test_mse:.4f} <= 0.50 in {elapsed / 60:.0f} min",
        run.test_mse <= 0.50,
    )
