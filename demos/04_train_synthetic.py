"""
Training end to end on synthetic sines
======================================

Small model, small data, a few epochs of Adam, and a comparison against the
persistence baseline (repeat the last observed value). Runs in well under a
minute on one core.
"""

from gridcast.attention import sequence_directions
from gridcast.data import SplitSpec, chronological_split, standardize, synthetic_sines
from gridcast.model import ModelConfig, build
from gridcast.train import TrainHyper, persistence_baseline, train

ds = synthetic_sines(4000, n_variates=4, period=48, noise=0.1, seed=0)
train_ds, val_ds, test_ds = chronological_split(ds, SplitSpec(6, 2, 2))
train_ds, val_ds, test_ds, _ = standardize(train_ds, val_ds, test_ds)

cfg = ModelConfig(T=96, F=24, P=16, S=8, D=16, H=4, L=2, D_ff=32, dropout=0.0, seed=0)
params = build(cfg)
order = sequence_directions(cfg.mode, cfg.L)
print(f"model: {params.parameter_count()} parameters, layer order {order}")

hyper = TrainHyper(lr=2e-3, batch_size=64, max_epochs=4, patience=5, seed=0)
report = train(params, cfg, (train_ds, val_ds, test_ds), hyper)

print("\nepoch  train_loss  val_mse")
for i, (tl, vm) in enumerate(zip(report.train_loss, report.val_mse)):
    marker = "  <- best" if i == report.best_epoch else ""
    print(f"{i:>5}  {tl:>10.4f}  {vm:>7.4f}{marker}")

p_mse, p_mae = persistence_baseline(test_ds, cfg.T, cfg.F)
print(f"\ntest MSE {report.test_mse:.4f} / MAE {report.test_mae:.4f}")
print(f"persistence MSE {p_mse:.4f} / MAE {p_mae:.4f}")
print(f"improvement over persistence: {1 - report.test_mse / p_mse:.1%}")
print(f"wall time {report.wall_time_s:.1f}s, {report.steps} optimizer steps")
