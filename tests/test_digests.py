"""Bit-for-bit reproducibility: one SHA-256 per layer order over a training
step, a short training run and a forecast.

Each digest covers one library step (the prediction, the loss and every
parameter gradient), a 2-epoch ``train()`` (its training losses, validation
and test errors and every ``state_arrays`` array) and a ``no_grad``
forecast with its captured attention maps. A change that moves one bit of
any of them, such as a different summation order, fails here. The attention score budget is cut so
that each layer runs several blocks of groups, the last one partial.

The bits depend on the numerical environment as well as on the code, so the
table is keyed by the numpy version, the BLAS library and the CPU features
numpy dispatches on. On an environment the table does not hold, the test
fails and prints the entry to add, computed by the code under test: compute
it on a commit whose numbers are trusted.
"""

import hashlib

import numpy as np
import pytest

try:  # numpy >= 2
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__

import gridcast.attention as attention
from gridcast.attention import MODES
from gridcast.data import SplitSpec, chronological_split, make_windows, standardize, synthetic_sines
from gridcast.model import ModelConfig, build, forward, state_arrays
from gridcast.tensor import no_grad
from gridcast.train import TrainHyper, mse, train

DIGESTS = {
    (
        "numpy 2.4.6",
        "scipy-openblas 0.3.31.188.0",
        "MMX SSE SSE2 SSE3 SSSE3 SSE41 POPCNT SSE42 X86_V2 AVX F16C FMA3 AVX2 LAHF CX16"
        " MOVBE BMI BMI2 LZCNT GFNI VPCLMULQDQ VAES X86_V3 AVX512F AVX512CD AVX512VPOPCNTDQ"
        " AVX512VL AVX512BW AVX512DQ AVX512VNNI AVX512IFMA AVX512VBMI AVX512VBMI2"
        " AVX512BITALG AVX512FP16 AVX512BF16 AVX512_SKX X86_V4 AVX512_CLX AVX512_CNL"
        " AVX512_ICL AVX512_SPR",
    ): {
        "channel_first": "464e4edaacac4019e0e45294e06d4178b1950fbacbe6275cefcb946a8f5972fe",
        "time_first": "921982a5886ad6a47dc39fdce200e7a86679afcb09c0b7c95a8b7004e4236eba",
        "alternate": "22f423283302e1c2cf968464b01a66290db641a4041b63f63be58e65979425dd",
        "horizontal_only": "0f100a759ddd7a5e978b3b4cd056d4ef9b7d0283378156ca25950c57ae2e9d4d",
        "vertical_only": "d94d6358d28fffea379f99d8b884e453d0919fc8c7143ec711f52d198c7e1243",
    },
}


def environment_key() -> tuple:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    features = " ".join(name for name, on in __cpu_features__.items() if on)
    return (f"numpy {np.__version__}", f"{blas['name']} {blas['version']}", features)


def _feed(h, *values) -> None:
    for value in values:
        array = np.ascontiguousarray(value, dtype=np.float64)
        h.update(repr(array.shape).encode())
        h.update(array.tobytes())


def mode_digest(mode: str) -> str:
    cfg = ModelConfig(T=24, F=16, P=8, S=4, D=8, H=2, L=3, D_ff=16, dropout=0.2, mode=mode, seed=3)
    ds = synthetic_sines(1200, n_variates=8, period=24, noise=0.1, seed=5)
    tr, va, te, _ = standardize(*chronological_split(ds, SplitSpec(1, 5, 6)))
    h = hashlib.sha256()

    params = build(cfg)
    batch = next(make_windows(tr, cfg.T, cfg.F, batch_size=16))
    pred, _ = forward(batch.inputs, params, cfg, training=True, rng=np.random.default_rng(1))
    loss = mse(pred, batch.targets)
    loss.backward()
    _feed(h, pred.data, loss.data, *(t.grad for _, t in params.named_parameters()))

    # a 256-window evaluation batch is large enough (256 KiB) for numpy to
    # reuse a temporary's buffer, and a variate subset gives targets a strided
    # layout: each sets the order of sums that train() guards
    params = build(cfg)
    hyper = TrainHyper(lr=1e-3, batch_size=256, max_epochs=2, patience=2, variate_ratio=0.75, seed=2)
    r = train(params, cfg, (tr, va, te), hyper)
    _feed(h, r.train_loss, r.val_mse, r.val_mae, r.test_mse, r.test_mae)
    _feed(h, *state_arrays(params).values())

    with no_grad():
        pred, maps = forward(te.values[None, : cfg.T], params, cfg, capture_attention=True)
    _feed(h, pred.data, *(m.weights for m in maps))
    return h.hexdigest()


@pytest.fixture(scope="module")
def digests():
    with pytest.MonkeyPatch.context() as mp:
        # 64 groups of [H=2, 6, 6] scores: 2 to 43 blocks per layer, the last partial
        mp.setattr(attention, "SCORE_BLOCK_BYTES", 64 * 2 * 6 * 6 * 8)
        return {mode: mode_digest(mode) for mode in MODES}


@pytest.mark.parametrize("mode", MODES)
def test_training_and_forecast_digests_are_pinned(mode, digests):
    key = environment_key()
    if key not in DIGESTS:
        pytest.fail(f"no digests for this environment; add to DIGESTS:\n{key!r}: {digests!r}")
    assert digests[mode] == DIGESTS[key][mode]
