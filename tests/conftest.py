import os

# One BLAS thread, set before numpy loads OpenBLAS. The matrices here are
# small, and OpenBLAS's spinning worker threads halve throughput as soon as
# another process competes for the CPUs: on 2 vCPUs with one busy process
# alongside, a criterion-4 pretraining step takes 0.46 s with the default
# two threads and 0.23-0.26 s with one. A caller's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from spvs import encoders, tensorkit as tk  # noqa: E402


def numeric_grad_at(f, tensor, idx, h=1e-5):
    """Central finite difference of a scalar-valued f at one coordinate."""
    orig = tensor.data[idx]
    tensor.data[idx] = orig + h
    up = f()
    tensor.data[idx] = orig - h
    down = f()
    tensor.data[idx] = orig
    return (up - down) / (2 * h)


def check_gradients(build_loss, params, rng, n_points=20, rtol=1e-4, h=1e-5):
    """Compare autodiff gradients with central differences at random points.

    `build_loss` constructs a fresh scalar loss Tensor from the current
    parameter values; `params` is a list of Tensors with requires_grad.
    """
    for p in params:
        p.grad = None
    loss = build_loss()
    tk.backward(loss)

    flat = []
    for p in params:
        for idx in np.ndindex(p.data.shape):
            flat.append((p, idx))
    assert flat
    picks = [flat[rng.randint(len(flat))] for _ in range(n_points)]
    for p, idx in picks:
        num = numeric_grad_at(lambda: float(build_loss().data), p, idx, h=h)
        ana = 0.0 if p.grad is None else float(p.grad[idx])
        if abs(num - ana) <= 1e-8:
            continue
        denom = max(abs(num), abs(ana))
        assert abs(num - ana) / denom <= rtol, (
            f"gradient mismatch at {idx}: analytic={ana}, numeric={num}"
        )


@pytest.fixture
def rng():
    return tk.Rng(12345)


@pytest.fixture
def tiny_cfg():
    return encoders.EncoderConfig(
        d_f=8, d_w=4, video_layers=1, text_layers=1, heads=2,
        vocab_size=16, max_positions=64,
    )


@pytest.fixture
def tiny_weights(tiny_cfg):
    return encoders.ModelWeights.initialize(tiny_cfg, 3, tk.Rng(99))
