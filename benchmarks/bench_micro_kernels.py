"""Micro-benchmarks of the computational kernels.

Not a paper figure — these quantify the building blocks that make FLIM's
fast path fast: the bipolar float GEMM, the binary tail between mapped
layers, mask generation/application and the device-level gate program
they replace.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import FaultSpec, assemble_layer_masks
from repro.core.semantics import apply_output_flips
from repro.lim import Crossbar, CrossbarConfig, ideal_device_params
from repro.nn import ops


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def test_bench_float_binary_gemm(benchmark, rng):
    """Float GEMM on bipolar operands — FLIM's fast-path formulation."""
    a = rng.choice([-1.0, 1.0], size=(256, 512)).astype(np.float32)
    b = rng.choice([-1.0, 1.0], size=(512, 128)).astype(np.float32)
    benchmark(lambda: a @ b)


def test_bench_im2col_conv(benchmark, rng):
    """The convolution kernel used by every mapped conv layer."""
    x = rng.standard_normal((16, 28, 28, 8)).astype(np.float32)
    kernel = rng.standard_normal((5, 5, 8, 16)).astype(np.float32)
    benchmark(lambda: ops.conv2d(x, kernel, 1, "valid"))


@pytest.fixture(scope="module")
def conv_map(rng):
    """A 256-image conv feature map of exact ±1 sums, K = 144."""
    k = 144
    return k, (2 * rng.binomial(k, 0.5, (256, 4, 4, 16)) - k).astype(
        np.float32)


@pytest.mark.parametrize("variant", ["np_where", "bipolar"])
def test_bench_sign(benchmark, conv_map, variant):
    """Bipolar sign of a feature map: the float64 ``np.where`` idiom vs
    ``ops.bipolar`` (one float32 cast, two in-place passes)."""
    _, x = conv_map
    if variant == "np_where":
        out = benchmark(
            lambda: np.where(x >= 0, 1.0, -1.0).astype(np.float32))
    else:
        out = benchmark(lambda: ops.bipolar(x >= 0))
    np.testing.assert_array_equal(out, ops.bipolar(x >= 0))


@pytest.mark.parametrize("variant", ["batchnorm_sign", "thresholds"])
def test_bench_binary_tail(benchmark, rng, conv_map, variant):
    """What the next mapped layer reads: batch-norm then sign, vs one
    integer-threshold compare (repro.binary.tail)."""
    k, x = conv_map
    bn = nn.BatchNorm()
    bn.build(x.shape[1:], rng)
    bn.params["gamma"][...] = rng.normal(0, 1, 16)
    bn.running_mean[...] = rng.normal(0, 4, 16)
    bn.running_var[...] = rng.uniform(5, 60, 16)
    if variant == "batchnorm_sign":
        out = benchmark(lambda: ops.bipolar(bn.forward(x) >= 0))
    else:
        thresholds = bn.sign_thresholds(k)
        out = benchmark(lambda: bn.forward(x, thresholds=thresholds))
    np.testing.assert_array_equal(out, ops.bipolar(bn.forward(x) >= 0))


def test_bench_mask_generation(benchmark, rng):
    """Offline fault-mask construction (the Fault Generator's hot loop)."""
    specs = [FaultSpec.bitflip(0.1), FaultSpec.stuck_at(0.05)]

    def build():
        return assemble_layer_masks(40, 10, specs, np.random.default_rng(0))

    benchmark(build)


def test_bench_mask_application(benchmark, rng):
    """Online mask application — the only per-inference cost FLIM adds."""
    feature_map = rng.standard_normal((64, 8, 8, 16)).astype(np.float32)
    selector = rng.random(8 * 8 * 16) < 0.1
    benchmark(lambda: apply_output_flips(feature_map, selector))


def test_bench_device_level_tile(benchmark, rng):
    """One device-level crossbar evaluation (11-step IMPLY program).

    Comparing this against the mask-application benchmark explains the
    orders of magnitude in Fig. 4f.
    """
    xbar = Crossbar(CrossbarConfig(rows=40, cols=10,
                                   device=ideal_device_params()))
    a = rng.integers(0, 2, (40, 10)).astype(np.uint8)
    b = rng.integers(0, 2, (40, 10)).astype(np.uint8)
    benchmark(lambda: xbar.compute_xnor(a, b))


def test_bench_fault_vector_io(benchmark, rng, tmp_path):
    """Serialization round-trip of an annotated fault-vector file."""
    from repro.core import load_fault_vectors, save_fault_vectors
    plan = {f"layer{i}": assemble_layer_masks(
        40, 10, [FaultSpec.bitflip(0.1)], np.random.default_rng(i))
        for i in range(4)}
    path = tmp_path / "plan.flim"

    def roundtrip():
        save_fault_vectors(path, plan)
        return load_fault_vectors(path)

    benchmark(roundtrip)
