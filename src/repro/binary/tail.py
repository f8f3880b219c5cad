"""The binary tail at inference: ``sign(batch-norm(·))`` as one compare.

Only bipolar values cross from one crossbar-mapped layer to the next
(paper §III–IV): batch-norm runs in CMOS, and the next layer reads it
only through its sign quantizer.  When the layer feeding a batch-norm
outputs integers in ``[-K, K]`` — a strictly binary input, a plain
:class:`~repro.binary.quantizers.SteSign` kernel and no bias, which
every fault hook preserves (flips negate, output stuck-at rails to ±K,
weight and product faults stay ±1) — the batch-norm can emit ±1
directly through per-channel integer thresholds
(:meth:`~repro.nn.layers.BatchNorm.sign_thresholds`, the threshold form
of BNN inference in FINN, Umuroglu et al., FPGA 2017), and its consumer
skips re-quantizing an input that is already ±1.  Both results are
bit-identical to the unfused pass.

:func:`compile_tail` turns top-level layers into ``(layer, forward
kwargs)`` steps.  Running them enters every layer through its
``forward`` once per batch, as :meth:`Sequential.forward` does, so
per-layer instrumentation keeps covering the whole pass.
"""

from __future__ import annotations

from ..nn.layers import BatchNorm, Flatten, Layer, MaxPool2D
from .layers import QuantLayer
from .quantizers import ApproxSign, SteSign

__all__ = ["compile_tail"]


def _integer_range(layer: Layer) -> int | None:
    """``K`` when ``layer`` outputs integers in ``[-K, K]`` under every
    fault hook, else ``None``."""
    if (isinstance(layer, QuantLayer) and not layer.use_bias
            and getattr(layer.input_quantizer, "strictly_binary", False)
            and type(layer.kernel_quantizer) is SteSign):
        return layer.reduction_length()
    return None


def _reads_sign(layer: Layer) -> bool:
    """Whether ``layer`` sees its input only through ``sign``."""
    return (isinstance(layer, QuantLayer)
            and type(layer.input_quantizer) in (SteSign, ApproxSign))


def compile_tail(layers: list[Layer]) -> list[tuple[Layer, dict]]:
    """``(layer, forward kwargs)`` per layer of ``layers``, inference only.

    A :class:`BatchNorm` whose producer (skipping :class:`MaxPool2D`)
    outputs bounded integers and whose consumer (skipping
    :class:`Flatten`) reads only its sign gets its thresholds; that
    consumer gets ``bipolar_input=True``.  Every other layer runs as is.
    """
    steps: list[tuple[Layer, dict]] = [(layer, {}) for layer in layers]
    for index, layer in enumerate(layers):
        if not isinstance(layer, BatchNorm):
            continue
        before = index - 1
        while before >= 0 and isinstance(layers[before], MaxPool2D):
            before -= 1
        after = index + 1
        while after < len(layers) and isinstance(layers[after], Flatten):
            after += 1
        if before < 0 or after == len(layers) or not _reads_sign(layers[after]):
            continue
        k = _integer_range(layers[before])
        thresholds = None if k is None else layer.sign_thresholds(k)
        if thresholds is not None:
            steps[index] = (layer, {"thresholds": thresholds})
            steps[after] = (layers[after], {"bipolar_input": True})
    return steps
