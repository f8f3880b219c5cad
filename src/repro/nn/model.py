"""Sequential model container.

Composite layers (residual / dense blocks) may nest layers arbitrarily
deep; :meth:`Sequential.all_layers` flattens the hierarchy in a stable
depth-first order, which is also the order used for weight (de)serialization.
"""

from __future__ import annotations

import numpy as np

from .layers import BatchNorm, Layer

__all__ = ["Sequential"]


class Sequential:
    """A linear stack of layers with build/predict/evaluate/save support."""

    def __init__(self, layers: list[Layer], name: str = "model"):
        self.layers = list(layers)
        self.name = name
        self.built = False
        self.input_shape: tuple[int, ...] | None = None
        #: bumped whenever parameters change in place (training steps,
        #: weight loads) — lets long-lived consumers (e.g. the campaign
        #: evaluator) detect that cached derived state went stale
        self.weights_version = 0

    # -- construction ----------------------------------------------------
    def build(self, input_shape: tuple[int, ...], seed: int | np.random.Generator = 0):
        """Build every layer for ``input_shape`` (excluding the batch axis)."""
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        shape = tuple(input_shape)
        self.input_shape = shape
        for layer in self.layers:
            if not layer.built:
                layer.build(shape, rng)
            shape = layer.compute_output_shape(shape)
        self.output_shape = shape
        self.built = True
        return self

    def all_layers(self) -> list[Layer]:
        """All layers, flattened depth-first (parents before children).

        Built without a self-referencing nested function: such a closure
        is a reference cycle, which would keep the returned layers (and
        their memoized inputs) alive until the cyclic collector runs.
        """
        return [nested for layer in self.layers for nested in layer.walk()]

    def layers_of_type(self, cls) -> list[Layer]:
        """All (possibly nested) layers that are instances of ``cls``."""
        return [layer for layer in self.all_layers() if isinstance(layer, cls)]

    def num_params(self) -> int:
        return sum(layer.num_params() for layer in self.layers)

    # -- computation -------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not self.built:
            raise RuntimeError("call build(input_shape) before forward()")
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.weights_version += 1  # an optimizer step follows
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Batched inference returning stacked outputs."""
        outputs = [
            self.forward(x[i:i + batch_size])
            for i in range(0, len(x), batch_size)
        ]
        return np.concatenate(outputs, axis=0)

    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
        """Top-1 accuracy of integer labels ``y``.

        Streams batch-by-batch (argmax per batch, no logit concatenation)
        — same result as ``predict(...).argmax(-1)``, less memory traffic.
        """
        correct = 0
        for i in range(0, len(x), batch_size):
            logits = self.forward(x[i:i + batch_size])
            correct += int((logits.argmax(axis=-1) == y[i:i + batch_size]).sum())
        return correct / len(x)

    # -- introspection -----------------------------------------------------
    def summary(self) -> str:
        """Human-readable table of layers, output shapes and param counts."""
        lines = [f"Model: {self.name}", f"{'layer':<28}{'output shape':<20}{'params':>10}"]
        lines.append("-" * 58)
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.compute_output_shape(shape)
            lines.append(f"{layer.name:<28}{str(shape):<20}{layer.num_params():>10}")
        lines.append("-" * 58)
        lines.append(f"total params: {self.num_params()}")
        return "\n".join(lines)

    # -- persistence ---------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of every parameter and batch-norm statistic."""
        state: dict[str, np.ndarray] = {}
        for index, layer in enumerate(self.all_layers()):
            for key, value in layer.params.items():
                state[f"l{index}.{key}"] = value
            if isinstance(layer, BatchNorm) and layer.built:
                state[f"l{index}.running_mean"] = layer.running_mean
                state[f"l{index}.running_var"] = layer.running_var
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.weights_version += 1
        for index, layer in enumerate(self.all_layers()):
            for key in layer.params:
                layer.params[key][...] = state[f"l{index}.{key}"]
            if isinstance(layer, BatchNorm) and layer.built:
                layer.running_mean[...] = state[f"l{index}.running_mean"]
                layer.running_var[...] = state[f"l{index}.running_var"]
            if hasattr(layer, "_invalidate_caches"):
                layer._invalidate_caches()  # params changed in place

    def save_weights(self, path) -> None:
        np.savez_compressed(path, **self.state_dict())

    def load_weights(self, path) -> None:
        with np.load(path) as archive:
            self.load_state_dict({key: archive[key] for key in archive.files})
