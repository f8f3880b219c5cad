"""Quantized layers — the Larq-equivalent QuantConv2D / QuantDense.

These are the layers the paper maps onto memristive crossbars.  Each layer

* binarizes inputs and/or kernels through pluggable quantizers,
* computes the fault-free feature map,
* then runs the attached *fault hooks* — exactly the injection point the
  paper patched into Larq ("the original convolution method has been
  overwritten ... the fault masks are applied by performing another XNOR
  operation", §III).

Two hooks exist, matching the two physical fault granularities described in
DESIGN.md §3:

``kernel_fault_hook(binary_kernel, layer) -> binary_kernel``
    Applied to the binarized kernel before the GEMM.  Stuck-at faults on
    weight cells live here: the corruption persists for every XNOR that
    reuses the cell.

``output_fault_hook(feature_map, layer) -> feature_map``
    Applied to the computed feature map.  Transient bit-flips, dynamic
    faults and structural row/column faults live here.

``product_fault_hook(out_flat, cols, qw, layer) -> out_flat``
    Device-true reference path: receives the flat GEMM result together
    with the bipolar im2col matrix and kernel so individual XNOR products
    can be corrupted.  Slower (forces the explicit GEMM formulation);
    used for verification and ablation.

The GEMM is im2col + float32 matmul.  It is exact: every partial sum of
±1 terms is a small integer, so float32 accumulation never rounds, and it
matches the XNOR/popcount arithmetic of the crossbar
(:mod:`repro.binary.bitops`, the reference the tests compare against).

Inference input caching: when a layer sees a *read-only* input array
(``x.flags.writeable == False``) at inference time, it memoizes the
derived im2col matrix keyed on array identity.  The campaign engine
exploits this by replaying the same read-only activation batches across
repetitions — the expensive patch extraction then happens once per
campaign instead of once per repetition.  When the output hook is the
only fault hook attached, the GEMM beneath the hook does not depend on
the fault plan either, so the layer also memoizes the clean (pre-hook,
pre-bias) GEMM result and applies the hook on top of it: the split layer
of a campaign then runs one GEMM per batch per campaign.  Clean results
depend on the weights, so ``_invalidate_caches`` drops them.  Writeable
arrays are never cached, so ordinary training/prediction is unaffected.

Binary tail: ``forward(x, bipolar_input=True)`` (inference only) declares
``x`` already ±1 and skips the input quantizer, which maps ±1 to itself.
The campaign engine passes it to a layer fed by a batch-norm that emits
±1 through integer thresholds (:mod:`repro.binary.tail`).

The memo store is an :class:`InputRepCache` per layer: an LRU cache with
per-owner budgets.  Ad-hoc (ownerless) use keeps the legacy bound of
:data:`_INPUT_CACHE_SLOTS` entries; a campaign evaluator registers itself
as an owner and sizes its budget to the campaign's batch count under a
configurable byte cap, so a suffix split with dozens of test batches no
longer cycles a fixed FIFO at a 0% hit rate — and two campaigns sharing
one model cannot evict each other's entries.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..nn import initializers, ops
from ..nn.layers import Layer
from . import quantizers

__all__ = ["InputRepCache", "QuantLayer", "QuantConv2D", "QuantDense"]

#: memoized read-only input representations per layer for *uncoordinated*
#: use (no owner registered); campaigns size their own budget via
#: :meth:`InputRepCache.configure`
_INPUT_CACHE_SLOTS = 8

#: cache tag of the memoized clean GEMM output
CLEAN_TAG = "clean"


def _rep_nbytes(value) -> int:
    """Byte footprint of a cached representation (arrays, or tuples of
    arrays and shape metadata)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_rep_nbytes(item) for item in value)
    return 0


class InputRepCache:
    """Per-layer LRU cache of derived inference-input representations.

    Entries are keyed on ``(tag, input-array identity)`` and grouped by
    *owner* — typically a campaign evaluator's token (a ``weakref.ref``),
    or ``None`` for ad-hoc use.  Each owner has its own slot/byte budget
    and its own LRU eviction order, so concurrent campaigns sharing one
    model never evict each other's entries.  Lookups match entries from
    any owner (array identity cannot collide across datasets), but hits
    and misses are charged to the owner doing the lookup.

    Only read-only arrays (``x.flags.writeable == False``) are ever
    stored or counted: a writeable array may mutate after memoization,
    so it is silently ignored — exactly the legacy FIFO contract.

    Hits and misses are counted per tag and in an aggregate.  The
    aggregate counts one lookup per forward pass: a ``fallthrough``
    lookup (the clean-GEMM memo, whose miss is followed by the input
    representation lookup) adds its misses to its tag only.
    """

    def __init__(self):
        #: LRU order, oldest first: (owner, tag, x, value, nbytes)
        self._entries: list[tuple] = []
        #: owner -> (max entries, max bytes | None)
        self._budgets: dict = {}
        #: owner -> {tag, or None for the aggregate: [hits, misses]}
        self._stats: dict = {}

    # -- bookkeeping -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[tuple]:
        """Snapshot of the raw entry tuples, oldest first (testing aid)."""
        return list(self._entries)

    def configure(self, owner, slots: int,
                  max_bytes: int | None = None) -> None:
        """Set ``owner``'s budget: at most ``slots`` entries and (when not
        ``None``) at most ``max_bytes`` bytes of cached representations."""
        self._budgets[owner] = (slots, max_bytes)
        self._stats.setdefault(owner, {})

    def stats(self, owner=None, tag: str | None = None) -> dict:
        """Hit/miss counters and current footprint for one owner — the
        aggregate, or only the entries and lookups of ``tag``.

        A pure read: it never purges dead owners, so querying statistics
        (as instrumented campaign runs do) cannot change when a dropped
        campaign's memory is released.
        """
        hits, misses = self._stats.get(owner, {}).get(tag, (0, 0))
        mine = [entry for entry in self._entries if entry[0] is owner
                and (tag is None or entry[1] == tag)]
        total = hits + misses
        return {"hits": hits, "misses": misses, "entries": len(mine),
                "bytes": sum(entry[4] for entry in mine),
                "hit_rate": hits / total if total else 0.0}

    # -- lookup/insert ---------------------------------------------------
    def get(self, tag: str, x: np.ndarray, owner=None,
            fallthrough: bool = False):
        """Cached representation for ``(tag, x)`` or ``None``; charges the
        hit or miss to ``owner`` and refreshes the entry's LRU position.
        A ``fallthrough`` miss is charged to ``tag`` only."""
        # purge before the writeable early-return so a dropped campaign's
        # pinned entries are released by ordinary (uncached) inference too
        self._purge_dead_owners()
        if x.flags.writeable:
            return None  # never cached, so not a miss either
        counts = self._stats.setdefault(owner, {})
        for index, entry in enumerate(self._entries):
            if entry[1] == tag and entry[2] is x:
                self._entries.append(self._entries.pop(index))
                for key in (None, tag):
                    counts.setdefault(key, [0, 0])[0] += 1
                return entry[3]
        for key in ((tag,) if fallthrough else (None, tag)):
            counts.setdefault(key, [0, 0])[1] += 1
        return None

    def put(self, tag: str, x: np.ndarray, value, owner=None) -> None:
        """Memoize ``value`` for ``(tag, x)`` under ``owner``'s budget."""
        if x.flags.writeable:
            return  # only immutable-by-contract arrays are safe to memoize
        self._purge_dead_owners()
        self._entries.append((owner, tag, x, value, _rep_nbytes(value)))
        self._evict(owner)

    # -- eviction --------------------------------------------------------
    def discard(self, tag: str) -> None:
        """Drop every owner's entries tagged ``tag``."""
        self._entries = [e for e in self._entries if e[1] != tag]

    def drop_owner(self, owner) -> None:
        """Release one owner's entries, budget, and counters — other
        owners' cached representations are untouched (a campaign closing
        must not thrash its neighbours)."""
        self._entries = [e for e in self._entries if e[0] is not owner]
        self._budgets.pop(owner, None)
        self._stats.pop(owner, None)

    def _purge_dead_owners(self) -> None:
        """Drop entries/budgets of garbage-collected evaluator tokens."""
        def dead(owner) -> bool:
            return isinstance(owner, weakref.ref) and owner() is None

        if any(dead(entry[0]) for entry in self._entries):
            self._entries = [e for e in self._entries if not dead(e[0])]
        for owner in [o for o in self._budgets if dead(o)]:
            self._budgets.pop(owner, None)
            self._stats.pop(owner, None)

    def _evict(self, owner) -> None:
        """LRU-evict ``owner``'s entries until within its budget."""
        slots, max_bytes = self._budgets.get(owner,
                                             (_INPUT_CACHE_SLOTS, None))
        while True:
            mine = [entry for entry in self._entries if entry[0] is owner]
            if len(mine) <= slots and (
                    max_bytes is None
                    or sum(entry[4] for entry in mine) <= max_bytes):
                return
            self._entries.remove(mine[0])


class QuantLayer(Layer):
    """Shared machinery of quantized layers: quantizers + fault hooks.

    Fault hooks must return a new array and never write their input in
    place: at inference the output hook may receive a read-only memoized
    GEMM result, which an in-place write fails on instead of corrupting.
    """

    #: whether the GEMM memoizes an input representation (im2col) that a
    #: clean-GEMM miss falls through to
    _float_input_rep = False

    def __init__(self, input_quantizer=None, kernel_quantizer="ste_sign",
                 name: str | None = None):
        super().__init__(name)
        self.input_quantizer = quantizers.get(input_quantizer)
        self.kernel_quantizer = quantizers.get(kernel_quantizer)
        self.kernel_fault_hook = None
        self.output_fault_hook = None
        self.product_fault_hook = None
        self._built_input_shape: tuple[int, ...] | None = None
        #: LRU store of derived input representations (im2col)
        self._input_cache = InputRepCache()
        #: budget owner charged for cache traffic (set per evaluation by
        #: the campaign evaluator's scope; ``None`` = ad-hoc default)
        self._cache_owner = None

    # -- fault-injection plumbing ---------------------------------------
    def clear_fault_hooks(self) -> None:
        self.kernel_fault_hook = None
        self.output_fault_hook = None
        self.product_fault_hook = None

    def _invalidate_caches(self) -> None:
        """Drop derived-weight caches (call after in-place weight updates)."""
        self._input_cache.discard(CLEAN_TAG)

    def _apply_kernel_hook(self, qkernel: np.ndarray) -> np.ndarray:
        if self.kernel_fault_hook is None:
            return qkernel
        return self.kernel_fault_hook(qkernel, self)

    def _apply_output_hook(self, out: np.ndarray) -> np.ndarray:
        if self.output_fault_hook is None:
            return out
        return self.output_fault_hook(out, self)

    def _quantize_kernel(self) -> np.ndarray:
        kernel = self.params["kernel"]
        if self.kernel_quantizer is None:
            return self._apply_kernel_hook(kernel)
        if isinstance(self.kernel_quantizer, quantizers.MagnitudeAwareSign):
            # Only the sign part lives on the crossbar; faults corrupt it,
            # the CMOS gain is re-applied afterwards.
            binary, gain = self.kernel_quantizer.split(kernel)
            return self._apply_kernel_hook(binary) * gain
        return self._apply_kernel_hook(self.kernel_quantizer.quantize(kernel))

    # -- forward ----------------------------------------------------------
    def forward(self, x, training=False, bipolar_input=False):
        """Quantized GEMM, fault hooks, bias.  ``bipolar_input`` (inference
        only) declares ``x`` already ±1, so the input quantizer is skipped:
        a sign quantizer maps ±1 to itself."""
        out = self._clean_gemm(
            x, lambda: self._forward_float(x, training, bipolar_input),
            training)
        out = self._apply_output_hook(out)
        if self.use_bias:
            out = out + self.params["bias"]
        return out

    def _clean_gemm(self, x, compute, training=False):
        """The pre-hook, pre-bias GEMM output ``compute()``, memoized per
        ``x`` when only an output hook is attached.

        Output-level faults act on the feature map after the GEMM, so for
        a read-only inference input the GEMM result is plan-independent:
        it is computed once, stored read-only, and every later plan runs
        its output hook on top of it.
        """
        if (training or x.flags.writeable or self.output_fault_hook is None
                or self.kernel_fault_hook is not None
                or self.product_fault_hook is not None):
            return compute()
        out = self._input_cache.get(CLEAN_TAG, x, owner=self._cache_owner,
                                    fallthrough=self._float_input_rep)
        if out is None:
            out = compute()
            out.flags.writeable = False
            self._input_cache_put(CLEAN_TAG, x, out)
        return out

    def _quantize_input(self, x, bipolar_input: bool) -> np.ndarray:
        if self.input_quantizer is None or bipolar_input:
            return x
        return self.input_quantizer.quantize(x)

    def _input_cache_get(self, tag: str, x: np.ndarray):
        return self._input_cache.get(tag, x, owner=self._cache_owner)

    def _input_cache_put(self, tag: str, x: np.ndarray, value) -> None:
        self._input_cache.put(tag, x, value, owner=self._cache_owner)

    # -- LIM geometry ----------------------------------------------------
    @property
    def is_mapped(self) -> bool:
        """Whether this layer's arithmetic runs on the crossbar.

        Following the paper (and X-Fault's conservative approach), a layer
        is mapped only when both operands are binary so every
        multiply-accumulate term is a genuine XNOR; anything non-binary
        (e.g. a first conv fed with grey-scale pixels) stays in CMOS.
        """
        return self.kernel_quantizer is not None and self.input_quantizer is not None

    def reduction_length(self) -> int:
        """Number of XNOR products accumulated per output element (K)."""
        raise NotImplementedError

    def outputs_per_image(self) -> int:
        """Number of output elements per input image (O)."""
        raise NotImplementedError

    @property
    def output_channels(self) -> int:
        """Output-channel count (F) — the crossbar's column dimension."""
        raise NotImplementedError

    def positions_per_image(self) -> int:
        """Streamed input positions per image (P = O / F)."""
        return self.outputs_per_image() // self.output_channels

    def xnor_ops_per_image(self) -> int:
        """Total XNOR operations per image: N = O * K."""
        return self.outputs_per_image() * self.reduction_length()

    # -- Table II bookkeeping ---------------------------------------------
    def binary_param_count(self) -> int:
        return int(self.params["kernel"].size) if self.kernel_quantizer else 0

    def full_precision_param_count(self) -> int:
        total = sum(int(p.size) for p in self.params.values())
        return total - self.binary_param_count()


class QuantConv2D(QuantLayer):
    """Binarized 2-D convolution (NHWC, kernel ``(kh, kw, c_in, c_out)``)."""

    _float_input_rep = True  # the im2col matrix

    def __init__(self, filters: int, kernel_size: int, stride: int = 1,
                 padding: str = "valid", use_bias: bool = False,
                 input_quantizer=None, kernel_quantizer="ste_sign",
                 kernel_initializer="glorot_uniform", name: str | None = None):
        super().__init__(input_quantizer, kernel_quantizer, name)
        self.filters = filters
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.use_bias = use_bias
        self.kernel_initializer = initializers.get(kernel_initializer)
        self._cache: tuple | None = None

    def build(self, input_shape, rng):
        _, _, c_in = input_shape
        shape = (self.kernel_size, self.kernel_size, c_in, self.filters)
        self.params["kernel"] = self.kernel_initializer(shape, rng)
        self.grads["kernel"] = np.zeros_like(self.params["kernel"])
        if self.use_bias:
            self.params["bias"] = np.zeros(self.filters, dtype=np.float32)
            self.grads["bias"] = np.zeros_like(self.params["bias"])
        self._built_input_shape = tuple(input_shape)
        super(QuantLayer, self).build(input_shape, rng)

    def compute_output_shape(self, input_shape):
        h, w, _ = input_shape
        k, s = self.kernel_size, self.stride
        if self.padding == "same":
            oh, ow = -(-h // s), -(-w // s)
        else:
            oh = ops.conv_output_size(h, k, s, 0)
            ow = ops.conv_output_size(w, k, s, 0)
        return (oh, ow, self.filters)

    def reduction_length(self):
        _, _, c_in = self._built_input_shape
        return self.kernel_size * self.kernel_size * c_in

    def outputs_per_image(self):
        oh, ow, c_out = self.compute_output_shape(self._built_input_shape)
        return oh * ow * c_out

    @property
    def output_channels(self):
        return self.filters

    def _forward_float(self, x, training, bipolar_input) -> np.ndarray:
        """im2col + float32 GEMM (pre-hook, pre-bias)."""
        qkernel = self._quantize_kernel()
        cached = None if training else self._input_cache_get("cols", x)
        if cached is None:
            qx = self._quantize_input(x, bipolar_input)
            cached = ops.im2col(qx, self.kernel_size, self.kernel_size,
                                self.stride, self.padding)
            if not training:
                self._input_cache_put("cols", x, cached)
        else:
            qx = None
        cols, (oh, ow) = cached
        qw = qkernel.reshape(-1, self.filters)
        flat = cols @ qw
        if self.product_fault_hook is not None:
            flat = self.product_fault_hook(flat, cols, qw, self)
        if training:
            self._cache = (x, qx, qkernel)
        return flat.reshape(x.shape[0], oh, ow, self.filters)

    def backward(self, dout):
        x, qx, qkernel = self._cache
        self._invalidate_caches()  # weights change right after this pass
        if self.use_bias:
            self.grads["bias"][...] = dout.sum(axis=(0, 1, 2))
        dqx, dqkernel = ops.conv2d_backward(
            dout, qx, qkernel, self.stride, self.padding)
        if self.kernel_quantizer is not None:
            self.grads["kernel"][...] = self.kernel_quantizer.grad(
                self.params["kernel"], dqkernel)
        else:
            self.grads["kernel"][...] = dqkernel
        if self.input_quantizer is not None:
            return self.input_quantizer.grad(x, dqx)
        return dqx


class QuantDense(QuantLayer):
    """Binarized fully connected layer."""

    def __init__(self, units: int, use_bias: bool = False,
                 input_quantizer=None, kernel_quantizer="ste_sign",
                 kernel_initializer="glorot_uniform", name: str | None = None):
        super().__init__(input_quantizer, kernel_quantizer, name)
        self.units = units
        self.use_bias = use_bias
        self.kernel_initializer = initializers.get(kernel_initializer)
        self._cache: tuple | None = None

    def build(self, input_shape, rng):
        (features,) = input_shape
        self.params["kernel"] = self.kernel_initializer((features, self.units), rng)
        self.grads["kernel"] = np.zeros_like(self.params["kernel"])
        if self.use_bias:
            self.params["bias"] = np.zeros(self.units, dtype=np.float32)
            self.grads["bias"] = np.zeros_like(self.params["bias"])
        self._built_input_shape = tuple(input_shape)
        super(QuantLayer, self).build(input_shape, rng)

    def compute_output_shape(self, input_shape):
        return (self.units,)

    def reduction_length(self):
        return self._built_input_shape[0]

    def outputs_per_image(self):
        return self.units

    @property
    def output_channels(self):
        return self.units

    def _forward_float(self, x, training, bipolar_input) -> np.ndarray:
        """Float32 matmul (pre-hook, pre-bias)."""
        qx = self._quantize_input(x, bipolar_input)
        qkernel = self._quantize_kernel()
        out = qx @ qkernel
        if self.product_fault_hook is not None:
            out = self.product_fault_hook(out, qx, qkernel, self)
        if training:
            self._cache = (x, qx, qkernel)
        return out

    def backward(self, dout):
        x, qx, qkernel = self._cache
        self._invalidate_caches()  # weights change right after this pass
        if self.use_bias:
            self.grads["bias"][...] = dout.sum(axis=0)
        dqkernel = qx.T @ dout
        dqx = dout @ qkernel.T
        if self.kernel_quantizer is not None:
            self.grads["kernel"][...] = self.kernel_quantizer.grad(
                self.params["kernel"], dqkernel)
        else:
            self.grads["kernel"][...] = dqkernel
        if self.input_quantizer is not None:
            return self.input_quantizer.grad(x, dqx)
        return dqx
