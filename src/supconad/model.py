"""Fully-connected encoder and projection head with hand-derived backward pass.

The encoder maps a flattened window to a latent vector h; the projection head
maps h to the contrastive embedding, which is L2-normalized before entering
the loss.  A model is ``ModelParams(flat, spec, n_encoder)``: ``spec`` gives
each layer's ((out, in), activation), the first ``n_encoder`` layers are the
encoder, and every weight (row-major) and bias, layer by layer, is a view
into the one float64 vector ``flat``.  The backward pass returns one
gradient vector with the same layout, so an SGD step and a checkpoint copy
are each one vector operation.  ``ModelParams.stack`` puts n models of one
spec on a leading model axis: ``flat`` is then (n, P), each weight
(n, out, in) and each bias (n, out), and every function below runs all n
models in one call, slice i giving exactly what model i alone gives.  The
constructor trusts its arguments: a layer chain is checked where params come
in, by ``check_dims`` for configured widths and by ``load_params`` for a
file.  Forward passes take a (batch, input_dim) matrix per model (one window
is a batch of one) and record what the exact reverse pass needs: each
layer's activation (a ReLU's mask is read back from it) and the norm of the
raw projection output v_raw, for the normalization Jacobian
(I - v v^T) / ||v_raw||.  The reverse pass gives the gradients w.r.t. the
weights and biases only; nothing needs the gradient w.r.t. the input, so it
is not computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, TextLines, finite_floats, unit_rows

ACTIVATIONS = ("relu", "identity")


@dataclass
class Layer:
    weight: np.ndarray  # (out_dim, in_dim), or (n, out_dim, in_dim) in a stack
    bias: np.ndarray    # (out_dim,), or (n, out_dim)
    activation: str


class ModelParams:
    def __init__(self, flat: np.ndarray, spec: tuple, n_encoder: int):
        """Params whose layers, each ((out, in), activation) in spec, are views of
        flat's last axis; the first n_encoder of them are the encoder."""
        self.flat, self.spec, self.n_encoder = flat, tuple(spec), n_encoder
        # per layer, the slice of flat's last axis holding its weight, the
        # weight's full shape, and the slice holding its bias
        self._layout, pos = [], 0
        for (n_out, n_in), _ in self.spec:
            end = pos + n_out * n_in
            self._layout.append((slice(pos, end), (*flat.shape[:-1], n_out, n_in),
                                 slice(end, end + n_out)))
            pos = end + n_out
        self.layers = [Layer(w, b, act) for (_, act), (w, b) in zip(self.spec, self.split(flat))]

    @staticmethod
    def stack(members: list["ModelParams"]) -> "ModelParams":
        """Params of models of one spec, on a leading model axis, as a copy."""
        first = members[0]
        if any((m.spec, m.n_encoder) != (first.spec, first.n_encoder) for m in members):
            raise ValueError("stacked models must share their layer shapes, activations "
                             "and encoder layers")
        return ModelParams(np.stack([m.flat for m in members]), first.spec, first.n_encoder)

    def member(self, i: int) -> "ModelParams":
        """Model i of stacked params, as an unstacked copy."""
        if self.flat.ndim != 2:
            raise ValueError("member: params are not stacked")
        return ModelParams(self.flat[i].copy(), self.spec, self.n_encoder)

    def __reduce__(self):
        # flat is sent once; unpickling rebinds the layers to views of the copy received
        return ModelParams, (self.flat, self.spec, self.n_encoder)

    @property
    def encoder(self) -> list[Layer]:
        return self.layers[:self.n_encoder]

    @property
    def projection(self) -> list[Layer]:
        return self.layers[self.n_encoder:]

    @property
    def input_dim(self) -> int:
        return self.spec[0][0][1]

    def split(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views into vec, one pair per layer; vec is shaped and laid
        out like flat."""
        return [(vec[..., w].reshape(shape), vec[..., b]) for w, shape, b in self._layout]

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy(), self.spec, self.n_encoder)


@dataclass
class ForwardTrace:
    x: np.ndarray
    act: list[np.ndarray]   # activations, one per layer in encoder+projection order
    h: np.ndarray           # encoder output (unnormalized)
    v: np.ndarray           # unit-norm embedding
    norms: np.ndarray       # ||act[-1]|| per row, shape (batch, 1)


def check_dims(encoder_dims, projection_dims) -> None:
    """Raise ValueError("<field>: <reason>") unless init_params can build these widths."""
    for name, dims in (("encoder_dims", encoder_dims), ("projection_dims", projection_dims)):
        if len(dims) < 2:
            raise ValueError(f"{name}: must list at least 2 widths, got {tuple(dims)}")
        if min(dims) < 1:
            raise ValueError(f"{name}: every width must be >= 1, got {tuple(dims)}")
    if projection_dims[0] != encoder_dims[-1]:
        raise ValueError(f"projection_dims: must start with {encoder_dims[-1]}, the last of "
                         f"encoder_dims, got {tuple(projection_dims)}")
    if projection_dims[-1] < 2:   # a cosine of 1-D embeddings is only ever +1 or -1
        raise ValueError(f"projection_dims: must end at width >= 2, got {tuple(projection_dims)}")


def init_params(encoder_dims: list[int], projection_dims: list[int], rng: Rng) -> ModelParams:
    """Fan-in-scaled Gaussian weights (std 1/sqrt(fan_in)), zero biases.

    ReLU on every layer except the final projection layer, which is identity.
    """
    check_dims(encoder_dims, projection_dims)
    dims = [*encoder_dims, *projection_dims[1:]]
    spec, parts = [], []
    for li, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        spec.append(((d_out, d_in), "identity" if li == len(dims) - 2 else "relu"))
        parts += [rng.gaussian_array((d_out, d_in), 0.0, 1.0 / np.sqrt(d_in)).ravel(),
                  np.zeros(d_out)]
    return ModelParams(np.concatenate(parts), spec, len(encoder_dims) - 1)


def forward(params: ModelParams, x: np.ndarray) -> ForwardTrace:
    """Run the full encoder + projection chain over a (batch, input_dim) matrix
    per model, recording intermediates.  For stacked params x is
    (n, batch, input_dim)."""
    a = x = np.asarray(x, dtype=np.float64)
    lead = params.flat.shape[:-1]
    if x.shape[:-2] != lead or x.ndim != len(lead) + 2 or x.shape[-1] != params.input_dim:
        shape = ", ".join([*map(str, lead), "batch", str(params.input_dim)])
        raise ValueError(f"input dim: expected a ({shape}) matrix, got shape {x.shape}")
    act = []
    for layer in params.layers:
        a = a @ layer.weight.swapaxes(-1, -2)
        a += layer.bias[..., None, :]
        if layer.activation == "relu":
            np.maximum(a, 0.0, out=a)
        act.append(a)
    v, norms = unit_rows(act[-1], "projection output")
    return ForwardTrace(x=x, act=act, h=act[params.n_encoder - 1], v=v, norms=norms)


def backward(params: ModelParams, trace: ForwardTrace, grad_v: np.ndarray) -> np.ndarray:
    """Exact gradient of (grad_v . v), summed over the batch, w.r.t. every weight
    and bias: one vector laid out like params.flat.

    grad_v is shaped like trace.v: (batch, embed_dim) per model.  The gradient
    w.r.t. the input is not formed.
    """
    grad_v = np.asarray(grad_v, dtype=np.float64)
    v = trace.v
    if grad_v.shape != v.shape:
        raise ValueError(f"grad_v shape {grad_v.shape} != embedding shape {v.shape}")

    g = v * np.add.reduce(grad_v * v, axis=-1, keepdims=True)
    np.subtract(grad_v, g, out=g)
    g /= trace.norms

    grads = np.empty_like(params.flat)
    layers = params.layers
    for li, (dw, db) in reversed(list(enumerate(params.split(grads)))):
        if layers[li].activation == "relu":
            g *= trace.act[li] > 0        # max(z, 0) > 0 exactly where z > 0
        np.matmul(g.swapaxes(-1, -2), trace.act[li - 1] if li > 0 else trace.x, out=dw)
        np.add.reduce(g, axis=-2, out=db)
        if li > 0:
            g = g @ layers[li].weight
    return grads


def sgd_step(params: ModelParams, grads: np.ndarray, lr: float) -> None:
    """In-place SGD update of params.flat."""
    params.flat -= lr * grads


# -- checkpoint file format (version 1) -------------------------------------
#
#   supconad-params v1
#   section encoder <n_layers>
#   layer <out> <in> <activation>
#   <bias entries, space-separated reprs>
#   <out lines of in weight entries>
#   section projection <n_layers>
#   ...
#
# repr round-trips float64 exactly, so save/load is bit-exact.

def save_params(params: ModelParams, path: str) -> None:
    if params.flat.ndim != 1:
        raise ValueError("save_params: stacked params hold several models; save each member")

    def fmt(arr):
        return " ".join(repr(float(x)) for x in arr)

    with open(path, "w") as f:
        f.write("supconad-params v1\n")
        for name, stack in (("encoder", params.encoder), ("projection", params.projection)):
            f.write(f"section {name} {len(stack)}\n")
            for layer in stack:
                out_d, in_d = layer.weight.shape
                f.write(f"layer {out_d} {in_d} {layer.activation}\n")
                f.write(fmt(layer.bias) + "\n")
                for row in layer.weight:
                    f.write(fmt(row) + "\n")


def load_params(path: str) -> ModelParams:
    """Read a version-1 checkpoint; a malformed line, or one after the last layer, raises
    ValueError("path:line: ..."), and layers that make no model (an empty section, widths
    that do not chain, a projection output below 2) raise ValueError("path: ...")."""
    parts, spec = [], []
    with TextLines(path) as lines:
        if next(lines, (0, ""))[1] != "supconad-params v1":
            raise ValueError("unrecognized checkpoint header")
        for name in ("encoder", "projection"):
            n_encoder = len(spec)   # the layers before the projection section's are the encoder
            tag, got, n = _fields(lines, 3)
            if (tag, got) != ("section", name):
                raise ValueError(f"expected 'section {name} <n_layers>'")
            for _ in range(int(n)):
                tag, out_d, in_d, act = _fields(lines, 4)
                if tag != "layer" or act not in ACTIVATIONS:
                    raise ValueError(f"expected 'layer <out> <in> <{'|'.join(ACTIVATIONS)}>'")
                out_d, in_d = int(out_d), int(in_d)
                bias = finite_floats(_fields(lines, out_d))
                w = np.empty((out_d, in_d))
                for r in range(out_d):
                    w[r] = finite_floats(_fields(lines, in_d))
                parts += [w.ravel(), bias]
                spec.append(((out_d, in_d), act))
        if next(lines, None):
            raise ValueError("line after the last layer")
        shapes = [shape for shape, _ in spec]
        with lines.whole_file():
            if not 0 < n_encoder < len(spec):
                raise ValueError("encoder and projection must each have >= 1 layer")
            if any(nxt[1] != prev[0] for prev, nxt in zip(shapes, shapes[1:])):
                raise ValueError("consecutive layer dimensions are incompatible")
            if shapes[-1][0] < 2:
                raise ValueError("projection output dimension must be >= 2")
    return ModelParams(np.concatenate(parts), spec, n_encoder)


def _fields(lines: TextLines, n: int) -> list[str]:
    """The n whitespace-separated fields of the next line."""
    _, line = next(lines, (0, None))
    if line is None:
        raise ValueError("checkpoint ends early")
    parts = line.split()
    if len(parts) != n:
        raise ValueError(f"expected {n} fields, got {len(parts)}")
    return parts
