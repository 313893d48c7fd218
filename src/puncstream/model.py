"""Encoder with controllable look-ahead attention plus two tagging heads.

The encoder stacks N layers of multi-head masked self-attention and a
position-wise feed-forward network (post-layer-norm residuals, ReLU inner
activation). Final hidden states feed two independent linear+softmax heads,
one for punctuation labels and one for disfluency labels.
"""

import math
import os
import struct
import zlib
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import itemgetter

import numpy as np

from . import numcore as nc
from .data import LabelScheme, Vocabulary
from .masks import MaskSpec, build_ct_mask
from .numcore import Tensor  # noqa: F401 -- re-exported as model.Tensor


class CheckpointError(ValueError):
    pass


class LengthError(ValueError):
    pass


# The largest `max_positions` a stored model may have. A stream buffer at
# the cap is re-tagged on every frame of `frame_rate` (3) words, and speech
# brings three words in about 1.2 s. A CLI-default forward over 2048
# positions took 0.49 s and peaked at 247 MB; over 4096 it took 2.0 s, so a
# stream would fall behind speech, and peaked at 851 MB (2 Xeon vCPUs,
# numpy 2.4.6 with OpenBLAS). A ModelConfig in memory may be larger.
POSITIONS_CEILING = 2048


def check_max_positions(max_positions):
    """Raise LengthError if `max_positions` is above POSITIONS_CEILING."""
    if max_positions > POSITIONS_CEILING:
        raise LengthError(f"max_positions {max_positions} is above "
                          f"{POSITIONS_CEILING}, the most a stored model may have")


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    mask_spec: MaskSpec
    punct_label_count: int
    disf_label_count: int
    max_positions: int = 512

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff",
                     "punct_label_count", "disf_label_count", "max_positions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if len(self.mask_spec) != self.n_layers:
            raise ValueError(
                f"mask spec has {len(self.mask_spec)} budgets for "
                f"{self.n_layers} layers")

    @property
    def d_k(self):
        return self.d_model // self.n_heads


class ModelParams:
    """A model's parameters as one float64 vector, `vector`, laid out in
    param_shapes(`config`) order (param_slots).

    `params[name]` is a read-only Tensor view of the parameter `name`, and
    `embed` and `layers` (per layer its arrays in the vector's order,
    _LAYER_PARAMS) are the read-only arrays the forward runs on, all views
    of the vector, so what is written to the vector is what the next
    forward reads.
    `params[name] = t` copies the Tensor `t` into its slot; a name the
    config has no parameter of, or a tensor of another shape, raises
    ShapeMismatchError naming it. Without `vector` the parameters are
    zeros.
    """

    __slots__ = ("config", "vector", "embed", "layers", "_slots", "_tensors")

    def __init__(self, config, vector=None):
        if vector is None:
            vector = np.zeros(_param_count(config))
        self.config = config
        self.vector = vector
        self._slots = param_slots(config, vector)
        self._tensors = {n: nc._wrap(s.view()) for n, s in self._slots.items()}
        self.embed = self._tensors["embed"].data
        self.layers = tuple(tuple(t.data for t in layer(self._tensors))
                            for layer in _layer_getters(config.n_layers))

    def __getitem__(self, name):
        return self._tensors[name]

    def __setitem__(self, name, t):
        if name not in self._slots:
            raise nc.ShapeMismatchError(f"no parameter named {name}")
        if t.shape != self._slots[name].shape:
            raise nc.ShapeMismatchError(
                f"{name}: expected {self._slots[name].shape}, found {t.shape}")
        self._slots[name][...] = t.data

    def names(self):
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def copy(self):
        """The same parameters in a vector of their own."""
        return ModelParams(self.config, self.vector.copy())


# Each layer's parameters with their shapes in d_model ("d", "3d" for
# 3 * d_model) and d_ff ("ff"), in the one order: the one in which the
# vector and a checkpoint store a layer, ModelParams.layers holds its
# arrays and the forward and its backward unpack them.
_LAYER_PARAMS = {"wqkv": ("d", "3d"), "wo": ("d", "d"), "ff.w1": ("d", "ff"),
                 "ff.b1": ("ff",), "ff.w2": ("ff", "d"), "ff.b2": ("d",),
                 "norm1.gain": ("d",), "norm1.bias": ("d",),
                 "norm2.gain": ("d",), "norm2.bias": ("d",)}


def param_shapes(config):
    """The full name -> shape map for a config, in the order in which a
    ModelParams vector and a checkpoint lay the parameters out."""
    d = config.d_model
    dims = {"d": d, "3d": 3 * d, "ff": config.d_ff}
    shapes = {"embed": (config.vocab_size, d)}
    for i in range(config.n_layers):
        shapes.update({f"layer{i}.{p}": tuple(dims[k] for k in shape)
                       for p, shape in _LAYER_PARAMS.items()})
    shapes["punct.w"] = (d, config.punct_label_count)
    shapes["punct.b"] = (config.punct_label_count,)
    shapes["disf.w"] = (d, config.disf_label_count)
    shapes["disf.b"] = (config.disf_label_count,)
    return shapes


def param_blocks(name, array, n_heads):
    """Views of parameter `name`'s array as CTT1 stored it: a `wqkv` as its
    (d, d_k) blocks, head by head and q, k, v within a head; any other
    parameter whole."""
    if not name.endswith(".wqkv"):
        return [array]
    d = array.shape[0]
    dk = d // n_heads
    return [array[:, (c * n_heads + h) * dk:(c * n_heads + h + 1) * dk]
            for h in range(n_heads) for c in range(3)]


def _param_count(config):
    return sum(math.prod(shape) for shape in param_shapes(config).values())


def param_slots(config, vector):
    """{name: view of `vector`}: the float64 vector cut into consecutive
    pieces with param_shapes(config)'s shapes, in that order. A vector of
    another length raises ShapeMismatchError."""
    if vector.shape != (_param_count(config),):
        raise nc.ShapeMismatchError(
            f"a parameter vector of shape {vector.shape} does not hold the "
            f"config's {_param_count(config)} parameters")
    slots, start = {}, 0
    for name, shape in param_shapes(config).items():
        stop = start + math.prod(shape)
        slots[name] = vector[start:stop].reshape(shape)
        start = stop
    return slots


def init_params(config, rng):
    """Random init: embeddings uniform +-d_model^-0.5, Glorot elsewhere,
    drawn parameter by parameter in param_shapes order into a fresh vector.

    Each head's q, k and v projection is drawn as its own Glorot (d, d_k)
    block, head by head in the order q, k, v, straight into its place in
    `wqkv` (param_blocks).
    """
    params = ModelParams(config)
    bound_embed = config.d_model ** -0.5
    bound_qkv = math.sqrt(6.0 / (config.d_model + config.d_k))
    for name, w in param_slots(config, params.vector).items():
        if name == "embed":
            w[...] = rng.uniform(-bound_embed, bound_embed, w.shape)
        elif name.endswith(".wqkv"):
            for block in param_blocks(name, w, config.n_heads):
                block[...] = rng.uniform(-bound_qkv, bound_qkv, block.shape)
        elif name.endswith(".gain"):
            w[...] = 1.0
        elif w.ndim == 2:  # biases stay zero
            fan_in, fan_out = w.shape
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-bound, bound, w.shape)
    return params


@lru_cache(maxsize=64)
def _position_table(rows, d_model):
    pos = np.arange(rows)[:, None].astype(np.float64)
    chan = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (2 * (chan // 2)) / d_model)
    table = np.empty((rows, d_model))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    table.setflags(write=False)
    return table


def _positions(n, d_model, max_positions):
    """Sine/cosine position encoding: even channels sin, odd channels cos.

    Returns a read-only view of the first n rows of a cached table. The
    table has the next power of two >= n rows, not max_positions rows, so a
    checkpoint's max_positions never sets the size of an allocation.
    """
    if n > max_positions:
        raise LengthError(f"sequence length {n} exceeds max_positions {max_positions}")
    rows = 1 << max(n - 1, 0).bit_length()
    return _position_table(rows, d_model)[:n]


@lru_cache(maxsize=16)
def _layer_getters(n_layers):
    """Per layer, a getter of its _LAYER_PARAMS tensors from a name map."""
    return tuple(itemgetter(*(f"layer{i}.{p}" for p in _LAYER_PARAMS))
                 for i in range(n_layers))


def unpack_params(config, params):
    """`params`, a ModelParams, checked against `config`: returned as it is
    if it was built for `config`, or for a config with the same
    param_shapes (other look-ahead budgets or `max_positions`). Otherwise
    raises ShapeMismatchError naming every parameter whose shape differs."""
    if params.config is not config:
        expected, found = param_shapes(config), param_shapes(params.config)
        wrong = [f"{n}: expected {expected.get(n)}, found {found.get(n)}"
                 for n in {**expected, **found} if expected.get(n) != found.get(n)]
        if wrong:
            raise nc.ShapeMismatchError(
                "parameters do not fit the config: " + "; ".join(wrong))
    return params


def _encode(ids, config, params, lengths, saved=None):
    """The encoder: numcore's kernels on the int64 ids `ids` and the arrays
    of the ModelParams `params`, with no shape checks and no Tensors.
    `ids` holds one or more sequences one after another, of the lengths
    `lengths`, each with its own positions and masks; the kernels run once
    over all of them. Given a list `saved`, appends for each layer its input
    and what its kernels return for their backwards (`loss_gradients`)."""
    x = nc._embedding_lookup(params.embed, ids, nc._stack(
        [_positions(n, config.d_model, config.max_positions) for n in lengths]))
    for lookahead, (wqkv, wo, w1, fb1, w2, fb2, g1, b1, g2, b2) in zip(
            config.mask_spec.per_layer_lookahead, params.layers):
        masks = [build_ct_mask(n, lookahead) for n in lengths]
        y, attention = nc._attention(x, wqkv, wo, masks, config.n_heads)
        x1, norm1 = nc._add_layer_norm(x, y, g1, b1)
        y, inner = nc._feed_forward(x1, w1, fb1, w2, fb2)
        y, norm2 = nc._add_layer_norm(x1, y, g2, b2)
        if saved is not None:
            saved.append((x, attention, x1, norm1, inner, norm2))
        x = y
    return x


def encoder_forward(token_ids, config, params):
    """Run the masked-attention encoder; returns hidden states (n, d_model).

    One embedding kernel, which adds the positions (`_positions`), then four
    numcore sublayer kernels per layer: attention (fused q/k/v projection,
    every head's masked softmax, output projection) under the layer's mask
    build_ct_mask(n, budget), add+norm1, the feed-forward network and
    add+norm2, on the arrays of `unpack_params(config, params)`.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    return nc._wrap(_encode(ids, config, unpack_params(config, params), (len(ids),)))


def heads_forward(hidden, params):
    """Linear projections to (punct logits, disf logits)."""
    punct = nc.matmul(hidden, params["punct.w"]).data + params["punct.b"].data
    disf = nc.matmul(hidden, params["disf.w"]).data + params["disf.b"].data
    return nc._wrap(punct), nc._wrap(disf)


def forward(token_ids, config, params):
    """Full pass: token ids -> (punct logits, disf logits).

    `params` is a ModelParams, checked against the config (unpack_params).
    """
    return heads_forward(encoder_forward(token_ids, config, params), params)


def loss_gradients(encoded, config, params, rows):
    """The joint losses of the labeled sequences `encoded`, (token ids,
    punct ids, disf ids) triples, as floats, each the sum of the two heads'
    token-mean cross entropies. Sequence i's gradient is written into
    `rows[i]`, a name -> array map with an array of every parameter's shape.

    Each sequence gets the bits it would get alone. The sequences of two or
    more words run as one pack, stacked row by row (`_pack_loss_gradients`);
    a one-word sequence runs alone, since numpy computes a one-row product
    as a matrix-vector product, whose bits differ from the row's inside a
    matrix product.
    """
    params = unpack_params(config, params)
    packs = [[i] for i, (ids, _, _) in enumerate(encoded) if len(ids) == 1]
    packs.append([i for i, (ids, _, _) in enumerate(encoded) if len(ids) != 1])
    losses = np.empty(len(encoded))
    for pack in filter(None, packs):
        losses[pack] = _pack_loss_gradients([encoded[i] for i in pack], config,
                                            params, [rows[i] for i in pack])
    return losses.tolist()


def _pack_loss_gradients(encoded, config, params, rows):
    """loss_gradients on the sequences `encoded`, stacked row by row.

    The forward is inference's own, `_encode` and `heads_forward`, over
    all the rows, keeping what the kernels return for their backwards.
    Each sequence's cross entropies and the heads' backwards run on its own
    rows; the kernels' backwards then run in reverse, each layer's (last
    layer first) and the embedding's, each sequence's parameter gradients
    landing in its own row. Where a gradient has several parts they add up
    as in a reverse-mode pass over one op per product, sum, ReLU and norm,
    so the gradient has its bits: the hidden states' adds the disf head's
    part before the punct head's, and within a layer x's adds the norm2
    residual, the FFN, the norm1 residual and then the attention blocks.
    """
    lengths = [len(ids) for ids, _, _ in encoded]
    segments, start = [], 0
    for n in lengths:
        segments.append(slice(start, start + n))
        start += n
    ids = nc._stack([np.asarray(ids, dtype=np.int64) for ids, _, _ in encoded])
    saved = []
    hidden = nc._wrap(_encode(ids, config, params, lengths, saved))
    punct, disf = heads_forward(hidden, params)
    g = np.empty(hidden.shape)
    losses = []
    for s, (_, punct_ids, disf_ids), grads in zip(segments, encoded, rows):
        punct_loss, punct_saved = nc._cross_entropy_mean(punct.data[s], punct_ids)
        disf_loss, disf_saved = nc._cross_entropy_mean(disf.data[s], disf_ids)
        g_punct = nc._cross_entropy_mean_backward(punct.data[s], punct_saved)
        g_disf = nc._cross_entropy_mean_backward(disf.data[s], disf_saved)
        for head, gh in (("punct", g_punct), ("disf", g_disf)):
            np.matmul(hidden.data[s].T, gh, out=grads[f"{head}.w"])
            np.add.reduce(gh, axis=0, out=grads[f"{head}.b"])
        np.matmul(g_disf, params["disf.w"].data.T, out=g[s])
        g[s] += g_punct @ params["punct.w"].data.T
        losses.append(float(punct_loss + disf_loss))
    layer_grads = [list(zip(*map(layer, rows)))
                   for layer in _layer_getters(config.n_layers)]
    for (x, attention, x1, norm1, inner, norm2), (wqkv, wo, w1, _, w2, _, g1, _, g2, _), \
            (gwqkv, gwo, gw1, gfb1, gw2, gfb2, gg1, gb1, gg2, gb2) in zip(
                reversed(saved), reversed(params.layers), reversed(layer_grads)):
        g = nc._add_layer_norm_backward(g, g2, norm2, segments, gg2, gb2)
        nc._feed_forward_backward(g, x1, w1, w2, inner, segments, g, gw1, gfb1,
                                  gw2, gfb2)
        g = nc._add_layer_norm_backward(g, g1, norm1, segments, gg1, gb1)
        nc._attention_backward(g, x, wqkv, wo, attention, config.n_heads,
                               segments, g, gwqkv, gwo)
    nc._embedding_backward(g, ids, segments, [grads["embed"] for grads in rows])
    return losses


def predict(token_ids, config, params):
    """Per-position argmax labels; ties resolve to the lowest label index."""
    if len(token_ids) == 0:
        return [], []
    punct, disf = forward(token_ids, config, params)
    return punct.data.argmax(axis=1).tolist(), disf.data.argmax(axis=1).tolist()


# ---------------------------------------------------------------------------
# Checkpoint format "CTT3", all little-endian: the magic, the length of the
# key=value config block and the block; then every parameter as one float64
# payload in param_shapes(config) order (the ModelParams vector), with no
# names or shapes, since the config fixes both; then the CRC-32 (zlib) of
# every byte before it. Each layer's attention projections are one
# parameter `layer{i}.wqkv` of shape (d_model, 3 * d_model), columns
# [q_0 .. q_{H-1} | k_0 .. | v_0 ..], each block d_model / n_heads wide.
# "CTT1" (one tensor per head and projection) and "CTT2" (named, shaped
# tensor records, no CRC) files are refused.
# ---------------------------------------------------------------------------

_MAGIC = b"CTT3"
_OLD_FORMATS = {b"CTT1": "the old per-head wq/wk/wv layout",
                b"CTT2": "named tensor records without a CRC"}


def _block_key(field):
    """The config block's key for a ModelConfig field."""
    return "lookahead" if field == "mask_spec" else field


def _check_counts(path, config, vocab, scheme):
    """Raise CheckpointError unless the vocabulary has `config.vocab_size`
    entries and the label scheme the config's label counts."""
    if len(vocab) != config.vocab_size:
        raise CheckpointError(
            f"checkpoint {path}: vocabulary has {len(vocab)} entries but "
            f"config says {config.vocab_size}")
    if (len(scheme.punct_labels), len(scheme.disf_labels)) != \
            (config.punct_label_count, config.disf_label_count):
        raise CheckpointError(
            f"checkpoint {path}: {len(scheme.punct_labels)} punct and "
            f"{len(scheme.disf_labels)} disf label names but config says "
            f"{config.punct_label_count} and {config.disf_label_count}")


# Half of float64's largest value: the most a bound of _value_bounds may be,
# which leaves room for rounding.
_VALUE_LIMIT = float(np.finfo(np.float64).max) / 2


def _value_bounds(config, params):
    """Yield (parameter name, bound) for each step of the forward: the
    parameter that the step applies and a bound on the magnitude of every
    value the step computes, partial sums and squares included, for any
    tokens.

    The bounds follow from each parameter's largest magnitude and the sizes
    alone, since a layer norm's output before its gain and bias lies within
    sqrt(d_model) of zero, whatever its input.
    """
    top = {name: float(np.abs(w).max())
           for name, w in param_slots(config, params.vector).items()}
    d, dk, dff = config.d_model, config.d_k, config.d_ff

    def add_norm(s, name):
        """For the layer norm `name` of a sum whose entries are at most `s`:
        a bound on its row sums and centred sums of squares, and its output's."""
        return d * (s + 4 * s * s), (math.sqrt(d) * top[f"{name}.gain"]
                                     + top[f"{name}.bias"])

    x = top["embed"] + 1.0  # a token's row plus its positions, in [-1, 1]
    yield "embed", x
    for i in range(config.n_layers):
        qkv = d * x * top[f"layer{i}.wqkv"]
        yield f"layer{i}.wqkv", 2 * dk * qkv * qkv  # q.k less its row's largest
        y = d * qkv * top[f"layer{i}.wo"]  # the heads' outputs average v's rows
        sums, x = add_norm(x + y, f"layer{i}.norm1")
        yield f"layer{i}.wo", sums
        yield f"layer{i}.norm1.gain", x
        inner = d * x * top[f"layer{i}.ff.w1"] + top[f"layer{i}.ff.b1"]
        yield f"layer{i}.ff.w1", inner
        y = dff * inner * top[f"layer{i}.ff.w2"] + top[f"layer{i}.ff.b2"]
        sums, x = add_norm(x + y, f"layer{i}.norm2")
        yield f"layer{i}.ff.w2", sums
        yield f"layer{i}.norm2.gain", x
    for head in ("punct", "disf"):  # logits, and logits less their row's largest
        yield f"{head}.w", 2 * (d * x * top[f"{head}.w"] + top[f"{head}.b"])


def _check_values(path, config, params):
    """Raise CheckpointError, naming the parameter, if a weight is not
    finite, or if one is so large that a forward could leave float64's
    range (_value_bounds)."""
    if not np.isfinite(params.vector).all():
        raise CheckpointError(f"checkpoint {path} has non-finite values in "
                              + ", ".join(name for name, t in params.items()
                                          if not np.isfinite(t.data).all()))
    for name, bound in _value_bounds(config, params):
        if not bound <= _VALUE_LIMIT:  # a bound past a float's range is inf or nan
            raise CheckpointError(
                f"checkpoint {path} has weights so large that a forward could "
                f"overflow float64 at {name}")


def save_model(path, config, params, vocab, scheme):
    """Write the config, the vocabulary, the label names and the parameter
    vector, then the CRC. A `max_positions` above POSITIONS_CEILING raises
    LengthError, `params` that do not fit `config` ShapeMismatchError, and
    a vocabulary or label scheme of another size than the config's, or a
    weight that load_model would refuse (_check_values), CheckpointError,
    before the file is opened. Every
    word and label can be stored: Vocabulary and LabelScheme refuse one
    that is empty or holds whitespace.

    The config block holds ModelConfig's fields in declaration order, then
    the vocabulary without PAD/UNK, which are implicit, and the label names.
    """
    check_max_positions(config.max_positions)
    params = unpack_params(config, params)
    _check_counts(path, config, vocab, scheme)
    _check_values(path, config, params)
    payload = np.asarray(params.vector, dtype="<f8").tobytes()
    kv = {_block_key(f.name): getattr(config, f.name) for f in fields(config)}
    kv["lookahead"] = config.mask_spec.to_string()
    kv["vocab"] = " ".join(vocab.words[2:])
    kv["punct_labels"] = " ".join(scheme.punct_labels)
    kv["disf_labels"] = " ".join(scheme.disf_labels)
    block = "".join(f"{k}={v}\n" for k, v in kv.items()).encode("utf-8")
    header = _MAGIC + struct.pack("<I", len(block)) + block
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(payload, zlib.crc32(header))))


def load_model(path):
    """Inverse of save_model: (config, params, vocab, scheme).

    The file must be exactly as long as its config implies, and its CRC
    must match; no read is larger than the file. `max_positions` may not be
    above POSITIONS_CEILING, the label names must match the config's label
    counts and the vocabulary its size, and every weight must be finite and
    small enough that no forward leaves float64's range (_check_values).
    Any malformed file raises CheckpointError.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def take(n):
            if f.tell() + n > size:
                raise CheckpointError(f"truncated checkpoint {path}")
            return f.read(n)

        magic = take(4)
        if magic in _OLD_FORMATS:
            raise CheckpointError(
                f"{path} is a {magic.decode()} checkpoint, which uses "
                f"{_OLD_FORMATS[magic]}; retrain to get a CTT3 checkpoint")
        if magic != _MAGIC:
            raise CheckpointError(f"{path} is not a CTT3 checkpoint")
        length = take(4)
        block = take(struct.unpack("<I", length)[0])
        kv = {}
        try:
            for line in block.decode("utf-8").splitlines():
                if line:
                    key, _, value = line.partition("=")
                    kv[key] = value
            args = {f.name: kv[_block_key(f.name)] for f in fields(ModelConfig)}
            config = ModelConfig(**{
                name: MaskSpec.from_string(v) if name == "mask_spec" else int(v)
                for name, v in args.items()})
            check_max_positions(config.max_positions)
            vocab = Vocabulary(kv["vocab"].split())
            scheme = LabelScheme(tuple(kv["punct_labels"].split()),
                                 tuple(kv["disf_labels"].split()))
        except KeyError as e:
            raise CheckpointError(f"checkpoint {path} missing config key {e}") from None
        except ValueError as e:
            raise CheckpointError(f"checkpoint {path} has a bad config: {e}") from None
        payload = take(8 * _param_count(config))
        (crc,) = struct.unpack("<I", take(4))
        if f.read(1):
            raise CheckpointError(
                f"checkpoint {path} has bytes past the end its config implies")
    if zlib.crc32(payload, zlib.crc32(magic + length + block)) != crc:
        raise CheckpointError(f"checkpoint {path} fails its CRC check")
    _check_counts(path, config, vocab, scheme)
    params = ModelParams(config, np.frombuffer(payload, dtype="<f8").astype(np.float64))
    _check_values(path, config, params)
    return config, params, vocab, scheme
