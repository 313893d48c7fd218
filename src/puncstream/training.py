"""Joint multi-task loss, Adam with warm-up and clipping, and the train loop.

Both tagging heads contribute a token-mean cross entropy; the total loss is
their sum. The learning-rate schedule is the inverse-square-root ramp
peaking at `warmup_steps`.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from . import model as mdl
from . import numcore as nc
from .data import encode, truncation_augment
from .decoding import ModelTagger, tag_offline
from .evaluation import score


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    batch_size: int = 8
    warmup_steps: int = 400
    max_steps: int = 2000
    clip_norm: float = 1.0
    seed: int = 0
    augment: bool = True
    eval_every: int = 100

    def __post_init__(self):
        for name in ("batch_size", "warmup_steps", "max_steps", "eval_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ValueError(
                f"clip_norm must be finite and > 0, got {self.clip_norm}")


def joint_loss(punct_logits, disf_logits, punct_ids, disf_ids, tape=None):
    """Sum of the two heads' token-mean cross entropies (scalar tensor)."""
    if len(punct_ids) != punct_logits.shape[0] or len(disf_ids) != disf_logits.shape[0]:
        raise nc.ContractError("joint_loss: logits and gold lengths disagree")
    return nc.add(nc.cross_entropy_mean(punct_logits, punct_ids, tape),
                  nc.cross_entropy_mean(disf_logits, disf_ids, tape), tape)


def lr_schedule(step, d_model, warmup_steps):
    """d_model^-0.5 * min(step^-0.5, step * warmup_steps^-1.5)."""
    if step < 1:
        raise nc.ContractError(f"lr_schedule: step must be >= 1, got {step}")
    return d_model ** -0.5 * min(step ** -0.5, step * warmup_steps ** -1.5)


def _flat(arrays):
    """The arrays laid end to end in one new float64 vector."""
    return np.concatenate(list(arrays), axis=None)


def _views(flat, shapes):
    """{name: view of `flat`}: consecutive pieces with the given shapes."""
    views, start = {}, 0
    for name, shape in shapes.items():
        stop = start + math.prod(shape)
        views[name] = flat[start:stop].reshape(shape)
        start = stop
    return views


def clip_gradients(grads, clip_norm, n_heads=1):
    """Scale the whole gradient set so its global L2 norm is <= clip_norm.

    The squares are summed over each parameter's CTT1 blocks in turn
    (model.param_blocks, `n_heads` heads), so the norm, and with it training,
    has the same bits as with one tensor per head and projection. The finite
    check and the scaling run once over all gradients laid end to end, and
    the scaled gradients are views of that one vector.
    """
    flat = _flat(grads.values())
    if not np.isfinite(flat).all():
        raise TrainingError("non-finite gradient; aborting")
    sq = 0.0
    for name, g in grads.items():
        for part in mdl.param_blocks(name, g, n_heads):
            sq += float((part * part).sum())
    norm = math.sqrt(sq)
    if norm <= clip_norm:
        return grads
    flat *= clip_norm / norm
    return _views(flat, {name: g.shape for name, g in grads.items()})


_BETA1 = 0.9
_BETA2 = 0.98
_EPS = 1e-9


class Adam:
    """Adam with external learning rate and fixed betas and epsilon.

    The moments and each update are one float64 vector over the parameters
    in `param_names` order, and the stepped parameters are views of one new
    vector.
    """

    def __init__(self, param_names):
        self.names = list(param_names)
        self.m = self.v = None
        self.t = 0

    def step(self, params, grads, lr):
        self.t += 1
        g = _flat(grads[n] for n in self.names)
        if self.m is None:
            self.m = np.zeros_like(g)
            self.v = np.zeros_like(g)
        self.m = _BETA1 * self.m + (1 - _BETA1) * g
        self.v = _BETA2 * self.v + (1 - _BETA2) * g * g
        mhat = self.m / (1 - _BETA1 ** self.t)
        vhat = self.v / (1 - _BETA2 ** self.t)
        stepped = _flat(params[n].data for n in self.names)
        stepped -= lr * mhat / (np.sqrt(vhat) + _EPS)
        shapes = {n: params[n].shape for n in self.names}
        for name, view in _views(stepped, shapes).items():
            params[name] = nc._wrap(view)


def batch_gradients(batch, model_config, params, vocab, scheme):
    """Mean joint loss over a batch of sequences plus summed-then-averaged
    gradients keyed by parameter name.

    Each sequence's gradients are laid end to end and summed as one vector;
    the returned arrays are views of it.
    """
    wrt = list(params.tensors.values())
    acc = None
    total_loss = 0.0
    for seq in batch:
        ids, punct_ids, disf_ids = encode(seq, vocab, scheme)
        tape = nc.Tape()
        punct_logits, disf_logits = mdl.forward(ids, model_config, params, tape)
        loss = joint_loss(punct_logits, disf_logits, punct_ids, disf_ids, tape)
        total_loss += loss.item()
        grads = nc.backward(loss, tape, wrt=wrt)
        flat = _flat(grads[t] for t in wrt)
        if acc is None:
            acc = flat
        else:
            acc += flat
    k = len(batch)
    acc /= k
    return total_loss / k, _views(acc, {n: t.shape for n, t in params.items()})


@dataclass
class TrainResult:
    params: "mdl.ModelParams"
    config: "mdl.ModelConfig"
    history: list  # (step, train_loss, dev_punct_f1, dev_interregnum_f1, dev_either_f1)
    initial_loss: float
    final_loss: float
    steps_run: int


def _dev_f1(dev_corpus, model_config, params, vocab, scheme):
    tagger = ModelTagger(model_config, params, vocab, scheme)
    preds = [tag_offline(seq.words, tagger) for seq in dev_corpus]
    report = score(preds, dev_corpus, scheme)
    return (report.punct_overall.f1,
            report.disf["interregnum"].f1,
            report.disf["either"].f1)


def train(corpus, config, model_config, vocab, scheme, dev=None,
          init_params=None, stop_dev_f1=None):
    """Run Adam steps over shuffled mini-batches; returns a TrainResult.

    With `dev` given, evaluates every `eval_every` steps and keeps the
    parameters scoring best on mean(punct micro-F1, either-disfluency F1).
    `stop_dev_f1` = (punct_f1, interregnum_f1) stops early once both are
    reached.
    Reproducible: identical seeds and inputs give identical parameters.
    An unlabeled utterance, or a label outside `scheme`, in `corpus` or
    `dev` raises ValueError before the first step.
    """
    if not corpus:
        raise ValueError("training corpus is empty")
    for what, seqs in (("corpus", corpus), ("dev", dev or ())):
        # iterate, never index: perfbench's StepClock counts indexed reads
        for i, seq in enumerate(seqs):
            if problem := scheme.label_problem(seq):
                raise ValueError(f"{what} utterance {i} {problem}")
    rng = random.Random(config.seed)
    if init_params is not None:
        params = init_params.copy()
    else:
        params = mdl.init_params(model_config, np.random.default_rng(config.seed))
    opt = Adam(list(params.tensors))
    history = []
    best_score, best_params = -1.0, None
    initial_loss = final_loss = None

    order = list(range(len(corpus)))
    cursor = len(order)  # force initial shuffle
    step = 0
    while step < config.max_steps:
        step += 1
        batch = []
        while len(batch) < config.batch_size:
            if cursor >= len(order):
                rng.shuffle(order)
                cursor = 0
            batch.append(corpus[order[cursor]])
            cursor += 1
        if config.augment:
            batch = truncation_augment(batch, rng)
        loss, grads = batch_gradients(batch, model_config, params, vocab, scheme)
        if initial_loss is None:
            initial_loss = loss
        final_loss = loss
        grads = clip_gradients(grads, config.clip_norm, model_config.n_heads)
        lr = lr_schedule(step, model_config.d_model, config.warmup_steps)
        opt.step(params, grads, lr)

        if dev is not None and step % config.eval_every == 0:
            pf1, if1, ef1 = _dev_f1(dev, model_config, params, vocab, scheme)
            history.append((step, loss, pf1, if1, ef1))
            mean_f1 = (pf1 + ef1) / 2
            if mean_f1 > best_score:
                best_score = mean_f1
                best_params = params.copy()
            if stop_dev_f1 is not None and pf1 >= stop_dev_f1[0] and if1 >= stop_dev_f1[1]:
                break
        elif dev is None:
            history.append((step, loss, None, None, None))

    if best_params is not None:
        params = best_params
    return TrainResult(params, model_config, history, initial_loss,
                       final_loss, step)
