"""Joint multi-task loss, Adam with warm-up and clipping, and the train loop.

Both tagging heads contribute a token-mean cross entropy; the total loss is
their sum. Sequences' losses and gradients come from model.loss_gradients,
which runs the model's one forward and its kernels' backwards on several
sequences at once, each getting the bits it would get alone. The
learning-rate schedule is the inverse-square-root ramp peaking at
`warmup_steps`.

In a `train` call the parameters are one ModelParams, whose float64 vector
is laid out in param_shapes order and whose views are the working tensors;
`clip_gradients` and `Adam.step` update the gradient and parameter vectors
in place, and only dev-selected and returned ones are copied.

A batch's sequences do not depend on each other until their gradients are
summed, so `train` forks min(usable CPUs, `batch_size`) - 1 helper
processes, and `GradientHelpers.gradient` owns a batch's gradient: the
batch is sorted longest first and dealt out and back over the processes,
so each gets as many sequences as the next, give or take one; each process
computes its share in one model.loss_gradients call, each sequence's
gradient and loss land in its own row of shared memory, and the rows are
summed in sequence order, so the trained bits are those of one process.
Nothing configures this: the count follows from the CPUs the process may
use, and where the `fork` start method does not exist there are no
helpers.
"""

import contextlib
import errno
import math
import mmap
import multiprocessing
import os
import random
import signal
import sys
from dataclasses import dataclass
from functools import lru_cache

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
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
            if value > sys.maxsize:  # more steps or rows than any run can have
                raise ValueError(f"{name} must be <= {sys.maxsize}, got {value}")
        if not (math.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ValueError(
                f"clip_norm must be finite and > 0, got {self.clip_norm}")


def joint_loss(punct_logits, disf_logits, punct_ids, disf_ids):
    """Sum of the two heads' token-mean cross entropies (scalar tensor), as
    model.loss_gradients computes it. A gold count other than the logits'
    rows, or a label id out of range, raises ContractError."""
    return nc._wrap(np.array(nc._cross_entropy_mean(punct_logits.data, punct_ids)[0]
                             + nc._cross_entropy_mean(disf_logits.data, disf_ids)[0]))


def lr_schedule(step, d_model, warmup_steps):
    """d_model^-0.5 * min(step^-0.5, step * warmup_steps^-1.5)."""
    if step < 1:
        raise nc.ContractError(f"lr_schedule: step must be >= 1, got {step}")
    return d_model ** -0.5 * min(step ** -0.5, step * warmup_steps ** -1.5)


def clip_gradients(grad, config, clip_norm):
    """Scale the flat gradient vector `grad`, laid out in
    model.param_shapes(`config`) order, in place so its global L2 norm is
    <= clip_norm; return the norm it had.

    The squares are summed over each parameter's CTT1 blocks
    (model.param_blocks, with the heads of `config`), and the block sums
    added one at a time in block order, so the norm, and with it training,
    has the same bits as with one tensor per head and projection. The
    blocks of one size are gathered, squared in place and summed together
    (`_norm_blocks`, built once per config).
    """
    if not np.isfinite(grad).all():
        raise TrainingError("non-finite gradient; aborting")
    gathers, order = _norm_blocks(config)
    sums = []
    for index in gathers:
        part = grad[index]
        sums.append(np.add.reduce(np.multiply(part, part, out=part), axis=-1))
    sq = 0.0
    for block_sum in np.concatenate(sums)[order].tolist():
        sq += block_sum
    norm = math.sqrt(sq)
    if norm > clip_norm:
        grad *= clip_norm / norm
    return norm


@lru_cache(maxsize=16)
def _norm_blocks(config):
    """The CTT1 blocks of a gradient vector for `config` (model.param_blocks
    in param_shapes order), grouped by size: per size, a (blocks, size)
    array of their vector indices, each block's in row-major order; and the
    permutation that takes the groups' block sums, one group after another,
    to block order. Cached per config."""
    index = mdl.param_slots(config, np.arange(mdl._param_count(config)))
    blocks = [block.ravel() for name, a in index.items()
              for block in mdl.param_blocks(name, a, config.n_heads)]
    by_size = {}
    for i, block in enumerate(blocks):
        by_size.setdefault(block.size, []).append(i)
    gathers = [np.stack([blocks[i] for i in group]) for group in by_size.values()]
    return gathers, np.argsort(np.concatenate(list(by_size.values())))


_BETA1 = 0.9
_BETA2 = 0.98
_EPS = 1e-9


class Adam:
    """Adam with external learning rate and fixed betas and epsilon.

    `step` updates a float64 parameter vector of `size` values in place,
    with moments and two scratch vectors made once, here. It evaluates the
    usual expressions in the usual order, lr * mhat / (sqrt(vhat) + eps)
    too, so the update has the bits of the out-of-place one.
    """

    def __init__(self, size):
        self.m, self.v, self._a, self._b = np.zeros((4, size))
        self.t = 0

    def step(self, params, grad, lr):
        """Update the vector `params` in place from the gradient vector `grad`."""
        self.t += 1
        m, v, a, b = self.m, self.v, self._a, self._b
        m *= _BETA1
        m += np.multiply(1 - _BETA1, grad, out=a)
        np.multiply(1 - _BETA2, grad, out=a)
        a *= grad
        v *= _BETA2
        v += a
        np.divide(m, 1 - _BETA1 ** self.t, out=a)  # mhat
        np.divide(v, 1 - _BETA2 ** self.t, out=b)  # vhat
        np.sqrt(b, out=b)
        b += _EPS
        a *= lr
        a /= b
        params -= a


def batch_gradients(batch, model_config, params, vocab, scheme, helpers=None):
    """Mean joint loss over a batch of sequences plus summed-then-averaged
    gradients keyed by parameter name: the batch encoded, then
    `helpers.gradient`. Without `helpers`, a GradientHelpers group without
    processes is made from `model_config` and `params`; with it, neither is
    read. The gradients returned, `helpers.grads`, are overwritten in place
    by the next call on the group and by clip_gradients: copy to keep them.
    """
    if helpers is None:  # at least one row; `gradient` refuses an empty batch
        helpers = GradientHelpers(model_config, params, max(len(batch), 1), 0)
    loss = helpers.gradient([encode(seq, vocab, scheme) for seq in batch])
    return loss, helpers.grads


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _shares(lengths, workers):
    """Sequence indices for each of `workers` workers: sorted longest first
    (ties in index order) and dealt out and back, to workers 0, 1, ...,
    W-1, W-1, ..., 0, 0, 1, ... So every share holds as many sequences as
    the next, give or take one, and what a sequence costs beyond its words
    needs no measuring: it weighs the same in every share."""
    shares = [[] for _ in range(workers)]
    for rank, i in enumerate(sorted(range(len(lengths)), key=lambda i: -lengths[i])):
        lap, w = divmod(rank, workers)
        shares[w if lap % 2 == 0 else workers - 1 - w].append(i)
    return shares


def _share_gradients(share, params, row_grads, losses):
    """One model.loss_gradients call on `params.config` for the (row,
    encoded sequence) pairs of `share`, writing each sequence's gradient
    into `row_grads[row]` and its loss into `losses[row]`."""
    rows = [i for i, _ in share]
    losses[rows] = mdl.loss_gradients([enc for _, enc in share], params.config,
                                      params, [row_grads[i] for i in rows])


def _helper_loop(conn, parent_ends, params, row_grads, losses):
    """A helper's life: for each share received, run _share_gradients and
    send back None, or the exception raised, until the parent closes its
    end of the pipe or exits."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in parent_ends:  # inherited copies; the parent's must be the last
        end.close()
    with contextlib.suppress(EOFError, ConnectionError):
        while True:
            share = conn.recv()
            reply = None
            try:
                _share_gradients(share, params, row_grads, losses)
            except Exception as exc:  # the parent re-raises it
                reply = exc
            conn.send(reply)


class GradientHelpers:
    """A `train` call's buffers, and helper processes that each compute a
    share of each batch's sequence gradients in `gradient`.

    `params` is a ModelParams holding a copy of the given parameters, so
    what the optimizer writes to `params.vector` is what the next forward
    reads, here and in the helpers. One row per sequence (`batch_size` x P,
    named views by model.param_slots, the parameters' own layout) takes a
    sequence's gradient and a loss slot per row its loss; row 0 is `grad`,
    whose named views are `grads`. All live in one shared mapping made
    before the fork. Parameters that do not fit `model_config` raise
    ShapeMismatchError, and a `batch_size` below 1 ValueError, before the
    mapping is made, and a mapping the system cannot provide raises
    MemoryError naming its size. The `count` helpers (possibly none) are
    forked daemons that ignore SIGINT.
    """

    def __init__(self, model_config, params, batch_size, count):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        size = mdl.unpack_params(model_config, params).vector.size
        nbytes = 8 * ((size + 1) * batch_size + size)
        try:
            mapping = mmap.mmap(-1, nbytes)
        except OSError as exc:
            if exc.errno != errno.ENOMEM:
                raise
            raise MemoryError(f"cannot map {nbytes} bytes for {batch_size} gradient "
                              f"rows of {size} parameters") from None
        shared = np.frombuffer(mapping, float)
        self.params = mdl.ModelParams(model_config, shared[:size])
        self.params.vector[...] = params.vector
        self._rows = shared[size:-batch_size].reshape(batch_size, size)
        self._losses = shared[-batch_size:]
        self._row_grads = [mdl.param_slots(model_config, row) for row in self._rows]
        self.grad = self._rows[0]
        self.grads = self._row_grads[0]
        self.count = count
        self._procs, self._conns = [], []
        try:
            for _ in range(count):
                conn, child_conn = multiprocessing.Pipe()
                proc = multiprocessing.get_context("fork").Process(
                    target=_helper_loop, daemon=True,
                    args=(child_conn, [*self._conns, conn], self.params,
                          self._row_grads, self._losses))
                proc.start()
                # closed at once, so no later helper inherits it and the
                # parent sees EOF when this helper dies
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(conn)
        except BaseException:
            self.close()
            raise

    def gradient(self, encoded):
        """The mean joint loss of the encoded sequences `encoded`; their
        mean gradient is left in `grad`.

        The batch is dealt out and back by length (_shares); each helper
        computes one share and the parent the first, which holds the
        longest sequence, each a whole share in one _share_gradients call.
        Sequence i's gradient lands in row i and its loss in slot i; rows
        1..k-1 are added to row 0 in order and the sum divided by k, and the
        losses are added one at a time in order, so the bits do not depend
        on who computed what. Every helper replies before this returns or
        raises, also after the parent's share raised (KeyboardInterrupt
        too); then the parent's error, or else the first helper's with its
        type, is raised, and the group stays in step. A helper that died
        raises TrainingError; then close the group. No sequences, or more
        than the group's rows, raise ValueError before any share is sent.
        """
        k = len(encoded)
        if not 1 <= k <= len(self._rows):
            raise ValueError(f"a batch of {k} sequences for a group made for "
                             f"1 to {len(self._rows)}")
        shares = [[(i, encoded[i]) for i in share] for share in
                  _shares([len(ids) for ids, _, _ in encoded], self.count + 1)]
        for conn, share in zip(self._conns, shares[1:]):
            with contextlib.suppress(ConnectionError):  # recv raises below
                conn.send(share)
        replies = []
        try:
            _share_gradients(shares[0], self.params, self._row_grads, self._losses)
        except BaseException as exc:  # the helpers ignore SIGINT: hear them out
            replies.append(exc)
        for n, conn in enumerate(self._conns):
            try:
                replies.append(conn.recv())
            except (EOFError, ConnectionError) as exc:
                raise TrainingError(f"gradient helper {n} exited") from exc
        for error in filter(None, replies):
            raise error
        for row in self._rows[1:k]:
            self.grad += row
        self.grad /= k
        return float(np.add.accumulate(self._losses[:k])[-1]) / k  # not pairwise

    def close(self):
        """Close the pipes, which stops every helper once its current share
        is done, and join them."""
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            proc.join()


@dataclass
class TrainResult:
    params: "mdl.ModelParams"
    history: list  # (step, train_loss, dev_punct_f1, dev_interregnum_f1, dev_either_f1)
    initial_loss: float
    final_loss: float
    steps_run: int


def _dev_f1(dev_corpus, model_config, params, vocab, scheme):
    tagger = ModelTagger(model_config, params, vocab, scheme)
    preds = [tag_offline(seq.words, tagger) for seq in dev_corpus]
    report = score(preds, dev_corpus, scheme)
    return (report.punct_overall.f1, report.disf["interregnum"].f1,
            report.disf["either"].f1)


def train(corpus, config, model_config, vocab, scheme, dev=None,
          init_params=None, stop_dev_f1=None):
    """Run Adam steps over shuffled mini-batches; returns a TrainResult.

    With `dev` given, evaluates every `eval_every` steps and keeps the
    parameters scoring best on mean(punct micro-F1, either-disfluency F1).
    `stop_dev_f1` = (punct_f1, interregnum_f1) stops early once both are
    reached.
    Reproducible: identical seeds and inputs give identical parameters,
    whatever the number of CPUs. `init_params` that do not fit
    `model_config` raise ShapeMismatchError, and is only read; the returned
    parameters are a copy that no later call touches. The gradient helpers
    (GradientHelpers) are joined before the call returns or raises.
    An empty corpus or dev set, an unlabeled utterance or a label outside
    `scheme`, or a corpus utterance longer than `model_config.max_positions`
    (a dev one is tagged through the stream decoder), raises ValueError
    before the first step.
    """
    if not corpus:
        raise ValueError("training corpus is empty")
    if dev is not None and not dev:
        raise ValueError("dev set is empty")
    limit = model_config.max_positions
    for what, seqs in (("corpus", corpus), ("dev", dev or ())):
        # iterate, never index: perfbench's StepClock counts indexed reads
        for i, seq in enumerate(seqs):
            if problem := scheme.label_problem(seq):
                raise ValueError(f"{what} utterance {i} {problem}")
            if what == "corpus" and len(seq.words) > limit:
                raise ValueError(f"corpus utterance {i} has {len(seq.words)} "
                                 f"words, more than max_positions {limit}")
    rng = random.Random(config.seed)
    if init_params is None:
        init_params = mdl.init_params(model_config, np.random.default_rng(config.seed))
    count = 0
    if "fork" in multiprocessing.get_all_start_methods():
        count = min(_usable_cpus(), config.batch_size) - 1
    helpers = GradientHelpers(model_config, init_params, config.batch_size, count)
    params = helpers.params
    opt = Adam(params.vector.size)
    history = []
    best_score, best_params = -1.0, None
    initial_loss = final_loss = None

    order = list(range(len(corpus)))
    cursor = len(order)  # force initial shuffle
    step = 0
    try:
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
                batch = truncation_augment(batch, rng, limit)
            loss, _ = batch_gradients(batch, model_config, params, vocab,
                                      scheme, helpers)
            if initial_loss is None:
                initial_loss = loss
            final_loss = loss
            clip_gradients(helpers.grad, model_config, config.clip_norm)
            lr = lr_schedule(step, model_config.d_model, config.warmup_steps)
            opt.step(params.vector, helpers.grad, lr)

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
    finally:
        helpers.close()

    return TrainResult(best_params or params.copy(), history, initial_loss,
                       final_loss, step)
