"""Joint multi-task loss, Adam with warm-up and clipping, and the train loop.

Both tagging heads contribute a token-mean cross entropy; the total loss is
their sum. The learning-rate schedule is the inverse-square-root ramp
peaking at `warmup_steps`.

A batch's sequences do not depend on each other until their gradients are
summed, so `train` forks min(usable CPUs, `batch_size`) - 1 helper
processes (`GradientHelpers`) that compute some of each batch's
per-sequence gradients while the parent computes the rest. Each gradient
lands in its own row and the rows are summed in sequence order, so the
trained bits are those of one process. Nothing configures this: the count
follows from the CPUs the process may use, and where the `fork` start
method does not exist there are no helpers.
"""

import math
import mmap
import multiprocessing
import os
import random
import signal
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


def _sequence_gradient(model_config, params, encoded, row):
    """Joint loss of one encoded sequence; its gradient, laid end to end in
    `params` name order, is written into `row`."""
    ids, punct_ids, disf_ids = encoded
    tape = nc.Tape()
    punct_logits, disf_logits = mdl.forward(ids, model_config, params, tape)
    loss = joint_loss(punct_logits, disf_logits, punct_ids, disf_ids, tape)
    wrt = list(params.tensors.values())
    grads = nc.backward(loss, tape, wrt=wrt)
    np.concatenate([grads[t] for t in wrt], axis=None, out=row)
    return loss.item()


def batch_gradients(batch, model_config, params, vocab, scheme, helpers=None):
    """Mean joint loss over a batch of sequences plus summed-then-averaged
    gradients keyed by parameter name.

    Sequence i's gradient is laid end to end, in `params` name order, in row
    i of a (len(batch), P) array, P the parameter count. With `helpers` (the
    GradientHelpers `train` starts) the rows are shared with the helper
    processes, which compute some of them; without, this process computes
    every row. Either way the rows are summed in sequence order and the
    losses likewise, so the result has the same bits. The returned arrays
    are views of one new vector.
    """
    encoded = [encode(seq, vocab, scheme) for seq in batch]
    k = len(encoded)
    if helpers is None:
        rows = np.empty((k, sum(t.data.size for t in params.tensors.values())))
        own = range(k)
    else:
        rows = helpers.rows[:k]
        own = helpers.send(encoded, params)
    losses = [None] * k
    for i in own:
        losses[i] = _sequence_gradient(model_config, params, encoded[i], rows[i])
    if helpers is not None:
        helpers.receive(losses)
    acc = rows[0].copy()
    for row in rows[1:]:
        acc += row
    acc /= k
    total_loss = 0.0
    for loss in losses:  # one at a time, in order: sum() may compensate
        total_loss += loss
    return total_loss / k, _views(acc, {n: t.shape for n, t in params.items()})


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# What one sequence's forward and backward cost beyond its words, in words:
# on the CLI-default model (2 CPUs, numpy 2.4.6) a 6-word sequence took
# about 1.5 ms and each further word about 35 us.
_SEQUENCE_COST_WORDS = 40


def _shares(lengths, workers):
    """Sequence indices for each of `workers` workers, balanced by length:
    longest first, each to the worker with the least work so far (the first
    such worker on a tie), a sequence costing its length plus
    _SEQUENCE_COST_WORDS."""
    shares = [[] for _ in range(workers)]
    loads = [0] * workers
    for i in sorted(range(len(lengths)), key=lambda i: -lengths[i]):
        w = loads.index(min(loads))
        shares[w].append(i)
        loads[w] += lengths[i] + _SEQUENCE_COST_WORDS
    return shares


def _helper_loop(conn, parent_ends, model_config, params, rows):
    """A helper's life: for each share received, write the gradient rows
    and send back (row, loss) pairs, or the exception raised, until the
    parent closes its end of the pipe or exits."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in parent_ends:  # inherited copies; the parent's must be the last
        end.close()
    try:
        while True:
            share = conn.recv()
            try:
                reply = [(i, _sequence_gradient(model_config, params, enc, rows[i]))
                         for i, enc in share]
            except Exception as exc:  # the parent re-raises it
                reply = exc
            conn.send(reply)
    except (EOFError, ConnectionError):
        return


class GradientHelpers:
    """Helper processes that compute some of a batch's per-sequence
    gradients for `batch_gradients`; `train` starts one group per call and
    closes it when it returns or raises.

    The `count` helpers are forked daemon processes that ignore SIGINT, so
    Ctrl-C reaches the parent alone. The parameters (one flat float64
    vector in `params` name order, which the parent copies in once per step)
    and the gradient rows (`batch_size` x P) live in anonymous shared memory
    mapped before the fork. A helper's exception is re-raised in the parent
    with its type, and a helper that dies raises TrainingError; after
    either, close the group.
    """

    def __init__(self, model_config, params, batch_size, count):
        shapes = {n: t.shape for n, t in params.items()}
        size = sum(math.prod(shape) for shape in shapes.values())
        self._names = list(shapes)
        self._params = np.frombuffer(mmap.mmap(-1, 8 * size), np.float64)
        self.rows = np.frombuffer(mmap.mmap(-1, 8 * size * batch_size),
                                  np.float64).reshape(batch_size, size)
        shared = mdl.ModelParams({n: nc._wrap(v) for n, v in
                                  _views(self._params, shapes).items()})
        context = multiprocessing.get_context("fork")
        self._procs, self._conns = [], []
        try:
            for _ in range(count):
                conn, child_conn = context.Pipe()
                proc = context.Process(
                    target=_helper_loop, daemon=True,
                    args=(child_conn, [*self._conns, conn], model_config,
                          shared, self.rows))
                proc.start()
                # closed at once, so no later helper inherits it and the
                # parent sees EOF when this helper dies
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(conn)
        except BaseException:
            self.close()
            raise

    def send(self, encoded, params):
        """Copy `params` into shared memory, send each helper its share of
        the encoded sequences, and return the parent's share."""
        np.concatenate([params[n].data for n in self._names], axis=None,
                       out=self._params)
        shares = _shares([len(ids) for ids, _, _ in encoded], len(self._conns) + 1)
        for n, (conn, share) in enumerate(zip(self._conns, shares[1:])):
            try:
                conn.send([(i, encoded[i]) for i in share])
            except ConnectionError as exc:
                raise TrainingError(f"gradient helper {n} exited") from exc
        return shares[0]

    def receive(self, losses):
        """Wait for each helper's share and fill in `losses` by row; raise
        the first helper exception."""
        for n, conn in enumerate(self._conns):
            try:
                reply = conn.recv()
            except (EOFError, ConnectionError) as exc:
                raise TrainingError(f"gradient helper {n} exited") from exc
            if isinstance(reply, Exception):
                raise reply
            for i, loss in reply:
                losses[i] = loss

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
    Reproducible: identical seeds and inputs give identical parameters,
    whatever the number of CPUs. The call forks min(usable CPUs,
    `batch_size`) - 1 gradient helpers (GradientHelpers) and joins them
    before it returns or raises.
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
    helpers = None
    if "fork" in multiprocessing.get_all_start_methods():
        count = min(_usable_cpus(), config.batch_size) - 1
        if count > 0:
            helpers = GradientHelpers(model_config, params, config.batch_size, count)
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
                batch = truncation_augment(batch, rng)
            loss, grads = batch_gradients(batch, model_config, params, vocab,
                                          scheme, helpers)
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
    finally:
        if helpers is not None:
            helpers.close()

    if best_params is not None:
        params = best_params
    return TrainResult(params, model_config, history, initial_loss,
                       final_loss, step)
