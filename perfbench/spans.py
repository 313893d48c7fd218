"""In-memory span tracing for the traced benchmark run.

`Tracer.install` replaces the public functions of the puncstream modules with
wrappers, under every module attribute through which the program calls them
(so `puncstream.model.build_ct_mask` is wrapped as well as
`puncstream.masks.build_ct_mask`), plus the two methods the workloads drive,
`decoding.ModelTagger.tag` and `training.Adam.step`. Each call records one
span: name, start, end and the index of the enclosing span. `uninstall`
restores the originals. Nothing here runs during the untraced run.

A span's self time is its duration minus the durations of its direct child
spans.
"""

import inspect
import time
from array import array

import numpy as np

# Modules the workloads exercise. `cli` is left out: the benchmark drives the
# library API, never the command line.
TRACED_MODULES = ("numcore", "masks", "model", "data", "training",
                  "decoding", "evaluation")
TRACED_METHODS = (("decoding", "ModelTagger", "tag"),
                  ("training", "Adam", "step"))


def _arg(args, kwargs, position, name):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


class Tracer:
    """Span recorder plus a few counters taken at the same boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.tag_calls = 0
        self.tag_positions = 0
        self.tag_max_words = 0
        self.tape_entries = 0
        self._stack = []
        self._undo = []

    def span_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self):
        return len(self.name_id)

    def wrap(self, name, fn):
        """Return `fn` wrapped so that every call records a span `name`."""
        nid = self.span_id(name)
        taped_nid = self.span_id(name + ".taped") if name == "model.forward" else None
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        perf_counter = time.perf_counter
        count = {"decoding.ModelTagger.tag": self._count_tag,
                 "numcore.backward": self._count_tape}.get(name)

        def traced(*args, **kwargs):
            idx = len(name_id)
            if taped_nid is not None and _arg(args, kwargs, 3, "tape") is not None:
                name_id.append(taped_nid)
            else:
                name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            if count is not None:
                count(args, kwargs)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()

        return traced

    def _count_tag(self, args, kwargs):
        n = len(_arg(args, kwargs, 1, "words"))
        self.tag_calls += 1
        self.tag_positions += n
        self.tag_max_words = max(self.tag_max_words, n)

    def _count_tape(self, args, kwargs):
        self.tape_entries += len(_arg(args, kwargs, 1, "tape"))

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original))
        self._undo.append((owner, attr, original))

    def install(self, package):
        """Wrap the public functions and traced methods of `package`."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {m: getattr(package, m) for m in TRACED_MODULES}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                home = getattr(obj, "__module__", None) or ""
                if not home.startswith(package.__name__ + "."):
                    continue
                self._patch(module, attr, f"{home.rsplit('.', 1)[1]}.{obj.__name__}")
        for mod, cls, meth in TRACED_METHODS:
            self._patch(getattr(modules[mod], cls), meth, f"{mod}.{cls}.{meth}")

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def arrays(self):
        """Spans as numpy arrays: (name_id, parent, start, end)."""
        # copies, so the recording arrays stay resizable
        return (np.array(self.name_id, dtype=np.int64),
                np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))


def self_times(parent, start, end):
    """Per-span self time: duration minus the durations of direct children."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur - child


def totals_by_name(name_id, values, n_names):
    """Sum `values` per span name."""
    return np.bincount(name_id, weights=values, minlength=n_names)
