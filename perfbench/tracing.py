"""In-memory span tracing of gcdp's layers, installed from outside the package.

Each traced layer is a public function replaced, for the length of one
operation, at the name where its caller looks it up: `gcdp.sampler` imports
`posterior_arrays` and `sample_rows` by name, so those are patched in the
sampler's namespace, not in `gcdp.process` or `gcdp.distribution`. A span
records its layer name, start, end and parent span; spans stay in memory
and are written out when the run ends. A layer's self time is its span
minus the spans directly beneath it, so self times partition the wall time
of the operation.

A target that no longer exists (a later change removed or renamed the
function) is recorded as absent and traced no further.
"""

import importlib
import os
import time
from contextlib import contextmanager


def _forward_counts(args, kwargs):
    """Rows and GFLOP of one denoiser forward, from the array shapes."""
    model = args[0]
    x_t = args[1] if len(args) > 1 else kwargs["x_t"]
    rows = int(x_t.shape[0])
    counts = {"rows": rows}
    params = getattr(model, "params", None)
    if isinstance(params, dict):
        # every 2-D parameter except the embedding tables is a dense layer
        macs = sum(v.size for k, v in params.items() if v.ndim == 2 and not k.endswith("emb"))
        counts["gflop"] = 2.0 * rows * macs / 1e9
    return counts


def _file_bytes(args, kwargs):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (module, attribute path, layer, counter run after the call)
TARGETS = (
    ("gcdp.denoiser", "ReferenceDenoiser.forward_batch", "denoiser.forward", _forward_counts),
    ("gcdp.denoiser", "ReferenceDenoiser.backward_batch", "denoiser.backward", None),
    ("gcdp.training", "vlb_loss", "training.loss", None),
    ("gcdp.training", "adam_update", "training.adam", None),
    ("gcdp.training", "sample_rows", "distribution.draw", None),
    ("gcdp.sampler", "posterior_arrays", "process.posterior", None),
    ("gcdp.sampler", "q_marginal_arrays", "process.marginal", None),
    ("gcdp.sampler", "q_step_arrays", "process.renoise", None),
    ("gcdp.sampler", "sample_rows", "distribution.draw", None),
    ("gcdp.process", "sample_rows", "distribution.draw", None),
    ("gcdp.cli", "sample_batch", "sampler", None),
    ("gcdp.cli", "outpaint_batch", "sampler", None),
    ("gcdp.cli", "generate", "scenes.generate", None),
    ("gcdp.io", "save_checkpoint", "io.checkpoint_write", _file_bytes),
    ("gcdp.io", "load_checkpoint", "io.checkpoint_read", None),
    ("gcdp.io", "load_dataset", "io.dataset_read", None),
    ("gcdp.io", "write_pgm", "io.pgm_write", None),
)

CLI_LAYER = "cli"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counts = {}


class Tracer:
    """Collects spans for operations labelled (phase, index)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._op = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _wrap(self, fn, layer, counter):
        def traced(*args, **kwargs):
            idx = self._open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.spans[idx].counts = counter(args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def operation(self, phase: str, index: int):
        """Trace every target while the block runs, as operation (phase, index)."""
        restore = []
        for module_name, attr, layer, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, name, None) if owner is not None else None
            if fn is None:
                self.absent.add(f"{module_name}.{attr}")
                continue
            restore.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, layer, counter))
        self._op = (phase, index)
        try:
            yield
        finally:
            self._op = None
            for owner, name, fn in reversed(restore):
                setattr(owner, name, fn)

    def per_op(self) -> dict:
        """{(phase, index): {layer: {"self_ms", "calls", <count>: total}}}."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict = {}
        for i, s in enumerate(self.spans):
            layer = out.setdefault(s.op, {}).setdefault(s.name, {"self_ms": 0.0, "calls": 0})
            layer["self_ms"] += 1e3 * (s.end - s.start - child_time[i])
            layer["calls"] += 1
            for k, v in s.counts.items():
                layer[k] = layer.get(k, 0) + v
        return out

    def to_json(self) -> dict:
        return {
            "absent": sorted(self.absent),
            "spans": [
                {"name": s.name, "phase": s.op[0], "op": s.op[1], "start": s.start, "end": s.end,
                 "parent": s.parent, **s.counts}
                for s in self.spans
            ],
        }
