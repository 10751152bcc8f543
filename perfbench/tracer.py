"""Spans around the public functions of the uta layers, recorded from outside.

``Tracer.install`` replaces every public function of each layer module, in
every ``uta.*`` namespace that binds it, by a wrapper that opens a span, so
calls made inside the library are seen as well as the benchmark's own.
``uninstall`` puts the originals back.  Nothing in ``src/uta`` changes.

A span records its name, start, end and parent.  Self time is a span's
duration minus the durations of its child spans.  Functions called once per
tree node (see ``PER_NODE``) still get a frame, so self times stay exact,
but are folded into their parent's record instead of logged one by one.
A function that calls itself directly opens one span for the outermost
call only.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "trees",
    "horizon",
    "algebra",
    "syntactic",
    "recognizer",
    "varieties",
    "workspace",
    "cli",
)

# Called once per node of a tree (or per letter of a word): folded into the
# parent span rather than logged, to keep memory bounded on 10^5-node inputs.
PER_NODE = frozenset(
    {
        "trees.render",
        "trees.validate_tree",
        "trees.size",
        "trees.height",
        "trees.hole_count",
        "trees.is_context",
        "trees.subtrees",
        "trees.embeds",
        "algebra.eval_term",
        "algebra.eval_g",
        "algebra.apply_symbol",
        "horizon.run_word",
    }
)

# Data constructors too small to time: wrapping them would cost more than
# the work they do.
SKIP = frozenset({"trees.leaf", "trees.op", "trees.root"})

# Classes whose construction is a layer boundary: name -> method to wrap.
CONSTRUCTORS = {"horizon.MooreMachine": "__post_init__"}

SPAN_LOG_LIMIT = 100_000

clock = time.perf_counter


class Tracer:
    """Holds the spans and per-function totals of one traced run.

    ``stats[name]`` is ``[self_s, outermost_total_s, calls]``; ``counts``
    holds the size counters taken at the same boundaries.  ``spans`` logs
    ``(id, parent_id, name, start, end, folded_child_s)`` tuples, where the
    last field is the time of per-node children folded into the span.
    """

    def __init__(self, span_limit: int = SPAN_LOG_LIMIT):
        self.span_limit = span_limit
        self.stats = defaultdict(lambda: [0.0, 0.0, 0])
        self.counts = defaultdict(float)
        self.spans: list = []
        self.spans_dropped = 0
        self.deferred: list = []
        self.stack = None
        self._depth: dict = defaultdict(int)
        self._next_id = 0
        self._saved: list = []

    # -- ops --------------------------------------------------------------

    def begin(self, name: str = "op"):
        """Open the root span of one op; wrappers record only inside it."""
        self._depth.clear()
        self._next_id += 1
        self.stack = [[name, clock(), 0.0, 0.0, self._next_id, None]]

    def end(self):
        """Close the root span of the op."""
        stack, self.stack = self.stack, None
        self._log(stack[0], clock())

    def _log(self, frame, end):
        if len(self.spans) < self.span_limit:
            self.spans.append((frame[4], frame[5], frame[0], frame[1], end, frame[3]))
        else:
            self.spans_dropped += 1

    def depth(self, name: str) -> int:
        return self._depth[name]

    # -- wrapping ---------------------------------------------------------

    def _wrap_function(self, name, fn, on_result):
        per_node = name in PER_NODE
        tracer = self
        depth = self._depth
        stats = self.stats

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack is None or stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if per_node:
                frame = [name, 0.0, 0.0, 0.0, None, None]
            else:
                tracer._next_id += 1
                frame = [name, 0.0, 0.0, 0.0, tracer._next_id, parent[4]]
            stack.append(frame)
            depth[name] += 1
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if stack[-1] is frame:
                    stack.pop()
                elif frame in stack:
                    del stack[stack.index(frame) :]
                dur = end - start
                parent[2] += dur
                st = stats[name]
                st[0] += dur - frame[2]
                st[2] += 1
                depth[name] -= 1
                if depth[name] == 0:
                    st[1] += dur
                if per_node:
                    parent[3] += dur
                else:
                    tracer._log(frame, end)
            if on_result is not None:
                on_result(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, fn):
        """Generators run when resumed: each resume is one frame."""
        tracer = self
        depth = self._depth
        stats = self.stats
        counts = self.counts

        def resume(gen):
            while True:
                stack = tracer.stack
                if stack is None:
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    yield item
                    continue
                parent = stack[-1]
                frame = [name, 0.0, 0.0, 0.0, None, None]
                stack.append(frame)
                depth[name] += 1
                frame[1] = start = clock()
                done = False
                try:
                    item = next(gen)
                except StopIteration:
                    done = True
                finally:
                    end = clock()
                    if stack[-1] is frame:
                        stack.pop()
                    elif frame in stack:
                        del stack[stack.index(frame) :]
                    dur = end - start
                    parent[2] += dur
                    parent[3] += dur
                    st = stats[name]
                    st[0] += dur - frame[2]
                    st[1] += dur
                    depth[name] -= 1
                if done:
                    st[2] += 1
                    return
                counts[name + ".items"] += 1
                yield item

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack is None or stack[-1][0] == name:
                return fn(*args, **kwargs)
            return resume(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, hooks=None):
        """Wrap each layer's public functions wherever ``uta.*`` binds them.

        ``hooks`` maps a qualified name (``"algebra.g_product"``) to a
        callable ``(tracer, result)`` run after each traced call.
        """
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = hooks or {}
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"uta.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIP
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                if inspect.isgeneratorfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap_generator(name, obj))
                else:
                    replaced[id(obj)] = (obj, self._wrap_function(name, obj, hooks.get(name)))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "uta" or modname.startswith("uta.")):
                continue
            for attr, obj in list(vars(mod).items()):
                pair = replaced.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, pair[1])
        for name, method in CONSTRUCTORS.items():
            layer, cls_name = name.split(".")
            cls = getattr(sys.modules[f"uta.{layer}"], cls_name)
            orig = cls.__dict__[method]
            self._saved.append((cls, method, orig))
            setattr(cls, method, self._wrap_function(name, orig, hooks.get(name)))

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        """Self time of each logged span, recomputed from the log alone."""
        child: dict = defaultdict(float)
        for sid, parent, _name, start, end, folded in self.spans:
            if parent is not None:
                child[parent] += end - start
        return {
            sid: (end - start) - child[sid] - folded
            for sid, _parent, _name, start, end, folded in self.spans
        }
