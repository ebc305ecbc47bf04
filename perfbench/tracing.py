"""Spans around the package's public functions, for the traced run only.

The tracer replaces each public function listed in ``TRACED`` by a wrapper
that records one span per call, in every module namespace that holds a
reference to it (``cli`` imports most names directly, ``tracker.run`` looks up
``step`` in its own module). Nothing under ``src/`` is edited, and the
wrappers exist only between ``install()`` and ``uninstall()``.

A span is (name, start, end, parent span id, work). Spans stay in memory and
are written out once, by ``write()``, when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from prototrack import cli, evaluate, gallery, recognizer, stream_io, synth, tracker

# the package's modules, which are the benchmark's layers
LAYERS = {
    "synth": synth,
    "stream_io": stream_io,
    "gallery": gallery,
    "recognizer": recognizer,
    "tracker": tracker,
    "evaluate": evaluate,
    "cli": cli,
}


def _generated_detections(args, result):
    return sum(len(dets) for _, dets in result.frames)


def _batch_rows(args, result):
    queries = args[1]
    return queries.shape[0] if getattr(queries, "ndim", 1) == 2 else 1


# (layer, owner attribute path, work counter or None); the span is named
# "<layer>.<function>", except a constructor, which takes the class name
TRACED = [
    ("synth", "generate", _generated_detections),
    ("synth", "split_train_test", None),
    ("stream_io", "write_stream", None),
    ("stream_io", "write_tracks", None),
    ("stream_io", "write_truth", None),
    ("stream_io", "read_tracks", None),
    ("stream_io", "write_gallery", None),
    ("stream_io", "read_gallery", None),
    ("stream_io", "read_stream", None),
    ("stream_io", "write_results", None),
    ("stream_io", "read_results", None),
    ("stream_io", "read_truth", None),
    ("stream_io", "write_score_json", None),
    ("gallery", "build_gallery_kmeans", None),
    ("gallery", "kmeans", None),
    ("gallery", "snap_to_medoids", None),
    ("recognizer", "GalleryIndex.__init__", None),
    ("recognizer", "GalleryIndex.classify_batch", _batch_rows),
    ("tracker", "run", None),
    ("tracker", "run_initial_window", None),
    ("tracker", "step", None),
    ("evaluate", "score", None),
    ("cli", "main", None),
]


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (name, start, end, parent, work), index = span id
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, name, parent, start, work):
        self._stack.pop()
        self.spans[sid] = (name, start, perf_counter(), parent, work)

    @contextmanager
    def span(self, name):
        sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, parent, start, 0)

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(sid, name, parent, start,
                            work(args, result) if work and result is not None else 0)
        return traced

    def install(self):
        """Wrap every function in TRACED wherever a module refers to it."""
        for layer, path, work in TRACED:
            owner = LAYERS[layer]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                name = f"{layer}.{cls[0] if attr == '__init__' else attr}"
                targets = [owner]
            else:
                name = f"{layer}.{attr}"
                targets = list(LAYERS.values())
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, work)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patched.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, work) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent,
                    "name": name, "start": start, "end": end, "work": work,
                }) + "\n")

    def summary(self):
        """Per span name: total seconds, self seconds, calls and work; per
        layer: self seconds. Self time is a span's duration minus the
        durations of its direct children."""
        child_s = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        by_name = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "work": 0})
        layer_self = {layer: 0.0 for layer in LAYERS}
        for sid, (name, start, end, parent, work) in enumerate(self.spans):
            own = end - start - child_s[sid]
            row = by_name[name]
            row["s"] += end - start
            row["self_s"] += own
            row["calls"] += 1
            row["work"] += work
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += own
        return by_name, layer_self
