"""Host-time spans around each layer's public functions.

The benchmark patches the layers from outside the program: every function
named by :func:`layer_targets` is replaced, for the length of one traced
run, by a wrapper that records a span (name, start, end, parent) on a
per-thread stack.  A span's *self time* is its duration minus the time
its child spans cover, so the self times of all spans add up to the time
of the root spans they sit under.  Calls outside a root (set-up) are not
recorded.

Spans stay in memory (compact per-thread arrays) and are written once,
at the end, as Chrome-trace JSON that Perfetto opens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from array import array
from collections import defaultdict

# Spans shorter than this are counted and timed but left out of the trace
# file: the scalar geometry predicates alone make ~400k of them per run.
TRACE_FILE_MIN_S = 10e-6


class _ThreadState:
    __slots__ = ("tid", "stack", "next_sid", "name", "sid", "parent",
                 "start", "end", "calls", "self_s", "total_s", "nbytes")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list = []          # frames: [name_id, start, child_s, sid]
        self.next_sid = 0
        self.name = array("i")
        self.sid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.nbytes: dict = defaultdict(int)


class SpanRecorder:
    """Per-thread span stacks; aggregates calls and self time per name.

    ``clock`` is wall time by default.  Where several threads share the
    interpreter lock, pass ``time.thread_time``: a wall-clock span would
    also count the time its thread waited while another one ran.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[tuple[str, str]] = []     # name_id -> (layer, name)
        self._ids: dict[tuple[str, str], int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._local.st = st
        return st

    # ------------------------------------------------------------ spans
    def _enter(self, st: _ThreadState, nid: int) -> list:
        sid = st.next_sid
        st.next_sid = sid + 1
        frame = [nid, 0.0, 0.0, sid]
        st.stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _exit(self, st: _ThreadState, frame: list, nbytes: int = 0) -> None:
        end = self.clock()
        stack = st.stack
        stack.pop()
        nid, start, child_s, sid = frame
        dur = end - start
        st.self_s[nid] += dur - child_s
        st.nbytes[nid] += nbytes
        if stack:
            parent = stack[-1]
            parent[2] += dur
            parent_sid = parent[3]
            # A call re-entering the same name (super() chains) is one call.
            if parent[0] != nid:
                st.calls[nid] += 1
                st.total_s[nid] += dur
        else:
            parent_sid = -1
            st.calls[nid] += 1
            st.total_s[nid] += dur
        st.name.append(nid)
        st.sid.append(sid)
        st.parent.append(parent_sid)
        st.start.append(start)
        st.end.append(end)

    def open_root(self, layer: str, name: str) -> None:
        """Start a root span on this thread (the measured phase)."""
        st = self._state()
        if st.stack:
            raise RuntimeError("a root span is already open on this thread")
        self._enter(st, self.name_id(layer, name))

    def close_root(self) -> None:
        st = self._state()
        if len(st.stack) != 1:
            raise RuntimeError(
                f"closing the root with {len(st.stack)} spans open")
        self._exit(st, st.stack[-1])

    def wrap(self, fn, layer: str, name: str, root: bool = False,
             size=None):
        """``fn`` timed as a span; ``size(args, result)`` counts bytes.

        ``functools.wraps`` copies ``fn.__dict__``, so handler markers
        (``_mrts_handler``, ``_mrts_readonly``) survive the wrapping.
        """
        nid = self.name_id(layer, name)
        state = self._state
        local = self._local
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def span(*args, **kwargs):
            st = getattr(local, "st", None) or state()
            if not st.stack and not root:
                return fn(*args, **kwargs)
            frame = enter(st, nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                exit_(st, frame)
                raise
            exit_(st, frame, size(args, result) if size else 0)
            return result

        return span

    # -------------------------------------------------------- summaries
    def open_spans(self) -> int:
        return sum(len(st.stack) for st in self._threads)

    def by_name(self) -> dict[tuple[str, str], dict]:
        out: dict = {}
        for st in self._threads:
            for nid, calls in st.calls.items():
                rec = out.setdefault(self.names[nid], dict(
                    calls=0, self_s=0.0, total_s=0.0, nbytes=0))
                rec["calls"] += calls
            for nid, value in st.self_s.items():
                rec = out.setdefault(self.names[nid], dict(
                    calls=0, self_s=0.0, total_s=0.0, nbytes=0))
                rec["self_s"] += value
                rec["total_s"] += st.total_s.get(nid, 0.0)
                rec["nbytes"] += st.nbytes.get(nid, 0)
        return out

    def layer_self_s(self) -> dict[str, float]:
        out: dict = defaultdict(float)
        for (layer, _name), rec in self.by_name().items():
            out[layer] += rec["self_s"]
        return dict(out)

    def root_s(self) -> float:
        """Summed duration of the root spans (what self times add up to)."""
        total = 0.0
        for st in self._threads:
            for k in range(len(st.name)):
                if st.parent[k] == -1:
                    total += st.end[k] - st.start[k]
        return total

    def n_spans(self) -> int:
        return sum(len(st.name) for st in self._threads)

    def write_chrome_trace(self, path, meta: dict) -> int:
        """Write the spans as Chrome-trace JSON; returns spans written."""
        t0 = min((min(st.start) for st in self._threads if len(st.start)),
                 default=0.0)
        events = [{"ph": "M", "pid": 1, "name": "process_name",
                   "args": {"name": "perfbench host time"}}]
        written = 0
        for st in self._threads:
            events.append({"ph": "M", "pid": 1, "tid": st.tid,
                           "name": "thread_name",
                           "args": {"name": f"thread {st.tid}"}})
            for k in range(len(st.name)):
                dur = st.end[k] - st.start[k]
                if dur < TRACE_FILE_MIN_S and st.parent[k] != -1:
                    continue
                layer, name = self.names[st.name[k]]
                events.append({
                    "ph": "X", "pid": 1, "tid": st.tid, "cat": layer,
                    "name": name,
                    "ts": round((st.start[k] - t0) * 1e6, 3),
                    "dur": round(dur * 1e6, 3),
                    "args": {"span": st.sid[k], "parent": st.parent[k]},
                })
                written += 1
        meta = dict(meta, clock=self.clock.__name__,
                    spans_recorded=self.n_spans(),
                    spans_written=written,
                    min_written_span_s=TRACE_FILE_MIN_S)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": meta}, fh)
        return written


# ======================================================= layer catalogue
def _public_methods(cls) -> list[str]:
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def _all_subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _len_result(args, result) -> int:
    return len(result)


def _len_data(args, result) -> int:
    return len(args[-1])


def _len_segments(args, result) -> int:
    return sum(len(s) for s in result)


def _len_many(args, result) -> int:
    return sum(len(s) for segs in result.values() for s in segs)


_STORAGE_BYTES = {
    "store": ("written", _len_data),
    "append": ("written", _len_data),
    "load": ("read", _len_result),
    "load_segments": ("read", _len_segments),
    "load_many": ("read", _len_many),
}
_CODEC_BYTES = {
    "pack": _len_result,
    "pack_delta": _len_result,
    "unpack": lambda args, result: len(args[-1]),
    "unpack_segments": lambda args, result: sum(len(s) for s in args[-1]),
}
_APP_PACKAGES = ("repro.evalsim.", "repro.pumg.", "repro.mesh3d.")


def layer_targets():
    """Yield ``(owner, attr, layer, name, root, size)`` for every function
    the traced run wraps.  ``owner`` is a class or the module defining a
    function (which is then rebound in every module that imported it)."""
    from repro.core.mobile import MobileObject, Serializer
    from repro.core.ooc import OOCLayer
    from repro.core.prefetch import PrefetchPredictor
    from repro.core.runtime import MRTS, HandlerContext
    from repro.core.spec import SpeculationManager
    from repro.core.storage import CountingBackend
    from repro.mesh.triangulation import Triangulation
    from repro.mesh3d.objects import Prism3DPatchObject
    from repro.serve.jobs import JobManager
    from repro.serve.server import MeshServer
    from repro.testing import invariants

    # Packages re-export functions under their submodules' names
    # (``repro.core.checkpoint``, ``repro.mesh.refine``): import by path.
    ckpt, refine_mod, predicates, batch, ghost = (
        importlib.import_module(f"repro.{name}") for name in (
            "core.checkpoint", "mesh.refine", "geometry.predicates",
            "geometry.batch", "pumg.ghost"))
    for name in ("run", "post", "create_object", "get_object", "migrate"):
        yield MRTS, name, "core.runtime", f"MRTS.{name}", False, None
    for name in _public_methods(HandlerContext):
        yield (HandlerContext, name, "core.runtime", f"ctx.{name}", False,
               None)
    for name in ("begin", "commit", "abort", "resolve", "resolve_local",
                 "abort_if_pending"):
        yield (SpeculationManager, name, "core.spec", f"spec.{name}", False,
               None)
    for cls in (OOCLayer, PrefetchPredictor):
        for name in _public_methods(cls):
            yield cls, name, "core.ooc", f"{cls.__name__}.{name}", False, None
    for name in _public_methods(CountingBackend):
        kind, size = _STORAGE_BYTES.get(name, ("", None))
        label = f"storage.{name}" + (f".{kind}" if kind else "")
        yield CountingBackend, name, "core.storage", label, False, size
    for cls in [Serializer] + _all_subclasses(Serializer):
        for name, size in _CODEC_BYTES.items():
            if inspect.isfunction(vars(cls).get(name)):
                yield cls, name, "core.codec", f"codec.{name}", False, size
    yield ckpt, "checkpoint", "core.checkpoint", "checkpoint", False, None
    yield ckpt, "restore", "core.checkpoint", "restore", False, None
    for name in ("check_runtime", "check_ghosts", "check_mesh3d"):
        yield invariants, name, "testing.invariants", name, False, None
    yield JobManager, "_run_job", "serve", "serve.job", True, None
    yield MeshServer, "dispatch", "serve", "serve.rpc", True, None
    for cls in _all_subclasses(MobileObject):
        if not cls.__module__.startswith(_APP_PACKAGES):
            continue
        for name, value in vars(cls).items():
            if getattr(value, "_mrts_handler", False):
                yield (cls, name, "app", f"{cls.__name__}.{name}", False,
                       None)
    for name in ("insert_point", "locate", "cavity_of", "split_segment",
                 "insert_segment"):
        yield (Triangulation, name, "mesh", f"Triangulation.{name}", False,
               None)
    yield refine_mod, "refine", "mesh", "refine", False, None
    for name in ("orient2d", "incircle", "circumcenter"):
        yield predicates, name, "geometry", name, False, None
    for name in ("orient2d_exact", "incircle_exact", "_circumcenter_exact"):
        yield predicates, name, "geometry", f"exact.{name}", False, None
    for name in ("orient2d_batch", "incircle_batch", "circumcenter_batch",
                 "circumradius_sq_batch", "shortest_edge_sq_batch",
                 "bad_triangle_mask"):
        yield batch, name, "geometry", f"batch.{name}", False, None
    yield (ghost, "boundary_strips", "pumg.ghost", "boundary_strips", False,
           None)
    yield (ghost.GhostTable, "install", "pumg.ghost", "GhostTable.install",
           False, None)
    yield (Prism3DPatchObject, "face_min_size", "mesh3d",
           "Prism3DPatchObject.face_min_size", False, None)


class LayerPatch:
    """Install the span wrappers for one traced run; undo on exit.

    A module-level function is rebound in *every* ``repro`` module that
    holds it, because callers import the predicates (and ``refine``,
    ``checkpoint``, ``check_runtime``) by name.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerPatch":
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("repro") and m is not None]
        try:
            for owner, attr, layer, name, root, size in layer_targets():
                original = vars(owner)[attr]
                wrapped = self.recorder.wrap(original, layer, name,
                                             root=root, size=size)
                if isinstance(owner, type):
                    self._set(owner, attr, wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapped)
        except BaseException:
            self.__exit__()
            raise
        return self

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
