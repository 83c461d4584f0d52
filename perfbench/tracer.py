"""Span tracer for the benchmark's traced run.

`Tracer.install()` wraps every public function and public method of each
capslice layer module, and rebinds every module attribute that holds one
of those functions, so a name imported into another module (for example
`check_access` in `physmem` and `slicer`) is traced too. Every call
becomes a span: host start and end, parent span, whether it raised, and,
for functions that act on one machine, that machine's virtual clock at
start and end. Spans stay in memory until `write()`.

`PhysSpace.advance` and `advance_to` are left unwrapped on purpose: they
are the clock itself, so the virtual time they add is charged to the
layer that called them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
import weakref
from array import array
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

LAYERS = ("capability", "physmem", "manifest", "slicer", "nic", "kernel",
          "netstack", "driver", "harness")
ROOT_LAYER = "bench"
_UNWRAPPED = {"physmem.PhysSpace.advance", "physmem.PhysSpace.advance_to"}


@dataclass
class Summary:
    """Aggregates over the recorded spans."""

    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    raised: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    incl_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    layer_self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    # (layer, tag, machine name) -> virtual ns charged in the layer itself
    layer_vns: dict[tuple[str, str, str], float] = field(
        default_factory=lambda: defaultdict(float))
    # (function, tag) -> calls
    tagged_calls: dict[tuple[str, str], int] = field(default_factory=lambda: defaultdict(int))
    spans: int = 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.kept: list[object] = []  # objects a hook holds until the pass ends
        self._patches: list[tuple[object, str, object]] = []
        self._stack = [0]
        self._next_id = 1
        self._tag_starts = [0]   # first span id of each tag
        self._tag_labels = [""]
        self._space_ids: "weakref.WeakKeyDictionary[object, int]" = weakref.WeakKeyDictionary()
        self.machine_names: list[str] = []
        # Span columns, appended when a span ends (children before parents).
        self._id = array("q")
        self._parent = array("q")
        self._fid = array("l")
        self._t0 = array("d")
        self._t1 = array("d")
        self._sid = array("l")
        self._c0 = array("d")
        self._c1 = array("d")
        self._raised = array("b")

    # -- recording -----------------------------------------------------------

    def space_id(self, space: object) -> int:
        sid = self._space_ids.get(space)
        if sid is None:
            sid = len(self.machine_names)
            self._space_ids[space] = sid
            self.machine_names.append("")
        return sid

    def tag(self, label: str) -> None:
        """Label every span that starts from now on (a mode, an audit part)."""
        self._tag_starts.append(self._next_id)
        self._tag_labels.append(label)

    def _tag_of(self, span: int) -> str:
        return self._tag_labels[bisect_right(self._tag_starts, span) - 1]

    def _wrap(self, name: str, fn: Callable, space_of: Optional[Callable],
              hook: Optional[Callable]) -> Callable:
        fid = len(self.names)
        self.names.append(name)
        stack = self._stack
        now = time.perf_counter
        space_id = self.space_id
        cols = (self._id, self._parent, self._fid, self._t0, self._t1,
                self._sid, self._c0, self._c1, self._raised)
        ids, parents, fids, t0s, t1s, sids, c0s, c1s, raised = cols
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._next_id
            tracer._next_id = span + 1
            parent = stack[-1]
            space = space_of(args) if space_of is not None else None
            c0 = space.clock if space is not None else 0.0
            stack.append(span)
            failed = 0
            t0 = now()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, result)
                return result
            except BaseException:
                failed = 1
                raise
            finally:
                t1 = now()
                stack.pop()
                ids.append(span)
                parents.append(parent)
                fids.append(fid)
                t0s.append(t0)
                t1s.append(t1)
                if space is None:
                    sids.append(-1)
                    c0s.append(0.0)
                    c1s.append(0.0)
                else:
                    sids.append(space_id(space))
                    c0s.append(c0)
                    c1s.append(space.clock)
                raised.append(failed)

        return traced

    def root(self, fn: Callable, name: str) -> Callable:
        """Wrap the benchmark's own traced body as the root span."""
        return self._wrap(f"{ROOT_LAYER}.{name}", fn, None, None)

    # -- patching ---------------------------------------------------------------

    def install(self, space_of: dict[str, Callable], hooks: dict[str, Callable]) -> None:
        """Wrap every public function of every layer and rebind each name.

        `space_of` maps a class name to a function that finds the machine's
        PhysSpace among a call's arguments; `hooks` maps a span name to a
        function called as hook(tracer, args, result) after a successful call.
        """
        wrapped: dict[object, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"capslice.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self._wrap(name, obj, None, hooks.get(name))
                elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
                      and not getattr(obj, "_is_protocol", False)):
                    self._wrap_class(layer, obj, space_of.get(obj.__name__), hooks)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "capslice"
                                      or module_name.startswith("capslice.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])

    def _wrap_class(self, layer: str, cls: type, space_of: Optional[Callable],
                    hooks: dict[str, Callable]) -> None:
        for attr, member in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_") or name in _UNWRAPPED:
                continue
            if isinstance(member, (classmethod, staticmethod)):
                replacement = type(member)(
                    self._wrap(name, member.__func__, None, hooks.get(name)))
            elif inspect.isfunction(member):
                replacement = self._wrap(name, member, space_of, hooks.get(name))
            else:
                continue  # properties and data
            self._patches.append((cls, attr, member))
            setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------------

    def summarize(self) -> Summary:
        """Self time per span is its duration minus its children's; a span's
        self virtual time is its clock delta minus the deltas of the nearest
        descendant spans on the same machine."""
        n = len(self._id)
        size = self._next_id
        parent_of = array("q", bytes(8 * size))
        sid_of = array("l", [-1]) * size
        for i in range(n):
            parent_of[self._id[i]] = self._parent[i]
            sid_of[self._id[i]] = self._sid[i]
        child_s = [0.0] * size
        child_vns = [0.0] * size
        out = Summary(spans=n)
        for i in range(n):
            span, parent, sid = self._id[i], self._parent[i], self._sid[i]
            name = self.names[self._fid[i]]
            layer = name.split(".", 1)[0]
            tag = self._tag_of(span)
            dur = self._t1[i] - self._t0[i]
            child_s[parent] += dur
            self_s = dur - child_s[span]
            out.calls[name] += 1
            out.raised[name] += self._raised[i]
            out.self_s[name] += self_s
            out.incl_s[name] += dur
            out.layer_self_s[layer] += self_s
            out.tagged_calls[(name, tag)] += 1
            if sid >= 0:
                dv = self._c1[i] - self._c0[i]
                ancestor = parent
                while ancestor and sid_of[ancestor] < 0:
                    ancestor = parent_of[ancestor]
                if ancestor and sid_of[ancestor] == sid:
                    child_vns[ancestor] += dv
                out.layer_vns[(layer, tag, self.machine_names[sid])] += dv - child_vns[span]
        return out

    def write(self, path) -> None:
        """Write every span as one gzip-compressed CSV row; times in us from
        the first span's start."""
        origin = min(self._t0, default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,parent,function,tag,start_us,end_us,machine,"
                     "clock_start_ns,clock_end_ns,raised\n")
            for i in range(len(self._id)):
                span, sid = self._id[i], self._sid[i]
                tag = self._tag_of(span)
                machine = self.machine_names[sid] if sid >= 0 else ""
                fh.write(f"{span},{self._parent[i]},{self.names[self._fid[i]]},{tag},"
                         f"{(self._t0[i] - origin) * 1e6:.1f},"
                         f"{(self._t1[i] - origin) * 1e6:.1f},{machine},"
                         f"{self._c0[i]:.2f},{self._c1[i]:.2f},{self._raised[i]}\n")
