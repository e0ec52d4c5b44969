"""In-memory span tracer and attribute wrapping for traced benchmark runs.

A traced run wraps calls into each layer's public functions and methods
from the benchmark's own files: :class:`Patcher` replaces the attribute
on its owner (a class or a module) with a wrapper that opens a span
before the call and closes it after, and puts back the exact original
object afterwards.  Spans record a name, start, end, parent span and a
run or request id; they stay in memory (compact ``array`` columns) and
are written out once, at the end of the run.

A layer's self time is its spans' duration minus the part covered by
their child spans.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Attribute every wrapper carries; its presence means "tracing is on".
MARKER = "__perfbench_wrapped__"

#: Package whose modules get function targets rebound (see Target).
REBIND = "repro"

_MISSING = object()


class Tracer:
    """Span recorder: one open-span stack, spans in array columns.

    ``parent`` is the index of the enclosing span, or -1 for a root.
    """

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.ident_col: List[object] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.ident: object = None
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name_id: int, ident: object = None) -> int:
        """Open a span; without ``ident`` it takes its parent's id (a
        root takes :attr:`ident`)."""
        index = len(self.name_col)
        parent = self._stack[-1] if self._stack else -1
        if ident is None:
            ident = self.ident_col[parent] if parent >= 0 else self.ident
        self.name_col.append(name_id)
        self.parent_col.append(parent)
        self.ident_col.append(ident)
        self.end_col.append(0.0)
        self._stack.append(index)
        self.start_col.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end_col[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span stack out of order")

    def span(self, name: str) -> "_SpanContext":
        """A span around a ``with`` block."""
        return _SpanContext(self, self.name_id(name))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def __len__(self) -> int:
        return len(self.name_col)

    # -- reduction -----------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """Per-name self seconds, per-name calls, total root seconds.

        A span directly inside a span of the same name (a wrapped
        override calling its wrapped base) is not counted as a call.
        """
        names = self.names
        name_col = self.name_col
        durations = [end - start for start, end
                     in zip(self.start_col, self.end_col)]
        own = list(durations)
        calls: Dict[str, int] = defaultdict(int)
        root_s = 0.0
        for index, parent in enumerate(self.parent_col):
            if parent < 0:
                root_s += durations[index]
            else:
                own[parent] -= durations[index]
                if name_col[parent] == name_col[index]:
                    continue
            calls[names[name_col[index]]] += 1
        self_s: Dict[str, float] = defaultdict(float)
        for index, name_id in enumerate(name_col):
            self_s[names[name_id]] += own[index]
        return dict(self_s), dict(calls), root_s

    def write(self, path: str) -> None:
        """Write every span as gzip TSV: index, name, start, end, parent, id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tstart\tend\tparent\tid\n")
            names = self.names
            for index in range(len(self.name_col)):
                out.write(f"{index}\t{names[self.name_col[index]]}\t"
                          f"{self.start_col[index]:.9f}\t"
                          f"{self.end_col[index]:.9f}\t"
                          f"{self.parent_col[index]}\t"
                          f"{self.ident_col[index]}\n")


class _SpanContext:
    __slots__ = ("_tracer", "_name_id", "_index")

    def __init__(self, tracer: Tracer, name_id: int):
        self._tracer = tracer
        self._name_id = name_id
        self._index = -1

    def __enter__(self) -> None:
        self._index = self._tracer.open(self._name_id)

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.close(self._index)


#: ``counter(tracer, args, kwargs, result)`` -- records layer counts.
Counter = Callable[[Tracer, tuple, dict, object], None]
#: ``ident(args, kwargs)`` -- span id taken from the call's arguments.
Ident = Callable[[tuple, dict], object]


def make_wrapper(original: Callable, tracer: Tracer, name: str,
                 counter: Optional[Counter] = None,
                 ident: Optional[Ident] = None) -> Callable:
    """A span-recording stand-in for ``original`` (same call signature)."""
    name_id = tracer.name_id(name)
    open_span = tracer.open
    close_span = tracer.close

    def wrapper(*args, **kwargs):
        index = open_span(name_id,
                          None if ident is None else ident(args, kwargs))
        try:
            result = original(*args, **kwargs)
        finally:
            close_span(index)
        if counter is not None:
            counter(tracer, args, kwargs, result)
        return result

    setattr(wrapper, MARKER, original)
    wrapper.__name__ = getattr(original, "__name__", name)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    return wrapper


class Target:
    """One attribute to wrap: ``owner.attr`` timed as layer ``layer``.

    ``owner`` is a class or a module path string (``"pkg.mod"``) or a
    ``"pkg.mod:Class"`` reference, resolved at install time.  A function
    target is also rebound in every already-imported ``repro`` module
    that imported it by name, so call sites that hold their own
    module-level binding see the wrapper too.
    """

    __slots__ = ("owner", "attr", "layer", "counter", "ident")

    def __init__(self, owner: str, attr: str, layer: str,
                 counter: Optional[Counter] = None,
                 ident: Optional[Ident] = None):
        self.owner = owner
        self.attr = attr
        self.layer = layer
        self.counter = counter
        self.ident = ident


def resolve(reference: str) -> object:
    module_name, _, qualname = reference.partition(":")
    __import__(module_name)
    obj: object = sys.modules[module_name]
    for part in filter(None, qualname.split(".")):
        obj = getattr(obj, part)
    return obj


class Patcher:
    """Installs wrappers for a set of targets and restores the originals.

    Every replaced slot is remembered as ``(owner, attr, previous)``
    where ``previous`` is the object found in ``owner.__dict__`` (or a
    sentinel when the attribute was inherited), so :meth:`restore` puts
    back the identical object or deletes the shadowing attribute.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: List[Tuple[object, str, object]] = []

    def install(self, targets: Iterable[Target]) -> None:
        for target in targets:
            owner = resolve(target.owner)
            previous = vars(owner).get(target.attr, _MISSING)
            original = getattr(owner, target.attr)
            if hasattr(original, MARKER):
                raise RuntimeError(f"{target.owner}.{target.attr} is "
                                   f"already wrapped")
            if isinstance(previous, (staticmethod, classmethod)):
                raise TypeError(f"{target.owner}.{target.attr}: static "
                                f"and class methods are not wrapped")
            wrapper = make_wrapper(original, self.tracer, target.layer,
                                   target.counter, target.ident)
            self._set(owner, target.attr, previous, wrapper)
            if isinstance(owner, type):
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if module is owner or not name.startswith(REBIND):
                    continue
                if vars(module).get(target.attr, None) is original:
                    self._set(module, target.attr, original, wrapper)

    def _set(self, owner: object, attr: str, previous: object,
             wrapper: Callable) -> None:
        self.saved.append((owner, attr, previous))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self.saved:
            owner, attr, previous = self.saved.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


def snapshot(targets: Iterable[Target]) -> Dict[Tuple[int, str], object]:
    """Identity snapshot of every slot a :class:`Patcher` could touch."""
    owners = [(resolve(target.owner), target.attr) for target in targets]
    modules = [module for module in list(sys.modules.values())
               if getattr(module, "__name__", "").startswith(REBIND)]
    state: Dict[Tuple[int, str], object] = {}
    for owner, attr in owners:
        state[(id(owner), attr)] = vars(owner).get(attr, _MISSING)
        if not isinstance(owner, type):
            for module in modules:
                state[(id(module), attr)] = vars(module).get(attr, _MISSING)
    return state


def wrapped_slots(targets: Iterable[Target]) -> List[str]:
    """Names of target attributes that currently resolve to a wrapper."""
    found = []
    for target in targets:
        if hasattr(getattr(resolve(target.owner), target.attr), MARKER):
            found.append(f"{target.owner}.{target.attr}")
    return found
