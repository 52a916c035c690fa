"""Outside-in layer timers: wrap public functions of ``repro`` and time them.

The benchmark never edits the program to trace it.  :class:`LayerTracer`
replaces public functions and methods of the ``repro`` package with
nesting-aware wrappers for the duration of one traced run and restores the
originals afterwards, so untraced runs execute unmodified code.

For every wrapped target the tracer keeps

* ``calls`` — number of invocations (every nesting level);
* ``busy``  — inclusive wall time of the outermost invocations of that
  target (a recursive call is not counted twice);
* ``self``  — inclusive time minus the time spent in wrapped callees.

Targets are grouped into layers (``ctf``, ``symmetry.planner`` ...); a
layer's busy time counts only calls not nested inside another call of the
same layer, and its self time is the sum of its targets' self times.  Stacks
are per thread, so a background thread's calls never nest under the main
thread's.

A module-level function is usually imported by name into other modules
(``from .davidson import davidson``); :meth:`LayerTracer.wrap_function`
therefore replaces *every* reference to the function object in loaded
``repro`` modules, not only the defining one.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Observer = Callable[["LayerTracer", tuple, dict, Any], None]

#: the package whose modules the wrappers are installed in
PACKAGE = "repro"


def _package_modules():
    """``(name, module)`` of every loaded module of :data:`PACKAGE`."""
    return [(name, module) for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or
                                       name.startswith(PACKAGE + "."))]


class _Frame:
    __slots__ = ("name", "layer", "child")

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.child = 0.0


class LayerTracer:
    """Installs timing wrappers on ``repro`` entry points and restores them."""

    def __init__(self):
        self._patches: List[Tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    # -- state ---------------------------------------------------------- #
    def reset(self) -> None:
        """Forget every measurement and the calling thread's open calls.

        Wrappers stay installed; a forked child calls this first so it
        reports only its own work, not the parent's copy.
        """
        self._local.stack = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.layer_busy: Dict[str, float] = defaultdict(float)
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.keys: Dict[str, set] = defaultdict(set)
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> Optional[str]:
        """Name of the wrapped call enclosing the current one, if any."""
        stack = self._stack()
        return stack[-2].name if len(stack) >= 2 else None

    def snapshot(self) -> Dict[str, object]:
        """JSON-native copy of every measurement (to ship across forks)."""
        return {"calls": dict(self.calls), "busy": dict(self.busy),
                "self": dict(self.self_time),
                "layer_busy": dict(self.layer_busy),
                "layer_self": dict(self.layer_self),
                "counters": dict(self.counters),
                "keys": {k: sorted(map(repr, v))
                         for k, v in self.keys.items()},
                "samples": {k: list(v) for k, v in self.samples.items()}}

    def merge(self, snap: Dict[str, object]) -> None:
        """Add a :meth:`snapshot` taken in another process."""
        for src, dst in (("calls", self.calls), ("busy", self.busy),
                         ("self", self.self_time),
                         ("layer_busy", self.layer_busy),
                         ("layer_self", self.layer_self),
                         ("counters", self.counters)):
            for k, v in snap[src].items():
                dst[k] += v
        for k, v in snap["keys"].items():
            self.keys[k].update(v)
        for k, v in snap["samples"].items():
            self.samples[k].extend(v)

    # -- wrapping -------------------------------------------------------- #
    def _make_wrapper(self, fn, name: str, layer: str,
                      observe: Optional[Observer]):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = _Frame(name, layer)
            outer_name = all(f.name != name for f in stack)
            outer_layer = all(f.layer != layer for f in stack)
            stack.append(frame)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                with tracer._lock:
                    if observe is not None:
                        observe(tracer, args, kwargs, result)
                    stack.pop()
                    if stack:
                        stack[-1].child += dt
                    tracer.calls[name] += 1
                    tracer.self_time[name] += dt - frame.child
                    tracer.layer_self[layer] += dt - frame.child
                    if outer_name:
                        tracer.busy[name] += dt
                    if outer_layer:
                        tracer.layer_busy[layer] += dt

        wrapper.__wrapped_by_layer_tracer__ = True
        return wrapper

    def wrap_method(self, cls: type, attr: str, name: str, layer: str,
                    observe: Optional[Observer] = None) -> None:
        """Wrap ``cls.attr`` (only if ``cls`` defines it itself)."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._make_wrapper(original, name, layer, observe))

    def wrap_subclass_methods(self, base: type, attr: str, name: str,
                              layer: str,
                              observe: Optional[Observer] = None) -> None:
        """Wrap ``attr`` on ``base`` and every subclass that overrides it."""
        seen, todo = set(), [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self.wrap_method(cls, attr, name, layer, observe)

    def wrap_function(self, fn, name: str, layer: str,
                      observe: Optional[Observer] = None) -> None:
        """Replace every reference to ``fn`` in loaded ``repro`` modules."""
        wrapper = self._make_wrapper(fn, name, layer, observe)
        found = False
        for _, module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{fn!r} is not referenced by any "
                              f"{PACKAGE} module")

    def patch(self, owner: object, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until :meth:`restore` (untimed)."""
        replacement.__wrapped_by_layer_tracer__ = True
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every original back (in reverse order of installation)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def installed_wrappers() -> List[str]:
    """Names of every tracer wrapper still reachable in ``repro``.

    Used to prove that a traced run left no wrapper behind.
    """
    found = []
    for mod_name, module in _package_modules():
        for attr, value in list(vars(module).items()):
            if getattr(value, "__wrapped_by_layer_tracer__", False):
                found.append(f"{mod_name}.{attr}")
            elif isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, "__wrapped_by_layer_tracer__", False):
                        found.append(f"{mod_name}.{attr}.{cattr}")
    return found
