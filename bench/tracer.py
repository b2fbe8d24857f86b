"""Outside-in span tracer for chainshell.

Wraps the public functions of the traced modules, plus a few hot methods,
from outside the package: nothing under ``src/`` knows it is traced.  Each
wrapped call is one span.  Per span name the tracer keeps the call count,
inclusive seconds (``s``) and self seconds (``self_s``: inclusive minus the
time of traced calls made directly beneath it on the same thread).

Spans nest per thread, so work that the optimizer fans out to a thread pool
is timed on the worker's own stack and its ``s`` is summed over threads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

PACKAGE = "chainshell"
TRACED_MODULES = ("pipeline", "shell3d", "filtering", "loads", "fem",
                  "optimizer", "profile2d", "config")
TRACED_METHODS = (("shell3d", "ShellSurface", "evaluate"),
                  ("shell3d", "ShellSurface", "gradient"),
                  ("shell3d", "TriangleMesh", "boundary_edges"),
                  ("shell3d", "TriangleMesh", "area"))


class Tracer:
    """Span statistics for one traced run; install() patches, uninstall() restores."""

    def __init__(self):
        self.stats: Dict[str, Dict[str, float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # seconds of traced children on this thread
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                with self._lock:
                    row = self.stats.setdefault(
                        name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                    row["calls"] += 1
                    row["s"] += dt
                    row["self_s"] += dt - frame[0]
                    if name == "fem.solve":  # the model's degrees of freedom
                        model = args[0] if args else kwargs["model"]
                        row["dofs"] = row.get("dofs", 0.0) + model.dof_count

        return traced

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {short: importlib.import_module(f"{PACKAGE}.{short}")
                   for short in TRACED_MODULES}
        replaced: Dict[int, Callable] = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        # rebind every module-level name bound to a wrapped function, so
        # `from .filtering import measure` in another module is traced too
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._set(module, attr, wrapper)
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(modules[short], cls_name)
            self._set(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}",
                                            cls.__dict__[meth]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {name: dict(row) for name, row in sorted(self.stats.items())}

