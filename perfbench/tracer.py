"""Wrap the program's public functions from outside, to time each layer.

Every public function of every ``mitmscan`` module is replaced by a wrapper
that counts calls and adds up wall time, at every module that holds it:
a function another module imported by name (``issue_leaf`` in ``engine``,
``forge_for`` in ``cli`` and ``fleet``, ``client_accepts`` in ``appsim``)
is wrapped there too, so no call is missed. Public methods of the
program's classes are wrapped as well, and ``__init__`` of classes that are
not dataclasses (``FlowLedger.__init__`` is where a ledger file is loaded).
Private names (leading underscore) are left alone.

Times are inclusive: a wrapped function that calls another wrapped function
counts the callee's time too.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import threading
import time
import types

PACKAGE = "mitmscan"
MODULES = ("certforge", "engine", "appsim", "profiles", "flowledger", "fleet",
           "locator", "metrics", "party", "classifier", "taxonomy", "cli")


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._wrapped: dict[object, object] = {}
        self.calls: dict[str, list] = {}  # key -> [count, total seconds]
        self.flow_ms: list[float] = []
        self.skips = 0
        self.leaf_keys: set[tuple] = set()
        self.pairs = 0

    def install(self) -> None:
        hooks = {
            "appsim.perform_flow": self._on_flow,
            "flowledger.FlowLedger.decide_retest": self._on_decide,
            "certforge.issue_leaf": self._on_leaf,
            "locator.correlate": self._on_correlate,
        }
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        seen_classes = set()
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith(PACKAGE + "."):
                    key = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__qualname__}"
                    setattr(module, name, self._wrap(obj, key, hooks.get(key)))
                elif (
                    isinstance(obj, type)
                    and obj.__module__ == module.__name__
                    and obj not in seen_classes
                ):
                    seen_classes.add(obj)
                    self._wrap_class(obj, hooks)

    def _wrap_class(self, cls: type, hooks: dict) -> None:
        prefix = f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__qualname__}"
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and not (name == "__init__" and not dataclasses.is_dataclass(cls)):
                continue
            key = f"{prefix}.{name}"
            if isinstance(attr, types.FunctionType):
                setattr(cls, name, self._wrap(attr, key, hooks.get(key)))
            elif isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._wrap(attr.__func__, key, hooks.get(key))))

    def _wrap(self, fn, key: str, hook=None):
        if fn in self._wrapped:
            return self._wrapped[fn]
        stat = self.calls.setdefault(key, [0, 0.0])
        lock = self._lock
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                with lock:
                    stat[0] += 1
                    stat[1] += elapsed
            if hook is not None:
                hook(args, kwargs, result, elapsed)
            return result

        self._wrapped[fn] = wrapper
        return wrapper

    # -- hooks: counts measured where the work happens -------------------------

    def _on_flow(self, args, kwargs, result, elapsed):
        with self._lock:
            self.flow_ms.append(elapsed * 1000.0)

    def _on_decide(self, args, kwargs, result, elapsed):
        if result == "skip":
            with self._lock:
                self.skips += 1

    def _on_leaf(self, args, kwargs, result, elapsed):
        # Same issuer, names and validity give the same leaf.
        key = (args[0].name, args[1], tuple(args[2]), args[3] if len(args) > 3 else kwargs.get("validity_days"))
        with self._lock:
            self.leaf_keys.add(key)

    def _on_correlate(self, args, kwargs, result, elapsed):
        with self._lock:
            self.pairs += len(args[0]) * len(args[1])

    def take(self) -> dict:
        """This pass's figures; the counters start again from zero."""
        with self._lock:
            snapshot = {
                "calls": {k: list(v) for k, v in self.calls.items() if v[0]},
                "flow_ms": self.flow_ms,
                "skips": self.skips,
                "distinct_leaves": len(self.leaf_keys),
                "pairs": self.pairs,
            }
            for stat in self.calls.values():
                stat[0], stat[1] = 0, 0.0
            self.flow_ms = []
            self.skips = 0
            self.leaf_keys = set()
            self.pairs = 0
        return snapshot
