"""Span tracing of udmlab's layers, installed from outside the package.

``Tracer.install`` replaces each public function of the traced modules by
a timing wrapper, in every udmlab module that binds it (so
``dynamics.negativity`` is traced as well as ``states.negativity``), and
wraps ``DensityMatrix.__init__`` and ``Gate.__post_init__`` on the classes
themselves so that isinstance checks keep working. ``uninstall`` restores
the originals. src/ is never modified.

Spans are folded as they close: per name the call count, inclusive time
and self time (duration minus the time covered by child spans), and per
(parent, child) edge the call count. That keeps memory flat on workloads
that make millions of calls.
"""
from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("linalg", "states", "gates", "dynamics", "maps", "circuits", "cli")


class Tracer:
    def __init__(self, udmlab):
        self._pkg = udmlab
        self._mods = [getattr(udmlab, m) for m in LAYERS]
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [name, start, child time]
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.under: dict[tuple[str, str], int] = {}  # (ancestor, name) -> calls
        self.grid_points = 0
        self.gates_applied = 0

    # -- recording

    def _wrap(self, name: str, fn, on_call=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.inclusive[name] = self.inclusive.get(name, 0.0) + dur
                self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame[2]
                parent = stack[-1][0] if stack else "-"
                if stack:
                    stack[-1][2] += dur
                key = (parent, name)
                self.edges[key] = self.edges.get(key, 0) + 1
                for anc in {f[0].split(".", 1)[0] for f in stack}:
                    k2 = (anc, name)
                    self.under[k2] = self.under.get(k2, 0) + 1

        return traced

    def _count_grid(self, args):
        self.grid_points += args[2].steps + 1

    def _count_gates(self, args):
        self.gates_applied += len(args[0].gates)

    def install(self):
        hooks = {
            "dynamics.evolve_trajectory": self._count_grid,
            "circuits.run_circuit": self._count_gates,
            "circuits.circuit_unitary": self._count_gates,
        }
        for mod in self._mods:
            short = mod.__name__.rsplit(".", 1)[1]
            names = getattr(mod, "__all__", None) or ["main"]
            for attr in names:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                span = f"{short}.{attr}"
                wrapped = self._wrap(span, fn, hooks.get(span))
                for holder in self._mods + [self._pkg]:
                    if getattr(holder, attr, None) is fn:
                        self._saved.append((holder, attr, fn))
                        setattr(holder, attr, wrapped)
        for cls, meth, span in (
            (self._pkg.states.DensityMatrix, "__init__", "states.DensityMatrix"),
            (self._pkg.gates.Gate, "__post_init__", "gates.Gate"),
        ):
            fn = cls.__dict__[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(span, fn))

    def uninstall(self):
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved.clear()
