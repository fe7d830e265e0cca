"""Outside-in layer tracing for the solver benchmark.

Each traced layer is a public function of the ``twopolaritons`` package.
``Tracer.install`` replaces that function, in every package module that
holds a reference to it, with a wrapper that records a span (layer name,
parent span, start, end, whether it raised).  Nothing under ``src/`` is
edited: the wrappers come and go with ``install``/``uninstall``.

Self time is a span's duration minus the durations of its direct child
spans, which on one thread is exactly the time covered by its children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

PACKAGE = "twopolaritons"

#: Traced layers, as ``module.function`` inside the package.
LAYERS = (
    "bands.band_structure",
    "channels.find_channel_roots",
    "bound_states.find_bound_states",
    "bound_states.bound_matching_matrix",
    "bound_states.build_bound_wavefunction",
    "model.site_residual",
    "scattering.solve_scattering",
    "ring_ed.build_hamiltonian",
    "ring_ed.momentum_blocks",
    "ring_ed.ring_embedding",
    "ring_ed.compare_bound_state",
    "ring_ed.band_edge_check",
)

#: Counters of outcomes, keyed by layer: how many useful results a call gave.
OUTCOMES = {"bound_states.find_bound_states": len}


class Tracer:
    """Span recorder for the layers in ``LAYERS``.

    Spans are kept in memory as ``[name, parent, start, end, raised]``
    lists; index -1 as parent marks a root span (an item or task of the
    benchmark).  ``summary`` reduces them to per-layer calls, self time and
    errors.
    """

    def __init__(self):
        self.spans = []
        self.outcomes = {name: 0 for name in OUTCOMES}
        self.absent = []
        self._stack = []
        self._patched = []      # (module, attribute, original)

    # -- spans ---------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, False])
        self._stack.append(len(self.spans) - 1)

    def _close(self, raised):
        idx = self._stack.pop()
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[4] = raised

    @contextlib.contextmanager
    def root(self, name):
        """A benchmark-level span (an item or a task's preparation)."""
        self._open(name)
        try:
            yield
        except BaseException:
            self._close(True)
            raise
        self._close(False)

    def _wrap(self, name, fn):
        count = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(True)
                raise
            self._close(False)
            if count is not None:
                self.outcomes[name] += count(out)
            return out

        return traced

    # -- patching ------------------------------------------------------
    def install(self):
        """Wrap every layer at every package module that imported it."""
        importlib.import_module(PACKAGE)
        self.absent = []
        for name in LAYERS:
            mod_name, attr = name.rsplit(".", 1)
            try:
                home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(home, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                mod_id = getattr(mod, "__name__", "")
                if mod_id != PACKAGE and not mod_id.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        return self

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reduction -----------------------------------------------------
    def summary(self) -> dict:
        """Per-layer ``{"calls", "self_ms", "errors"}`` from the spans."""
        child_time = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        table = {name: {"calls": 0, "self_ms": 0.0, "errors": 0}
                 for name in LAYERS}
        for (name, _, t0, t1, raised), kids in zip(self.spans, child_time):
            row = table.get(name)
            if row is None:
                continue            # root spans of the benchmark itself
            row["calls"] += 1
            row["self_ms"] += (t1 - t0 - kids) * 1e3
            row["errors"] += int(raised)
        return table
