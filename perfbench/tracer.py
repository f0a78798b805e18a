"""Per-layer tracing for the benchmark: counts and self time at layer entry points.

:class:`LayerTracer` wraps the public entry points of each layer of the
program from outside it (the program itself is not edited) and records,
per entry point, how often it was called and its *self* time: the wall
time spent inside the call minus the time spent inside nested traced
calls.  ``Simulator.run`` therefore keeps the time of the lifecycle
generator bodies it resumes, while the engine calls those bodies make
(``timeout``, ``Resource.request``, a scheme's ``access``...) are charged
to their own layer.

State is per thread (the sweep service fills its cache from one thread
per worker connection), so counts repeat exactly however threads
interleave.  :meth:`LayerTracer.install` patches; :meth:`uninstall`
restores every original, so a process can run untraced and traced passes
back to back.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import weakref
from collections import Counter
from typing import Callable, List, Optional, Tuple

#: observe(counts, args, kwargs, result) adds derived counts after a call
Observer = Callable[[Counter, tuple, dict, object], None]


class LayerTracer:
    """Counts and self-time accumulators keyed by layer entry point."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Tuple[Counter, Counter, Counter]] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._sim_sequence = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], Counter(), Counter(), Counter())
            self._local.state = state
            with self._lock:
                self._tables.append(state[1:])
        return state

    def _make_wrapper(self, original, key: str, observe: Optional[Observer]):
        clock = time.perf_counter
        thread_state = self._thread_state

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack, counts, seconds, inclusive = thread_state()
            # a traced override calling its traced base counts once
            outermost = not stack or stack[-1][0] != key
            if outermost:
                counts[key] += 1
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                seconds[key] += elapsed - frame[1]
                if outermost:
                    inclusive[key] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if outermost and observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def wrap_method(self, cls: type, name: str, key: str,
                    observe: Optional[Observer] = None) -> None:
        """Trace ``cls.name`` if ``cls`` itself defines it (once per class)."""
        original = cls.__dict__.get(name)
        if original is None or any(owner is cls and attr == name
                                   for owner, attr, _ in self._patches):
            return
        setattr(cls, name, self._make_wrapper(original, key, observe))
        self._patches.append((cls, name, original))

    def wrap_function(self, module, name: str, key: str,
                      observe: Optional[Observer] = None) -> None:
        """Trace a module-level function in every loaded module binding it."""
        original = getattr(module, name)
        traced = self._make_wrapper(original, key, observe)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__dict__", {}).get(name) is original:
                setattr(loaded, name, traced)
                self._patches.append((loaded, name, original))

    def uninstall(self) -> None:
        """Restore every patched entry point (reverse patch order)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def totals(self) -> Tuple[Counter, Counter, Counter]:
        """(counts, self seconds, inclusive seconds) summed over threads."""
        sums = (Counter(), Counter(), Counter())
        with self._lock:
            for table in self._tables:
                for total, part in zip(sums, table):
                    total.update(part)
        return sums

    # ------------------------------------------------------------------
    # the layers of this program
    # ------------------------------------------------------------------
    def install(self) -> "LayerTracer":
        """Wrap the entry points of sim, tp, cc, core, analytic and svc."""
        from repro.cc import history
        from repro.cc.base import ConcurrencyControl
        from repro.cc.registry import CCSpec, cc_kinds
        from repro.core.admission import AdmissionGate
        from repro.core.controller import LoadController
        from repro.core.displacement import DisplacementPolicy
        from repro.experiments import dynamic
        from repro.runner import specs
        from repro.sim.engine import Simulator
        from repro.sim.resources import Resource
        from repro.svc.cache import ResultCache
        from repro.tp.metrics import RunMetrics
        from repro.tp.workload import Workload

        self.wrap_method(Simulator, "timeout", "sim.timeout")
        self.wrap_method(Simulator, "process", "sim.process")
        self.wrap_method(Simulator, "run", "sim.run", self._observe_events)
        self.wrap_method(Resource, "request", "sim.resource_request")
        self.wrap_method(Resource, "release", "sim.resource_release")

        for cls in _with_subclasses(Workload):
            self.wrap_method(cls, "next_transaction", "tp.workload")
        for name in sorted(vars(RunMetrics)):
            if name.startswith("record_"):
                self.wrap_method(RunMetrics, name, "tp.metrics",
                                 _METRIC_OBSERVERS.get(name))

        for kind in cc_kinds():
            scheme = type(CCSpec.make(kind).build(Simulator()))
            for cls in scheme.__mro__:
                if cls is ConcurrencyControl or not issubclass(cls, ConcurrencyControl):
                    continue
                self.wrap_method(cls, "access", "cc.access", _observe_access)
                self.wrap_method(cls, "try_commit", "cc.commit")
                self.wrap_method(cls, "finish", "cc.commit")
        self.wrap_function(history, "anomaly_counts", "cc.isolation_check")

        self.wrap_method(AdmissionGate, "submit", "core.gate_submit")
        self.wrap_method(AdmissionGate, "depart", "core.gate_depart")
        for cls in _with_subclasses(LoadController):
            self.wrap_method(cls, "update", "core.controller")
        self.wrap_method(DisplacementPolicy, "select_victims", "core.displacement",
                         _observe_victims)

        self.wrap_function(dynamic, "_reference_optimum", "analytic.reference")

        self.wrap_method(ResultCache, "get", "svc.cache_get")
        self.wrap_method(ResultCache, "put", "svc.cache_put")
        self.wrap_function(specs, "run_spec_fingerprint", "svc.fingerprint")
        return self

    def _observe_events(self, counts, args, kwargs, result) -> None:
        # events = heap pushes, read from the engine's sequence counter
        sim = args[0]
        before = self._sim_sequence.get(sim, 0)
        counts["sim.events"] += sim._sequence - before
        self._sim_sequence[sim] = sim._sequence


def _with_subclasses(root: type) -> List[type]:
    found, pending = [], [root]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def _observe_access(counts, args, kwargs, result) -> None:
    if result is not None:  # the scheme handed back an event to wait on
        counts["cc.blocked"] += 1


def _observe_commit(counts, args, kwargs, result) -> None:
    counts["tp.commits"] += 1


def _observe_abort(counts, args, kwargs, result) -> None:
    reason = args[1] if len(args) > 1 else kwargs["reason"]
    counts["tp.aborts"] += 1
    counts[f"cc.aborts_{reason.value}"] += 1


def _observe_shed(counts, args, kwargs, result) -> None:
    counts["core.shed"] += 1


def _observe_victims(counts, args, kwargs, result) -> None:
    counts["core.displaced"] += len(result)


_METRIC_OBSERVERS = {
    "record_commit": _observe_commit,
    "record_abort": _observe_abort,
    "record_shed": _observe_shed,
}
