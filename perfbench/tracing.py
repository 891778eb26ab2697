"""Per-layer tracing from outside the program.

:class:`Tracer` replaces chosen functions of the program's public
classes and modules with timing wrappers, keeps the spans it sees in
memory (calls, total seconds, self seconds, and an optional unit count
per span name), and puts every original back on :meth:`Tracer.restore`.
Self time is a span's duration minus the part its traced children
cover, so ``Router.step`` self time excludes the routing and allocator
calls it makes.

:func:`install_layers` wires the tracer to the layers the benchmark
reports on.  Networks built while it is installed get a
:class:`~repro.noc.profiling.NetworkProfiler` attached, and are kept so
their profile and whole-run :class:`~repro.noc.stats.EventCounts` can be
read after each point.
"""

from __future__ import annotations

import inspect
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter


class Tracer:
    """Span totals keyed by name, plus the patches that feed them."""

    def __init__(self) -> None:
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Child-time accumulators of the spans currently open.
        self._stack: List[List[float]] = []
        #: Networks built while installed (see :func:`install_layers`).
        self.networks: List[Any] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.self_seconds: Dict[str, float] = {}
        self.units: Dict[str, float] = {}
        self.networks = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        units: Optional[Callable[[Any], float]] = None,
        after: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` under span *name*.

        *owner* is a class or a module and must define *attr* itself.
        *units* maps a call's return value to a count added to the
        span's units; *after* sees each return value.
        """
        original = vars(owner)[attr]
        if not inspect.isfunction(original):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[name] = self.calls.get(name, 0) + 1
                self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
                self.self_seconds[name] = (
                    self.self_seconds.get(name, 0.0) + elapsed - frame[0]
                )
            if units is not None:
                self.units[name] = self.units.get(name, 0.0) + units(result)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> List[str]:
        """Put every original back; returns the patches that did not stick."""
        broken = []
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if vars(owner).get(attr) is not original:
                broken.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return broken

    def totals(self) -> Dict[str, Dict[str, float]]:
        """A picklable copy of the span totals."""
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "units": dict(self.units),
        }


def merge_totals(into: Dict[str, Dict[str, float]], other) -> None:
    """Add the span totals *other* into *into* in place."""
    for table, values in other.items():
        target = into.setdefault(table, {})
        for name, value in values.items():
            target[name] = target.get(name, 0) + value


def _own_methods(module, attr: str) -> List[Tuple[type, str]]:
    """Classes of *module* that define *attr* themselves."""
    return [
        (cls, attr)
        for cls in vars(module).values()
        if inspect.isclass(cls)
        and cls.__module__ == module.__name__
        and inspect.isfunction(vars(cls).get(attr))
    ]


def _length(result: Any) -> int:
    return len(result) if hasattr(result, "__len__") else 0


def install_layers(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries the benchmark reports on."""
    from repro.core.arch import ArchitectureConfig
    from repro.experiments import runner, sweep
    from repro.experiments.store import ResultStore, RunJournal
    from repro.noc import adaptive, routing, table_routing
    from repro.noc.allocator import SwitchAllocator, VirtualChannelAllocator
    from repro.noc.profiling import NetworkProfiler
    from repro.noc.router import Router
    from repro.traffic import base, nuca, synthetic

    def keep_network(network) -> None:
        if network.profiler is None:
            network.profiler = NetworkProfiler()
        tracer.networks.append(network)

    tracer.wrap(
        ArchitectureConfig, "build_network", "core.build_network",
        after=keep_network,
    )
    for module in (base, synthetic, nuca):
        for owner, attr in _own_methods(module, "packets_for_cycle"):
            tracer.wrap(owner, attr, "traffic.packets_for_cycle", units=_length)
        for owner, attr in _own_methods(module, "on_delivered"):
            tracer.wrap(owner, attr, "traffic.on_delivered", units=_length)
    tracer.wrap(Router, "step", "noc.router_step")
    for module in (routing, table_routing, adaptive):
        for owner, attr in _own_methods(module, "output_port"):
            tracer.wrap(owner, attr, "noc.output_port")
        for owner, attr in _own_methods(module, "allowed_vcs"):
            tracer.wrap(owner, attr, "noc.allowed_vcs")
    tracer.wrap(VirtualChannelAllocator, "allocate", "noc.va_general")
    tracer.wrap(SwitchAllocator, "allocate", "noc.sa_general")
    # The runner and the sweep engine bind these by name at import, so
    # the names are patched where they are looked up.
    tracer.wrap(runner, "power_report", "power.report")
    tracer.wrap(runner, "layer_power_report", "power.report")
    tracer.wrap(sweep, "point_key", "store.point_key")
    tracer.wrap(ResultStore, "put", "store.put", units=os.path.getsize)
    tracer.wrap(ResultStore, "get", "store.get")
    tracer.wrap(RunJournal, "append", "journal.append")


def network_totals(networks) -> Dict[str, float]:
    """Profiler phases and whole-run event counts of *networks*, summed."""
    out = dict.fromkeys(
        (
            "deliver_s", "inject_s", "route_s", "telemetry_s",
            "attribution_s", "finish_s", "routers_stepped",
            "router_cycles", "va_allocations", "sa_allocations",
            "flit_hops",
        ),
        0.0,
    )
    for network in networks:
        snap = network.profiler.snapshot()
        phases = snap.phase_wall_s
        out["deliver_s"] += phases.get("deliver", 0.0)
        out["inject_s"] += phases.get("inject", 0.0)
        out["route_s"] += phases.get("route", 0.0)
        out["telemetry_s"] += phases.get("telemetry", 0.0)
        out["attribution_s"] += phases.get("attribution", 0.0)
        out["finish_s"] += snap.telemetry_finish_cpu_s
        out["routers_stepped"] += snap.routers_stepped
        out["router_cycles"] += snap.router_cycles
        events = network.events
        out["va_allocations"] += events.va_allocations
        out["sa_allocations"] += events.sa_allocations
        out["flit_hops"] += events.flit_hops
    return out
