"""Runtime invariant auditing for the NoC model.

The simulator's latency/power/thermal figures are only as trustworthy as
its internal bookkeeping: one mis-counted credit or leaked flit silently
skews every downstream number.  :class:`NetworkSanitizer` is an opt-in
audit layer (``Network(sanitize=True)``, ``Simulator(sanitize=True)`` or
the ``--sanitize`` CLI flag) that re-derives, every cycle or every N
cycles, the invariants the router/network code is supposed to maintain —
from first principles, by walking the live data structures rather than
trusting any counter the audited code updates itself:

* **flit conservation** — every flit injected and not yet ejected is
  present exactly once (in a VC buffer, on a link, or awaiting
  ejection); per packet the present flit sequence numbers form the
  contiguous tail of what was injected, and globally the number of
  undelivered packets found matches the injected/delivered ledger.
* **credit accounting** — for every (output port, VC) pair the upstream
  credit count equals ``buffer_depth`` minus the true downstream
  occupancy minus flits and credits still in flight, and credits stay
  within ``[0, buffer_depth]``.
* **VC state-machine legality** — idle VCs are empty, VCs in RC/VA hold
  a head flit, active VCs own exactly the output VC the owner table says
  they do (and vice versa: tails release ownership exactly once), the
  free-VC bitmasks VA arbitrates over mirror the owner table, a VC
  waiting in VA still carries the allowed-VC mask its head flit is
  entitled to, flits within one buffer form legal head..tail wormhole
  runs, and the router's pipeline-stage population counters and active
  sets agree with the actual VC states (a buffered flit outside the
  active set would be stranded forever).
* **layer-mask integrity** — every in-network flit's active-layer mask
  is well-formed (``1 <= active_groups <= layer_groups``, mask is the
  contiguous bottom-up ``(1 << active_groups) - 1`` with the always-on
  top group set) and is conserved hop-to-hop: a flit observed on an
  earlier audit must carry the identical mask on every later audit until
  ejection.  Layer-resolved power/thermal maps are only as good as this
  invariant.
* **allocator state** — the stateful round-robin arbiter pointers inside
  the VA/SA allocators stay within range (a corrupted rotation pointer
  silently biases fairness long before it crashes).
* **deadlock/livelock watchdog** — when the network holds flits but
  delivers nothing for a configurable window, a :class:`WatchdogReport`
  snapshots the stalled VCs, their head flits, and what each one waits
  for (credits, a free output VC, routing) so wedged simulations are
  diagnosable instead of silently spinning until the drain cap.

Violations raise :class:`SanityError` carrying the cycle, node, port,
VC, and packet id involved.  The watchdog does not raise (a saturated
network is slow, not broken) — its reports ride along on
:attr:`~repro.noc.simulator.SimulationResult.sanity`.

Disabled (the default), the sanitizer costs a single ``is None`` check
per cycle — the same guard discipline as the profiler.  Enabled, audit
wall time is reported as its own profiler phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.noc.packet import Flit
from repro.noc.router import VC_STATE_NAMES, _ACTIVE, _IDLE, _RC, _VA

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network

#: Default watchdog window: cycles without a single flit delivery (while
#: traffic is in the network) before a stall report is taken.
DEFAULT_WATCHDOG_WINDOW = 2000


class SanityError(RuntimeError):
    """An invariant violation, with enough context to pinpoint it.

    Attributes:
        check: invariant family (``"flit-conservation"``,
            ``"credit-accounting"``, ``"vc-state"``, ``"allocator-state"``).
        cycle: simulation cycle the audit ran at.
        node: router node id, when the violation is localised.
        port: input/output port index on that router (``port_name`` gives
            the symbolic name).
        vc: virtual channel index.
        pid: packet id of the flit involved, when one is.
    """

    def __init__(
        self,
        check: str,
        message: str,
        cycle: int,
        node: Optional[int] = None,
        port: Optional[int] = None,
        port_name: Optional[str] = None,
        vc: Optional[int] = None,
        pid: Optional[int] = None,
    ) -> None:
        where = []
        if node is not None:
            where.append(f"node {node}")
        if port_name is not None:
            where.append(f"port {port_name!r}")
        elif port is not None:
            where.append(f"port {port}")
        if vc is not None:
            where.append(f"vc {vc}")
        if pid is not None:
            where.append(f"pid {pid}")
        loc = (" [" + ", ".join(where) + "]") if where else ""
        super().__init__(f"[{check}] cycle {cycle}{loc}: {message}")
        self.check = check
        self.cycle = cycle
        self.node = node
        self.port = port
        self.port_name = port_name
        self.vc = vc
        self.pid = pid


@dataclass(frozen=True)
class StalledVC:
    """One input VC holding flits that are not moving."""

    node: int
    port: int
    port_name: str
    vc: int
    state: str
    buffered: int
    head_pid: int
    head_seq: int
    head_kind: str
    #: Output (port name, VC) the head is allocated to, if any.
    out_port: Optional[str]
    out_vc: Optional[int]
    #: Downstream credits available toward that output VC (None for the
    #: local/ejection port, which always accepts).
    credits: Optional[int]
    #: Human-readable account of what the VC is waiting for.
    waiting_on: str


@dataclass(frozen=True)
class WatchdogReport:
    """Snapshot of a network that has stopped delivering flits."""

    #: Cycle the report was taken at.
    cycle: int
    #: Cycles since the last flit delivery (or simulation start).
    stalled_cycles: int
    #: Flits present in buffers / on links / awaiting ejection.
    flits_in_network: int
    #: Flit-hops performed during the stalled window: zero means a true
    #: deadlock (nothing moves); positive means livelock or starvation
    #: (flits circulate but nothing is delivered).
    flit_hops_in_window: int
    #: Every VC holding flits at snapshot time, with its head flit.
    stalled_vcs: Tuple[StalledVC, ...]

    def format(self) -> str:
        """Human-readable block for CLI / log output."""
        kind = "deadlock" if self.flit_hops_in_window == 0 else "livelock"
        lines = [
            f"watchdog: no flit delivered for {self.stalled_cycles} cycles "
            f"(cycle {self.cycle}, {self.flits_in_network} flits in "
            f"network, {self.flit_hops_in_window} hops in window -> "
            f"suspected {kind})",
        ]
        for s in self.stalled_vcs:
            dest = (
                f"-> out {s.out_port!r} vc {s.out_vc} "
                f"(credits {s.credits})"
                if s.out_port is not None
                else ""
            )
            lines.append(
                f"  node {s.node} in-port {s.port_name!r} vc {s.vc} "
                f"[{s.state}] {s.buffered} flits, head pid {s.head_pid} "
                f"seq {s.head_seq} ({s.head_kind}) {dest}: {s.waiting_on}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class SanitySnapshot:
    """Summary of a sanitized stretch of simulation."""

    #: Completed audit passes.
    audits: int
    #: Cycle of the most recent audit (-1 when none ran).
    last_audit_cycle: int
    #: Cumulative flits walked across all audits.
    flits_checked: int
    #: Cumulative (port, VC) credit counters reconciled.
    credits_checked: int
    #: Cumulative input-VC state machines checked.
    vcs_checked: int
    #: Cumulative flit layer masks validated (well-formedness and
    #: hop-to-hop conservation).
    masks_checked: int = 0
    #: Stall snapshots taken by the deadlock/livelock watchdog.
    watchdog_reports: Tuple[WatchdogReport, ...] = field(default_factory=tuple)

    def format(self) -> str:
        """Human-readable block for CLI output."""
        lines = [
            f"audits run        : {self.audits}",
            f"flits checked     : {self.flits_checked}",
            f"credits checked   : {self.credits_checked}",
            f"VC states checked : {self.vcs_checked}",
            f"layer masks checked: {self.masks_checked}",
            f"watchdog reports  : {len(self.watchdog_reports)}",
        ]
        for report in self.watchdog_reports:
            lines.append(report.format())
        return "\n".join(lines)


class _PacketPresence:
    """Where one packet's in-network flits were found during a walk."""

    __slots__ = ("packet", "seqs", "locations")

    def __init__(self, packet) -> None:
        self.packet = packet
        self.seqs: List[int] = []
        #: Parallel to ``seqs``: (node, port, vc) or None for wheel slots
        #: that carry no router-local position (ejection queue).
        self.locations: List[Optional[Tuple[int, int, int]]] = []


class NetworkSanitizer:
    """Re-derives the network's invariants from its live structures.

    Attach via ``Network(sanitize=True)`` (or assign
    ``network.sanitizer``); :meth:`maybe_audit` is called by
    ``Network.step`` at the end of every cycle and runs a full audit
    every ``interval`` cycles.  The sanitizer never mutates network
    state, so sanitized runs are bit-identical to bare runs.
    """

    def __init__(
        self,
        network: "Network",
        interval: int = 1,
        watchdog_window: int = DEFAULT_WATCHDOG_WINDOW,
    ) -> None:
        if interval < 1:
            raise ValueError(f"sanitize interval must be >= 1, got {interval}")
        if watchdog_window < 1:
            raise ValueError(
                f"watchdog window must be >= 1, got {watchdog_window}"
            )
        self.network = network
        self.interval = interval
        self.watchdog_window = watchdog_window
        self.audits = 0
        self.last_audit_cycle = -1
        self.flits_checked = 0
        self.credits_checked = 0
        self.vcs_checked = 0
        self.masks_checked = 0
        self.watchdog_reports: List[WatchdogReport] = []
        self._next_audit = 0
        #: Layer mask by (pid, seq) for flits seen in-network on the
        #: previous audit — the cross-audit baseline for the hop-to-hop
        #: mask-conservation check.  Pruned to the currently present
        #: flits each audit so ejected packets don't accumulate.
        self._mask_seen: Dict[Tuple[int, int], int] = {}
        self._mask_next: Dict[Tuple[int, int], int] = {}
        self._audit_cycle = -1
        self._last_delivered = network.stats.flits_delivered
        self._progress_cycle = 0
        self._progress_hops = network.events.flit_hops
        self._stall_reported = False

    # -- entry points ------------------------------------------------------

    def maybe_audit(self, cycle: int) -> None:
        """Audit when *cycle* hits the configured interval."""
        if cycle >= self._next_audit:
            self._next_audit = cycle + self.interval
            self.audit(cycle)

    def snapshot(self) -> SanitySnapshot:
        return SanitySnapshot(
            audits=self.audits,
            last_audit_cycle=self.last_audit_cycle,
            flits_checked=self.flits_checked,
            credits_checked=self.credits_checked,
            vcs_checked=self.vcs_checked,
            masks_checked=self.masks_checked,
            watchdog_reports=tuple(self.watchdog_reports),
        )

    # -- the audit ---------------------------------------------------------

    def audit(self, cycle: int) -> None:
        """Run every check against the network's end-of-cycle state.

        Raises :class:`SanityError` on the first violation found.  Check
        order is deliberate: the per-buffer walk runs first so a
        corrupted buffer is attributed to its exact (node, port, VC)
        before the same corruption surfaces as a fuzzier global credit
        or conservation mismatch.
        """
        present: Dict[int, _PacketPresence] = {}
        self._audit_cycle = cycle
        self._mask_next = {}

        arrivals_by_vc = self._walk_wheels(cycle, present)
        self._walk_routers(cycle, present)
        self._check_credits(cycle, arrivals_by_vc)
        self._check_conservation(cycle, present)
        self._check_allocators(cycle)
        self._watchdog(cycle, present)

        # The flits walked this audit become the next audit's baseline
        # for mask conservation; everything else has left the network.
        self._mask_seen = self._mask_next
        self.audits += 1
        self.last_audit_cycle = cycle

    # -- structure walks ---------------------------------------------------

    def _note_flit(
        self,
        present: Dict[int, _PacketPresence],
        flit: Flit,
        location: Optional[Tuple[int, int, int]],
    ) -> None:
        rec = present.get(flit.packet.pid)
        if rec is None:
            rec = present[flit.packet.pid] = _PacketPresence(flit.packet)
        rec.seqs.append(flit.seq)
        rec.locations.append(location)
        self.flits_checked += 1
        self._check_layer_mask(flit, location)

    def _check_layer_mask(
        self, flit: Flit, location: Optional[Tuple[int, int, int]]
    ) -> None:
        """Mask well-formedness + hop-to-hop conservation for one flit."""
        cycle = self._audit_cycle
        node, port, vc = location if location else (None, None, None)
        layer_groups = self.network.layer_groups
        if not 1 <= flit.active_groups <= layer_groups:
            raise SanityError(
                "layer-mask",
                f"flit seq {flit.seq} drives {flit.active_groups} layers, "
                f"outside [1, {layer_groups}]",
                cycle, node=node, port=port, vc=vc, pid=flit.packet.pid,
            )
        expected = (1 << flit.active_groups) - 1
        if flit.layer_mask != expected:
            raise SanityError(
                "layer-mask",
                f"flit seq {flit.seq} carries mask "
                f"{flit.layer_mask:#06b} but {flit.active_groups} active "
                f"groups imply the contiguous {expected:#06b} "
                "(top group always on, valid words fill bottom-up)",
                cycle, node=node, port=port, vc=vc, pid=flit.packet.pid,
            )
        key = (flit.packet.pid, flit.seq)
        seen = self._mask_seen.get(key)
        if seen is not None and seen != flit.layer_mask:
            raise SanityError(
                "layer-mask",
                f"flit seq {flit.seq} changed layer mask in flight: "
                f"{seen:#06b} on the previous audit, now "
                f"{flit.layer_mask:#06b} (masks are fixed at injection "
                "and conserved hop-to-hop)",
                cycle, node=node, port=port, vc=vc, pid=flit.packet.pid,
            )
        self._mask_next[key] = flit.layer_mask
        self.masks_checked += 1

    def _walk_wheels(
        self, cycle: int, present: Dict[int, _PacketPresence]
    ) -> Dict[Tuple[int, int, int], int]:
        """Record in-flight flits; return arrival counts per (node, port, vc)."""
        net = self.network
        arrivals_by_vc: Dict[Tuple[int, int, int], int] = {}
        for node, port, vc, flit in net._arrivals.items():
            key = (node, port, vc)
            arrivals_by_vc[key] = arrivals_by_vc.get(key, 0) + 1
            self._note_flit(present, flit, key)
        for flit in net._ejections.items():
            if flit.packet.delivered_cycle is not None:
                raise SanityError(
                    "flit-conservation",
                    f"flit seq {flit.seq} awaiting ejection after its "
                    f"packet was already delivered at cycle "
                    f"{flit.packet.delivered_cycle}",
                    cycle,
                    node=flit.packet.dst,
                    pid=flit.packet.pid,
                )
            self._note_flit(present, flit, None)
        return arrivals_by_vc

    def _walk_routers(
        self, cycle: int, present: Dict[int, _PacketPresence]
    ) -> None:
        net = self.network
        for router in net.routers:
            node = router.node
            num_vcs = router.num_vcs
            # Expected owners derived from the input side, to reconcile
            # against the output-side ownership table.
            owned: Dict[Tuple[int, int], Tuple[int, int]] = {}
            state_counts = {_RC: 0, _VA: 0, _ACTIVE: 0}

            for unit in router.in_vcs:
                self.vcs_checked += 1
                port_name = router.port_names[unit.port]

                def err(message: str, pid: Optional[int] = None) -> SanityError:
                    return SanityError(
                        "vc-state", message, cycle,
                        node=node, port=unit.port, port_name=port_name,
                        vc=unit.vc, pid=pid,
                    )

                flits = unit.buffer.flits()
                if len(flits) > router.buffer_depth:
                    raise err(
                        f"buffer holds {len(flits)} flits "
                        f"(depth {router.buffer_depth})"
                    )
                if unit.state in state_counts:
                    state_counts[unit.state] += 1
                elif unit.state != _IDLE:
                    raise err(f"unknown VC state {unit.state!r}")
                if unit.state == _IDLE:
                    if flits:
                        raise err(
                            f"idle VC holds {len(flits)} buffered flits",
                            pid=flits[0].packet.pid,
                        )
                    if unit.out_port != -1 or unit.out_vc != -1:
                        raise err(
                            "idle VC still points at output "
                            f"({unit.out_port}, {unit.out_vc}); tail did "
                            "not release it"
                        )
                else:
                    if unit.state in (_RC, _VA):
                        if not flits:
                            raise err(
                                f"VC in {VC_STATE_NAMES[unit.state]} with "
                                "an empty buffer"
                            )
                        if not flits[0].is_head:
                            raise err(
                                f"VC in {VC_STATE_NAMES[unit.state]} with "
                                f"a non-head front flit (seq "
                                f"{flits[0].seq})",
                                pid=flits[0].packet.pid,
                            )
                    flat = unit.port * num_vcs + unit.vc
                    if unit.state == _ACTIVE:
                        if unit.out_port < 0 or unit.out_vc < 0:
                            raise err(
                                "active VC without an allocated output "
                                f"({unit.out_port}, {unit.out_vc})"
                            )
                        owned[(unit.out_port, unit.out_vc)] = (
                            unit.port, unit.vc,
                        )
                    elif unit.state == _VA:
                        if unit.out_port < 0:
                            raise err("VC in VA without a computed route")
                        # The allowed-VC mask is computed with the route;
                        # the head flit must still be entitled to it.
                        allowed = router._allowed_mask(flat, unit.out_port)
                        if router.vc_allowed[flat] != allowed:
                            raise err(
                                f"stale allowed-VC mask "
                                f"{router.vc_allowed[flat]:#x}; the head "
                                f"flit may claim {allowed:#x}",
                                pid=flits[0].packet.pid,
                            )
                    # A buffered flit outside the router's active set
                    # would never be stepped again: stranded forever.
                    if flits and flat not in router._active:
                        raise err(
                            "VC holds flits but is not in the router's "
                            "active set (stranded)",
                            pid=flits[0].packet.pid,
                        )

                self._check_buffer_runs(cycle, router, unit, flits)
                for flit in flits:
                    self._note_flit(present, flit, (node, unit.port, unit.vc))

            if router._active and router._network is not None:
                if (
                    net.active_scheduling
                    and node not in net._active_routers
                ):
                    raise SanityError(
                        "vc-state",
                        "router has active VCs but is missing from the "
                        "network's active-router set (scheduler would "
                        "never step it)",
                        cycle, node=node,
                    )

            if (
                router._n_rc != state_counts[_RC]
                or router._n_va != state_counts[_VA]
                or router._n_active != state_counts[_ACTIVE]
            ):
                raise SanityError(
                    "vc-state",
                    "pipeline-stage population counters drifted: counted "
                    f"rc={state_counts[_RC]} va={state_counts[_VA]} "
                    f"active={state_counts[_ACTIVE]}, recorded "
                    f"rc={router._n_rc} va={router._n_va} "
                    f"active={router._n_active}",
                    cycle, node=node,
                )

            # Output-side ownership must mirror the input-side states —
            # in both directions, which is what makes a double tail
            # release (or a forgotten one) visible.  The free-VC masks
            # VA arbitrates over must mirror the owner table.
            for out_port in range(router.num_ports):
                owners = router.out_owner[out_port]
                for out_vc in range(num_vcs):
                    owner = owners[out_vc]
                    expect = owned.pop((out_port, out_vc), None)
                    if owner != expect:
                        raise SanityError(
                            "vc-state",
                            f"output VC ownership mismatch: owner table "
                            f"says {owner}, input-VC states say {expect}",
                            cycle, node=node, port=out_port,
                            port_name=router.port_names[out_port],
                            vc=out_vc,
                        )
                free = sum(
                    1 << out_vc
                    for out_vc, owner in enumerate(owners)
                    if owner is None
                )
                if router.free_vcs[out_port] != free:
                    raise SanityError(
                        "vc-state",
                        f"free-VC mask {router.free_vcs[out_port]:#x} "
                        f"disagrees with the owner table ({free:#x})",
                        cycle, node=node, port=out_port,
                        port_name=router.port_names[out_port],
                    )

    def _check_buffer_runs(
        self, cycle: int, router, unit, flits: Tuple[Flit, ...]
    ) -> None:
        """Flits in one buffer must form legal head..tail wormhole runs."""
        port_name = router.port_names[unit.port]
        prev: Optional[Flit] = None
        for flit in flits:
            if prev is None or prev.is_tail:
                # The front flit may be a body/tail whose head already
                # moved downstream — but only on a VC that still holds
                # the allocation (state ACTIVE).  Any later run, and any
                # front flit on a non-active VC, must begin with a head.
                front_of_wormhole = (
                    prev is None and unit.state == _ACTIVE and flit.seq > 0
                )
                if not flit.is_head and not front_of_wormhole:
                    raise SanityError(
                        "vc-state",
                        f"packet run starts with a non-head flit (seq "
                        f"{flit.seq})",
                        cycle, node=router.node, port=unit.port,
                        port_name=port_name, vc=unit.vc,
                        pid=flit.packet.pid,
                    )
            else:
                if flit.packet.pid != prev.packet.pid:
                    raise SanityError(
                        "vc-state",
                        f"packet {flit.packet.pid} interleaved into "
                        f"packet {prev.packet.pid}'s wormhole",
                        cycle, node=router.node, port=unit.port,
                        port_name=port_name, vc=unit.vc,
                        pid=flit.packet.pid,
                    )
                if flit.seq != prev.seq + 1:
                    raise SanityError(
                        "flit-conservation",
                        f"flit sequence gap inside buffer: seq "
                        f"{prev.seq} followed by seq {flit.seq}",
                        cycle, node=router.node, port=unit.port,
                        port_name=port_name, vc=unit.vc,
                        pid=flit.packet.pid,
                    )
            prev = flit

    # -- invariant checks --------------------------------------------------

    def _check_credits(
        self, cycle: int, arrivals_by_vc: Dict[Tuple[int, int, int], int]
    ) -> None:
        """Upstream credits == depth - occupancy - flits/credits in flight."""
        net = self.network
        credits_in_flight: Dict[Tuple[int, int, int], int] = {}
        for node, port, vc in net._credits.items():
            key = (node, port, vc)
            credits_in_flight[key] = credits_in_flight.get(key, 0) + 1

        # Hard-killed links confiscate the upstream's credits (held and
        # returning); the injector's ledger keeps the identity exact.
        fi = net.fault_injector
        confiscated = fi.confiscated if fi is not None else None

        for router in net.routers:
            depth = router.buffer_depth
            for port, credits in enumerate(router.credits):
                if credits is None:
                    continue
                target = router._arrival_targets[port]
                if target is None:
                    raise SanityError(
                        "credit-accounting",
                        "credit counters exist for a port with no link",
                        cycle, node=router.node, port=port,
                        port_name=router.port_names[port],
                    )
                dst, dst_port = target
                downstream = net.routers[dst]
                for vc in range(router.num_vcs):
                    self.credits_checked += 1
                    held = credits[vc]
                    occupancy = len(downstream._vc(dst_port, vc).buffer)
                    on_wire = arrivals_by_vc.get((dst, dst_port, vc), 0)
                    returning = credits_in_flight.get(
                        (router.node, port, vc), 0
                    )
                    expected = depth - occupancy - on_wire - returning
                    if confiscated:
                        expected -= confiscated.get(
                            (router.node, port, vc), 0
                        )
                    if held != expected or not 0 <= held <= depth:
                        raise SanityError(
                            "credit-accounting",
                            f"credit count {held} != expected {expected} "
                            f"(depth {depth} - {occupancy} buffered at "
                            f"node {dst} - {on_wire} on the wire - "
                            f"{returning} credits returning)",
                            cycle, node=router.node, port=port,
                            port_name=router.port_names[port], vc=vc,
                        )

    def _check_conservation(
        self, cycle: int, present: Dict[int, _PacketPresence]
    ) -> None:
        """Present flits must be exactly the injected-but-not-ejected set."""
        net = self.network

        # Packets still (partially) in a source queue: pid -> flits
        # injected so far; fully queued packets have injected 0.
        queued: Dict[int, int] = {}
        for node, src in enumerate(net._sources):
            for packet in src.packets:
                queued[packet.pid] = 0
            if src.flits:
                queued[src.flits[0].packet.pid] = src.flit_idx

        total_present = 0
        for pid, rec in present.items():
            total_present += len(rec.seqs)
            packet = rec.packet
            where = next((loc for loc in rec.locations if loc), None)
            node, port, vc = where if where else (None, None, None)
            if packet.delivered_cycle is not None:
                raise SanityError(
                    "flit-conservation",
                    f"{len(rec.seqs)} flits of a packet delivered at "
                    f"cycle {packet.delivered_cycle} still present "
                    "(leaked)",
                    cycle, node=node, port=port, vc=vc, pid=pid,
                )
            injected = queued.get(pid, packet.size_flits)
            seqs = sorted(rec.seqs)
            if len(set(seqs)) != len(seqs):
                raise SanityError(
                    "flit-conservation",
                    f"duplicated flit sequence numbers in flight: {seqs}",
                    cycle, node=node, port=port, vc=vc, pid=pid,
                )
            expected = list(range(injected - len(seqs), injected))
            if seqs != expected:
                raise SanityError(
                    "flit-conservation",
                    f"present flit seqs {seqs} are not the contiguous "
                    f"tail of the {injected} injected "
                    f"(expected {expected}): a flit was dropped or "
                    "reordered",
                    cycle, node=node, port=port, vc=vc, pid=pid,
                )

        # Global reconciliation: every injected-but-undelivered packet
        # must be found somewhere (a packet whose flits all vanished
        # leaves no local trace, only this ledger mismatch).
        undelivered_found = len(set(present) | set(queued))
        ledger = (
            net.stats.packets_injected
            - net.stats.packets_delivered
            - net.stats.packets_dropped
        )
        if undelivered_found != ledger:
            raise SanityError(
                "flit-conservation",
                f"found {undelivered_found} undelivered packets in the "
                f"network but the ledger says {ledger} "
                f"({net.stats.packets_injected} injected - "
                f"{net.stats.packets_delivered} delivered - "
                f"{net.stats.packets_dropped} dropped)",
                cycle,
            )
        in_flight = net.in_flight()
        if total_present != in_flight:
            raise SanityError(
                "flit-conservation",
                f"walked {total_present} flits but Network.in_flight() "
                f"reports {in_flight}",
                cycle,
            )

    def _check_allocators(self, cycle: int) -> None:
        for router in self.network.routers:
            problem = router._va.check_sane() or router._sa.check_sane()
            if problem:
                raise SanityError(
                    "allocator-state", problem, cycle, node=router.node
                )

    # -- watchdog ----------------------------------------------------------

    def _watchdog(
        self, cycle: int, present: Dict[int, _PacketPresence]
    ) -> None:
        net = self.network
        # Dropped flits leave the network through the ejection path just
        # like delivered ones — either counts as forward progress.
        delivered = net.stats.flits_delivered + net.stats.flits_dropped
        busy = bool(present) or bool(net._busy_sources)
        if delivered != self._last_delivered or not busy:
            self._last_delivered = delivered
            self._progress_cycle = cycle
            self._progress_hops = net.events.flit_hops
            self._stall_reported = False
            return
        stalled = cycle - self._progress_cycle
        if stalled < self.watchdog_window or self._stall_reported:
            return
        self._stall_reported = True
        self.watchdog_reports.append(
            self._stall_report(cycle, stalled, present)
        )

    def _stall_report(
        self, cycle: int, stalled: int, present: Dict[int, _PacketPresence]
    ) -> WatchdogReport:
        net = self.network
        stalled_vcs: List[StalledVC] = []
        for router in net.routers:
            for unit in router.in_vcs:
                head = unit.buffer.front()
                if head is None:
                    continue
                out_port_name: Optional[str] = None
                out_vc: Optional[int] = None
                credits: Optional[int] = None
                if unit.out_port >= 0:
                    out_port_name = router.port_names[unit.out_port]
                    per_vc = router.credits[unit.out_port]
                    if unit.out_vc >= 0:
                        out_vc = unit.out_vc
                        if per_vc is not None:
                            credits = per_vc[unit.out_vc]
                if unit.state == _RC:
                    waiting = "waiting for routing computation"
                elif unit.state == _VA:
                    waiting = (
                        f"waiting for a free VC on out port "
                        f"{out_port_name!r}"
                    )
                elif unit.state == _ACTIVE and credits == 0:
                    waiting = (
                        f"waiting for credits on out port "
                        f"{out_port_name!r} vc {out_vc}"
                    )
                elif unit.state == _ACTIVE:
                    waiting = "has credits but never wins/attempts SA"
                else:
                    waiting = "buffered flits on an idle VC"
                stalled_vcs.append(
                    StalledVC(
                        node=router.node,
                        port=unit.port,
                        port_name=router.port_names[unit.port],
                        vc=unit.vc,
                        state=VC_STATE_NAMES.get(unit.state, "?"),
                        buffered=len(unit.buffer),
                        head_pid=head.packet.pid,
                        head_seq=head.seq,
                        head_kind=head.kind.value,
                        out_port=out_port_name,
                        out_vc=out_vc,
                        credits=credits,
                        waiting_on=waiting,
                    )
                )
        flits_in_network = sum(len(rec.seqs) for rec in present.values())
        return WatchdogReport(
            cycle=cycle,
            stalled_cycles=stalled,
            flits_in_network=flits_in_network,
            flit_hops_in_window=net.events.flit_hops - self._progress_hops,
            stalled_vcs=tuple(stalled_vcs),
        )
