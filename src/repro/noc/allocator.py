"""Two-stage separable allocators for virtual channels and the switch.

The paper's router performs virtual-channel allocation in two steps
(Sec. 3.2.5): VA1 locally picks one candidate output VC per input VC
(``V:1`` arbiters), VA2 resolves conflicts per output VC (``PV:1``
arbiters).  Switch allocation (Sec. 3.2.6) is separable the same way: SA1
picks one VC per input port, SA2 picks one input port per output port.

Both allocators are one integer-bitmask kernel.  Input VCs are *units*,
the router's flat index ``port * num_vcs + vc``; a request set is an int
whose bit ``k`` asserts requester ``k``; every arbiter is one slot of a
flat list of round-robin pointers.  One arbitration is
rotate-then-lowest-set-bit::

    hi = mask >> nxt
    w = nxt + lsb(hi) if hi else lsb(mask)
    nxt = (w + 1) % n

the first asserted line at or after the pointer, wrapping around — the
grant and pointer update of a scanning
:class:`~repro.noc.arbiter.RoundRobinArbiter`, bit for bit.  A sole
requester is a one-bit mask, so every requester count takes the same
path.  The pointers rotate between cycles to model fairness the way
hardware does.

Grant order is part of the contract (the router traverses grants in
order, which fixes timing-wheel slot order):

* VA stage 1 reads the ``free`` masks as passed — the router's free-VC
  masks as they were before any grant of the cycle.  Grants come out in
  first-appearance order of ``(out_port, out_vc)`` over the requests.
* SA stage 1 takes input ports in first-appearance order (ascending,
  since the router passes units sorted); SA2 grants come out in
  first-appearance order of output port over the SA1 winners.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple


class _SeparableAllocator:
    """Round-robin pointer lists of the two arbitration stages.

    Both allocators have *n* arbiters per stage: VA one per input VC and
    per output VC (``n = P*V``), SA one per input port and per output
    port (``n = P``).  Stage 1 arbiters are ``V:1`` and stage 2 arbiters
    ``n:1``.
    """

    #: Labels of the stage-1 / stage-2 arbiters (sanitizer messages).
    _names: Tuple[str, str]

    def __init__(self, num_ports: int, num_vcs: int, n: int) -> None:
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        #: Stage-1 / stage-2 round-robin pointers, one per arbiter.
        self.next1: List[int] = [0] * n
        self.next2: List[int] = [0] * n

    def check_sane(self) -> Optional[str]:
        """``None`` when every pointer is legal, else a message naming
        the first corrupted arbiter (sanitizer hook).  A corrupted
        pointer silently biases — or, out of range, wedges — arbitration
        long before anything crashes."""
        for name, pointers, size in (
            (self._names[0], self.next1, self.num_vcs),
            (self._names[1], self.next2, len(self.next2)),
        ):
            for idx, nxt in enumerate(pointers):
                if not isinstance(nxt, int) or not 0 <= nxt < size:
                    return (
                        f"{name} arbiter {self._label(idx)}: round-robin "
                        f"pointer {nxt!r} outside [0, {size})"
                    )
        return None

    def _label(self, idx: int) -> str:
        return str(idx)


class VirtualChannelAllocator(_SeparableAllocator):
    """Separable two-stage VC allocator.

    ``allocate(units, out_port, allowed, free)`` takes the requesting
    units, unit -> output port and unit -> allowed-VC mask lookups, and
    the free-VC mask of every output port; it returns the grants as
    ``(unit, out_port, out_vc)`` triples.  ``allowed`` restricts the
    candidate output VCs (the one-VC-per-class policy of Sec. 3.2.4,
    torus datelines, escape-VC classes).
    """

    _names = ("VA1", "VA2")

    def __init__(self, num_ports: int, num_vcs: int) -> None:
        # VA1: one V:1 arbiter per input VC; VA2: one PV:1 arbiter per
        # output VC (indexed out_port * num_vcs + out_vc).
        super().__init__(num_ports, num_vcs, num_ports * num_vcs)
        # Stage-2 requester mask per output VC; all zero between calls.
        self._contenders = [0] * (num_ports * num_vcs)

    def _label(self, idx: int) -> str:
        return str(divmod(idx, self.num_vcs))

    def allocate(
        self,
        units: Sequence[int],
        out_port: Sequence[int],
        allowed: Sequence[int],
        free: Sequence[int],
    ) -> List[Tuple[int, int, int]]:
        num_vcs = self.num_vcs
        # Stage 1: each input VC picks one candidate among the free,
        # allowed VCs of its output port.  Candidates are collected as
        # requester masks per output VC, in first-appearance order.
        next1 = self.next1
        contenders = self._contenders
        keys = []
        for unit in units:
            out = out_port[unit]
            mask = free[out] & allowed[unit]
            if mask:
                nxt = next1[unit]
                hi = mask >> nxt
                vc = (
                    nxt + (hi & -hi).bit_length() - 1 if hi
                    else (mask & -mask).bit_length() - 1
                )
                next1[unit] = vc + 1 if vc + 1 < num_vcs else 0
                key = out * num_vcs + vc
                mask = contenders[key]
                if not mask:
                    keys.append(key)
                contenders[key] = mask | 1 << unit
        # Stage 2: each contested output VC picks one input VC.
        next2 = self.next2
        size = len(next2)
        grants = []
        for key in keys:
            mask = contenders[key]
            contenders[key] = 0
            nxt = next2[key]
            hi = mask >> nxt
            unit = (
                nxt + (hi & -hi).bit_length() - 1 if hi
                else (mask & -mask).bit_length() - 1
            )
            next2[key] = unit + 1 if unit + 1 < size else 0
            grants.append((unit, key // num_vcs, key % num_vcs))
        return grants


class SwitchAllocator(_SeparableAllocator):
    """Separable two-stage switch allocator.

    ``allocate(units, out_port)`` takes the requesting units and a
    unit -> output port lookup, and returns the winning units, at most
    one per input port and one per output port (the crossbar
    constraint).

    ``priorities`` (optional) maps a unit to its QoS class (missing
    units are class 0); within each arbitration only the
    highest-priority contenders compete — strict priority with
    round-robin tie-breaking, the QoS-provisioning mode of Sec. 3.3.
    """

    _names = ("SA1", "SA2")

    def __init__(self, num_ports: int, num_vcs: int) -> None:
        # SA1: one V:1 arbiter per input port; SA2: one P:1 arbiter per
        # output port (inputs already reduced to one VC each by SA1).
        super().__init__(num_ports, num_vcs, num_ports)
        # Per-call scratch: stage-1 request mask per input port and
        # stage-2 requester mask per output port (all zero between
        # calls), and the SA1 winner unit per input port.
        self._wants = [0] * num_ports
        self._contenders = [0] * num_ports
        self._won = [0] * num_ports

    def allocate(
        self,
        units: Sequence[int],
        out_port: Sequence[int],
        priorities: Optional[Mapping[int, int]] = None,
    ) -> List[int]:
        num_vcs = self.num_vcs
        # Stage-1 request masks (VC bits) per input port, and the ports
        # in first-appearance order.
        wants = self._wants
        ports = []
        for unit in units:
            port = unit // num_vcs
            mask = wants[port]
            if not mask:
                ports.append(port)
            wants[port] = mask | 1 << (unit - port * num_vcs)
        # Stage 1: per input port, pick one VC; collect the winners as
        # input-port masks per output port, in first-appearance order.
        next1 = self.next1
        won = self._won
        contenders = self._contenders
        outs = []
        for port in ports:
            mask = wants[port]
            wants[port] = 0
            if priorities:
                base = port * num_vcs
                vcs = range(base, base + num_vcs)
                mask = _top_class(mask, vcs, priorities)
            nxt = next1[port]
            hi = mask >> nxt
            vc = (
                nxt + (hi & -hi).bit_length() - 1 if hi
                else (mask & -mask).bit_length() - 1
            )
            next1[port] = vc + 1 if vc + 1 < num_vcs else 0
            unit = port * num_vcs + vc
            won[port] = unit
            out = out_port[unit]
            mask = contenders[out]
            if not mask:
                outs.append(out)
            contenders[out] = mask | 1 << port
        # Stage 2: per output port, pick one input port.
        next2 = self.next2
        num_ports = self.num_ports
        grants = []
        for out in outs:
            mask = contenders[out]
            contenders[out] = 0
            if priorities:
                mask = _top_class(mask, won, priorities)
            nxt = next2[out]
            hi = mask >> nxt
            port = (
                nxt + (hi & -hi).bit_length() - 1 if hi
                else (mask & -mask).bit_length() - 1
            )
            next2[out] = port + 1 if port + 1 < num_ports else 0
            grants.append(won[port])
        return grants


def _top_class(
    mask: int, units: Sequence[int], priorities: Mapping[int, int]
) -> int:
    """The bits ``k`` of *mask* whose unit ``units[k]`` is in the highest
    QoS class among them (strict priority)."""
    best = None
    keep = 0
    while mask:
        low = mask & -mask
        mask ^= low
        prio = priorities.get(units[low.bit_length() - 1], 0)
        if best is None or prio > best:
            best, keep = prio, low
        elif prio == best:
            keep |= low
    return keep
