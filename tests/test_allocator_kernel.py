"""Differential tests: the bitmask VA/SA kernel against a scanning oracle.

The oracle is the separable two-stage algorithm written the long way —
boolean request lines, one :class:`RoundRobinArbiter` per arbiter,
insertion-ordered dicts for grouping.  The kernel must agree with it on
the grants, their order, and every round-robin pointer after every
cycle of a multi-cycle request sequence.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arch import make_2db
from repro.noc.allocator import SwitchAllocator, VirtualChannelAllocator
from repro.noc.arbiter import RoundRobinArbiter
from repro.noc.router import _VA
from repro.noc.sanitizer import NetworkSanitizer, SanityError
from repro.noc.simulator import Simulator
from repro.traffic.synthetic import UniformRandomTraffic


class OracleVA:
    def __init__(self, ports, vcs):
        self.vcs = vcs
        units = ports * vcs
        self.va1 = [RoundRobinArbiter(vcs) for _ in range(units)]
        self.va2 = [RoundRobinArbiter(units) for _ in range(units)]

    def allocate(self, units, out_port, allowed, free):
        vcs = self.vcs
        candidates = {}
        for unit in units:
            out = out_port[unit]
            lines = [
                bool(free[out] >> v & 1 and allowed[unit] >> v & 1)
                for v in range(vcs)
            ]
            if any(lines):
                candidates[unit] = (out, self.va1[unit].grant(lines))
        by_out = {}
        for unit, out_key in candidates.items():
            by_out.setdefault(out_key, []).append(unit)
        grants = []
        for (out, out_vc), contenders in by_out.items():
            lines = [u in contenders for u in range(len(self.va2))]
            winner = self.va2[out * vcs + out_vc].grant(lines)
            grants.append((winner, out, out_vc))
        return grants

    def pointers(self):
        return [a._next for a in self.va1], [a._next for a in self.va2]


class OracleSA:
    def __init__(self, ports, vcs):
        self.ports, self.vcs = ports, vcs
        self.sa1 = [RoundRobinArbiter(vcs) for _ in range(ports)]
        self.sa2 = [RoundRobinArbiter(ports) for _ in range(ports)]

    @staticmethod
    def _filter(reqs, priorities):
        if not priorities or len(reqs) <= 1:
            return reqs
        best = max(priorities.get(u, 0) for u, _ in reqs)
        return [r for r in reqs if priorities.get(r[0], 0) == best]

    def allocate(self, units, out_port, priorities=None):
        by_in = {}
        for unit in units:
            req = (unit, out_port[unit])
            by_in.setdefault(unit // self.vcs, []).append(req)
        stage1 = {}
        for in_port, reqs in by_in.items():
            reqs = self._filter(reqs, priorities)
            lookup = {u % self.vcs: (u, o) for u, o in reqs}
            lines = [v in lookup for v in range(self.vcs)]
            stage1[in_port] = lookup[self.sa1[in_port].grant(lines)]
        by_out = {}
        for in_port, req in stage1.items():
            by_out.setdefault(req[1], []).append((in_port, req))
        grants = []
        for out_port, entries in by_out.items():
            reqs = self._filter([req for _, req in entries], priorities)
            lookup = {u // self.vcs: u for u, _ in reqs}
            lines = [p in lookup for p in range(self.ports)]
            grants.append(lookup[self.sa2[out_port].grant(lines)])
        return grants

    def pointers(self):
        return [a._next for a in self.sa1], [a._next for a in self.sa2]


@st.composite
def _scenario(draw):
    """Ports, VCs and a multi-cycle sequence of per-cycle requests."""
    ports = draw(st.integers(2, 7))
    vcs = draw(st.integers(1, 4))
    units = ports * vcs
    full = (1 << vcs) - 1
    cycles = []
    for _ in range(draw(st.integers(1, 8))):
        chosen = draw(
            st.lists(st.integers(0, units - 1), unique=True, max_size=units)
        )
        if draw(st.booleans()):
            chosen.sort()  # the router's ascending order
        reqs = [
            (
                u,
                draw(st.integers(0, ports - 1)),
                draw(st.integers(0, full)),
                draw(st.integers(0, 3)),
            )
            for u in chosen
        ]
        free = draw(
            st.lists(st.integers(0, full), min_size=ports, max_size=ports)
        )
        cycles.append((reqs, free, draw(st.booleans())))
    return ports, vcs, cycles


@settings(max_examples=300, deadline=None)
@given(_scenario())
def test_va_kernel_matches_oracle(scenario):
    ports, vcs, cycles = scenario
    kernel, oracle = VirtualChannelAllocator(ports, vcs), OracleVA(ports, vcs)
    for reqs, free, _ in cycles:
        units = [u for u, _, _, _ in reqs]
        out_port = {u: o for u, o, _, _ in reqs}
        allowed = {u: mask for u, _, mask, _ in reqs}
        assert kernel.allocate(units, out_port, allowed, free) == (
            oracle.allocate(units, out_port, allowed, free)
        )
        assert (kernel.next1, kernel.next2) == oracle.pointers()


@settings(max_examples=300, deadline=None)
@given(_scenario())
def test_sa_kernel_matches_oracle(scenario):
    ports, vcs, cycles = scenario
    kernel, oracle = SwitchAllocator(ports, vcs), OracleSA(ports, vcs)
    for reqs, _, qos in cycles:
        units = [u for u, _, _, _ in reqs]
        out_port = {u: o for u, o, _, _ in reqs}
        priorities = {u: prio for u, _, _, prio in reqs} if qos else None
        assert kernel.allocate(units, out_port, priorities) == oracle.allocate(
            units, out_port, priorities
        )
        assert (kernel.next1, kernel.next2) == oracle.pointers()


def test_va_stage1_reads_free_masks_once():
    """Two input VCs may pick the same free output VC in stage 1; the
    free masks are not updated between them within one call."""
    va = VirtualChannelAllocator(3, 2)
    free = [0b11, 0b11, 0b01]
    grants = va.allocate([0, 2], {0: 2, 2: 2}, {0: 0b11, 2: 0b11}, free)
    assert grants == [(0, 2, 0)]
    assert free == [0b11, 0b11, 0b01]


def test_sa_grant_order_follows_output_first_appearance():
    """SA2 grants come out in first-appearance order of output port over
    the SA1 winners, taken in ascending input port."""
    sa = SwitchAllocator(4, 1)
    out_port = [3, 0, 3, 0]
    assert sa.allocate([0, 1, 2], out_port) == [0, 1]
    assert sa.allocate([0, 1, 2], out_port) == [2, 1]


@pytest.mark.parametrize(
    "cls, stage, label",
    [
        (VirtualChannelAllocator, "next1", "VA1 arbiter (1, 0)"),
        (VirtualChannelAllocator, "next2", "VA2 arbiter (1, 0)"),
        (SwitchAllocator, "next1", "SA1 arbiter 2"),
        (SwitchAllocator, "next2", "SA2 arbiter 2"),
    ],
)
def test_check_sane_audits_pointer_lists(cls, stage, label):
    alloc = cls(3, 2)
    assert alloc.check_sane() is None
    pointers = getattr(alloc, stage)
    pointers[2] = len(pointers) + 7
    problem = alloc.check_sane()
    assert problem is not None and problem.startswith(label)
    pointers[2] = -1
    assert "outside" in alloc.check_sane()
    pointers[2] = 0
    assert alloc.check_sane() is None


def _warmed_2db(cycles=200):
    config = make_2db()
    network = config.build_network()
    network.sanitizer = NetworkSanitizer(network)
    sim = Simulator(
        network,
        UniformRandomTraffic(config.num_nodes, 0.25, seed=5),
        warmup_cycles=0,
        measure_cycles=cycles,
        drain_cycles=4000,
    )
    for _ in range(cycles):
        sim._tick(generate=True)
    return network


def test_free_masks_mirror_owner_table_under_load():
    network = _warmed_2db()
    network.sanitizer.audit(network.cycle)
    for router in network.routers:
        for port, owners in enumerate(router.out_owner):
            for vc, owner in enumerate(owners):
                assert (owner is None) == bool(router.free_vcs[port] >> vc & 1)


def test_sanitizer_flags_corrupted_free_mask():
    network = _warmed_2db()
    router = network.routers[5]
    router.free_vcs[0] ^= 1
    with pytest.raises(SanityError) as excinfo:
        network.sanitizer.audit(network.cycle)
    assert excinfo.value.check == "vc-state"
    assert excinfo.value.node == 5 and excinfo.value.port == 0
    assert "free-VC mask" in str(excinfo.value)


def test_sanitizer_flags_corrupted_allocator_pointer():
    network = _warmed_2db()
    network.routers[3]._sa.next2[1] = 99
    with pytest.raises(SanityError) as excinfo:
        network.sanitizer.audit(network.cycle)
    assert excinfo.value.check == "allocator-state"
    assert excinfo.value.node == 3
    assert "SA2 arbiter 1" in str(excinfo.value)


def test_sanitizer_flags_stale_allowed_mask():
    network = _warmed_2db()
    unit = None
    for _ in range(50):
        unit = next(
            (
                (router, i)
                for router in network.routers
                for i, state in enumerate(router.vc_state)
                if state == _VA
            ),
            None,
        )
        if unit is not None:
            break
        network.step()
    assert unit is not None
    router, i = unit
    router.vc_allowed[i] = 0
    with pytest.raises(SanityError) as excinfo:
        network.sanitizer.audit(network.cycle)
    assert excinfo.value.check == "vc-state"
    assert "stale allowed-VC mask" in str(excinfo.value)
