"""Separable VA/SA allocator tests.

Requests name input VCs by their flat unit index ``port * num_vcs + vc``
and come with unit -> output port (and, for VA, unit -> allowed-VC mask)
lookups; free and allowed output VCs are bitmasks.
"""

from hypothesis import given, strategies as st

from repro.noc.allocator import SwitchAllocator, VirtualChannelAllocator


def _free_all(ports, vcs):
    return [(1 << vcs) - 1] * ports


def _va(va, out_port, free, allowed=None):
    """VA with every output VC allowed unless *allowed* says otherwise."""
    if allowed is None:
        allowed = dict.fromkeys(out_port, (1 << va.num_vcs) - 1)
    return va.allocate(list(out_port), out_port, allowed, free)


class TestVirtualChannelAllocator:
    def test_single_request_granted(self):
        va = VirtualChannelAllocator(num_ports=3, num_vcs=2)
        grants = _va(va, {0: 2}, _free_all(3, 2))
        assert grants == [(0, 2, 0)] or grants == [(0, 2, 1)]

    def test_no_free_vc_no_grant(self):
        va = VirtualChannelAllocator(3, 2)
        free = [0b11, 0b11, 0b00]
        assert _va(va, {0: 2}, free) == []

    def test_conflicting_requests_one_winner_per_out_vc(self):
        va = VirtualChannelAllocator(3, 1)
        grants = _va(va, {0: 2, 1: 2}, _free_all(3, 1))
        assert len(grants) == 1
        assert [(o, v) for _, o, v in grants] == [(2, 0)]

    def test_two_vcs_serve_two_requesters(self):
        va = VirtualChannelAllocator(3, 2)
        # Input VCs (0, 0) and (1, 0): units 0 and 2.
        grants = _va(va, {0: 2, 2: 2}, _free_all(3, 2))
        # With two free out VCs both input VCs may win (if stage-1 picks
        # differ) or at least one wins.
        assert 1 <= len(grants) <= 2
        granted_vcs = {vc for _, _, vc in grants}
        assert len(granted_vcs) == len(grants)  # no double-grant of a VC

    def test_fairness_over_rounds(self):
        va = VirtualChannelAllocator(2, 1)
        wins = {0: 0, 1: 0}
        for _ in range(50):
            grants = _va(va, {0: 1, 1: 1}, _free_all(2, 1))
            for unit, _, _ in grants:
                wins[unit] += 1
        assert abs(wins[0] - wins[1]) <= 2

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4), st.integers(0, 1), st.integers(0, 4)
            ),
            max_size=10,
            unique_by=lambda t: (t[0], t[1]),
        )
    )
    def test_property_grants_are_injective(self, triples):
        """No output VC is granted to two input VCs in one allocation."""
        va = VirtualChannelAllocator(5, 2)
        requests = {p * 2 + v: o for p, v, o in triples}
        grants = _va(va, requests, _free_all(5, 2))
        out_vcs = [(o, v) for _, o, v in grants]
        assert len(out_vcs) == len(set(out_vcs))
        for unit, out_port, _ in grants:
            assert requests.get(unit) == out_port


class TestSwitchAllocator:
    def test_single_request_granted(self):
        sa = SwitchAllocator(3, 2)
        grants = sa.allocate([1], {1: 2})  # input VC (0, 1)
        assert grants == [1]

    def test_one_grant_per_input_port(self):
        sa = SwitchAllocator(3, 2)
        grants = sa.allocate([0, 1], {0: 1, 1: 2})
        assert len(grants) == 1

    def test_one_grant_per_output_port(self):
        sa = SwitchAllocator(3, 2)
        grants = sa.allocate([0, 2], {0: 2, 2: 2})
        assert len(grants) == 1

    def test_disjoint_requests_all_granted(self):
        sa = SwitchAllocator(4, 2)
        out_port = {0: 2, 2: 3}
        assert sorted(sa.allocate([0, 2], out_port)) == [0, 2]

    def test_fairness_between_inputs(self):
        sa = SwitchAllocator(2, 1)
        wins = [0, 0]
        for _ in range(60):
            for unit in sa.allocate([0, 1], {0: 1, 1: 1}):
                wins[unit] += 1
        assert abs(wins[0] - wins[1]) <= 2

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 1), st.integers(0, 4)),
            max_size=12,
            unique_by=lambda t: (t[0], t[1]),
        )
    )
    def test_property_crossbar_constraint(self, triples):
        """At most one grant per input port and per output port."""
        sa = SwitchAllocator(5, 2)
        out_of = {p * 2 + v: o for p, v, o in triples}
        grants = sa.allocate(sorted(out_of), out_of)
        in_ports = [unit // 2 for unit in grants]
        out_ports = [out_of[unit] for unit in grants]
        assert len(in_ports) == len(set(in_ports))
        assert len(out_ports) == len(set(out_ports))
        for unit in grants:
            assert unit in out_of
