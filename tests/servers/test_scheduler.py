"""DATA-frame scheduler behaviour: fcfs vs wfq vs strict.

The scheduler is the axis §V-E measures; these tests pin down the
observable differences directly at the frame level.
"""

from repro.h2 import events as ev
from repro.h2.frames import PriorityData
from repro.net.clock import Simulation
from repro.net.transport import LinkProfile, Network
from repro.servers.profiles import ServerProfile
from repro.servers.site import Site, deploy_site
from repro.servers.website import Resource, Website
from tests.conftest import sim_session


def deploy(scheduler_mode: str, n_objects: int = 3, size: int = 120_000):
    website = Website()
    for i in range(n_objects):
        website.add(Resource(f"/obj{i}.bin", size, "application/octet-stream"))
    sim = Simulation()
    network = Network(sim, seed=4)
    site = Site(
        domain="sched.test",
        profile=ServerProfile(
            scheduler_mode=scheduler_mode,
            processing_delay=0.001,
            processing_jitter=0.0,
        ),
        website=website,
        link=LinkProfile(rtt=0.01, bandwidth=100e6),
    )
    deploy_site(network, site)
    return network


def download_all(network, priorities=None, n_objects: int = 3):
    # Default 65,535-octet windows with auto replenishment: the server
    # is paced by flow control, so concurrent tasks genuinely coexist
    # and the scheduler's choices are visible in the frame order.
    client = sim_session(network).client(
        "sched.test",
        auto_window_update=True,
    )
    assert client.establish_h2()
    sids = []
    for i in range(n_objects):
        prio = priorities[i] if priorities else None
        sids.append(client.request(f"/obj{i}.bin", priority=prio))
    client.wait_for(
        lambda: set(sids)
        <= {
            te.event.stream_id
            for te in client.events
            if isinstance(te.event, ev.StreamEnded)
        },
        timeout=60,
    )
    order = [
        te.event.stream_id
        for te in client.events_of(ev.DataReceived)
        if te.event.data
    ]
    return sids, order


def completion_order(sids, order):
    last = {sid: max(i for i, s in enumerate(order) if s == sid) for sid in sids}
    return sorted(sids, key=lambda sid: last[sid])


class TestFcfs:
    def test_round_robin_interleaves_equally(self):
        network = deploy("fcfs")
        sids, order = download_all(network)
        # Chunks alternate between streams once all are ready.
        transitions = sum(1 for a, b in zip(order, order[1:]) if a != b)
        assert transitions > len(order) * 0.5

    def test_ignores_priorities(self):
        network = deploy("fcfs")
        # Give the LAST request the strongest priority.
        priorities = [
            PriorityData(depends_on=0, weight=1),
            PriorityData(depends_on=0, weight=1),
            PriorityData(depends_on=0, weight=256),
        ]
        sids, order = download_all(network, priorities)
        finished = completion_order(sids, order)
        # The heavy stream finishes last or mid — not strictly first.
        assert finished[0] != sids[2] or finished == sids


class TestStrict:
    def test_weights_bias_completion_order(self):
        network = deploy("strict")
        priorities = [
            PriorityData(depends_on=0, weight=8),
            PriorityData(depends_on=0, weight=8),
            PriorityData(depends_on=0, weight=240),
        ]
        sids, order = download_all(network, priorities)
        finished = completion_order(sids, order)
        assert finished[0] == sids[2]

    def test_parent_shadows_child_completely(self):
        network = deploy("strict")
        client = sim_session(network).client(
            "sched.test", auto_window_update=True
        )
        assert client.establish_h2()
        parent = client.request(
            "/obj0.bin", priority=PriorityData(depends_on=0, weight=16)
        )
        child = client.request(
            "/obj1.bin", priority=PriorityData(depends_on=parent, weight=16)
        )
        client.wait_for(
            lambda: {parent, child}
            <= {
                te.event.stream_id
                for te in client.events
                if isinstance(te.event, ev.StreamEnded)
            },
            timeout=60,
        )
        order = [
            te.event.stream_id
            for te in client.events_of(ev.DataReceived)
            if te.event.data
        ]
        # Every parent chunk precedes every child chunk.
        first_child = order.index(child)
        assert parent not in order[first_child:]

    def test_equal_weights_share_fairly(self):
        network = deploy("strict")
        sids, order = download_all(network)
        transitions = sum(1 for a, b in zip(order, order[1:]) if a != b)
        assert transitions > len(order) * 0.5


class TestWfq:
    def test_everyone_starts_but_weights_rule_completion(self):
        network = deploy("wfq")
        priorities = [
            PriorityData(depends_on=0, weight=200),
            PriorityData(depends_on=0, weight=8),
            PriorityData(depends_on=0, weight=8),
        ]
        sids, order = download_all(network, priorities)
        # All three streams appear early in the frame order...
        first = {sid: order.index(sid) for sid in sids}
        assert max(first.values()) < 16
        # ...but the heavy stream completes first.
        finished = completion_order(sids, order)
        assert finished[0] == sids[0]

    def test_parent_bias_orders_chain_completion(self):
        network = deploy("wfq")
        client = sim_session(network).client(
            "sched.test", auto_window_update=True
        )
        assert client.establish_h2()
        parent = client.request(
            "/obj0.bin", priority=PriorityData(depends_on=0, weight=16)
        )
        child = client.request(
            "/obj1.bin", priority=PriorityData(depends_on=parent, weight=16)
        )
        client.wait_for(
            lambda: {parent, child}
            <= {
                te.event.stream_id
                for te in client.events
                if isinstance(te.event, ev.StreamEnded)
            },
            timeout=60,
        )
        order = [
            te.event.stream_id
            for te in client.events_of(ev.DataReceived)
            if te.event.data
        ]
        finished = completion_order([parent, child], order)
        assert finished[0] == parent
        # Unlike strict shadowing, the child transmits alongside.
        first_child = order.index(child)
        assert parent in order[first_child:]
