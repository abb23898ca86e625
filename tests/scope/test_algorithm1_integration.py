"""Algorithm 1 integration: the server really builds the paper's trees.

The probe tests assert verdicts; these assert the *mechanism* — after
H2Scope's frames, the server's dependency tree must be exactly the
paper's Fig. 1 structures.
"""

import pytest

from repro.h2 import events as ev
from repro.h2.constants import MAX_WINDOW_SIZE
from repro.h2.frames import PriorityData
from repro.net.clock import Simulation
from repro.net.transport import LinkProfile, Network
from repro.scope.client import BULK_TIMEOUT
from repro.scope.probes.priority import INITIAL_CONNECTION_WINDOW, probe_priority
from repro.scope.scanner import TESTBED_PLAN
from repro.servers.site import Site, deploy_site
from repro.servers.vendors import MCS, h2o, litespeed
from repro.servers.website import testbed_website
from tests.conftest import sim_session
from tests.support.readers import children_of, data_for, parent_of, weight_of


@pytest.fixture
def deployed():
    sim = Simulation()
    network = Network(sim, seed=1)
    site = Site(
        domain="alg1.test",
        profile=h2o(),
        website=testbed_website(),
        link=LinkProfile(rtt=0.02, bandwidth=50e6),
    )
    server = deploy_site(network, site)
    client = sim_session(network).client(
        "alg1.test", settings={4: MAX_WINDOW_SIZE}, auto_window_update=False
    )
    assert client.establish_h2()
    return network, server, client


def plant_table_one(client):
    """Send the six prioritised requests of Table I; returns label->id."""
    ids = {}
    dependency = {"A": None, "B": "A", "C": "A", "D": "A", "E": "B", "F": "D"}
    for index, label in enumerate("ABCDEF"):
        parent = dependency[label]
        ids[label] = client.request(
            f"/large/{index}.bin",
            priority=PriorityData(
                depends_on=ids[parent] if parent else 0, weight=1
            ),
        )
    client.backend.sleep(1.0)
    return ids


def server_tree(server):
    conn = server.connections[0].conn
    assert conn is not None
    return conn.priority_tree


class TestTableIPlanting:
    def test_server_builds_fig1_tree_1(self, deployed):
        network, server, client = deployed
        ids = plant_table_one(client)
        tree = server_tree(server)
        assert parent_of(tree, ids["A"]) == 0
        assert sorted(children_of(tree, ids["A"])) == sorted(
            [ids["B"], ids["C"], ids["D"]]
        )
        assert children_of(tree, ids["B"]) == [ids["E"]]
        assert children_of(tree, ids["D"]) == [ids["F"]]
        for label in "ABCDEF":
            assert weight_of(tree, ids[label]) == 1


class TestTableIIReprioritisation:
    def test_exclusive_priority_frame_gives_fig1_tree_2(self, deployed):
        """Table II row 1: A depends on B, exclusive -> Fig. 1 (2)."""
        network, server, client = deployed
        ids = plant_table_one(client)
        client.send_priority(ids["A"], depends_on=ids["B"], weight=1, exclusive=True)
        client.backend.sleep(1.0)
        tree = server_tree(server)
        assert parent_of(tree, ids["B"]) == 0
        assert children_of(tree, ids["B"]) == [ids["A"]]
        assert sorted(children_of(tree, ids["A"])) == sorted(
            [ids["C"], ids["D"], ids["E"]]
        )
        assert children_of(tree, ids["D"]) == [ids["F"]]

    def test_non_exclusive_priority_frame_gives_fig1_tree_3(self, deployed):
        """Table II row 2: A depends on B, non-exclusive -> Fig. 1 (3)."""
        network, server, client = deployed
        ids = plant_table_one(client)
        client.send_priority(ids["A"], depends_on=ids["B"], weight=1, exclusive=False)
        client.backend.sleep(1.0)
        tree = server_tree(server)
        assert parent_of(tree, ids["B"]) == 0
        assert sorted(children_of(tree, ids["B"])) == sorted([ids["E"], ids["A"]])
        assert sorted(children_of(tree, ids["A"])) == sorted([ids["C"], ids["D"]])


class TestWindowDepletionMechanism:
    def test_connection_window_blocks_all_streams(self, deployed):
        """§III-C: once the connection window is zero, no stream sends
        DATA even with huge per-stream windows."""
        network, server, client = deployed
        sid = client.request("/large/0.bin")
        client.wait_for(
            lambda: sum(
                te.event.flow_controlled_length
                for te in client.events_of(ev.DataReceived)
            )
            >= INITIAL_CONNECTION_WINDOW,
            timeout=30,
        )
        received = sum(
            te.event.flow_controlled_length
            for te in client.events_of(ev.DataReceived)
        )
        assert received == INITIAL_CONNECTION_WINDOW
        # Another request cannot receive anything either, although it
        # reached the server: h2o answers HEADERS with no window.
        other = client.request("/large/1.bin")
        network.sim.run(until=network.sim.now + 2.0)
        assert client.headers_for(other) is not None
        assert data_for(client, other) == b""

    def test_window_update_releases_everything(self, deployed):
        network, server, client = deployed
        sid = client.request("/large/0.bin")
        network.sim.run(until=network.sim.now + 2.0)
        client.send_window_update(0, MAX_WINDOW_SIZE - INITIAL_CONNECTION_WINDOW)
        client.wait_for(
            lambda: any(
                isinstance(te.event, ev.StreamEnded) and te.event.stream_id == sid
                for te in client.events
            ),
            timeout=60,
        )
        assert len(data_for(client, sid)) == testbed_website().get("/large/0.bin").size


class TestReleaseWait:
    def test_reset_planted_streams_end_the_wait(self):
        """With MAX_CONCURRENT_STREAMS = 1 the server refuses planted
        streams B-F with RST_STREAM and serves A alone; Algorithm 1's
        release wait ends once every planted stream has ended or been
        reset, not at ``BULK_TIMEOUT``."""
        profile = litespeed()
        profile = profile.clone(settings={**profile.settings, MCS: 1})
        network = Network(Simulation(), seed=1)
        site = Site(domain="mcs1.test", profile=profile, website=testbed_website())
        deploy_site(network, site)
        session = sim_session(network)
        result = probe_priority(
            session, site.domain, TESTBED_PLAN.test_paths, TESTBED_PLAN.depletion_paths
        )
        assert result.first_frame_order == ["A"]
        assert session.now < BULK_TIMEOUT / 4
