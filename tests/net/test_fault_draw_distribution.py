"""The keyed fault draws are the distribution the plan states.

ISSUE 17 replaced one hash plus one generator seeding per *rule* by one
BLAKE2b digest per *connection*, rule ``i`` reading word ``i`` of it.
That moved which connections fault (another realisation of the same
plan); these tests say what may not move: every rule's marginal rate
under first-match-wins, independence between the rules of one
connection and between consecutive connections, the second digest block
of a plan with more than eight rules, and process independence.

Everything here is deterministic — fixed seeds, fixed domains — so a
bound of four standard deviations is a fixed pass or a fixed fail, never
a flake.
"""

import subprocess
import sys
from collections import Counter
from math import sqrt
from pathlib import Path

import repro
from repro.net import faults
from repro.net.faults import FaultKind, FaultPlan

N = 40_000
DOMAINS = [f"site{number:06d}.first.alexa" for number in range(400)]
SRC = str(Path(repro.__file__).resolve().parent.parent)


def draws(plan, domains=DOMAINS, conns=N // len(DOMAINS)):
    """One uncapped session; ``len(domains) * conns`` connections."""
    session = plan.session()
    return [
        session.draw(domain, 443, conn_index)
        for domain in domains
        for conn_index in range(1, conns + 1)
    ]


def assert_rate(count, n, p):
    sigma = sqrt(n * p * (1 - p))
    assert abs(count - n * p) <= 4 * sigma, (count, n * p, sigma)


class TestMarginals:
    def test_first_match_wins_rates(self):
        plan = FaultPlan.parse(
            "refuse:0.1,reset:0.06,stall(30):0.05,truncate(400):0.05", seed=5
        )
        counts = Counter(s.kind for s in draws(plan) if s is not None)
        survive = 1.0
        for rule in plan.rules:
            assert_rate(counts[rule.kind], N, survive * rule.probability)
            survive *= 1 - rule.probability

    def test_ninth_and_tenth_rule_read_a_second_digest(self, monkeypatch):
        blocks = Counter()
        real = faults._draw_words

        def counting(seed, domain, port, conn_index, block):
            blocks[block] += 1
            return real(seed, domain, port, conn_index, block)

        monkeypatch.setattr(faults, "_draw_words", counting)
        # Ten rules at 0.1; after_bytes tells them apart.
        plan = FaultPlan.parse(
            ",".join(f"blackhole({index}):0.1" for index in range(10)), seed=5
        )
        counts = Counter(s.rule.after_bytes for s in draws(plan) if s is not None)
        for index in range(10):
            assert_rate(counts[index], N, 0.9**index * 0.1)
        # One digest a connection, a second only for those that got
        # past eight rules.
        assert blocks[0] == N
        assert blocks[1] == N - sum(counts[index] for index in range(8))
        assert set(blocks) == {0, 1}

    def test_second_block_alone_when_the_first_eight_do_not_match(self):
        spec = ",".join(["refuse@*.elsewhere:0.5"] * 8 + ["reset:0.2"])
        outcomes = draws(FaultPlan.parse(spec, seed=5))
        assert_rate(sum(s is not None for s in outcomes), N, 0.2)

    def test_certain_rules_compute_no_digest(self, monkeypatch):
        def forbidden(*key):
            raise AssertionError(f"digest computed for {key}")

        monkeypatch.setattr(faults, "_draw_words", forbidden)
        session = FaultPlan.parse("refuse@*.bad,stall(30):1.0x2,truncate").session()
        kinds = [session.draw("a.test", 443, i).kind for i in range(1, 5)]
        assert kinds == [FaultKind.STALL] * 2 + [FaultKind.TRUNCATE] * 2
        assert session.draw("x.bad", 443, 5).kind is FaultKind.REFUSE


class TestIndependence:
    def test_rules_of_one_connection_are_independent(self):
        # Perfectly correlated words would make the second rule fire on
        # none (equal words) or half (complementary) of the connections.
        outcomes = draws(FaultPlan.parse("refuse:0.5,reset:0.5", seed=5))
        second = sum(s is not None and s.kind is FaultKind.RESET for s in outcomes)
        assert_rate(second, N, 0.25)

    def test_consecutive_connections_are_uncorrelated(self):
        plan = FaultPlan.parse("refuse:0.1,reset:0.06,stall(30):0.05", seed=5)
        hit = [float(s is not None) for s in draws(plan, ["one.test"], N)]
        mean = sum(hit) / N
        variance = sum((x - mean) ** 2 for x in hit)
        lag1 = sum((a - mean) * (b - mean) for a, b in zip(hit, hit[1:]))
        assert abs(lag1 / variance) <= 4 / sqrt(N)


class TestCapsAndGlobs:
    def test_capped_probabilistic_rule_stops_at_its_cap_per_session(self):
        plan = FaultPlan.parse("refuse@*.test:0.5x3,reset@*.other:0.5", seed=5)
        for _ in range(2):  # a fresh session starts from zero again
            session = plan.session()
            outcomes = [session.draw("a.test", 443, i) for i in range(1, 101)]
            assert [s.kind for s in outcomes if s is not None] == [
                FaultKind.REFUSE
            ] * 3

    def test_spent_rule_leaves_the_next_rule_its_own_rate(self):
        session = FaultPlan.parse("refuse:0.5x3,reset:0.2", seed=5).session()
        kinds = Counter(
            s.kind
            for s in (session.draw("a.test", 443, i) for i in range(1, N + 1))
            if s is not None
        )
        assert kinds[FaultKind.REFUSE] == 3
        assert_rate(kinds[FaultKind.RESET], N, 0.2)


SPEC = "refuse:0.1,reset:0.06,stall(30):0.05,blackhole:0.04"
CHILD = f"""
from repro.net.faults import FaultPlan
session = FaultPlan.parse({SPEC!r}, seed=5).session()
for conn_index in range(1, 201):
    state = session.draw("site000007.first.alexa", 443, conn_index)
    print("-" if state is None else state.kind.value)
"""


def test_draws_do_not_depend_on_the_process():
    session = FaultPlan.parse(SPEC, seed=5).session()
    expected = []
    for conn_index in range(1, 201):
        state = session.draw("site000007.first.alexa", 443, conn_index)
        expected.append("-" if state is None else state.kind.value)
    assert len(set(expected)) > 2
    for hash_seed in ("1", "2"):
        printed = subprocess.run(
            [sys.executable, "-c", CHILD],
            env={"PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout.split()
        assert printed == expected, hash_seed
