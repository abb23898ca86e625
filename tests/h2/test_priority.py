"""Priority tree (RFC 7540 §5.3) — the structure Algorithm 1 probes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.h2.errors import ProtocolError
from repro.h2.priority import PriorityTree, SelfDependencyError
from tests.support.readers import (
    ancestors_of,
    children_of,
    parent_of,
    unshadowed,
    weight_of,
)


def build_paper_tree() -> tuple[PriorityTree, dict[str, int]]:
    """Table I: A <- root; B, C, D <- A; E <- B; F <- D (weight 1)."""
    tree = PriorityTree()
    ids = {"A": 1, "B": 3, "C": 5, "D": 7, "E": 9, "F": 11}
    tree.insert(ids["A"], 0, 1)
    tree.insert(ids["B"], ids["A"], 1)
    tree.insert(ids["C"], ids["A"], 1)
    tree.insert(ids["D"], ids["A"], 1)
    tree.insert(ids["E"], ids["B"], 1)
    tree.insert(ids["F"], ids["D"], 1)
    return tree, ids


class TestInsert:
    def test_default_parent_is_root(self):
        tree = PriorityTree()
        tree.insert(1)
        assert parent_of(tree, 1) == 0

    def test_dependency_chain(self):
        tree, ids = build_paper_tree()
        assert parent_of(tree, ids["E"]) == ids["B"]
        assert parent_of(tree, ids["B"]) == ids["A"]
        assert parent_of(tree, ids["A"]) == 0
        assert tree.depth_of(ids["E"]) == 3

    def test_unknown_parent_attaches_to_root(self):
        # §5.3.1: dependency on a stream not in the tree -> root.
        tree = PriorityTree()
        tree.insert(5, depends_on=99)
        assert parent_of(tree, 5) == 0

    def test_duplicate_insert_rejected(self):
        tree = PriorityTree()
        tree.insert(1)
        with pytest.raises(ProtocolError):
            tree.insert(1)

    def test_self_dependency_raises(self):
        tree = PriorityTree()
        with pytest.raises(SelfDependencyError):
            tree.insert(5, depends_on=5)

    @pytest.mark.parametrize("weight", [0, 257, -1])
    def test_invalid_weight_rejected(self, weight):
        tree = PriorityTree()
        with pytest.raises(ProtocolError):
            tree.insert(1, weight=weight)

    def test_exclusive_insert_adopts_siblings(self):
        tree = PriorityTree()
        tree.insert(1)
        tree.insert(3)
        tree.insert(5, depends_on=0, exclusive=True)
        assert parent_of(tree, 5) == 0
        assert sorted(children_of(tree, 5)) == [1, 3]
        assert children_of(tree, 0) == [5]

    def test_ancestors(self):
        tree, ids = build_paper_tree()
        assert ancestors_of(tree, ids["E"]) == [ids["B"], ids["A"], 0]


class TestReprioritize:
    def test_simple_move(self):
        tree, ids = build_paper_tree()
        tree.reprioritize(ids["E"], depends_on=ids["C"], weight=1)
        assert parent_of(tree, ids["E"]) == ids["C"]
        assert children_of(tree, ids["B"]) == []

    def test_weight_change(self):
        tree, ids = build_paper_tree()
        tree.reprioritize(ids["B"], depends_on=ids["A"], weight=200)
        assert weight_of(tree, ids["B"]) == 200

    def test_unknown_stream_is_inserted(self):
        tree = PriorityTree()
        tree.reprioritize(7, depends_on=0, weight=42)
        assert 7 in tree
        assert weight_of(tree, 7) == 42

    def test_section_533_descendant_move_non_exclusive(self):
        """Moving A under its own descendant D hoists D first (§5.3.3)."""
        tree, ids = build_paper_tree()
        tree.reprioritize(ids["A"], depends_on=ids["D"], weight=16, exclusive=False)
        assert parent_of(tree, ids["D"]) == 0
        assert parent_of(tree, ids["A"]) == ids["D"]
        # F stays with D; B and C stay with A.
        assert sorted(children_of(tree, ids["D"])) == sorted([ids["F"], ids["A"]])
        assert sorted(children_of(tree, ids["A"])) == sorted([ids["B"], ids["C"]])

    def test_section_533_descendant_move_exclusive(self):
        """The paper's Fig. 1 sub-figure (2): exclusive move of A under B."""
        tree, ids = build_paper_tree()
        tree.reprioritize(ids["A"], depends_on=ids["B"], weight=1, exclusive=True)
        # B is hoisted to A's old parent (the root)...
        assert parent_of(tree, ids["B"]) == 0
        # ...A becomes B's only child and adopts B's children (E).
        assert children_of(tree, ids["B"]) == [ids["A"]]
        assert sorted(children_of(tree, ids["A"])) == sorted(
            [ids["C"], ids["D"], ids["E"]]
        )
        assert parent_of(tree, ids["F"]) == ids["D"]

    def test_fig1_non_exclusive_variant(self):
        """The paper's Fig. 1 sub-figure (3): same move, exclusive=False."""
        tree, ids = build_paper_tree()
        tree.reprioritize(ids["A"], depends_on=ids["B"], weight=1, exclusive=False)
        assert parent_of(tree, ids["B"]) == 0
        assert sorted(children_of(tree, ids["B"])) == sorted([ids["E"], ids["A"]])
        assert sorted(children_of(tree, ids["A"])) == sorted([ids["C"], ids["D"]])

    def test_algorithm1_reprioritisation_sequence(self):
        """The exact PRIORITY frames the probe sends (D -> A -> {B,C,F})."""
        tree, ids = build_paper_tree()
        tree.reprioritize(ids["A"], depends_on=ids["D"], weight=16, exclusive=True)
        tree.reprioritize(ids["E"], depends_on=ids["C"], weight=16, exclusive=False)
        assert parent_of(tree, ids["D"]) == 0
        assert children_of(tree, ids["D"]) == [ids["A"]]
        assert sorted(children_of(tree, ids["A"])) == sorted(
            [ids["B"], ids["C"], ids["F"]]
        )
        assert children_of(tree, ids["C"]) == [ids["E"]]

    def test_self_dependency_raises(self):
        tree, ids = build_paper_tree()
        with pytest.raises(SelfDependencyError):
            tree.reprioritize(ids["A"], depends_on=ids["A"])


class TestRemove:
    def test_children_move_to_grandparent(self):
        tree, ids = build_paper_tree()
        tree.remove(ids["B"])
        assert parent_of(tree, ids["E"]) == ids["A"]
        assert ids["B"] not in tree

    def test_removed_weight_redistributed(self):
        tree = PriorityTree()
        tree.insert(1, 0, weight=100)
        tree.insert(3, 1, weight=10)
        tree.insert(5, 1, weight=30)
        tree.remove(1)
        # Children split the parent's 100 in a 1:3 ratio.
        assert weight_of(tree, 3) == 25
        assert weight_of(tree, 5) == 75

    def test_remove_unknown_is_noop(self):
        tree = PriorityTree()
        tree.remove(99)

    def test_eviction_bounds_tree_size(self):
        tree = PriorityTree(max_tracked_streams=10)
        for i in range(1, 60, 2):
            tree.insert(i, depends_on=max(0, i - 2))
        assert len(tree) <= 11


class TestAllocation:
    def test_single_ready_stream_gets_everything(self):
        tree, ids = build_paper_tree()
        shares = tree.allocation({ids["C"]})
        assert shares == {ids["C"]: 1.0}

    def test_siblings_share_by_weight(self):
        tree = PriorityTree()
        tree.insert(1, 0, weight=10)
        tree.insert(3, 0, weight=30)
        shares = tree.allocation({1, 3})
        assert shares[1] == pytest.approx(0.25)
        assert shares[3] == pytest.approx(0.75)

    def test_ready_ancestor_shadows_descendant(self):
        tree, ids = build_paper_tree()
        shares = tree.allocation({ids["A"], ids["B"]})
        assert shares[ids["A"]] == pytest.approx(1.0)
        assert shares[ids["B"]] == 0.0

    def test_blocked_parent_passes_share_to_children(self):
        # A not ready: B and E's subtree compete with C and D.
        tree, ids = build_paper_tree()
        shares = tree.allocation({ids["E"], ids["C"], ids["D"]})
        assert shares[ids["E"]] == pytest.approx(1 / 3)
        assert shares[ids["C"]] == pytest.approx(1 / 3)
        assert shares[ids["D"]] == pytest.approx(1 / 3)

    def test_unshadowed_order(self):
        tree = PriorityTree()
        tree.insert(1, 0, weight=200)
        tree.insert(3, 0, weight=10)
        assert unshadowed(tree, {1, 3}) == [1, 3]

    def test_soft_allocation_gives_everyone_a_share(self):
        tree, ids = build_paper_tree()
        ready = set(ids.values())
        shares = tree.allocation(ready, shadowing=False)
        assert all(shares[sid] > 0 for sid in ready)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_soft_allocation_parent_biased(self):
        tree, ids = build_paper_tree()
        ready = set(ids.values())
        shares = tree.allocation(ready, shadowing=False)
        assert shares[ids["A"]] > shares[ids["B"]]
        assert shares[ids["B"]] > shares[ids["E"]]

    def test_strict_shares_sum_to_one(self):
        tree, ids = build_paper_tree()
        ready = {ids["B"], ids["C"], ids["F"]}
        shares = tree.allocation(ready)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_no_ready_streams(self):
        tree, _ = build_paper_tree()
        assert tree.allocation(set()) == {}


@st.composite
def _tree_operations(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "reprioritize", "remove"]),
                st.integers(1, 30),
                st.integers(0, 30),
                st.integers(1, 256),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    return ops


class TestInvariants:
    @settings(max_examples=60)
    @given(_tree_operations())
    def test_tree_is_always_acyclic_and_consistent(self, ops):
        tree = PriorityTree()
        for op, sid, dep, weight, exclusive in ops:
            try:
                if op == "insert":
                    tree.insert(sid, dep, weight, exclusive)
                elif op == "reprioritize":
                    tree.reprioritize(sid, dep, weight, exclusive)
                else:
                    tree.remove(sid)
            except (SelfDependencyError, ProtocolError):
                continue
            # Every tracked stream walks up to the root without cycles.
            for stream_id in list(tree._nodes):
                if stream_id == 0:
                    continue
                ancestors = ancestors_of(tree, stream_id)
                assert ancestors[-1] == 0
                assert stream_id not in ancestors
                assert len(ancestors) == len(set(ancestors))
            # Parent/child pointers agree.
            for stream_id, node in tree._nodes.items():
                for child in node.children:
                    assert child.parent is node

    @settings(max_examples=40)
    @given(_tree_operations(), st.sets(st.integers(1, 30), max_size=10))
    def test_positive_shares_sum_to_one(self, ops, ready):
        tree = PriorityTree()
        for op, sid, dep, weight, exclusive in ops:
            try:
                if op == "insert":
                    tree.insert(sid, dep, weight, exclusive)
                elif op == "reprioritize":
                    tree.reprioritize(sid, dep, weight, exclusive)
                else:
                    tree.remove(sid)
            except (SelfDependencyError, ProtocolError):
                continue
        present_ready = {sid for sid in ready if sid in tree}
        for shadowing in (True, False):
            shares = tree.allocation(present_ready, shadowing=shadowing)
            assert set(shares) == present_ready
            if present_ready:
                assert sum(shares.values()) == pytest.approx(1.0)
