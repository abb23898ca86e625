"""Stream prioritisation (RFC 7540 §5.3).

The dependency tree is the structure Algorithm 1 of the paper probes:
H2Scope plants a known tree (Table I), mutates it with PRIORITY frames
(Table II / the §5.3.3 example) and infers from the order of response
DATA frames whether the server honoured it.

Stream 0 is the virtual root.  Key operations:

* :meth:`PriorityTree.insert` — dependency from HEADERS (may be
  exclusive);
* :meth:`PriorityTree.reprioritize` — PRIORITY frame semantics,
  including the §5.3.3 "moving a dependency" dance where the new parent
  is first relocated if it is a descendant of the moved stream;
* :meth:`PriorityTree.remove` — stream closure: children are
  redistributed to the grandparent with proportionally reduced weights
  (§5.3.4);
* :meth:`PriorityTree.allocation` — the resource-share computation a
  priority-respecting server uses: a ready stream *shadows* its ready
  descendants, and ready sibling subtrees share their parent's
  bandwidth proportionally to weight.

Self-dependency (a stream depending on itself) is detected and raised
as :class:`SelfDependencyError`; how an endpoint *reacts* (RST_STREAM
per the RFC, GOAWAY, or ignoring it) is the configurable server
behaviour the paper's Table III documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.h2.constants import DEFAULT_WEIGHT, MAX_WEIGHT, MIN_WEIGHT
from repro.h2.errors import H2StreamError, ProtocolError


#: The share of its subtree's bandwidth a ready stream keeps under the
#: soft scheduler (``allocation(shadowing=False)``); ready descendants
#: share the rest.
PARENT_BIAS = 0.75


class SelfDependencyError(H2StreamError):
    """A stream was made to depend on itself (RFC 7540 §5.3.1)."""


@dataclass
class _Node:
    stream_id: int
    weight: int = DEFAULT_WEIGHT
    parent: "_Node | None" = None
    children: list["_Node"] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Node({self.stream_id}, w={self.weight})"


class PriorityTree:
    """The dependency tree of one HTTP/2 connection."""

    def __init__(self, max_tracked_streams: int = 1000):
        self._root = _Node(stream_id=0, weight=0)
        self._nodes: dict[int, _Node] = {0: self._root}
        #: Cap on tracked nodes: defends against the algorithmic-
        #: complexity attacks the paper's Discussion warns about.
        self.max_tracked_streams = max_tracked_streams
        #: Mutation counter (inserts + reprioritisations + removals);
        #: the priority-churn attack study reads this as its work metric.
        self.operations = 0

    def __del__(self) -> None:
        # parent <-> children is the only cycle; a tree dies with its
        # connection, so cut the up-edges here (DESIGN §8).
        for node in self._nodes.values():
            node.parent = None

    # -- queries ----------------------------------------------------------

    def __contains__(self, stream_id: int) -> bool:
        return stream_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes) - 1  # exclude the virtual root

    def depth_of(self, stream_id: int) -> int:
        node = self._node(stream_id)
        depth = 0
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    def height(self) -> int:
        """Depth of the deepest tracked stream (0 for an empty tree)."""
        levels, frontier = 0, self._root.children
        while frontier:
            levels += 1
            frontier = [child for node in frontier for child in node.children]
        return levels

    # -- mutations ---------------------------------------------------------

    def insert(
        self,
        stream_id: int,
        depends_on: int = 0,
        weight: int = DEFAULT_WEIGHT,
        exclusive: bool = False,
    ) -> None:
        """Add a new stream to the tree (HEADERS-frame semantics).

        A dependency on an unknown stream attaches to the root with
        default priority, as §5.3.1 prescribes for streams that are not
        in the tree.
        """
        self._check_weight(weight)
        if stream_id == depends_on:
            raise SelfDependencyError(
                f"stream {stream_id} cannot depend on itself", stream_id=stream_id
            )
        if stream_id in self._nodes:
            raise ProtocolError(f"stream {stream_id} already in priority tree")
        if len(self._nodes) > self.max_tracked_streams:
            self._evict_leaf()

        self.operations += 1
        parent = self._nodes.get(depends_on)
        if parent is None:
            parent = self._root
        node = _Node(stream_id=stream_id, weight=weight, parent=parent)
        if exclusive:
            self._adopt_children(node, parent)
        parent.children.append(node)
        self._nodes[stream_id] = node

    def reprioritize(
        self,
        stream_id: int,
        depends_on: int = 0,
        weight: int = DEFAULT_WEIGHT,
        exclusive: bool = False,
    ) -> None:
        """Apply a PRIORITY frame (§5.3.3).

        If the stream is unknown it is inserted (PRIORITY may arrive for
        idle streams).  If the new parent is a descendant of the moved
        stream, the parent is first relocated to the moved stream's old
        position, preserving its weight.
        """
        self._check_weight(weight)
        if stream_id == depends_on:
            raise SelfDependencyError(
                f"stream {stream_id} cannot depend on itself", stream_id=stream_id
            )
        node = self._nodes.get(stream_id)
        if node is None:
            self.insert(stream_id, depends_on, weight, exclusive)
            return
        self.operations += 1

        new_parent = self._nodes.get(depends_on)
        if new_parent is None:
            new_parent = self._root

        if self._is_descendant(of=node, candidate=new_parent):
            # §5.3.3: move the new parent up to the moved stream's old
            # parent first, keeping its weight.
            self._detach(new_parent)
            old_parent = node.parent
            assert old_parent is not None
            new_parent.parent = old_parent
            old_parent.children.append(new_parent)

        self._detach(node)
        node.weight = weight
        node.parent = new_parent
        if exclusive:
            self._adopt_children(node, new_parent)
        new_parent.children.append(node)

    def remove(self, stream_id: int) -> None:
        """Remove a closed stream (§5.3.4).

        Its children are moved to its parent; their weights are scaled
        by the closed stream's weight relative to its siblings' total,
        so that the subtree keeps roughly its previous share.
        """
        node = self._nodes.pop(stream_id, None)
        if node is None:
            return
        self.operations += 1
        parent = node.parent
        assert parent is not None
        self._detach(node)
        total = sum(child.weight for child in node.children) or 1
        for child in node.children:
            child.parent = parent
            child.weight = max(
                MIN_WEIGHT, round(child.weight * node.weight / total)
            )
            parent.children.append(child)
        node.children = []

    # -- scheduling ---------------------------------------------------------

    def allocation(
        self, ready: set[int], shadowing: bool = True
    ) -> dict[int, float]:
        """Fractional bandwidth shares for the ``ready`` streams.

        With ``shadowing=True`` (the semantics of a strictly priority-
        respecting server such as H2O or nghttpd):

        * a ready stream consumes its subtree's entire share — ready
          descendants are *shadowed* (they wait for their ancestor);
        * among sibling subtrees that contain ready streams, the
          parent's share is split proportionally to the siblings'
          weights;
        * subtrees without ready streams get nothing.

        With ``shadowing=False`` the scheduler is a softer weighted fair
        queue: a ready stream keeps :data:`PARENT_BIAS` of its subtree's
        share and cedes the rest to ready descendants.  Every ready
        stream starts immediately, but ancestors still *finish* first —
        the §V-E1 population behaviour where far more sites satisfy the
        priority rules by last DATA frame than by first.

        Returns a map from ready stream id to share in [0, 1]; positive
        shares sum to 1 whenever any stream is ready.
        """
        shares: dict[int, float] = {}
        if shadowing:
            self._allocate(self._root, 1.0, ready, shares)
        else:
            self._allocate_soft(self._root, 1.0, ready, shares)
        return shares

    def _allocate_soft(
        self,
        node: _Node,
        share: float,
        ready: set[int],
        shares: dict[int, float],
    ) -> None:
        live_children = [
            child for child in node.children if self._subtree_has_ready(child, ready)
        ]
        child_share = share
        if node.stream_id != 0 and node.stream_id in ready:
            if live_children:
                shares[node.stream_id] = share * PARENT_BIAS
                child_share = share * (1.0 - PARENT_BIAS)
            else:
                shares[node.stream_id] = share
                child_share = 0.0
        if not live_children or child_share <= 0.0:
            return
        total_weight = sum(child.weight for child in live_children)
        for child in live_children:
            self._allocate_soft(
                child, child_share * child.weight / total_weight, ready, shares
            )

    def _allocate(
        self,
        node: _Node,
        share: float,
        ready: set[int],
        shares: dict[int, float],
    ) -> None:
        if node.stream_id != 0 and node.stream_id in ready:
            shares[node.stream_id] = share
            # Shadow every ready descendant.
            for descendant in self._iter_subtree(node):
                if descendant is not node and descendant.stream_id in ready:
                    shares[descendant.stream_id] = 0.0
            return
        live_children = [
            child for child in node.children if self._subtree_has_ready(child, ready)
        ]
        total_weight = sum(child.weight for child in live_children)
        for child in live_children:
            self._allocate(child, share * child.weight / total_weight, ready, shares)

    def _subtree_has_ready(self, node: _Node, ready: set[int]) -> bool:
        return any(n.stream_id in ready for n in self._iter_subtree(node))

    def _iter_subtree(self, node: _Node):
        stack = [node]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(current.children)

    # -- internals ----------------------------------------------------------

    def _node(self, stream_id: int) -> _Node:
        try:
            return self._nodes[stream_id]
        except KeyError:
            raise KeyError(f"stream {stream_id} not in priority tree") from None

    @staticmethod
    def _check_weight(weight: int) -> None:
        if not MIN_WEIGHT <= weight <= MAX_WEIGHT:
            raise ProtocolError(f"weight {weight} outside [{MIN_WEIGHT}, {MAX_WEIGHT}]")

    def _detach(self, node: _Node) -> None:
        if node.parent is not None:
            node.parent.children.remove(node)
            node.parent = None

    def _adopt_children(self, node: _Node, parent: _Node) -> None:
        """Exclusive insertion: ``node`` adopts all of ``parent``'s children."""
        for child in list(parent.children):
            child.parent = node
            node.children.append(child)
        parent.children.clear()

    def _is_descendant(self, of: _Node, candidate: _Node) -> bool:
        """True if ``candidate`` lies in the subtree rooted at ``of``."""
        current: _Node | None = candidate
        while current is not None:
            if current is of:
                return True
            current = current.parent
        return False

    def _evict_leaf(self) -> None:
        """Drop the deepest leaf to bound memory (anti-DoS measure)."""
        deepest: _Node | None = None
        deepest_depth = -1
        for node in self._nodes.values():
            if node.stream_id == 0 or node.children:
                continue
            depth = self.depth_of(node.stream_id)
            if depth > deepest_depth:
                deepest, deepest_depth = node, depth
        if deepest is not None:
            self.remove(deepest.stream_id)
