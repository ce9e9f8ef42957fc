"""A B+-tree with a pluggable key comparator.

One tree class serves all three index flavours — plaintext, DET equality,
and RND range — because, as the paper stresses, "the vast majority of
index processing ... remains unaffected by encryption": only the
comparator changes. Keys may be plaintext scalars or ciphertext envelopes;
values are heap :class:`~repro.sqlengine.storage.heap.RowId`s. Duplicate
keys are allowed (non-unique indexes) unless ``unique`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ConstraintError, SqlError
from repro.obs.latchprof import TimedLatch
from repro.obs.leakage import record_leak
from repro.obs.metrics import get_registry
from repro.sqlengine.index.comparators import KeyComparator
from repro.sqlengine.storage.heap import RowId

DEFAULT_ORDER = 32

# Shared across all trees: root-to-leaf node touches. Batched one inc per
# descent, so the hot search path pays a single counter update.
_nodes_visited = get_registry().counter(
    "index.nodes_visited", help="B+-tree nodes touched during descents"
)


@dataclass
class _Leaf:
    keys: list[object] = field(default_factory=list)
    rids: list[RowId] = field(default_factory=list)
    next: "_Leaf | None" = None

    is_leaf = True


@dataclass
class _Internal:
    # children[i] covers keys < keys[i]; children[-1] covers the rest.
    keys: list[object] = field(default_factory=list)
    children: list[object] = field(default_factory=list)

    is_leaf = False


class BPlusTree:
    """B+-tree keyed through an injected comparator."""

    def __init__(
        self,
        comparator: KeyComparator,
        order: int = DEFAULT_ORDER,
        unique: bool = False,
        leak_column: str | None = None,
    ):
        if order < 4:
            raise SqlError("B+-tree order must be at least 4")
        self.comparator = comparator
        self.order = order
        self.unique = unique
        # For indexes over encrypted columns: each descent's node touches
        # are an adversary-observable access pattern, charged per column.
        self._leak_column = leak_column
        # Batch-capable comparators (enclave-backed) pay a boundary crossing
        # per comparison: probe a whole node's keys in one compare_batch
        # ecall instead of O(log n) single-compare ecalls per node.
        self._batch_probe = bool(getattr(comparator, "batch_capable", False))
        self._root: _Leaf | _Internal = _Leaf()
        self._size = 0
        # Whole-tree latch: structure modifications (splits) invalidate
        # concurrent descents, so readers and writers both take it. The
        # comparator may call into the enclave gateway while held, which
        # is why the declared latch order puts btree above Enclave.
        self._latch = TimedLatch("repro.sqlengine.index.btree.BPlusTree._latch")

    def __len__(self) -> int:
        return self._size

    # -- search ------------------------------------------------------------

    def _find_leaf_for_search(self, key: object) -> _Leaf:
        # Descend via lower bound: a separator equal to the key may have
        # equal keys remaining in the left subtree (duplicates split across
        # leaves), so search starts at the leftmost candidate leaf and
        # walks right through the leaf chain.
        node = self._root
        visited = 1
        while not node.is_leaf:
            idx = self._lower_bound(node.keys, key)
            node = node.children[idx]
            visited += 1
        _nodes_visited.inc(visited)
        if self._leak_column is not None:
            record_leak(self._leak_column, "index_touch", count=visited)
        return node  # type: ignore[return-value]

    def _lower_bound(self, keys: list[object], key: object) -> int:
        """First index i with keys[i] >= key."""
        if self._batch_probe and len(keys) > 1:
            # One batched probe against the whole node. outcome[i] is
            # compare(key, keys[i]); keys[i] >= key ⇔ outcome[i] <= 0.
            # The extra outcomes this reveals are already determined by
            # binary-search leakage plus the build-time total order
            # (see docs/PERF.md), so the adversary learns nothing new.
            outcomes = self.comparator.compare_one_to_many(key, keys)
            for i, outcome in enumerate(outcomes):
                if outcome <= 0:
                    return i
            return len(keys)
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.comparator.compare(keys[mid], key) < 0:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _upper_bound(self, keys: list[object], key: object) -> int:
        """First index i with keys[i] > key."""
        if self._batch_probe and len(keys) > 1:
            # keys[i] > key ⇔ compare(key, keys[i]) < 0.
            outcomes = self.comparator.compare_one_to_many(key, keys)
            for i, outcome in enumerate(outcomes):
                if outcome < 0:
                    return i
            return len(keys)
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.comparator.compare(keys[mid], key) <= 0:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def search_eq(self, key: object) -> list[RowId]:
        """All rids whose key equals ``key``."""
        with self._latch:
            leaf = self._find_leaf_for_search(key)
            results: list[RowId] = []
            idx = self._lower_bound(leaf.keys, key)
            while True:
                while idx < len(leaf.keys):
                    c = self.comparator.compare(leaf.keys[idx], key)
                    if c == 0:
                        results.append(leaf.rids[idx])
                        idx += 1
                    elif c > 0:
                        return results
                    else:  # pragma: no cover - lower_bound guarantees >= key
                        idx += 1
                if leaf.next is None:
                    return results
                leaf = leaf.next
                idx = 0

    def range_scan(
        self,
        low: object | None = None,
        high: object | None = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[object, RowId]]:
        """Yield (key, rid) pairs in key order within [low, high]."""
        if not self.comparator.supports_range:
            raise SqlError(
                "range scans are not supported on this index "
                "(ciphertext order is not plaintext order)"
            )
        # Materialize under the latch, yield outside: leaf-chain walks must
        # not interleave with splits, but consumers may be slow.
        results: list[tuple[object, RowId]] = []
        with self._latch:
            if low is None:
                leaf = self._leftmost_leaf()
                idx = 0
            else:
                leaf = self._find_leaf_for_search(low)
                idx = (
                    self._lower_bound(leaf.keys, low)
                    if low_inclusive
                    else self._upper_bound(leaf.keys, low)
                )
            while leaf is not None:
                while idx < len(leaf.keys):
                    key = leaf.keys[idx]
                    if high is not None:
                        c = self.comparator.compare(key, high)
                        if c > 0 or (c == 0 and not high_inclusive):
                            leaf = None
                            break
                    results.append((key, leaf.rids[idx]))
                    idx += 1
                else:
                    leaf = leaf.next
                    idx = 0
        yield from results

    def scan_all(self) -> Iterator[tuple[object, RowId]]:
        """Every (key, rid) in comparator order (works for any comparator)."""
        results: list[tuple[object, RowId]] = []
        with self._latch:
            leaf = self._leftmost_leaf()
            while leaf is not None:
                results.extend(zip(leaf.keys, leaf.rids))
                leaf = leaf.next
        yield from results

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node  # type: ignore[return-value]

    # -- insert --------------------------------------------------------------

    def insert(self, key: object, rid: RowId) -> None:
        """Insert one entry; enforces uniqueness if configured."""
        with self._latch:
            if self.unique and self.search_eq(key):
                raise ConstraintError("duplicate key in unique index")
            split = self._insert_into(self._root, key, rid)
            if split is not None:
                sep_key, right = split
                new_root = _Internal(keys=[sep_key], children=[self._root, right])
                self._root = new_root
            self._size += 1

    def _insert_into(self, node, key: object, rid: RowId):
        if node.is_leaf:
            idx = self._upper_bound(node.keys, key)
            node.keys.insert(idx, key)
            node.rids.insert(idx, rid)
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        idx = self._upper_bound(node.keys, key)
        split = self._insert_into(node.children[idx], key, rid)
        if split is not None:
            sep_key, right = split
            node.keys.insert(idx, sep_key)
            node.children.insert(idx + 1, right)
            if len(node.children) > self.order:
                return self._split_internal(node)
        return None

    def _split_leaf(self, leaf: _Leaf):
        mid = len(leaf.keys) // 2
        right = _Leaf(keys=leaf.keys[mid:], rids=leaf.rids[mid:], next=leaf.next)
        leaf.keys = leaf.keys[:mid]
        leaf.rids = leaf.rids[:mid]
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal):
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = _Internal(keys=node.keys[mid + 1 :], children=node.children[mid + 1 :])
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep_key, right

    # -- delete --------------------------------------------------------------

    def delete(self, key: object, rid: RowId) -> bool:
        """Remove the entry (key, rid); returns False if absent.

        Underflowed leaves are left sparse rather than rebalanced — search
        correctness is unaffected, and the simulation does not model page
        occupancy.
        """
        with self._latch:
            leaf = self._find_leaf_for_search(key)
            idx = self._lower_bound(leaf.keys, key)
            while True:
                while idx < len(leaf.keys):
                    c = self.comparator.compare(leaf.keys[idx], key)
                    if c > 0:
                        return False
                    if c == 0 and leaf.rids[idx] == rid:
                        del leaf.keys[idx]
                        del leaf.rids[idx]
                        self._size -= 1
                        return True
                    idx += 1
                if leaf.next is None:
                    return False
                leaf = leaf.next
                idx = 0

    # -- bulk build ------------------------------------------------------------

    def bulk_build(self, entries: list[tuple[object, RowId]]) -> None:
        """Build from scratch by sorted insertion (index build = sort;
        the data-ordering leakage the paper notes for index builds)."""
        import functools

        with self._latch:
            if self._size:
                raise SqlError("bulk_build requires an empty tree")
            ordered = sorted(
                entries, key=functools.cmp_to_key(lambda a, b: self.comparator.compare(a[0], b[0]))
            )
            for key, rid in ordered:
                # Entries are pre-sorted; plain inserts keep costs low and the
                # comparator count realistic for a build-by-sort.
                if self.unique and self.search_eq(key):
                    raise ConstraintError("duplicate key in unique index")
                split = self._insert_into(self._root, key, rid)
                if split is not None:
                    sep_key, right = split
                    self._root = _Internal(keys=[sep_key], children=[self._root, right])
                self._size += 1

    # -- structural introspection (Figure 4 style walkthroughs) -----------------

    def height(self) -> int:
        with self._latch:
            height = 1
            node = self._root
            while not node.is_leaf:
                height += 1
                node = node.children[0]
            return height
