"""An in-memory B-tree, from scratch.

The paper's storage experiment (§6.5) replicates "an in-memory,
B-Tree-based key-value store"; this is that substrate. Standard
Cormen-style B-tree of minimum degree ``t``: every node except the root
holds between t-1 and 2t-1 keys; all leaves sit at the same depth.

Supports insert (upsert), point lookup, deletion with rebalancing
(borrow/merge), ordered iteration, and range scans. The property-based
test suite drives it against a dict model under random operation streams.

Snapshots are O(1) by path copying: every node records the owner token of
the tree version that may mutate it in place. :meth:`BTree.snapshot`
retires the live token, so all existing nodes become shared and
immutable; a later write copies each node on the path it touches (and
the siblings it rebalances with) before changing it. A replica can thus
checkpoint a 12K-record store without copying it.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple


class BTreeNode:
    """One B-tree node; ``children`` empty means leaf."""

    __slots__ = ("keys", "values", "children", "owner")

    def __init__(self, owner: object):
        self.keys: List[bytes] = []
        self.values: List[bytes] = []
        self.children: List["BTreeNode"] = []  # empty for leaves
        self.owner = owner  # token of the tree version that may mutate it

    @property
    def leaf(self) -> bool:
        return not self.children


class BTree:
    """B-tree of minimum degree ``t`` mapping bytes keys to bytes values."""

    def __init__(self, min_degree: int = 16):
        if min_degree < 2:
            raise ValueError("B-tree minimum degree must be >= 2")
        self.t = min_degree
        self._owner = object()
        self.root = BTreeNode(self._owner)
        self.size = 0

    # ------------------------------------------------------------ snapshots

    def snapshot(self) -> "BTree":
        """An independent tree with the current contents, in O(1).

        Both trees get fresh owner tokens, so neither mutates a node the
        other can still see.
        """
        self._owner = object()
        copy = BTree.__new__(BTree)
        copy.t = self.t
        copy._owner = object()
        copy.root = self.root
        copy.size = self.size
        return copy

    def _writable(self, node: BTreeNode) -> BTreeNode:
        """``node`` itself when this version owns it, else a private copy."""
        if node.owner is self._owner:
            return node
        copy = BTreeNode(self._owner)
        copy.keys = node.keys[:]
        copy.values = node.values[:]
        copy.children = node.children[:]
        return copy

    def _writable_child(self, parent: BTreeNode, index: int) -> BTreeNode:
        """Child ``index`` of a writable ``parent``, made writable in place."""
        child = parent.children[index]
        if child.owner is not self._owner:
            child = self._writable(child)
            parent.children[index] = child
        return child

    # -------------------------------------------------------------- lookup

    def get(self, key: bytes) -> Optional[bytes]:
        """Point lookup; None when absent."""
        node = self.root
        while True:
            index = _lower_bound(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                return node.values[index]
            if node.leaf:
                return None
            node = node.children[index]

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self.size

    # -------------------------------------------------------------- insert

    def put(self, key: bytes, value: bytes) -> Optional[bytes]:
        """Upsert; returns the previous value (None if fresh insert)."""
        root = self.root
        if root.owner is not self._owner:
            root = self.root = self._writable(root)
        if len(root.keys) == 2 * self.t - 1:
            new_root = BTreeNode(self._owner)
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self.root = new_root
        return self._insert_nonfull(self.root, key, value)

    def _split_child(self, parent: BTreeNode, index: int) -> None:
        t = self.t
        child = self._writable_child(parent, index)
        sibling = BTreeNode(self._owner)
        parent.keys.insert(index, child.keys[t - 1])
        parent.values.insert(index, child.values[t - 1])
        sibling.keys = child.keys[t:]
        sibling.values = child.values[t:]
        child.keys = child.keys[: t - 1]
        child.values = child.values[: t - 1]
        if not child.leaf:
            sibling.children = child.children[t:]
            child.children = child.children[:t]
        parent.children.insert(index + 1, sibling)

    def _insert_nonfull(self, node: BTreeNode, key: bytes, value: bytes) -> Optional[bytes]:
        owner = self._owner
        while True:
            index = _lower_bound(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                previous = node.values[index]
                node.values[index] = value
                return previous
            if node.leaf:
                node.keys.insert(index, key)
                node.values.insert(index, value)
                self.size += 1
                return None
            child = node.children[index]
            if child.owner is not owner:  # shared with a snapshot
                child = self._writable_child(node, index)
            if len(child.keys) == 2 * self.t - 1:
                self._split_child(node, index)
                if key == node.keys[index]:
                    previous = node.values[index]
                    node.values[index] = value
                    return previous
                if key > node.keys[index]:
                    child = node.children[index + 1]
                else:
                    child = node.children[index]
            node = child

    # -------------------------------------------------------------- delete

    def delete(self, key: bytes) -> Optional[bytes]:
        """Remove ``key``; returns its value, or None when absent."""
        self.root = self._writable(self.root)
        removed = self._delete(self.root, key)
        if not self.root.keys and not self.root.leaf:
            self.root = self.root.children[0]
        if removed is not None:
            self.size -= 1
        return removed

    def _delete(self, node: BTreeNode, key: bytes) -> Optional[bytes]:
        t = self.t
        index = _lower_bound(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            if node.leaf:
                node.keys.pop(index)
                return node.values.pop(index)
            return self._delete_internal(node, index)
        if node.leaf:
            return None
        # Ensure the child we descend into has at least t keys.
        child_index = index
        child = self._writable_child(node, child_index)
        if len(child.keys) == t - 1:
            child_index = self._fill_child(node, child_index)
            child = self._writable_child(node, child_index)
        return self._delete(child, key)

    def _delete_internal(self, node: BTreeNode, index: int) -> bytes:
        t = self.t
        removed_value = node.values[index]
        left, right = node.children[index], node.children[index + 1]
        if len(left.keys) >= t:
            pred_key, pred_value = self._max_entry(left)
            node.keys[index] = pred_key
            node.values[index] = pred_value
            self._delete(self._writable_child(node, index), pred_key)
        elif len(right.keys) >= t:
            succ_key, succ_value = self._min_entry(right)
            node.keys[index] = succ_key
            node.values[index] = succ_value
            self._delete(self._writable_child(node, index + 1), succ_key)
        else:
            key = node.keys[index]
            self._merge_children(node, index)
            self._delete(node.children[index], key)
        return removed_value

    def _fill_child(self, node: BTreeNode, index: int) -> int:
        """Give child ``index`` an extra key; returns its (maybe new) index."""
        t = self.t
        if index > 0 and len(node.children[index - 1].keys) >= t:
            self._borrow_from_left(node, index)
            return index
        if index < len(node.children) - 1 and len(node.children[index + 1].keys) >= t:
            self._borrow_from_right(node, index)
            return index
        if index > 0:
            self._merge_children(node, index - 1)
            return index - 1
        self._merge_children(node, index)
        return index

    def _borrow_from_left(self, node: BTreeNode, index: int) -> None:
        child = self._writable_child(node, index)
        left = self._writable_child(node, index - 1)
        child.keys.insert(0, node.keys[index - 1])
        child.values.insert(0, node.values[index - 1])
        node.keys[index - 1] = left.keys.pop()
        node.values[index - 1] = left.values.pop()
        if not left.leaf:
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(self, node: BTreeNode, index: int) -> None:
        child = self._writable_child(node, index)
        right = self._writable_child(node, index + 1)
        child.keys.append(node.keys[index])
        child.values.append(node.values[index])
        node.keys[index] = right.keys.pop(0)
        node.values[index] = right.values.pop(0)
        if not right.leaf:
            child.children.append(right.children.pop(0))

    def _merge_children(self, node: BTreeNode, index: int) -> None:
        """Merge child ``index``, separator, and child ``index+1``."""
        child = self._writable_child(node, index)
        right = node.children.pop(index + 1)  # only read from here on
        child.keys.append(node.keys.pop(index))
        child.values.append(node.values.pop(index))
        child.keys.extend(right.keys)
        child.values.extend(right.values)
        child.children.extend(right.children)

    def _max_entry(self, node: BTreeNode) -> Tuple[bytes, bytes]:
        while not node.leaf:
            node = node.children[-1]
        return node.keys[-1], node.values[-1]

    def _min_entry(self, node: BTreeNode) -> Tuple[bytes, bytes]:
        while not node.leaf:
            node = node.children[0]
        return node.keys[0], node.values[0]

    # ----------------------------------------------------------- iteration

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """All (key, value) pairs in key order."""
        yield from self._iterate(self.root)

    def _iterate(self, node: BTreeNode) -> Iterator[Tuple[bytes, bytes]]:
        if node.leaf:
            yield from zip(node.keys, node.values)
            return
        for i, key in enumerate(node.keys):
            yield from self._iterate(node.children[i])
            yield (key, node.values[i])
        yield from self._iterate(node.children[-1])

    def range(self, start: bytes, end: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Pairs with start <= key < end, in key order."""
        for key, value in self.items():
            if key >= end:
                return
            if key >= start:
                yield (key, value)

    # ---------------------------------------------------------- invariants

    def check_invariants(self) -> None:
        """Raise AssertionError if B-tree structural invariants are broken."""
        depth = self._check_node(self.root, is_root=True)
        assert depth >= 0

    def _check_node(self, node: BTreeNode, is_root: bool = False) -> int:
        t = self.t
        assert len(node.keys) == len(node.values)
        if not is_root:
            assert len(node.keys) >= t - 1, "underfull node"
        assert len(node.keys) <= 2 * t - 1, "overfull node"
        assert node.keys == sorted(node.keys), "unsorted keys"
        if node.leaf:
            return 0
        assert len(node.children) == len(node.keys) + 1
        depths = set()
        for i, child in enumerate(node.children):
            depths.add(self._check_node(child))
            if i < len(node.keys):
                assert all(k < node.keys[i] for k in child.keys)
            if i > 0:
                assert all(k > node.keys[i - 1] for k in child.keys)
        assert len(depths) == 1, "leaves at unequal depth"
        return depths.pop() + 1


def _lower_bound(keys: List[bytes], key: bytes) -> int:
    """First index whose key is >= ``key`` (binary search)."""
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo
