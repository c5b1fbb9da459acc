"""B-tree tests: unit coverage plus model-based property testing."""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.apps.kvstore.btree import BTree


def k(i: int) -> bytes:
    return b"key%08d" % i


class TestBasicOperations:
    def test_empty_tree(self):
        tree = BTree()
        assert len(tree) == 0
        assert tree.get(b"missing") is None
        assert b"missing" not in tree

    def test_put_get(self):
        tree = BTree()
        assert tree.put(k(1), b"v1") is None
        assert tree.get(k(1)) == b"v1"
        assert len(tree) == 1

    def test_update_returns_previous(self):
        tree = BTree()
        tree.put(k(1), b"old")
        assert tree.put(k(1), b"new") == b"old"
        assert tree.get(k(1)) == b"new"
        assert len(tree) == 1

    def test_delete(self):
        tree = BTree()
        tree.put(k(1), b"v")
        assert tree.delete(k(1)) == b"v"
        assert tree.get(k(1)) is None
        assert len(tree) == 0

    def test_delete_missing(self):
        tree = BTree()
        tree.put(k(1), b"v")
        assert tree.delete(k(2)) is None
        assert len(tree) == 1

    def test_min_degree_validation(self):
        with pytest.raises(ValueError):
            BTree(min_degree=1)

    def test_items_sorted(self):
        tree = BTree(min_degree=2)
        import random

        keys = list(range(200))
        random.Random(1).shuffle(keys)
        for i in keys:
            tree.put(k(i), b"v%d" % i)
        assert [key for key, _ in tree.items()] == [k(i) for i in range(200)]

    def test_range_scan(self):
        tree = BTree(min_degree=2)
        for i in range(50):
            tree.put(k(i), b"v")
        result = [key for key, _ in tree.range(k(10), k(20))]
        assert result == [k(i) for i in range(10, 20)]

    def test_splits_with_small_degree(self):
        tree = BTree(min_degree=2)
        for i in range(100):
            tree.put(k(i), b"v%d" % i)
            tree.check_invariants()
        assert len(tree) == 100
        for i in range(100):
            assert tree.get(k(i)) == b"v%d" % i

    def test_deletes_with_rebalancing(self):
        tree = BTree(min_degree=2)
        for i in range(100):
            tree.put(k(i), b"v%d" % i)
        for i in range(0, 100, 2):
            assert tree.delete(k(i)) == b"v%d" % i
            tree.check_invariants()
        assert len(tree) == 50
        for i in range(100):
            expected = None if i % 2 == 0 else b"v%d" % i
            assert tree.get(k(i)) == expected

    def test_delete_everything(self):
        tree = BTree(min_degree=2)
        for i in range(64):
            tree.put(k(i), b"v")
        for i in reversed(range(64)):
            tree.delete(k(i))
            tree.check_invariants()
        assert len(tree) == 0
        assert list(tree.items()) == []

    def test_internal_node_deletion(self):
        # Force deletions that hit keys stored in internal nodes.
        tree = BTree(min_degree=2)
        for i in range(30):
            tree.put(k(i), b"v%d" % i)
        root_keys = list(tree.root.keys)
        assert root_keys, "expected a non-leaf root"
        for key in root_keys:
            assert tree.delete(key) is not None
            tree.check_invariants()


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "delete"]),
            st.integers(min_value=0, max_value=40),
        ),
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_btree_matches_dict_model(ops):
    tree = BTree(min_degree=2)
    model = {}
    for op, key_index in ops:
        key = k(key_index)
        if op == "put":
            value = b"value-%d" % key_index
            assert tree.put(key, value) == model.get(key)
            model[key] = value
        elif op == "get":
            assert tree.get(key) == model.get(key)
        else:
            assert tree.delete(key) == model.pop(key, None)
        assert len(tree) == len(model)
    tree.check_invariants()
    assert dict(tree.items()) == model


class BTreeMachine(RuleBasedStateMachine):
    """Stateful fuzz of the B-tree against a dict."""

    def __init__(self):
        super().__init__()
        self.tree = BTree(min_degree=2)
        self.model = {}

    @rule(key=st.integers(0, 25), value=st.binary(min_size=1, max_size=8))
    def put(self, key, value):
        assert self.tree.put(k(key), value) == self.model.get(k(key))
        self.model[k(key)] = value

    @rule(key=st.integers(0, 25))
    def delete(self, key):
        assert self.tree.delete(k(key)) == self.model.pop(k(key), None)

    @rule(key=st.integers(0, 25))
    def get(self, key):
        assert self.tree.get(k(key)) == self.model.get(k(key))

    @invariant()
    def structurally_valid(self):
        self.tree.check_invariants()
        assert len(self.tree) == len(self.model)


TestBTreeStateful = BTreeMachine.TestCase
TestBTreeStateful.settings = settings(max_examples=25, deadline=None)


class TestSnapshots:
    """Path-copying snapshots: O(1) to take, isolated in both directions."""

    ops = st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.integers(0, 60),
            st.binary(min_size=1, max_size=4),
        ),
        max_size=120,
    )

    @settings(max_examples=60, deadline=None)
    @given(before=ops, after=ops, degree=st.integers(2, 4))
    def test_snapshot_reads_as_of_creation(self, before, after, degree):
        tree, model = BTree(min_degree=degree), {}

        def apply(target, target_model, batch):
            for op, key, value in batch:
                if op == "put":
                    target.put(k(key), value)
                    target_model[k(key)] = value
                else:
                    target.delete(k(key))
                    target_model.pop(k(key), None)

        apply(tree, model, before)
        snap, snap_model = tree.snapshot(), dict(model)
        apply(tree, model, after)
        # The snapshot still reads as of its creation ...
        snap.check_invariants()
        assert dict(snap.items()) == snap_model and len(snap) == len(snap_model)
        # ... and the live tree saw only its own writes.
        tree.check_invariants()
        assert dict(tree.items()) == model and len(tree) == len(model)
        # Writing to the snapshot leaves the live tree alone too.
        apply(snap, snap_model, after[::-1])
        assert dict(tree.items()) == model
        assert dict(snap.items()) == snap_model

    def test_snapshot_shares_untouched_nodes(self):
        tree = BTree(min_degree=4)
        for i in range(500):
            tree.put(k(i), b"v")
        snap = tree.snapshot()
        tree.put(k(0), b"changed")
        # Only the path to key 0 was copied: the rightmost leaf is shared.
        right = lambda t: t.root.children[-1]
        assert tree.root is not snap.root
        assert right(tree) is right(snap)
        assert snap.get(k(0)) == b"v" and tree.get(k(0)) == b"changed"
