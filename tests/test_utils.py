"""Tests for the generic utilities (union-find, seeded RNG, boolean
environment flags)."""

import pytest
from hypothesis import given, strategies as st

from repro.exec.cache import StageCache
from repro.utils.disjoint_set import DisjointSet
from repro.utils.env import env_flag
from repro.utils.rng import make_rng


class TestDisjointSet:
    def test_lazy_singletons(self):
        ds = DisjointSet()
        assert ds.find("a") == "a"
        assert "a" in ds
        assert len(ds) == 1

    def test_union_connects(self):
        ds = DisjointSet()
        ds.union("a", "b")
        ds.union("b", "c")
        assert ds.connected("a", "c")
        assert not ds.connected("a", "d")

    def test_union_idempotent(self):
        ds = DisjointSet(["a", "b"])
        r1 = ds.union("a", "b")
        r2 = ds.union("a", "b")
        assert r1 == r2

    def test_groups_partition(self):
        ds = DisjointSet(["a", "b", "c", "d"])
        ds.union("a", "b")
        ds.union("c", "d")
        groups = {frozenset(g) for g in ds.groups()}
        assert groups == {
            frozenset({"a", "b"}), frozenset({"c", "d"}),
        }

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)),
            max_size=40,
        )
    )
    def test_transitivity_property(self, unions):
        """connected() must be the transitive closure of union()."""
        ds = DisjointSet()
        adjacency = {}
        for a, b in unions:
            ds.union(a, b)
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        # Reference: BFS closure.
        for start in adjacency:
            seen = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for nxt in adjacency.get(node, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            for other in adjacency:
                assert ds.connected(start, other) == (
                    other in seen
                )


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(7)
        b = make_rng(7)
        assert [a.random() for _ in range(5)] == [
            b.random() for _ in range(5)
        ]

    def test_salt_decorrelates(self):
        a = make_rng(7, "place")
        b = make_rng(7, "route")
        assert [a.random() for _ in range(5)] != [
            b.random() for _ in range(5)
        ]

    def test_same_salt_reproduces(self):
        a = make_rng(7, "place")
        b = make_rng(7, "place")
        assert a.random() == b.random()


ON_SPELLINGS = ["1", "true", "yes", "on", "TRUE", "Yes", "oN"]
OFF_SPELLINGS = ["0", "false", "no", "off", "", "FALSE", "No", "OFF"]
MALFORMED = ["2", "enable", "y", " 1", "true "]


class TestEnvFlag:
    FLAG = "REPRO_TEST_FLAG"

    @pytest.mark.parametrize("value", ON_SPELLINGS)
    def test_on_spellings(self, monkeypatch, value):
        monkeypatch.setenv(self.FLAG, value)
        assert env_flag(self.FLAG) is True

    @pytest.mark.parametrize("value", OFF_SPELLINGS)
    def test_off_spellings(self, monkeypatch, value):
        monkeypatch.setenv(self.FLAG, value)
        assert env_flag(self.FLAG) is False

    def test_unset_is_off(self, monkeypatch):
        monkeypatch.delenv(self.FLAG, raising=False)
        assert env_flag(self.FLAG) is False

    @pytest.mark.parametrize("value", MALFORMED)
    def test_malformed_value_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv(self.FLAG, value)
        with pytest.raises(ValueError, match=self.FLAG):
            env_flag(self.FLAG)


class TestFlagConsumers:
    """``=0`` used to switch the flag on (any non-empty string
    did)."""

    @pytest.mark.parametrize(
        "value, enabled", [("0", True), ("off", True), ("yes", False)]
    )
    def test_cache_disable(self, monkeypatch, tmp_path, value, enabled):
        monkeypatch.setenv("REPRO_CACHE_DISABLE", value)
        assert StageCache(tmp_path).enabled is enabled

    def test_malformed_values_raise(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "maybe")
        with pytest.raises(ValueError, match="REPRO_CACHE_DISABLE"):
            StageCache(tmp_path)
