"""Tests of the ``repro.exec`` subsystem.

Covers fingerprint, cache, the one-shot batch runner (``run_tasks``)
and progress, plus
the two system-level guarantees the flow depends on:

* **cache correctness** — a warm-cache ``implement_multi_mode`` run
  produces bit-for-bit identical results to a cold run;
* **parallel determinism** — results are identical for every worker
  count.
"""

import os
import pickle
import time

import pytest

from repro.arch.architecture import FpgaArchitecture
from repro.core.flow import (
    FlowOptions,
    implement_multi_mode,
    pack_result,
    unpack_result,
)
from repro.core.merge import MergeStrategy
from repro.exec.cache import (
    CacheStats,
    StageCache,
    atomic_append_text,
    atomic_write_text,
)
from repro.exec.fingerprint import Unfingerprintable, fingerprint
from repro.exec.progress import ProgressLog, StageRecord, timed_call
from repro.exec.jobs import Task, default_workers, run_tasks
from repro.netlist.lutcircuit import LutCircuit
from repro.netlist.truthtable import TruthTable


def tiny_circuit(name: str, flip: bool = False) -> LutCircuit:
    c = LutCircuit(name, 4)
    for i in range(4):
        c.add_input(f"in{i}")
    t_and = TruthTable.from_function(2, lambda a, b: a and b)
    t_or = TruthTable.from_function(2, lambda a, b: a or b)
    t_xor = TruthTable.from_function(2, lambda a, b: a != b)
    c.add_block("g0", ("in0", "in1"), t_or if flip else t_and)
    c.add_block("g1", ("in2", "in3"), t_xor)
    c.add_block("g2", ("g0", "g1"), t_and if flip else t_or)
    c.add_block("g3", ("g2", "in0"), t_xor, registered=True)
    c.add_output("g2")
    c.add_output("g3")
    return c


def result_signature(result):
    """Everything observable about a MultiModeResult, hashable-ish."""
    return (
        result.name,
        result.arch,
        [
            (
                impl.mode,
                sorted(
                    (cell, s.kind, s.x, s.y, s.slot)
                    for cell, s in impl.placement.sites.items()
                ),
                sorted(impl.routing.bits_on(0)),
                impl.routing.total_wirelength(0),
            )
            for impl in result.mdr.implementations
        ],
        (result.mdr.cost.total, result.mdr.diff.total),
        {
            strategy.value: (
                sorted(dcs.routing.bits_on(0)),
                sorted(dcs.routing.bits_on(1)),
                dcs.cost.total,
                dcs.cost.routing_bits,
            )
            for strategy, dcs in result.dcs.items()
        },
    )


# ---------------------------------------------------------------------------
# fingerprint
# ---------------------------------------------------------------------------


class TestFingerprint:
    @pytest.mark.smoke
    def test_stable_and_discriminating(self):
        assert fingerprint(1, "a", (2.5,)) == fingerprint(
            1, "a", (2.5,)
        )
        assert fingerprint(1) != fingerprint(2)
        assert fingerprint("1") != fingerprint(1)
        assert fingerprint([1]) != fingerprint((1,))
        assert fingerprint(1.0) != fingerprint(1)
        assert fingerprint(True) != fingerprint(1)

    def test_set_and_dict_order_independent(self):
        a = {"x": 1, "y": 2, "z": 3}
        b = dict(reversed(list(a.items())))
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint({"p", "q", "r"}) == fingerprint(
            {"r", "p", "q"}
        )
        assert fingerprint(frozenset((1, 2))) == fingerprint(
            frozenset((2, 1))
        )

    def test_dataclass_and_enum(self):
        a1 = FpgaArchitecture(nx=3, ny=3, channel_width=8)
        a2 = FpgaArchitecture(nx=3, ny=3, channel_width=8)
        a3 = FpgaArchitecture(nx=3, ny=3, channel_width=9)
        assert fingerprint(a1) == fingerprint(a2)
        assert fingerprint(a1) != fingerprint(a3)
        assert fingerprint(MergeStrategy.WIRE_LENGTH) != fingerprint(
            MergeStrategy.EDGE_MATCHING
        )

    def test_circuit_content_addressing(self):
        a = tiny_circuit("t")
        b = tiny_circuit("t")
        assert fingerprint(a) == fingerprint(b)
        flipped = tiny_circuit("t", flip=True)
        assert fingerprint(a) != fingerprint(flipped)
        renamed = tiny_circuit("other")
        assert fingerprint(a) != fingerprint(renamed)

    def test_unfingerprintable(self):
        with pytest.raises(Unfingerprintable):
            fingerprint(object())


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


class TestStageCache:
    @pytest.mark.smoke
    def test_roundtrip(self, tmp_path):
        cache = StageCache(tmp_path)
        key = cache.key("stage", "input", 7)
        hit, _ = cache.get("stage", key)
        assert not hit
        cache.put("stage", key, {"value": 42})
        hit, value = cache.get("stage", key)
        assert hit and value == {"value": 42}
        assert cache.n_entries() == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = StageCache(tmp_path)
        key = cache.key("stage", "x")
        cache.put("stage", key, [1, 2, 3])
        path = cache.path("stage", key)
        path.write_bytes(b"not a pickle")
        hit, _ = cache.get("stage", key)
        assert not hit
        assert not path.exists()
        assert cache.stats.errors == 1
        assert cache.stats.corrupt == 1

    @pytest.mark.parametrize(
        "payload",
        [
            # Truncated mid-stream by a killed worker (EOFError /
            # UnpicklingError).
            pickle.dumps({"value": list(range(100))})[:-7],
            # Flipped protocol byte (ValueError).
            b"\x80\x08garbage",
            # Bit rot inside a string opcode (UnicodeDecodeError).
            b"\x80\x04\x95\x08\x00\x00\x00\x00\x00\x00\x00"
            b"\x8c\x04\xff\xfe\xfd\xfc\x94.",
            # Corrupt frame length (OverflowError).
            b"\x80\x04\x95\xff\xff\xff\xff\xff\xff\xff\xff.",
        ],
    )
    def test_every_corruption_shape_is_a_miss(self, tmp_path,
                                              payload):
        """pickle surfaces corruption as many exception types; none
        may crash the flow (regression: ValueError and friends
        escaped the old catch and took the whole run down)."""
        cache = StageCache(tmp_path)
        key = cache.key("stage", "y")
        cache.put("stage", key, {"ok": True})
        path = cache.path("stage", key)
        path.write_bytes(payload)
        hit, value = cache.get("stage", key)
        assert not hit and value is None
        assert not path.exists()
        assert cache.stats.corrupt == 1
        # The slot is reusable: a fresh put/get round-trips.
        cache.put("stage", key, {"ok": True})
        hit, value = cache.get("stage", key)
        assert hit and value == {"ok": True}

    def test_corrupt_entry_recomputes_through_memoize(self, tmp_path):
        cache = StageCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return [1, 2, 3]

        value, hit = cache.memoize("st", ("in",), compute)
        assert not hit and len(calls) == 1
        key = cache.key("st", "in")
        cache.path("st", key).write_bytes(b"\x80\x08junk")
        value, hit = cache.memoize("st", ("in",), compute)
        assert value == [1, 2, 3]
        assert not hit and len(calls) == 2
        # Entry was rewritten: next call hits again.
        _value, hit = cache.memoize("st", ("in",), compute)
        assert hit and len(calls) == 2

    def test_disabled_cache_is_transparent(self, tmp_path):
        cache = StageCache(tmp_path, enabled=False)
        key = cache.key("stage", 1)
        cache.put("stage", key, "value")
        hit, _ = cache.get("stage", key)
        assert not hit
        assert cache.n_entries() == 0

    def test_env_disable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        cache = StageCache(tmp_path)
        assert not cache.enabled

    def test_memoize_and_clear(self, tmp_path):
        cache = StageCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return sum(range(10))

        value, hit = cache.memoize("sum", ("inputs",), compute)
        assert (value, hit) == (45, False)
        value, hit = cache.memoize("sum", ("inputs",), compute)
        assert (value, hit) == (45, True)
        assert len(calls) == 1
        assert cache.clear() == 1
        _value, hit = cache.memoize("sum", ("inputs",), compute)
        assert not hit and len(calls) == 2

    def test_stats_merge(self):
        a = CacheStats(hits=1, misses=2)
        a.merge(CacheStats(hits=3, stores=4))
        assert (a.hits, a.misses, a.stores) == (4, 2, 4)


class TestAtomicHelpers:
    def test_write_and_append_round_trip(self, tmp_path):
        path = tmp_path / "deep" / "file.jsonl"
        atomic_write_text(path, "one\n")
        atomic_append_text(path, "two\n")
        atomic_append_text(path, "three\n")
        assert path.read_text() == "one\ntwo\nthree\n"
        # No stray tmp files left behind.
        assert [p.name for p in path.parent.iterdir()] == [
            "file.jsonl"
        ]

    def test_append_creates_missing_file(self, tmp_path):
        path = tmp_path / "fresh.jsonl"
        atomic_append_text(path, "line\n")
        assert path.read_text() == "line\n"

    def test_write_replaces_whole_content(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "long old content\n")
        atomic_write_text(path, "new\n")
        assert path.read_text() == "new\n"


class TestPrune:
    def _fill(self, cache, n, size=1000):
        for i in range(n):
            cache.put("stage", f"{i:02d}" * 32, b"x" * size)
            # Distinct mtimes even on coarse filesystem clocks.
            path = cache.path("stage", f"{i:02d}" * 32)
            os.utime(path, (1_000_000 + i, 1_000_000 + i))

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = StageCache(tmp_path)
        self._fill(cache, 5)
        sizes = cache.total_bytes()
        per_entry = sizes // 5
        removed, removed_bytes = cache.prune(per_entry * 2)
        assert removed == 3
        assert removed_bytes == per_entry * 3
        # The two newest entries survive.
        survivors = {
            p.stem for p in cache.root.rglob("*.pkl")
        }
        assert survivors == {"03" * 32, "04" * 32}

    def test_prune_noop_when_under_budget(self, tmp_path):
        cache = StageCache(tmp_path)
        self._fill(cache, 3)
        assert cache.prune(cache.total_bytes()) == (0, 0)
        assert cache.n_entries() == 3

    def test_prune_zero_budget_clears(self, tmp_path):
        cache = StageCache(tmp_path)
        self._fill(cache, 3)
        removed, _bytes = cache.prune(0)
        assert removed == 3
        assert cache.n_entries() == 0

    def test_prune_empty_and_missing_root(self, tmp_path):
        assert StageCache(tmp_path / "nowhere").prune(10) == (0, 0)

    def test_hit_refreshes_recency(self, tmp_path):
        """A recently *read* entry outlives an unread newer one."""
        cache = StageCache(tmp_path)
        self._fill(cache, 3)
        key = "00" * 32
        hit, value = cache.get("stage", key)
        assert hit
        per_entry = cache.total_bytes() // 3
        cache.prune(per_entry)
        survivors = {p.stem for p in cache.root.rglob("*.pkl")}
        assert survivors == {key}


# ---------------------------------------------------------------------------
# batch runner
# ---------------------------------------------------------------------------


def _echo_task(value, delay=0.0):
    if delay:
        time.sleep(delay)
    return (value, os.getpid())


def _failing_task(value):
    raise ValueError(f"boom {value}")


class TestScheduler:
    """``run_tasks``: the batch runner every flow driver fans out on."""

    @pytest.mark.smoke
    def test_serial_inline(self):
        results = run_tasks(
            [Task(_echo_task, (i,)) for i in range(5)], workers=1
        )
        assert [value for value, _pid in results] == list(range(5))
        assert all(pid == os.getpid() for _v, pid in results)

    def test_parallel_submission_order(self):
        # Reverse-sorted delays: the first-submitted task finishes
        # last, yet results must come back in submission order.
        tasks = [
            Task(_echo_task, (i, 0.2 - 0.05 * i)) for i in range(4)
        ]
        results = run_tasks(tasks, workers=2)
        assert [value for value, _pid in results] == list(range(4))
        if (os.cpu_count() or 1) > 1:
            # With one core the batch legitimately runs inline.
            assert any(pid != os.getpid() for _v, pid in results)

    def test_parallel_error_propagates(self):
        tasks = [
            Task(_echo_task, (0,)),
            Task(_failing_task, (1,)),
            Task(_echo_task, (2,)),
        ]
        with pytest.raises(ValueError, match="boom 1"):
            run_tasks(tasks, workers=2)

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert default_workers() == 6
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_workers()
        # The batch runner resolves through the same check.
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            run_tasks([Task(_echo_task, (0,))])

    def test_empty_and_map(self):
        assert run_tasks([], workers=1) == []
        results = run_tasks(
            [Task(_echo_task, args) for args in [(1,), (2,)]],
            workers=1,
        )
        assert [v for v, _ in results] == [1, 2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_on_result_fires_in_submission_order(self, workers):
        seen = []
        tasks = [
            Task(_echo_task, (i, 0.1 - 0.03 * i)) for i in range(3)
        ]
        results = run_tasks(
            tasks, workers,
            on_result=lambda idx, res: seen.append((idx, res[0])),
        )
        assert seen == [(0, 0), (1, 1), (2, 2)]
        assert [v for v, _pid in results] == [0, 1, 2]

    def test_on_result_stops_at_first_failure(self):
        """The callback never sees results past a failed task: a
        checkpointer must not record completions the caller will
        never observe (run_tasks raises)."""
        seen = []
        tasks = [
            Task(_echo_task, (0,)),
            Task(_failing_task, (1,)),
            Task(_echo_task, (2,)),
        ]
        with pytest.raises(ValueError, match="boom 1"):
            run_tasks(
                tasks, workers=2,
                on_result=lambda idx, _res: seen.append(idx),
            )
        assert seen == [0]


# ---------------------------------------------------------------------------
# progress
# ---------------------------------------------------------------------------


class TestProgress:
    @pytest.mark.smoke
    def test_breakdown(self):
        log = ProgressLog()
        log.add(StageRecord("place", "a", 1.0))
        log.add(StageRecord("place", "b", 2.0, cache_hit=True))
        log.add(StageRecord("route", "a", 0.5))
        breakdown = log.breakdown()
        assert breakdown["place"]["count"] == 2
        assert breakdown["place"]["cache_hits"] == 1
        assert breakdown["place"]["seconds"] == pytest.approx(3.0)
        assert log.total_seconds() == pytest.approx(3.5)

    def test_timed_and_timed_call(self):
        log = ProgressLog()
        with log.timed("stage", "item"):
            pass
        assert log.records[0].stage == "stage"
        value, record = timed_call("s", "n", lambda: 41)
        assert value == 41 and record.stage == "s"


# ---------------------------------------------------------------------------
# system-level: cache correctness and parallel determinism
# ---------------------------------------------------------------------------


def _run_tiny(workers=None, cache=None, progress=None):
    modes = [tiny_circuit("a"), tiny_circuit("b", flip=True)]
    return implement_multi_mode(
        "tiny",
        modes,
        FlowOptions(inner_num=0.2),
        workers=workers,
        cache=cache,
        progress=progress,
    )


class TestFlowExecution:
    def test_warm_cache_bit_identical(self, tmp_path):
        """A warm-cache rerun must reproduce the cold run exactly."""
        cold_cache = StageCache(tmp_path)
        cold_progress = ProgressLog()
        cold = _run_tiny(cache=cold_cache, progress=cold_progress)
        assert cold_cache.stats.stores > 0
        # Fresh cache object, same directory: only disk state is shared.
        warm_cache = StageCache(tmp_path)
        warm_progress = ProgressLog()
        warm = _run_tiny(cache=warm_cache, progress=warm_progress)
        assert result_signature(cold) == result_signature(warm)
        assert warm_cache.stats.hits == 1  # one multimode entry
        hits = [r for r in warm_progress.records if r.cache_hit]
        assert hits and hits[0].stage == "multimode"

    def test_no_cache_matches_cached(self, tmp_path):
        plain = _run_tiny()
        cached = _run_tiny(cache=StageCache(tmp_path))
        assert result_signature(plain) == result_signature(cached)

    @pytest.mark.smoke
    def test_worker_count_determinism(self):
        """Identical results for every worker count."""
        serial = _run_tiny(workers=1)
        two = _run_tiny(workers=2)
        four = _run_tiny(workers=4)
        assert result_signature(serial) == result_signature(two)
        assert result_signature(serial) == result_signature(four)

    def test_stage_cache_partial_reuse(self, tmp_path):
        """Placement entries survive router-option changes."""
        cache = StageCache(tmp_path)
        _run_tiny(cache=cache)
        # A different router iteration cap invalidates multimode and
        # routing entries but must reuse the cached placements.
        modes = [tiny_circuit("a"), tiny_circuit("b", flip=True)]
        progress = ProgressLog()
        implement_multi_mode(
            "tiny",
            modes,
            FlowOptions(inner_num=0.2, router_max_iterations=39),
            cache=StageCache(tmp_path),
            progress=progress,
        )
        place_records = [
            r for r in progress.records if r.stage == "place"
        ]
        assert place_records and all(
            r.cache_hit for r in place_records
        )

    def test_pack_unpack_roundtrip(self):
        result = _run_tiny()
        packed = pack_result(result)
        data = pickle.dumps(packed)
        restored = unpack_result(pickle.loads(data))
        assert result_signature(result) == result_signature(restored)


class TestCliExec:
    def test_cache_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries:    0" in out
        cache = StageCache(tmp_path)
        cache.put("s", cache.key("s", 1), "v")
        assert main(
            ["cache", "--cache-dir", str(tmp_path), "--clear"]
        ) == 0
        assert "removed 1 entries" in capsys.readouterr().out

    def test_cache_prune_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        cache = StageCache(tmp_path)
        for i in range(3):
            key = cache.key("s", i)
            cache.put("s", key, "v" * 100)
            os.utime(
                cache.path("s", key), (1_000_000 + i,) * 2
            )
        per_entry = cache.total_bytes() // 3
        assert main([
            "cache", "prune", "--cache-dir", str(tmp_path),
            "--max-size", str(per_entry),
        ]) == 0
        out = capsys.readouterr().out
        assert "pruned 2 entries" in out
        assert cache.n_entries() == 1
        # prune without a budget is a usage error.
        assert main(
            ["cache", "prune", "--cache-dir", str(tmp_path)]
        ) == 2
        assert "--max-size" in capsys.readouterr().err

    def test_implement_accepts_exec_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["implement", "a.blif", "b.blif", "--workers", "2",
             "--no-cache"]
        )
        assert args.workers == 2 and args.no_cache


class TestExecBench:
    def test_bench_tiny_workload(self, tmp_path):
        from repro.bench.exec_bench import (
            run_exec_bench,
            write_bench_json,
        )

        pairs = [
            ("p0", (tiny_circuit("a"), tiny_circuit("b", True))),
            ("p1", (tiny_circuit("c"), tiny_circuit("d", True))),
        ]
        report = run_exec_bench(
            workers=2,
            inner_num=0.2,
            cache_dir=str(tmp_path / "cache"),
            pairs=pairs,
        )
        assert report["results_identical"]
        assert report["workload"]["n_pairs"] == 2
        assert report["parallel_warm"]["seconds"] > 0
        assert "multimode" in report["parallel_warm"]["stages"]
        out = tmp_path / "BENCH_exec.json"
        write_bench_json(report, str(out))
        import json

        loaded = json.loads(out.read_text())
        assert loaded["schema_version"] == 6
        timed = loaded["timing_driven_cold"]
        assert timed["seconds"] > 0
        assert timed["mdr_mean_critical_delay"] > 0
