"""Tests for the lease-based work-stealing scheduler.

The board's contracts: the initial assignment IS the
``stable_shard`` partition (zero-steal runs record what hand-launched
shard runs do),
steals move only provably unstarted leases (beyond the keep window),
reclaim/lease compose for dead-worker requeues, and the planner is a
pure function whose zero-steal behaviour on balanced shards is
deterministic.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.layout import RunLayout
from repro.experiments.scheduler import (
    ASSIGNMENT_FORMAT,
    LeaseBoard,
    SchedulerError,
    plan_steals,
    read_assignment,
    write_assignment,
)
from repro.seeding import shard_partition

HASH = "c" * 64

KEYS = [f"task-{i:03d}" for i in range(20)]


def board_for(tmp_path, workers=2, batch=1, done=(), keys=KEYS):
    return LeaseBoard(
        keys,
        workers=workers,
        run_dir=tmp_path,
        spec_hash=HASH,
        batch=batch,
        done=done,
    )


class TestAssignmentFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "w0.tasks.json"
        write_assignment(
            path, worker=0, spec_hash=HASH, keys=["a", "b"], batch=2,
            closed=False, version=3,
        )
        doc = read_assignment(path)
        assert doc.worker == 0
        assert doc.spec_hash == HASH
        assert doc.keys == ("a", "b")
        assert doc.batch == 2
        assert doc.closed is False
        assert doc.version == 3

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SchedulerError, match="cannot read"):
            read_assignment(tmp_path / "nope.json")

    def test_not_an_assignment_raises(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"some": "json"}')
        with pytest.raises(SchedulerError, match="not a scheduler"):
            read_assignment(path)

    def test_future_format_raises(self, tmp_path):
        path = tmp_path / "w0.tasks.json"
        write_assignment(path, 0, HASH, ["a"], batch=1)
        doc = json.loads(path.read_text())
        doc["format"] = ASSIGNMENT_FORMAT + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(SchedulerError, match="format"):
            read_assignment(path)

    def test_malformed_fields_raise(self, tmp_path):
        path = tmp_path / "w0.tasks.json"
        write_assignment(path, 0, HASH, ["a"], batch=1)
        good = json.loads(path.read_text())
        for field, value in (
            ("keys", "not-a-list"),
            ("keys", ["a", "a"]),
            ("batch", 0),
            ("spec_hash", None),
            ("worker", None),
            ("worker", "0"),
            ("worker", -1),
        ):
            doc = dict(good)
            doc[field] = value
            path.write_text(json.dumps(doc))
            with pytest.raises(SchedulerError):
                read_assignment(path)


class TestLeaseBoardInitialAssignment:
    def test_equals_the_static_shard_partition(self, tmp_path):
        """The zero-steal contract: workers start from exactly the
        partition a hand-launched ``--shard-index`` run executes."""
        board = board_for(tmp_path, workers=3)
        assert board.assignments == shard_partition(KEYS, 3)
        for worker in range(3):
            doc = read_assignment(board.path(worker))
            assert list(doc.keys) == shard_partition(KEYS, 3)[worker]
            assert not doc.closed

    def test_paths_live_next_to_the_spec(self, tmp_path):
        board = board_for(tmp_path, workers=2)
        assert board.path(0) == RunLayout(tmp_path).assignment(0)
        assert board.path(0).name == "shard0.tasks.json"

    def test_resume_excludes_done_keys(self, tmp_path):
        done = set(KEYS[:5])
        board = board_for(tmp_path, workers=2, done=done)
        for worker in range(2):
            assert not set(board.remaining(worker)) & done
            assert not set(read_assignment(board.path(worker)).keys) & done
        assert board.done == done

    def test_duplicate_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unique"):
            board_for(tmp_path, keys=["a", "a"])

    def test_bad_arguments_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            board_for(tmp_path, workers=0)
        with pytest.raises(ValueError, match="batch"):
            board_for(tmp_path, batch=0)


class TestLeaseBoardProgress:
    def test_record_done_shrinks_remaining(self, tmp_path):
        board = board_for(tmp_path, workers=2)
        key = board.assignments[0][0]
        board.record_done(key)
        assert key not in board.remaining(0)
        assert not board.complete

    def test_unknown_keys_ignored(self, tmp_path):
        board = board_for(tmp_path, workers=2)
        board.record_done("not-a-campaign-key")
        assert "not-a-campaign-key" not in board.done

    def test_complete_when_every_key_recorded(self, tmp_path):
        board = board_for(tmp_path, workers=2)
        for key in KEYS:
            board.record_done(key)
        assert board.complete

    def test_stealable_respects_the_keep_window(self, tmp_path):
        board = board_for(tmp_path, workers=1, batch=3)
        remaining = board.remaining(0)
        # The first `batch` keys may be in the worker's current
        # snapshot; only the rest are provably unstarted.
        assert board.stealable(0) == remaining[3:]

    def test_written_files_prune_done_keys(self, tmp_path):
        board = board_for(tmp_path, workers=2)
        victim_keys = board.assignments[0]
        board.record_done(victim_keys[0])
        # Any rewrite (here: close) drops keys recorded elsewhere, so
        # a worker never re-runs work that already finished.
        board.close_all()
        doc = read_assignment(board.path(0))
        assert victim_keys[0] not in doc.keys
        assert doc.closed


class TestSteal:
    def test_moves_tail_keys_and_rewrites_both_files(self, tmp_path):
        board = board_for(tmp_path, workers=2, batch=1)
        victim_before = list(board.assignments[0])
        thief_before = list(board.assignments[1])
        moved = board.steal(0, 1, 2)
        assert moved == victim_before[-2:]
        assert board.assignments[0] == victim_before[:-2]
        assert board.assignments[1] == thief_before + moved
        assert list(read_assignment(board.path(0)).keys) == (
            victim_before[:-2]
        )
        assert list(read_assignment(board.path(1)).keys) == (
            thief_before + moved
        )
        # Versions bump on both sides.
        assert read_assignment(board.path(0)).version == 1
        assert read_assignment(board.path(1)).version == 1

    def test_never_takes_the_keep_window(self, tmp_path):
        board = board_for(tmp_path, workers=2, batch=2)
        victim = list(board.assignments[0])
        moved = board.steal(0, 1, len(KEYS))  # ask for everything
        assert board.assignments[0] == victim[:2]  # window survives
        assert moved == victim[2:]

    def test_steal_from_self_rejected(self, tmp_path):
        board = board_for(tmp_path, workers=2)
        with pytest.raises(ValueError, match="itself"):
            board.steal(0, 0, 1)

    def test_nothing_stealable_moves_nothing(self, tmp_path):
        board = board_for(tmp_path, workers=2, batch=len(KEYS))
        assert board.steal(0, 1, 5) == []
        assert read_assignment(board.path(0)).version == 0

    def test_reclaim_takes_everything_including_the_window(self, tmp_path):
        board = board_for(tmp_path, workers=2, batch=5)
        victim = list(board.assignments[0])
        board.record_done(victim[0])
        reclaimed = board.reclaim(0)
        assert reclaimed == victim[1:]  # done keys are not reclaimed
        assert board.assignments[0] == []
        assert list(read_assignment(board.path(0)).keys) == []

    def test_reclaim_then_lease_requeues_elsewhere(self, tmp_path):
        """Dead-worker requeue composes: reclaim + lease."""
        board = board_for(tmp_path, workers=2)
        orphaned = board.reclaim(0)
        board.lease(1, orphaned)
        assert set(orphaned) <= set(board.assignments[1])
        assert set(orphaned) <= set(read_assignment(board.path(1)).keys)

    def test_lease_ignores_already_held_keys(self, tmp_path):
        board = board_for(tmp_path, workers=2)
        held = list(board.assignments[1])
        board.lease(1, held[:2])
        assert board.assignments[1] == held


class TestPlanSteals:
    def test_balanced_shards_plan_nothing(self, tmp_path):
        """Zero-steal behaviour: no idle worker, no plan."""
        board = board_for(tmp_path, workers=2)
        assert plan_steals(board, idle=[], busy=[0, 1]) == []

    def test_idle_worker_with_no_victim_plans_nothing(self, tmp_path):
        board = board_for(tmp_path, workers=2)
        for key in KEYS:
            board.record_done(key)
        assert plan_steals(board, idle=[0, 1], busy=[]) == []

    def test_idle_worker_takes_half_of_the_biggest_victim(self, tmp_path):
        board = board_for(tmp_path, workers=2, batch=1)
        for key in board.assignments[1]:
            board.record_done(key)
        stealable = len(board.stealable(0))
        plan = plan_steals(board, idle=[1], busy=[0], threshold=1)
        assert plan == [(0, 1, (stealable + 1) // 2)]

    def test_threshold_suppresses_small_steals(self, tmp_path):
        board = board_for(tmp_path, workers=2, batch=1)
        for key in board.assignments[1]:
            board.record_done(key)
        stealable = len(board.stealable(0))
        assert plan_steals(board, [1], [0], threshold=stealable + 1) == []
        assert plan_steals(board, [1], [0], threshold=stealable) != []

    def test_two_idle_workers_split_the_victim(self, tmp_path):
        board = board_for(tmp_path, workers=3, batch=1)
        victim = max(range(3), key=lambda w: len(board.stealable(w)))
        for worker in range(3):
            if worker != victim:
                for key in board.assignments[worker]:
                    board.record_done(key)
        idle = [w for w in range(3) if w != victim]
        plan = plan_steals(board, idle, [victim], threshold=1)
        assert len(plan) == 2
        assert {thief for _, thief, _ in plan} == set(idle)
        total = len(board.stealable(victim))
        assert sum(count for _, _, count in plan) >= total - 1

    def test_bad_threshold_rejected(self, tmp_path):
        board = board_for(tmp_path, workers=2)
        with pytest.raises(ValueError, match="threshold"):
            plan_steals(board, [0], [1], threshold=0)


class TestBoardWriteHook:
    def test_on_write_fires_for_every_rewrite(self, tmp_path):
        """The multi-host supervisor pushes assignment files through
        this hook; missing a rewrite would strand a remote worker on a
        stale lease set."""
        calls = []
        board = LeaseBoard(
            KEYS,
            workers=2,
            run_dir=tmp_path,
            spec_hash=HASH,
            batch=1,
            on_write=lambda worker, path: calls.append((worker, path)),
        )
        # Construction writes every worker's file once.
        assert [worker for worker, _ in calls] == [0, 1]
        assert calls[0][1] == board.path(0)
        calls.clear()
        moved = board.steal(
            max(range(2), key=lambda w: len(board.stealable(w))),
            min(range(2), key=lambda w: len(board.stealable(w))),
            1,
        )
        assert moved
        assert len(calls) == 2  # both sides of a steal rewrite
        calls.clear()
        board.close_all()
        assert [worker for worker, _ in calls] == [0, 1]

    def test_hook_sees_file_already_on_disk(self, tmp_path):
        """on_write(worker, path) must be called after the atomic
        replace lands, so a push hook ships the new content."""
        seen = []

        def hook(worker, path):
            seen.append(read_assignment(path).version)

        board = LeaseBoard(
            KEYS, workers=1, run_dir=tmp_path, spec_hash=HASH, on_write=hook
        )
        board.close_all()
        assert seen == [0, 1]
        assert read_assignment(board.path(0)).closed


class TestAddWorker:
    def test_join_gets_an_empty_open_assignment(self, tmp_path):
        board = board_for(tmp_path, workers=2)
        index = board.add_worker()
        assert index == 2
        assert board.workers == 3
        assignment = read_assignment(board.path(2))
        assert assignment.keys == ()
        assert not assignment.closed
        # The joined slot participates in normal leasing.
        board.lease(2, ["k-join"] if "k-join" in KEYS else [KEYS[0]])
        assert board.remaining(2) == [KEYS[0]]

    def test_join_after_close_gets_a_closed_assignment(self, tmp_path):
        """A worker joining a finished campaign must exit immediately,
        not wait forever on an open empty file."""
        board = board_for(tmp_path, workers=1)
        for key in KEYS:
            board.record_done(key)
        board.close_all()
        index = board.add_worker()
        assert read_assignment(board.path(index)).closed

    def test_join_fires_the_write_hook(self, tmp_path):
        calls = []
        board = LeaseBoard(
            KEYS,
            workers=1,
            run_dir=tmp_path,
            spec_hash=HASH,
            on_write=lambda worker, path: calls.append(worker),
        )
        board.add_worker()
        assert calls == [0, 1]
