"""Tests for the campaign file transports.

The supervisor runs every slot through the same six operations, so the
core here is a *property* suite against the directory transport
(LocalTransport), run once per host spec that reaches it — ``local:``
and ``store:`` — asserting both behave the same: atomic, fsynced,
mtime-keeping copies, a torn copy never surfacing, and the worker launch
discipline.  Same-file no-ops on the run dir have their own tests.  SSH
is exercised at the argv-builder level (the commands are pure functions
of the spec), since CI has no remote host to talk to.
"""

from __future__ import annotations

import os
import subprocess

import pytest

from repro.experiments.transport import (
    LocalTransport,
    SSHTransport,
    TransportError,
    parse_host,
    parse_hosts,
)


#: The host specs served by the directory transport; they must be
#: interchangeable.
BACKENDS = ("local", "store")


@pytest.fixture
def transport(kind, tmp_path):
    return parse_host(f"{kind}:{tmp_path / f'{kind}-root'}")


@pytest.mark.parametrize("kind", BACKENDS)
class TestTransportProperties:
    """Behaviours every ``local:`` and ``store:`` slot must share."""

    def test_pull_round_trips_bytes(self, transport, tmp_path):
        transport.root.mkdir()
        (transport.root / "data.bin").write_bytes(b"\x00\xff binary \n lines \n")
        target = tmp_path / "out.bin"
        assert transport.pull("data.bin", target)
        assert target.read_bytes() == b"\x00\xff binary \n lines \n"

    def test_push_replaces_whole_content(self, transport, tmp_path):
        source = tmp_path / "src.txt"
        source.write_bytes(b"first version, quite long")
        transport.push(source, "f")
        source.write_bytes(b"second")
        transport.push(source, "f")
        assert (transport.root / "f").read_bytes() == b"second"

    def test_torn_write_leaves_target_untouched(
        self, transport, tmp_path, monkeypatch
    ):
        """A copy that dies mid-flight must not damage the file.

        The replace step is forced to fail, simulating a crash between
        writing the temp file and renaming it over the target: the old
        content must survive byte-for-byte and no temp litter may be
        left beside it.
        """
        source = tmp_path / "src.txt"
        source.write_bytes(b"survives")
        transport.push(source, "f")
        source.write_bytes(b"never lands")

        def torn(src, dst, *args, **kwargs):
            raise OSError("simulated crash mid-replace")

        monkeypatch.setattr(os, "replace", torn)
        with pytest.raises(TransportError):
            transport.push(source, "f")
        monkeypatch.undo()
        assert (transport.root / "f").read_bytes() == b"survives"
        assert sorted(p.name for p in transport.root.iterdir()) == ["f"]

    def test_copy_is_fsynced_before_it_is_renamed_into_place(
        self, transport, tmp_path, monkeypatch
    ):
        source = tmp_path / "src.txt"
        source.write_bytes(b"durable")
        calls: list[str] = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append("fsync")
            return real_fsync(fd)

        def replace(src, dst, *args, **kwargs):
            calls.append("replace")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        transport.push(source, "f")
        assert calls == ["fsync", "replace"]
        calls.clear()
        assert transport.pull("f", tmp_path / "mirror")
        assert calls == ["fsync", "replace"]

    def test_touch_creates_then_freshens(self, transport):
        transport.touch("beacon")
        beacon = transport.root / "beacon"
        assert beacon.exists()
        first = beacon.stat().st_mtime
        os.utime(beacon, (first - 100, first - 100))
        transport.touch("beacon")
        assert beacon.stat().st_mtime >= first - 1

    def test_touch_does_not_clobber_content(self, transport):
        transport.root.mkdir()
        (transport.root / "f").write_bytes(b"content")
        transport.touch("f")
        assert (transport.root / "f").read_bytes() == b"content"

    def test_push_then_pull_round_trip(self, transport, tmp_path):
        source = tmp_path / "src.txt"
        source.write_bytes(b"shipped")
        transport.push(source, "dest.txt")
        assert (transport.root / "dest.txt").is_file()
        back = tmp_path / "back.txt"
        assert transport.pull("dest.txt", back)
        assert back.read_bytes() == b"shipped"

    def test_pull_missing_returns_false_touches_nothing(
        self, transport, tmp_path
    ):
        target = tmp_path / "mirror.txt"
        assert not transport.pull("absent.txt", target)
        assert not target.exists()
        # An existing mirror survives a failed pull untouched.
        target.write_bytes(b"stale but intact")
        assert not transport.pull("absent.txt", target)
        assert target.read_bytes() == b"stale but intact"

    def test_pull_preserves_mtime(self, transport, tmp_path):
        """Mirrors must keep the remote timestamp: the supervisor's
        stall detector reads event-log ages off the pulled copy."""
        transport.touch("hb")
        stamp = (transport.root / "hb").stat().st_mtime - 1234
        os.utime(transport.root / "hb", (stamp, stamp))
        target = tmp_path / "hb-mirror"
        assert transport.pull("hb", target)
        assert target.stat().st_mtime == pytest.approx(stamp, abs=2)

    def test_unchanged_pull_copies_nothing_and_a_grown_file_is_copied(
        self, transport, tmp_path
    ):
        """A mirror with the source's size and mtime is already current;
        once the source grows, the next pull copies it with the new
        mtime."""
        transport.root.mkdir()
        source = transport.root / "shard0.jsonl"
        source.write_bytes(b"record 1\n")
        mirror = tmp_path / "shard0.jsonl"
        assert transport.pull("shard0.jsonl", mirror)
        inode = mirror.stat().st_ino
        assert transport.pull("shard0.jsonl", mirror)
        assert mirror.stat().st_ino == inode
        with open(source, "ab") as handle:
            handle.write(b"record 2\n")
        stamp = source.stat().st_mtime_ns + 5_000_000_000
        os.utime(source, ns=(stamp, stamp))
        assert transport.pull("shard0.jsonl", mirror)
        assert mirror.read_bytes() == b"record 1\nrecord 2\n"
        assert mirror.stat().st_mtime_ns == stamp

    def test_push_missing_source_raises(self, transport, tmp_path):
        with pytest.raises(TransportError):
            transport.push(tmp_path / "nope.txt", "dest.txt")

    @pytest.mark.parametrize("bad", ["/etc/passwd", "../escape", "a/../../b"])
    def test_rejects_escaping_paths(self, transport, bad, tmp_path):
        source = tmp_path / "src.txt"
        source.write_bytes(b"x")
        for operation in (
            lambda: transport.push(source, bad),
            lambda: transport.touch(bad),
            lambda: transport.pull(bad, tmp_path / "out"),
        ):
            with pytest.raises(TransportError):
                operation()

    def test_launch_runs_in_its_own_session(self, transport, tmp_path):
        log = open(tmp_path / "w.log", "a", encoding="utf-8")
        try:
            process = transport.launch(
                ["/bin/sh", "-c", "sleep 30"], stdout=log, env=None
            )
            try:
                # Session leader of its own group — the orchestrator's
                # process-group SIGKILL contract depends on it.
                assert os.getpgid(process.pid) == process.pid
            finally:
                process.kill()
                process.wait(timeout=30)
        finally:
            log.close()

    def test_launch_captures_worker_output(self, transport, tmp_path):
        with open(tmp_path / "w.log", "a", encoding="utf-8") as log:
            process = transport.launch(
                ["/bin/sh", "-c", "echo started"], stdout=log, env=None
            )
            assert process.wait(timeout=30) == 0
        assert "started" in (tmp_path / "w.log").read_text(encoding="utf-8")

    def test_launch_failure_propagates_as_oserror(self, transport, tmp_path):
        with open(tmp_path / "w.log", "a", encoding="utf-8") as log:
            with pytest.raises(OSError):
                transport.launch([str(tmp_path / "no-such-binary")], log)


class TestLocalTransportZeroCopy:
    def test_same_root_push_pull_are_noops(self, tmp_path):
        """root == run dir is the single-machine degenerate case: the
        'remote' file IS the local file, so syncs must not copy."""
        transport = LocalTransport(tmp_path)
        target = tmp_path / "shard0.jsonl"
        target.write_bytes(b"records\n")
        before = target.stat()
        transport.push(target, "shard0.jsonl")
        assert transport.pull("shard0.jsonl", target)
        after = target.stat()
        assert after.st_mtime == before.st_mtime
        assert target.read_bytes() == b"records\n"

    def test_pull_of_missing_same_file_is_false(self, tmp_path):
        transport = LocalTransport(tmp_path)
        assert not transport.pull("absent.jsonl", tmp_path / "absent.jsonl")

    def test_describe(self, tmp_path):
        assert LocalTransport(tmp_path).describe() == f"local:{tmp_path}"


class TestSSHArgv:
    """SSH is exercised as pure argv construction — no network in CI."""

    def test_defaults(self):
        transport = SSHTransport("h1", user="alice")
        assert transport.describe() == "ssh:alice@h1"
        assert transport.command_head() == ["python3", "-m", "repro.cli"]
        assert not transport.runs_locally

    def test_ssh_argv_forces_batch_mode(self):
        argv = SSHTransport("h1").ssh_argv("true")
        assert argv[0] == "ssh"
        assert "BatchMode=yes" in argv
        assert argv[-2:] == ["h1", "true"]

    def test_pull_argv_preserves_mtime_and_targets_root(self):
        argv = SSHTransport("h1", root="runs/x", user="bob").scp_pull_argv(
            "shard0.events", "/tmp/mirror"
        )
        assert argv[0] == "scp"
        assert "-p" in argv
        assert "bob@h1:runs/x/shard0.events" in argv
        assert argv[-1] == "/tmp/mirror"

    def test_push_argv_is_atomic_on_the_remote_side(self):
        argv = SSHTransport("h1").scp_push_argv("/tmp/spec.json", "spec.json")
        remote = argv[-1]
        # Temp name + mv: a remote reader never sees a torn file.
        assert "spec.json.tmp" in remote
        assert "mv" in remote

    def test_worker_argv_quotes_command(self):
        argv = SSHTransport("h1").worker_argv(
            ["python3", "-m", "repro.cli", "campaign", "--spec", "a b.json"]
        )
        assert argv[-1].endswith("'a b.json'")

    def test_pull_maps_a_failed_existence_check_to_absent(
        self, monkeypatch, tmp_path
    ):
        transport = SSHTransport("h1")

        def fail(argv, **kwargs):
            raise TransportError("unreachable")

        monkeypatch.setattr(transport, "_run", fail)
        assert not transport.pull("f", tmp_path / "mirror")
        assert not (tmp_path / "mirror").exists()

    def test_pull_copies_only_a_grown_or_touched_file(
        self, monkeypatch, tmp_path
    ):
        transport = SSHTransport("h1")
        remote = {"data": b"line 1\n", "mtime": 1_700_000_000}
        issued = []

        def run(argv, **kwargs):
            issued.append(argv[0])
            if argv[0] == "ssh":  # the remote stat
                stamp = f"{len(remote['data'])} {remote['mtime']}\n"
                return subprocess.CompletedProcess(argv, 0, stamp.encode(), b"")
            with open(argv[-1], "wb") as handle:  # scp -p
                handle.write(remote["data"])
            os.utime(argv[-1], (remote["mtime"], remote["mtime"]))
            return subprocess.CompletedProcess(argv, 0, b"", b"")

        monkeypatch.setattr(transport, "_run", run)
        mirror = tmp_path / "shard0.jsonl"
        expected = {
            "first pull": ["ssh", "scp"],
            "unchanged": ["ssh"],
            "grown": ["ssh", "scp"],
            "touched": ["ssh", "scp"],
        }
        for step, calls in expected.items():
            if step == "grown":
                remote["data"] += b"line 2\n"
            elif step == "touched":
                remote["mtime"] += 1
            issued.clear()
            assert transport.pull("shard0.jsonl", mirror)
            assert issued == calls, step
            assert mirror.read_bytes() == remote["data"]

    def test_operations_raise_on_nonzero_exit(self, monkeypatch):
        transport = SSHTransport("h1")

        def boom(argv, **kwargs):
            return subprocess.CompletedProcess(
                argv, returncode=255, stdout=b"", stderr=b"refused"
            )

        monkeypatch.setattr(subprocess, "run", boom)
        with pytest.raises(TransportError, match="refused"):
            transport.touch("f")


class TestParseHost:
    def test_store_spec(self, tmp_path):
        transport = parse_host(f"store:{tmp_path}/h1")
        assert isinstance(transport, LocalTransport)
        assert str(transport.root) == f"{tmp_path}/h1"
        assert transport.describe() == f"store:{tmp_path}/h1"

    def test_local_spec(self, tmp_path):
        transport = parse_host(f"local:{tmp_path}/h1")
        assert isinstance(transport, LocalTransport)

    def test_ssh_specs(self):
        plain = parse_host("h1")
        assert isinstance(plain, SSHTransport)
        assert plain.target == "h1"
        assert plain.root == "repro-run"
        full = parse_host("alice@h2:/data/run")
        assert full.target == "alice@h2"
        assert full.root == "/data/run"

    @pytest.mark.parametrize(
        "bad", ["", "   ", "store:", "local:", "@h1", "alice@", "h 1"]
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_host(bad)

    def test_parse_hosts_refuses_duplicates(self):
        with pytest.raises(ValueError, match="twice"):
            parse_hosts(["h1", "h1"])

    def test_parse_hosts_order_preserved(self, tmp_path):
        transports = parse_hosts([f"store:{tmp_path}/a", "bob@h9"])
        assert isinstance(transports[0], LocalTransport)
        assert isinstance(transports[1], SSHTransport)
