"""Pluggable file transports: move campaign artifacts between hosts.

The orchestrator's worker protocol is entirely file-based — spec,
stream, event-log, and assignment files (see
:class:`~repro.experiments.layout.RunLayout`) — so running a campaign
across machines is a *transport* problem, not a protocol change.  This
module is that transport seam: a small ABC over the six operations the
supervisor calls, with two implementations.

- :class:`LocalTransport` — direct I/O on a directory root, its worker a
  local subprocess.  Every ``--shards`` slot is one whose root *is* the
  supervisor's run dir: ``push``/``pull`` detect that source and
  destination are one file and become no-ops, which is how the
  single-machine scheduler runs through the same code path as a fleet.
  A *different* root (``store:PATH`` or ``local:PATH``) behaves like a
  remote host that happens to share the filesystem — an NFS or bucket
  mount, and the CI-testable stand-in for a remote machine: its worker
  reads and writes its run files under that root, so multi-host
  orchestration runs end to end with no network at all.
- :class:`SSHTransport` — ``scp``/``ssh`` file movement plus remote
  worker launch (``python3 -m repro.cli campaign --tasks ...`` over
  ``ssh``).  The remote host only needs the ``repro`` package
  importable by ``python3``; everything else is plain OpenSSH.

Path arguments are *names relative to the transport's root* (the
strings :class:`~repro.experiments.layout.RunLayout` defines), so one
layout describes both the supervisor's mirror dir and every remote
root.  All write operations are atomic at file granularity (temp file
+ rename, or the SSH equivalent): a reader — human, worker, or the
supervisor's stream tailer — never sees a torn file.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
from abc import ABC, abstractmethod
from pathlib import Path
from typing import IO, Sequence

__all__ = [
    "LocalTransport",
    "SSHTransport",
    "Transport",
    "TransportError",
    "parse_host",
    "parse_hosts",
]


class TransportError(RuntimeError):
    """A transport operation failed (unreachable host, bad root, I/O)."""


class Transport(ABC):
    """File operations against one host's run-dir root.

    ``rel`` arguments are root-relative names from
    :class:`~repro.experiments.layout.RunLayout`; they must stay inside
    the root (no absolute paths, no ``..``).
    """

    #: Whether :meth:`launch` runs the worker on *this* machine (so the
    #: supervisor should hand it a full local environment, e.g. the
    #: ``PYTHONPATH`` that makes ``repro`` importable from a checkout).
    runs_locally = False

    def _check_rel(self, rel: str) -> str:
        parts = Path(rel).parts
        if Path(rel).is_absolute() or ".." in parts or not parts:
            raise TransportError(
                f"transport paths are root-relative names, got {rel!r}"
            )
        return rel

    @abstractmethod
    def push(self, local: str | Path, rel: str) -> None:
        """Ship a local file to ``rel`` on the host (atomic replace)."""

    @abstractmethod
    def pull(self, rel: str, local: str | Path) -> bool:
        """Mirror ``rel`` back into a local file (atomic replace).

        The mirror keeps the host file's mtime: the supervisor's stall
        detector reads a worker's event-log age off the pulled copy.
        Returns ``False`` — touching nothing — when the remote file does
        not exist yet (a worker that has not started writing).
        """

    @abstractmethod
    def touch(self, rel: str) -> None:
        """Create ``rel`` if missing and freshen its mtime."""

    @abstractmethod
    def launch(
        self,
        command: Sequence[str],
        stdout: IO,
        env: dict[str, str] | None = None,
    ) -> subprocess.Popen:
        """Start a worker process on the host, logging into ``stdout``.

        The returned handle follows the orchestrator's kill discipline:
        it runs in its own session, so a process-group SIGKILL takes the
        worker and everything it spawned (locally, that is the worker's
        simulation pool; for SSH it is the local client, whose death
        hangs up the remote side).
        """

    @abstractmethod
    def command_head(self) -> list[str]:
        """The argv prefix that invokes the ``repro`` CLI on this host."""

    @abstractmethod
    def describe(self) -> str:
        """A short human-readable host label for events and errors."""


class LocalTransport(Transport):
    """Direct I/O on a local directory root.

    The degenerate — and most common — case: when ``root`` is the
    supervisor's own run dir, every push/pull is a same-file no-op and
    the slot is an ordinary ``--shards`` worker.  A *different* root
    behaves like a remote host that happens to share the filesystem.
    ``scheme`` is only the label's prefix (``store:PATH`` and
    ``local:PATH`` host specs both land here).
    """

    runs_locally = True

    def __init__(self, root: str | Path, scheme: str = "local") -> None:
        self.root = Path(root)
        self.scheme = scheme

    def _path(self, rel: str) -> Path:
        return self.root / self._check_rel(rel)

    @staticmethod
    def _same_file(a: Path, b: Path) -> bool:
        try:
            return os.path.samefile(a, b)
        except OSError:
            # One side missing: resolve textually (covers the
            # zero-copy check before the file first exists).
            return a.resolve() == b.resolve()

    def _copy(self, source: Path, target: Path) -> bool:
        """Copy ``source`` over ``target``: temp file, fsync, rename.

        The target keeps the source's mtime across the hop.  Returns
        ``False`` when ``source`` does not exist.
        """
        if self._same_file(source, target):
            return source.exists()
        if not source.exists():
            return False
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
        try:
            with open(source, "rb") as src, open(tmp, "wb") as dst:
                shutil.copyfileobj(src, dst)
                dst.flush()
                os.fsync(dst.fileno())
                stamp = os.fstat(src.fileno())
            os.utime(tmp, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
            os.replace(tmp, target)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise TransportError(
                f"cannot copy {source} -> {target}: {exc}"
            ) from exc
        return True

    def push(self, local: str | Path, rel: str) -> None:
        if not self._copy(Path(local), self._path(rel)):
            raise TransportError(f"cannot push missing file {local}")

    def pull(self, rel: str, local: str | Path) -> bool:
        source, target = self._path(rel), Path(local)
        try:
            have, want = os.stat(target), os.stat(source)
        except OSError:
            pass
        else:
            # ``_copy`` gave the mirror the source's mtime, so the same
            # size and mtime mean the source has not grown or been
            # touched since.  Pulled files only ever do that; a pushed
            # file can be rewritten at the same size, so push copies.
            if (have.st_size, have.st_mtime_ns) == (
                want.st_size,
                want.st_mtime_ns,
            ):
                return True
        return self._copy(source, target)

    def touch(self, rel: str) -> None:
        target = self._path(rel)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.touch()
        except OSError as exc:
            raise TransportError(f"cannot touch {target}: {exc}") from exc

    def launch(
        self,
        command: Sequence[str],
        stdout: IO,
        env: dict[str, str] | None = None,
    ) -> subprocess.Popen:
        # A launch failure is a local OSError (no such interpreter, out
        # of processes), not a host going dark: it propagates as is.
        return subprocess.Popen(
            list(command),
            stdout=stdout,
            stderr=subprocess.STDOUT,
            env=env,
            # Own session/process group, so killing the worker also
            # reaps its simulation pool children.
            start_new_session=True,
        )

    def command_head(self) -> list[str]:
        return [sys.executable, "-m", "repro.cli"]

    def describe(self) -> str:
        return f"{self.scheme}:{self.root}"


class SSHTransport(Transport):
    """rsync/scp-style file movement and worker launch over OpenSSH.

    ``[user@]host[:root]`` host specs come from ``--hosts``; ``root``
    defaults to ``repro-run`` under the remote home.  Requirements on
    the remote side: reachable via non-interactive ``ssh`` (keys or
    agent — ``BatchMode=yes`` is forced so a password prompt fails fast
    instead of hanging the supervisor), and the ``repro`` package
    importable by ``python3``.  Remote mtimes are read off the remote
    clock; keep fleet clocks NTP-sane or stall timeouts drift.

    Every operation shells out; anything returning nonzero raises
    :class:`TransportError` with the captured stderr.  Argv construction
    is split into pure ``*_argv`` helpers so tests can pin the exact
    commands without a live host.
    """

    #: Seconds an individual ssh/scp control operation may take.
    OP_TIMEOUT = 30.0

    def __init__(
        self,
        host: str,
        root: str = "repro-run",
        user: str | None = None,
        remote_python: str = "python3",
        ssh_options: Sequence[str] = (),
    ) -> None:
        if not host:
            raise ValueError("SSH transport needs a host name")
        if Path(root).is_absolute() and ".." in Path(root).parts:
            raise ValueError(f"bad remote root {root!r}")
        self.host = host
        self.user = user
        self.root = root
        self.remote_python = remote_python
        self.ssh_options = tuple(ssh_options)

    @property
    def target(self) -> str:
        return f"{self.user}@{self.host}" if self.user else self.host

    def _remote_path(self, rel: str) -> str:
        return f"{self.root}/{self._check_rel(rel)}"

    def _options(self) -> list[str]:
        return ["-o", "BatchMode=yes", *self.ssh_options]

    def ssh_argv(self, remote_command: str) -> list[str]:
        return ["ssh", *self._options(), self.target, remote_command]

    def scp_push_argv(self, local: str | Path, rel: str) -> list[str]:
        # scp into a temp name + mv keeps the replace atomic on the
        # remote side, mirroring the local temp+rename discipline.
        return self.ssh_argv(
            f"mkdir -p {shlex.quote(self.root)} && cat > "
            f"{shlex.quote(self._remote_path(rel) + '.tmp')} && mv "
            f"{shlex.quote(self._remote_path(rel) + '.tmp')} "
            f"{shlex.quote(self._remote_path(rel))}"
        )

    def scp_pull_argv(self, rel: str, local: str | Path) -> list[str]:
        # -p preserves the remote mtime, which the supervisor's stall
        # detector reads off the mirrored event log.
        return [
            "scp", "-q", "-p", *self._options(),
            f"{self.target}:{self._remote_path(rel)}", str(local),
        ]

    def worker_argv(self, command: Sequence[str],
                    env: dict[str, str] | None = None) -> list[str]:
        assignments = "".join(
            f"{key}={shlex.quote(value)} " for key, value in (env or {}).items()
        )
        return self.ssh_argv(
            assignments + " ".join(shlex.quote(part) for part in command)
        )

    def _run(
        self, argv: Sequence[str], *, input_bytes: bytes | None = None
    ) -> subprocess.CompletedProcess:
        try:
            done = subprocess.run(
                list(argv),
                input=input_bytes,
                capture_output=True,
                timeout=self.OP_TIMEOUT,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise TransportError(
                f"{self.describe()}: {argv[0]} failed: {exc}"
            ) from exc
        if done.returncode != 0:
            stderr = done.stderr.decode("utf-8", "replace").strip()
            raise TransportError(
                f"{self.describe()}: {' '.join(argv[:2])}... exited "
                f"{done.returncode}: {stderr or '<no stderr>'}"
            )
        return done

    def _stamp(self, rel: str) -> list[bytes] | None:
        """The remote file's size and whole-second mtime, as printed by
        ``stat``; ``None`` when the file is absent or the host is
        unreachable."""
        path = shlex.quote(self._remote_path(rel))
        try:
            # GNU stat, else BSD stat: both print "<size> <mtime>".
            done = self._run(self.ssh_argv(
                f"stat -c '%s %Y' {path} 2>/dev/null || stat -f '%z %m' {path}"
            ))
        except TransportError:
            return None
        return done.stdout.split()

    def push(self, local: str | Path, rel: str) -> None:
        try:
            data = Path(local).read_bytes()
        except OSError as exc:
            raise TransportError(
                f"cannot push missing file {local}"
            ) from exc
        self._run(self.scp_push_argv(local, rel), input_bytes=data)

    def pull(self, rel: str, local: str | Path) -> bool:
        stamp = self._stamp(rel)
        if stamp is None:
            return False
        target = Path(local)
        try:
            have = target.stat()
        except OSError:
            pass
        else:
            # ``scp -p`` gave the mirror the remote whole-second mtime,
            # and pulled files only grow or get touched, so the same
            # size and mtime mean nothing changed since the last pull.
            if stamp == [b"%d" % have.st_size, b"%d" % have.st_mtime]:
                return True
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
        try:
            self._run(self.scp_pull_argv(rel, tmp))
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
        return True

    def touch(self, rel: str) -> None:
        self._run(self.ssh_argv(
            f"mkdir -p {shlex.quote(self.root)} && touch "
            f"{shlex.quote(self._remote_path(rel))}"
        ))

    def launch(
        self,
        command: Sequence[str],
        stdout: IO,
        env: dict[str, str] | None = None,
    ) -> subprocess.Popen:
        try:
            return subprocess.Popen(
                self.worker_argv(command, env),
                stdout=stdout,
                stderr=subprocess.STDOUT,
                # Killing the local ssh client's group hangs up the
                # remote session, which takes the remote worker down.
                start_new_session=True,
            )
        except OSError as exc:
            raise TransportError(
                f"{self.describe()}: cannot launch ssh: {exc}"
            ) from exc

    def command_head(self) -> list[str]:
        return [self.remote_python, "-m", "repro.cli"]

    def describe(self) -> str:
        return f"ssh:{self.target}"


def parse_host(spec: str) -> Transport:
    """One ``--hosts`` entry -> a transport, validated eagerly.

    Syntax::

        user@host            SSH, default remote root (repro-run)
        host:/data/run       SSH with an explicit remote root
        store:/shared/h1     directory root (shared filesystem, mount)
        local:/mnt/nfs/h1    directory root, labelled local:

    Raises :class:`ValueError` on anything malformed — the CLI calls
    this at parse time, so a typo'd fleet spec dies before a single
    simulation starts.
    """
    text = spec.strip()
    if not text:
        raise ValueError("empty host spec")
    scheme, sep, rest = text.partition(":")
    if sep and scheme in ("store", "local"):
        if not rest:
            raise ValueError(
                f"host spec {spec!r}: {scheme}: needs a directory"
            )
        return LocalTransport(rest, scheme=scheme)
    address, _, root = text.partition(":")
    user, at, host = address.rpartition("@")
    if at and not user:
        raise ValueError(f"host spec {spec!r}: empty user before '@'")
    if not host:
        raise ValueError(f"host spec {spec!r}: no host name")
    if any(ch.isspace() for ch in text):
        raise ValueError(f"host spec {spec!r}: whitespace not allowed")
    return SSHTransport(
        host=host, user=user or None, root=root or "repro-run"
    )


def parse_hosts(specs: Sequence[str]) -> list[Transport]:
    """Parse a full ``--hosts`` list, refusing duplicates."""
    transports = [parse_host(spec) for spec in specs]
    seen: set[str] = set()
    for transport in transports:
        label = transport.describe()
        if label in seen:
            raise ValueError(f"host {label} listed twice")
        seen.add(label)
    return transports
