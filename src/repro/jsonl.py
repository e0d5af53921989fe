"""Crash-safe JSON-lines files: the discipline streams and event logs share.

Campaign metric streams (:mod:`repro.experiments.stream`) and run-event
logs (:mod:`repro.telemetry.events`) are both append-only files of one
JSON record per line, kept by the same rules:

- a record is one canonical line (sorted keys, no spaces, ``\\n``);
- an append is one ``write`` followed by flush+fsync, so a crash or a
  full disk can tear only the final line;
- a whole-file rewrite goes to a temp file that is fsynced and renamed
  over the target, so no reader ever sees a torn file;
- a loader's undecodable lines move raw to a ``<file>.quarantined``
  sidecar, and the file is rewritten with the surviving records.

Each loader keeps its own record parser, error type and messages.  This
module imports only the standard library: telemetry, which the
simulation layer imports, must not import :mod:`repro.experiments`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Sequence

__all__ = [
    "append_line",
    "encode_line",
    "quarantine_lines",
    "scan_lines",
    "write_lines",
]


def encode_line(record: dict) -> str:
    """``record`` as one canonical, ``\\n``-terminated JSON line."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def append_line(path: str | Path, record: dict) -> None:
    """One line, one ``write``, flush+fsync: a crash tears only a tail."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(encode_line(record))
        handle.flush()
        os.fsync(handle.fileno())


def write_lines(path: Path, records: Sequence[dict]) -> None:
    """Atomically replace ``path`` with ``records``: temp, fsync, rename."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(encode_line(record))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def scan_lines(
    text: str, parse: Callable[[str], dict | None]
) -> tuple[dict | None, list[dict], list[str]]:
    """Split a file's text into ``(header, records, bad lines)``.

    ``parse`` returns a validated record (``kind`` ``"header"`` or a
    data kind) or ``None`` for an undecodable line.  The first header
    wins; a second one is noise (e.g. a botched manual ``cat``) and
    counts as a bad line.  Blank lines are skipped.
    """
    header: dict | None = None
    records: list[dict] = []
    bad_lines: list[str] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = parse(line)
        if record is None:
            bad_lines.append(line)
        elif record["kind"] == "header":
            if header is None:
                header = record
            else:
                bad_lines.append(line)
        else:
            records.append(record)
    return header, records, bad_lines


def quarantine_lines(
    path: Path, bad_lines: Sequence[str], survivors: Sequence[dict]
) -> None:
    """Move ``bad_lines`` raw to ``<path>.quarantined``, then rewrite
    ``path`` atomically with ``survivors`` (header first)."""
    sidecar = path.with_name(path.name + ".quarantined")
    with open(
        sidecar, "a", encoding="utf-8", errors="surrogateescape"
    ) as handle:
        for line in bad_lines:
            handle.write(line + "\n")
    write_lines(path, survivors)
