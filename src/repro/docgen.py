"""Generated reference documentation, derived from the code itself.

``docs/protocols.md`` and ``docs/cli.md`` are not hand-written: the
protocol table derives from the protocol registry
(:mod:`repro.baselines.registry`) and the CLI reference from the actual
argparse tree (:func:`repro.cli._build_parser`), so they cannot drift
from the code — a tier-1 test (``tests/test_docs.py``) regenerates both
and fails when the committed files are stale.

Regenerate with::

    PYTHONPATH=src python -m repro.docgen          # rewrite docs/
    PYTHONPATH=src python -m repro.docgen --check  # exit 1 when stale
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from enum import Enum
from pathlib import Path

from repro.baselines.registry import (
    available_protocols,
    protocol_aliases,
    protocol_entry,
)
from repro.cli import _build_parser
from repro.experiments.protocols import sweepable_params

#: Every generated file carries this marker so a reader lands on the
#: generator, not an edit war with a test.
GENERATED_MARK = (
    "<!-- GENERATED by `python -m repro.docgen` from the code; "
    "do not edit by hand -->"
)


def _default_repr(field: dataclasses.Field) -> str:
    if isinstance(field.default, Enum):  # a parameter takes its value
        return repr(field.default.value)
    if field.default is not dataclasses.MISSING:
        return repr(field.default)
    if field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        return f"{field.default_factory()!r}"
    return "(required)"


def protocols_markdown() -> str:
    """``docs/protocols.md``: the protocol registry as a reference page."""
    lines = [
        GENERATED_MARK,
        "",
        "# Protocol reference",
        "",
        "Every protocol below is registered in"
        " `repro.baselines.registry` and therefore accepted anywhere a"
        " protocol name goes: `repro run --protocol`, campaign"
        " `--protocols` lists, `ProtocolConfig.of(...)` sweep variants,"
        " and JSON campaign specs.  Names are case-insensitive and"
        " hyphen/underscore-agnostic.",
        "",
        "| protocol | aliases | config class | buffer field | sweepable parameters |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name in available_protocols():
        entry = protocol_entry(name)
        aliases = ", ".join(protocol_aliases(name)) or "—"
        config = entry.config_class.__name__ if entry.config_class else "—"
        buffer_field = entry.buffer_field or "—"
        params = ", ".join(sweepable_params(name)) or "—"
        lines.append(
            f"| `{name}` | {aliases} | {config} | {buffer_field} "
            f"| {params} |"
        )
    lines += [
        "",
        "The *buffer field* is where the campaign-level `--storage-limit`"
        " / `buffer_limit` fallback lands when the protocol's own config"
        " leaves it unset; protocols without a config class take the"
        " limit directly.",
        "",
        "## Configuration fields",
        "",
        "Per-protocol config dataclasses, with defaults.  Every field is"
        " a parameter: `--protocol-param`, `ProtocolConfig.of(...)` and"
        " JSON specs take it.  An enum field takes its value string.",
        "",
    ]
    for name in available_protocols():
        entry = protocol_entry(name)
        if entry.config_class is None:
            lines.append(
                f"### `{name}`\n\nNo configuration (parameterless"
                f" contact protocol)."
            )
            lines.append("")
            continue
        lines.append(f"### `{name}` — `{entry.config_class.__name__}`")
        lines.append("")
        lines.append("| field | default |")
        lines.append("| --- | --- |")
        for field in dataclasses.fields(entry.config_class):
            lines.append(f"| `{field.name}` | `{_default_repr(field)}` |")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _format_action(action: argparse.Action) -> str | None:
    """One markdown table row for an argparse action (None: skip)."""
    if isinstance(
        action, (argparse._HelpAction, argparse._SubParsersAction)
    ):
        return None
    if action.option_strings:
        flag = ", ".join(f"`{opt}`" for opt in action.option_strings)
    else:
        flag = f"`{action.dest}`"
    if action.choices is not None:
        value = "{" + ",".join(str(c) for c in action.choices) + "}"
    elif isinstance(action, argparse._StoreTrueAction):
        value = ""
    elif action.metavar is not None:
        value = str(action.metavar)
    elif action.option_strings:
        value = action.dest.upper()
    else:
        value = ""
    default = ""
    if action.default is not None and action.default is not argparse.SUPPRESS:
        default = f"`{action.default}`"
    help_text = (action.help or "").replace("|", "\\|")
    value = value.replace("|", "\\|")
    return f"| {flag} | {value} | {default} | {help_text} |"


def _parser_section(
    title: str, parser: argparse.ArgumentParser, depth: int
) -> list[str]:
    lines = [f"{'#' * depth} `{title}`", ""]
    if parser.description:
        lines += [parser.description, ""]
    rows = [
        row
        for action in parser._actions
        if (row := _format_action(action)) is not None
    ]
    if rows:
        lines += [
            "| argument | value | default | help |",
            "| --- | --- | --- | --- |",
            *rows,
            "",
        ]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                lines += _parser_section(
                    f"{title} {name}", sub, min(depth + 1, 4)
                )
    return lines


def cli_markdown() -> str:
    """``docs/cli.md``: the argparse tree as a reference page."""
    parser = _build_parser()
    lines = [
        GENERATED_MARK,
        "",
        "# CLI reference",
        "",
        "The `repro` / `glr-repro` / `python -m repro.cli` entry point."
        "  Exit codes: 0 success; 2 bad input (unknown protocol,"
        " malformed spec, missing file); 3 orchestrator/scheduler"
        " failure; 4 idle `--tasks` worker timed out (supervisor gone);"
        " 130 interrupted; 141 broken pipe.",
        "",
    ]
    lines += _parser_section("repro", parser, 2)
    return "\n".join(lines).rstrip() + "\n"


def generated_docs() -> dict[str, str]:
    """Relative doc path -> current generated content."""
    return {
        "docs/protocols.md": protocols_markdown(),
        "docs/cli.md": cli_markdown(),
    }


def write_docs(root: str | Path = ".") -> list[Path]:
    """(Re)write the generated docs under ``root``; returns the paths."""
    written = []
    for rel, content in generated_docs().items():
        target = Path(root) / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content, encoding="utf-8")
        written.append(target)
    return written


def stale_docs(root: str | Path = ".") -> list[str]:
    """Relative paths of generated docs that differ from the code."""
    stale = []
    for rel, content in generated_docs().items():
        target = Path(root) / rel
        try:
            current = target.read_text(encoding="utf-8")
        except OSError:
            current = ""
        if current != content:
            stale.append(rel)
    return stale


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.docgen",
        description="Regenerate docs/protocols.md and docs/cli.md "
        "from the registries and the argparse tree.",
    )
    parser.add_argument(
        "--root", default=".", help="repository root (default: .)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing; exit 1 when the committed docs are stale",
    )
    args = parser.parse_args(argv)
    if args.check:
        stale = stale_docs(args.root)
        if stale:
            print(
                "stale generated docs (run `python -m repro.docgen`): "
                + ", ".join(stale),
                file=sys.stderr,
            )
            return 1
        print("generated docs are in sync")
        return 0
    for path in write_docs(args.root):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
