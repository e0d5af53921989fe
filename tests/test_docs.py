"""Docs stay true: generated references in sync, internal links valid."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import docgen

REPO = Path(__file__).resolve().parent.parent

#: Markdown inline links: [text](target).  Images share the syntax.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: A markdown file named in code, such as ``docs/architecture.md``.
_MD_NAME = re.compile(r"[\w./-]+\.md\b")


class TestGeneratedDocs:
    def test_committed_docs_match_the_code(self):
        """docs/protocols.md and docs/cli.md are generator output.

        A mismatch means a protocol, flag, or default changed without
        regenerating: run ``PYTHONPATH=src python -m repro.docgen``.
        """
        stale = docgen.stale_docs(REPO)
        assert stale == [], (
            f"stale generated docs {stale}: run "
            "`PYTHONPATH=src python -m repro.docgen`"
        )

    def test_every_generated_doc_carries_the_marker(self):
        for content in docgen.generated_docs().values():
            assert content.startswith(docgen.GENERATED_MARK)

    def test_generator_covers_every_registered_protocol(self):
        from repro.baselines.registry import available_protocols

        table = docgen.protocols_markdown()
        for name in available_protocols():
            assert f"| `{name}` |" in table

    def test_generator_covers_the_report_command(self):
        reference = docgen.cli_markdown()
        for command in (
            "repro run",
            "repro campaign orchestrate",
            "repro report",
        ):
            assert f"`{command}`" in reference

    def test_check_mode_flags_a_stale_file(self, tmp_path, capsys):
        assert docgen.main(["--root", str(tmp_path)]) == 0
        assert docgen.main(["--root", str(tmp_path), "--check"]) == 0
        (tmp_path / "docs" / "cli.md").write_text("drifted\n")
        assert docgen.main(["--root", str(tmp_path), "--check"]) == 1
        assert "cli.md" in capsys.readouterr().err


def _internal_links(path: Path) -> list[tuple[str, Path]]:
    links = []
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        plain = target.split("#")[0]
        if not plain:
            continue  # same-file anchor
        links.append((target, (path.parent / plain).resolve()))
    return links


@pytest.mark.parametrize(
    "doc",
    sorted(
        str(p.relative_to(REPO))
        for p in [REPO / "README.md", *(REPO / "docs").glob("*.md")]
    ),
)
def test_internal_links_resolve(doc):
    path = REPO / doc
    broken = [
        target
        for target, resolved in _internal_links(path)
        if not resolved.exists()
    ]
    assert broken == [], f"{doc}: broken internal links {broken}"


def test_docs_named_in_code_exist():
    """Every ``*.md`` file a module, bench or example names exists, at
    the repository root or beside the file that names it."""
    missing = [
        f"{path.relative_to(REPO)}: {name}"
        for folder in ("src", "benchmarks", "examples")
        for path in sorted((REPO / folder).rglob("*.py"))
        for name in _MD_NAME.findall(path.read_text(encoding="utf-8"))
        if not (REPO / name).exists() and not (path.parent / name).exists()
    ]
    assert missing == [], f"docs named in code do not exist: {missing}"
