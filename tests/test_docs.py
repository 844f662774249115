"""The docs checker is part of tier-1: stale docs fail like stale code.

``scripts/check_docs.py`` smoke-imports every import statement inside
fenced ```python blocks of the repo's markdown and verifies intra-repo
links; these tests run it on the real docs and exercise its extraction
logic on synthetic input.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import check_docs  # noqa: E402


def test_repo_docs_are_clean():
    """README.md / docs/*.md / package READMEs: imports resolve, links exist."""
    assert check_docs.main() == 0


def test_markdown_inventory_covers_expected_files():
    names = {path.relative_to(REPO_ROOT).as_posix()
             for path in check_docs.iter_markdown_files()}
    assert "README.md" in names
    assert "docs/architecture.md" in names
    assert "src/repro/kg/README.md" in names


def test_extract_import_lines_only_from_python_fences():
    text = "\n".join([
        "```python",
        "from repro.kg import TripleStore",
        "store = TripleStore()",
        "import json",
        "```",
        "```bash",
        "import not_python_code",
        "```",
        "```python",
        "from repro.kg import TripleStore",  # duplicate — must dedupe
        "```",
    ])
    assert check_docs.extract_import_lines(text) == [
        "from repro.kg import TripleStore",
        "import json",
    ]


def test_extract_import_lines_joins_parenthesized_imports():
    text = "\n".join([
        "```python",
        "from repro.kg import (",
        "    TripleStore,",
        "    KnowledgeGraph,",
        ")",
        "```",
    ])
    statements = check_docs.extract_import_lines(text)
    assert statements == [
        "from repro.kg import ( TripleStore, KnowledgeGraph, )"]
    ok, stderr = check_docs.smoke_import(statements)
    assert ok, stderr


def test_check_links_flags_missing_targets(tmp_path):
    page = tmp_path / "page.md"
    (tmp_path / "exists.md").write_text("ok")
    page.write_text("\n".join([
        "[good](exists.md) [web](https://example.com) [anchor](#section)",
        "[bad](missing.md)",
        "```python",
        "x = '[not-a-link](also-missing.md)'",  # fenced code is skipped
        "```",
    ]))
    problems = check_docs.check_links(page, page.read_text())
    assert len(problems) == 1
    assert "missing.md" in problems[0]


def test_smoke_import_reports_failures():
    ok, _ = check_docs.smoke_import(["import json"])
    assert ok
    ok, stderr = check_docs.smoke_import(["import no_such_module_xyz"])
    assert not ok
    assert "no_such_module_xyz" in stderr


def test_documented_op_table_matches_the_protocol():
    """docs/architecture.md lists every wire op with its fields and its
    write / retry-safe / rows class; a drift from ``protocol.OPS`` fails
    here."""
    from repro.kg.protocol import HELLO, OPS, REQUIRED

    text = (REPO_ROOT / "docs" / "architecture.md").read_text()
    table = text.split("<!-- ops-table -->")[1].split("<!-- /ops-table -->")[0]
    documented = {}
    for line in table.strip().splitlines()[2:]:       # skip header + rule
        name, fields, write, retry, rows = (
            cell.strip() for cell in line.strip("|").split("|"))
        documented[name.strip("`")] = (
            [] if fields == "—" else fields.replace("`", "").split(", "),
            write == "yes", retry.startswith("yes"), rows == "yes")

    def declared(op):
        return ([name if field.default is REQUIRED else name + "?"
                 for name, field in op.fields.items()],
                op.write, op.retry_safe, op.rows)

    assert documented == {"hello": declared(HELLO),
                          **{name: declared(op) for name, op in OPS.items()}}
