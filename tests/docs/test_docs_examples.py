"""Execute the fenced ``python`` blocks of the docs pages under pytest.

The pages under ``docs/`` advertise themselves as *executable*: every
claim they make about the isolation oracle or the scheme registry is an
assertion in a fenced code block.  This harness keeps that promise — each
page's ``python`` blocks are extracted in order and executed in one shared
namespace (so later blocks can use names defined earlier, exactly as a
reader would run them top to bottom).  A doc drifting from the code fails
CI with the offending block's source in the traceback.
"""

import gc
import importlib.util
import re
import sys
from pathlib import Path

import pytest

DOCS_DIR = Path(__file__).resolve().parent.parent.parent / "docs"

#: a fenced code block opened with ```python and closed with ```
_FENCED_PYTHON = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)

DOC_PAGES = sorted(DOCS_DIR.glob("*.md"))


def python_blocks(page: Path):
    """The page's fenced python blocks with their starting line numbers."""
    text = page.read_text(encoding="utf-8")
    blocks = []
    for match in _FENCED_PYTHON.finditer(text):
        line = text.count("\n", 0, match.start()) + 2  # first code line
        blocks.append((line, match.group(1)))
    return blocks


def test_every_docs_page_is_discovered():
    """The executable catalog must exist and actually contain code."""
    names = [page.name for page in DOC_PAGES]
    assert "anomalies.md" in names
    assert "cc-schemes.md" in names
    for page in DOC_PAGES:
        assert python_blocks(page), f"{page.name} has no runnable blocks"


@pytest.mark.parametrize("page", DOC_PAGES, ids=lambda page: page.name)
def test_docs_examples_execute(page):
    """Run the page's blocks top to bottom in one shared namespace.

    The pages' simulations leave suspended process generators in reference
    cycles.  Collecting them runs their ``finally`` blocks (a CPU request's
    ``cancel()`` releases the resource), so the namespace is cleared and
    collected here rather than inside whatever test runs next.
    """
    namespace = {"__name__": f"docs_example_{page.stem}"}
    try:
        for line, source in python_blocks(page):
            code = compile(source, f"{page.name}:{line}", "exec")
            exec(code, namespace)  # noqa: S102 - executing our own docs is the point
    finally:
        namespace.clear()
        gc.collect()


# ----------------------------------------------------------------------
# the link checker, kept honest by the same suite that CI's docs job runs
# ----------------------------------------------------------------------
def _load_check_links():
    tool = DOCS_DIR.parent / "tools" / "check_links.py"
    spec = importlib.util.spec_from_file_location("check_links", tool)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_links", module)
    spec.loader.exec_module(module)
    return module


class TestLinkChecker:
    def test_repository_markdown_has_no_broken_links(self):
        assert _load_check_links().main([]) == 0

    def test_broken_file_link_is_reported(self, tmp_path, capsys):
        (tmp_path / "README.md").write_text(
            "see [missing](docs/nope.md)\n", encoding="utf-8")
        (tmp_path / "docs").mkdir()
        assert _load_check_links().main(["--root", str(tmp_path)]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_broken_anchor_is_reported(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "page.md").write_text("# Only Heading\n", encoding="utf-8")
        (tmp_path / "README.md").write_text(
            "see [anchor](docs/page.md#other-heading)\n", encoding="utf-8")
        assert _load_check_links().main(["--root", str(tmp_path)]) == 1

    def test_valid_anchor_and_code_block_links_pass(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "page.md").write_text(
            "# A `coded` Heading\n\n"
            "```markdown\n[not a link](never/checked.md)\n```\n",
            encoding="utf-8")
        (tmp_path / "README.md").write_text(
            "ok: [anchor](docs/page.md#a-coded-heading) and "
            "[external](https://example.org/x)\n", encoding="utf-8")
        assert _load_check_links().main(["--root", str(tmp_path)]) == 0
