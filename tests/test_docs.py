import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md",
        ROOT / "docs" / "EQUATIONS.md",
        ROOT / "docs" / "FORMATS.md",
        ROOT / "docs" / "REPRODUCE.md"]


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_doc_exists_and_nonempty(path):
    assert path.exists(), path
    assert len(path.read_text()) > 500


def test_relative_links_resolve():
    for doc in DOCS:
        for target in re.findall(r"\]\(([^)#]+)\)", doc.read_text()):
            if target.startswith(("http://", "https://")):
                continue
            assert (doc.parent / target).exists(), f"{doc.name} -> {target}"


def test_repo_paths_mentioned_in_docs_exist():
    text = "\n".join(d.read_text() for d in DOCS)
    for rel in ("configs/tiny.yaml", "perfbench/run.py",
                "tests/test_acceptance.py"):
        assert rel in text
        assert (ROOT / rel).exists(), rel


def test_console_script_matches_docs():
    import evadapt.cli
    assert callable(evadapt.cli.main)
    # every documented subcommand is registered
    text = (ROOT / "README.md").read_text()
    for cmd in ("train", "eval", "params", "gradcheck", "synth", "voxelize",
                "significance"):
        assert f"evadapt {cmd}" in text
        with pytest.raises(SystemExit) as exc:
            evadapt.cli.main([cmd, "--help"])
        assert exc.value.code == 0
