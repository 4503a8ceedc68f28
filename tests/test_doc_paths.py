"""Every repository path the prose documentation cites must exist."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
CITED_PATH = re.compile(r"(?<![\w./-])((?:src|tests|benchmarks|examples|docs)/[\w./-]*)")


def test_cited_paths_exist():
    missing = []
    for doc in DOCS:
        for match in CITED_PATH.finditer(doc.read_text()):
            path = match.group(1).rstrip(".,:;")
            if not (ROOT / path).exists():
                missing.append(f"{doc.relative_to(ROOT)}: {path}")
    assert missing == []
