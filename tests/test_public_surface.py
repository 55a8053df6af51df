"""The package exports only what its documented uses name."""

import re
from pathlib import Path

import matroidlc
from matroidlc import MatroidLCError

ROOT = Path(__file__).resolve().parent.parent
USES = [
    ROOT / "README.md",
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "conftest.py",
    *sorted((ROOT / "demos").glob("*.py")),
]


def test_every_export_has_a_documented_use():
    text = "\n".join(path.read_text(encoding="utf-8") for path in USES)
    errors = {name for name, obj in vars(matroidlc).items()
              if isinstance(obj, type) and issubclass(obj, MatroidLCError)}
    unused = [name for name in matroidlc.__all__
              if name not in errors and not re.search(rf"\b{name}\b", text)]
    assert unused == []
