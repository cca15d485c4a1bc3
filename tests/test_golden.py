"""The golden gate: generator files, labels, draw weights and oracle routes
match the committed files in tests/golden byte for byte.

None of these outputs depends on training or on BLAS: every distance
goes through `core_graph.distance`, a plain sum of squares in numpy. So
they are compared on any numpy build. `tests/golden/regenerate.py`
documents the world and rewrites the files when an output change is
intended.
"""

import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

from regenerate import golden_files  # noqa: E402


def test_outputs_match_golden_files(tmp_path):
    built = golden_files(tmp_path)
    assert sorted(built) == sorted(p.name for p in GOLDEN.iterdir() if p.suffix in (".csv", ".sha256"))
    for name, text in built.items():
        want = (GOLDEN / name).read_bytes().decode("utf-8").splitlines()
        got = text.splitlines()
        diff = next((k for k, (a, b) in enumerate(zip(want, got)) if a != b), None)
        assert diff is None, f"{name} line {diff + 1}: want {want[diff]!r}, got {got[diff]!r}"
        assert text.encode("utf-8") == (GOLDEN / name).read_bytes(), name
