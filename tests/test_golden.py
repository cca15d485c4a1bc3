"""The golden gate: the files in tests/golden, rebuilt in process, match
the committed ones byte for byte.

The untrained half (generator files, labels, draw weights and oracle
routes) depends neither on training nor on BLAS: every distance goes
through `core_graph.distance`, a plain sum of squares in numpy. So it is
compared on any numpy build. The trained half (`vsg train` of each model
kind, then `eval --sweep`, `predict`, `plan --realized` and
`compare-planners`) runs matrix products, so it is compared only on the
numpy and BLAS build named in `stack.json`, and skipped with the mismatch
named elsewhere. `stack.json` names the BLAS build, not the CPU kernel
OpenBLAS picks at run time. `tests/golden/regenerate.py` documents both
worlds and rewrites the files when an output change is intended.
"""

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

from regenerate import TRAINED, golden_files, stack, trained_files  # noqa: E402


def assert_matches_golden(built: dict[str, str]) -> None:
    for name, text in built.items():
        want = (GOLDEN / name).read_bytes().decode("utf-8").splitlines()
        got = text.splitlines()
        diff = next((k for k, (a, b) in enumerate(zip(want, got)) if a != b), None)
        assert diff is None, f"{name} line {diff + 1}: want {want[diff]!r}, got {got[diff]!r}"
        assert text.encode("utf-8") == (GOLDEN / name).read_bytes(), name


def test_outputs_match_golden_files(tmp_path):
    built = golden_files(tmp_path)
    committed = [p.name for p in GOLDEN.iterdir() if p.suffix in (".csv", ".sha256", ".txt")]
    assert sorted([*built, *TRAINED]) == sorted(committed)
    assert_matches_golden(built)


def test_trained_outputs_match_golden_files(tmp_path):
    want = json.loads((GOLDEN / "stack.json").read_text(encoding="utf-8"))
    have = stack()
    mismatch = [f"{k}: golden {want.get(k)!r}, running {have.get(k)!r}"
                for k in sorted(want.keys() | have.keys()) if want.get(k) != have.get(k)]
    if mismatch:
        pytest.skip("trained golden files were written on another stack; " + "; ".join(mismatch))
    assert_matches_golden(trained_files(tmp_path))
