"""Each demo prints the same bytes as when its digest was pinned.

The demos print degrees from every layer (connectives, parsing, finite and
lasso evaluation, rewriting, the smart-grid day), so a change that moves one
of those degrees, or how it is printed, changes a digest here.  Pinned on
CPython 3.11.7.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Demo file -> sha256 of its stdout.
DEMO_DIGESTS = {
    "01_connectives.py": "11b00236ac467a93f3daf1e494cb7860f6a78cf8597ff08e2ac7fe90d02cd6bd",
    "02_formulas_and_parsing.py": "8ff363c95498bf8809c01dd140d65404f2a9c9befd2241c57856d578adaa385a",
    "03_evaluating_traces.py": "c7c65ec04b7ed7da9328441dd199539d9ed0da93220e148df3f831f5964c8d59",
    "04_lasso_limits.py": "7efae7c7c57dbcd7ef5be136461f4b81ab15e47032c73265c78ece1d44de0e91",
    "05_rewriting.py": "fd736672a9748a7424b82b22daf42f1e71b1d686bcf05714aa982f9fc536d378",
    "06_smart_grid_day.py": "0cbc0ba6db5d9266a3407f0cc32ce4ef0925a95113fcce7b955c3f7e059a6968",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("0*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_is_pinned(name):
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_DIGESTS[name]
