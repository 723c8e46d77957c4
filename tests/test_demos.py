"""The demos print exactly what they printed when these digests were recorded.

Each demo runs in its own interpreter and its stdout is compared by sha256,
so any change to an optimum, a witness, a tie-break or a message shows up
here.  A change that means to alter a demo's output re-records its digest.
`hardness_family.py` is left out: it takes several seconds and only runs the
hardness lab, which the unit tests cover.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pandora

DEMOS = Path(__file__).resolve().parents[1] / "demos"

DIGESTS = {
    "worked_example.py": "ee5756a57099e0b3a875ed9500b8e1e5ed46638ec71b7940d6c45de37c42fd0e",
    "strategy_classes.py": "6bdfc857694a75a91ca823ebb01cc77e72a82ff931b7974ec28220ec5b9fd449",
    "cost_classes.py": "3d4290b3e90ea2275939a54f50e37e9677af73e792b7d019bfb3957a5c4f6001",
    "transform_pipeline.py": "f509fe9229431bc210f7ca331398f2f36c4f1d82ac1abe0e2040b976a8be1d8b",
}


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_output_is_unchanged(demo):
    src = str(Path(pandora.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[demo]
