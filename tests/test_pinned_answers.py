"""Pinned CLI answers over the six random families.

For every family and size, the JSON payloads (minus `wall_time_ms`) and the
exit codes of `solve` (adaptive, fixed_order, impulsive), `gap`, `validate`
for all five classes and `transform bernoullify` are hashed together and
compared with a digest recorded from an earlier, independently written
version of the cost tables.  Any change in an optimum, a witness, a
tie-break, a query count or an error message shows up here.

Run this file directly to print the digests of the current code:

    PYTHONPATH=src python tests/test_pinned_answers.py
"""
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from pandora import random_instance, save_instance
from pandora.cli import main
from pandora.instances import _FAMILIES

SIZES = (2, 4, 7, 10)
SEED = 11
COMMANDS = (
    ("solve", "--class", "adaptive"),
    ("solve", "--class", "fixed_order"),
    ("solve", "--class", "impulsive"),
    ("gap",),
    ("validate", "--class", "monotone_normalized"),
    ("validate", "--class", "submodular"),
    ("validate", "--class", "subadditive"),
    ("validate", "--class", "matroid_rank"),
    ("validate", "--class", "gross_substitutes"),
    ("transform", "bernoullify"),
)

PINNED = {
    ("additive", 2): "89f13bd39a370cf6601ca3f320f9d7d359c7d0208ba16c066e88e02fd36faa05",
    ("additive", 4): "9e6107a2e527ed110276801ef9cf9f7099b02496e064eb00d3fb5d9551c8d141",
    ("additive", 7): "58dd32cf27c1e8b3a7c627ba4abd688a06dfb2b36c4e929551254220c2c39e57",
    ("additive", 10): "5e0c4ef80b0e90f51f7219231bad8f55f47db904f38c30e0fac4a15c6bda3d9a",
    ("bernoulli_coverage", 2): "e90ce26bd5c6bcbcb0137b85341a0498521d0e066b2d6ebec565b820b7abd858",
    ("bernoulli_coverage", 4): "0e662c9f499af6079ac2042892724e814c0155460f3463b1659b196d8b0b2950",
    ("bernoulli_coverage", 7): "c546bb669274e2063b7f100e832cae4b61c93b993c1e3dcd2a69abccd30a1adc",
    ("bernoulli_coverage", 10): "f4b48bf88840fdb972e35a41a379b91ddcdedf0b059b197f4bc7a693d53d27e4",
    ("bernoulli_hardness", 2): "f7887c93a623e8433286b31e792f258d4c08cf30c7734e6f827f00653a9787bc",
    ("bernoulli_hardness", 4): "b47f0077f26277eb5e060b88440dbf0e6451218eddbc959b233bfee119fd6fb1",
    ("bernoulli_hardness", 7): "f04da48702984530b345e01dae4c5d33867ca5f0057e333588a4fd4164769155",
    ("bernoulli_hardness", 10): "ff836c7a24a7644c8bba88e2ab16c156dc891a780a12c0d72523201ce8d0b0f6",
    ("bernoulli_tree", 2): "3ea52cd130ef18c1738dcdb5c5223977f74007e219260a8433c03de927e39855",
    ("bernoulli_tree", 4): "86ec4ac9f33c7f54c2c8ac759a4d5931b795c4cd0e1e66b36a7b2fd0250aab38",
    ("bernoulli_tree", 7): "2cf04aca47164debaa4ab879a4d6017af3cfd3b29279094d943e16a1d387f416",
    ("bernoulli_tree", 10): "d71537336d853cf69ff910eed2eebc429a24188e8970d428a64303a4430d5c56",
    ("explicit_subadditive", 2): "203159d2198324a99045c49e8ce62f0399dbed0ae59403e4bbbdda87bd32598e",
    ("explicit_subadditive", 4): "c9a32371368e4cb7c3db074f00460f0e69d55fa82a365ec65efed93804205cb8",
    ("explicit_subadditive", 7): "dd40ab143360be9da5ba27e3636632dc91015bebc9d45a753ad26e81c433a9ea",
    ("explicit_subadditive", 10): "30d5c5fa47c9e5092d2decb434cabfad89a5f8153c3ed73c6ff9407002c487df",
    ("general_coverage", 2): "5ee0227c892eb00af26b8eb8bddd3d4f001223edcd154d4ceef0d1caff6597b2",
    ("general_coverage", 4): "a6fc8d91140177af97f1bcad0f0b2e31eb4ce2e63bd69152f37a56566fda17ba",
    ("general_coverage", 7): "fef3fbbaaa486e797f737dc23e58463855c9a5e0d0ce9049c86e79fb3f54dd68",
    ("general_coverage", 10): "f204df1adb0edd601b0ef1a992620b88dabad6c9176a84e5fde405c4d4851eb3",
}


def answers_digest(family: str, n: int, workdir: Path) -> str:
    path = workdir / f"{family}-{n}.json"
    save_instance(random_instance(family, n, SEED), path)
    h = hashlib.sha256()
    for argv in COMMANDS:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main([*argv, "-i", str(path)])
        data = json.loads(out.getvalue())
        data.pop("wall_time_ms", None)
        h.update(json.dumps([list(argv), code, data], sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("family,n", sorted(PINNED))
def test_answers_are_pinned(family, n, tmp_path):
    assert answers_digest(family, n, tmp_path) == PINNED[family, n]


def test_every_family_is_pinned():
    assert sorted(PINNED) == [(f, n) for f in sorted(_FAMILIES) for n in SIZES]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for family in sorted(_FAMILIES):
            for n in SIZES:
                print(f"    ({family!r}, {n}): {answers_digest(family, n, Path(tmp))!r},")
    sys.exit(0)
