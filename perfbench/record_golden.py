"""Record golden.json: the answer digest of every op on the default seed.

    python3 perfbench/record_golden.py

Runs each op of every workload's input pool once, requires it to pass its
checks, and stores `checks.answer_digest` of its output.  Record from a
commit whose answers are trusted; the benchmark then fails any op on the
default seed whose answer fields differ.
"""
import json
import shutil
import sys

import run
from checks import GOLDEN, answer_digest
from workloads import DEFAULT_SEED, WORKLOADS


def main():
    cli = run.import_cli()
    golden = {}
    for name, build in WORKLOADS.items():
        inputs = run.OUT / f"golden-inputs-{name}"
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        try:
            plan = build(DEFAULT_SEED, inputs, False)
            digests = {}
            for op in plan.ops:
                _, code, text, error = run.run_op(cli, op)
                why = run.judge(op, code, text, error, None)
                if why is not None:
                    sys.exit(f"{op.key} fails its checks: {why}")
                digests[op.key] = answer_digest(json.loads(text))
        finally:
            shutil.rmtree(inputs, ignore_errors=True)
        golden[name] = digests
        print(f"{name}: {len(digests)} ops recorded")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
