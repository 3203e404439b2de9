"""Record the expected answers of every workload's input pool.

    python3 perfbench/record.py

Writes perfbench/expected/<workload>.json from the package in ./src.
Run it only on code whose answers are known good: every benchmark run
compares the program's outputs with these files.
"""

from __future__ import annotations

import json
import sys

from workloads import EXPECTED_DIR, WORKLOADS, Program


def dump(doc: dict) -> str:
    """JSON with one pool entry per line, so that a changed answer shows in a diff."""
    lines = ["{"]
    keys = list(doc)
    for pos, key in enumerate(keys):
        value = doc[key]
        comma = "," if pos < len(keys) - 1 else ""
        if isinstance(value, list):
            lines.append(f"  {json.dumps(key)}: [")
            lines += [f"    {json.dumps(e)}{',' if k < len(value) - 1 else ''}" for k, e in enumerate(value)]
            lines.append(f"  ]{comma}")
        else:
            lines.append(f"  {json.dumps(key)}: {json.dumps(value)}{comma}")
    return "\n".join(lines + ["}"]) + "\n"


def main() -> int:
    program = Program()
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in sorted(WORKLOADS):
        doc = WORKLOADS[name].record(program, lambda line: print(line, flush=True))
        (EXPECTED_DIR / f"{name}.json").write_text(dump(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
