"""Compare the block formatter with repr over random 64-bit patterns.

    python tests/check_formatter.py                    # 10**7 patterns, seed 0
    python tests/check_formatter.py --count 100000 --seed 3

draws --count seeded uniform 64-bit patterns and formats each one, read
as a float64 and as an int64, with chiralchain.reprs.cells, BLOCK
patterns at a time; every cell must hold the bytes of repr(float(x)) or
repr(int(x)), and every float cell spelled by json.dumps, as the JSON
writer spells them (NaN, Infinity, -Infinity), those of json.dumps(x).
Each mismatch is printed with its bit pattern.  10**7 patterns take
about 75 s on one 2-core x86-64 host; pytest does not collect this
file, and tests/test_reprs.py runs the same comparison on fewer values.
Exit status: 0 when no cell differs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from chiralchain import reprs  # noqa: E402

# patterns drawn and formatted at a time
BLOCK = 1 << 16


def mismatches(patterns: np.ndarray) -> list:
    """(pattern, kind, want, got) of every cell that differs from its
    spelling: repr, or json.dumps for the kind "json"."""
    found = []
    for kind, values, spell in (("float", patterns.view(np.float64), repr),
                                ("json", patterns.view(np.float64), json.dumps),
                                ("int", patterns.view(np.int64), repr)):
        frame = np.empty((len(values), reprs.WIDTH + 1), dtype=np.uint8)
        frame[:, :-1] = reprs.cells([values], spell)[0]
        frame[:, -1] = ord("\n")
        got = reprs.text(frame).decode().splitlines()
        want = list(map(spell, values.tolist()))
        if got != want:
            found += [(int(p), kind, w, g)
                      for p, w, g in zip(patterns, want, got) if w != g]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10**7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    bad = 0
    for start in range(0, args.count, BLOCK):
        size = min(BLOCK, args.count - start)
        patterns = rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False)
        for pattern, kind, want, got in mismatches(patterns):
            bad += 1
            print(f"{pattern:#018x} as {kind}: want {want!r}, formatter {got!r}")
    print(f"{args.count} patterns, seed {args.seed}: {bad} mismatching cells "
          f"of {3 * args.count}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
