"""Compare the block formatter with repr over random 64-bit patterns and
over short decimals.

    python tests/check_formatter.py                    # 10**7 patterns, seed 0
    python tests/check_formatter.py --count 100000 --seed 3

draws --count seeded uniform 64-bit patterns, and a quarter as many
short decimals and as many terms of arithmetic progressions, and formats
each one, read as a float64 and as an int64, with
chiralchain.reprs.cells, BLOCK patterns at a time; every cell must hold
the bytes of repr(float(x)) or repr(int(x)), and every float cell
spelled by json.dumps, as the JSON writer spells them (NaN, Infinity,
-Infinity), those of json.dumps(x).  Few uniform patterns have short
digits (about 0.005% have 12 or fewer), while most grid values do: the
short decimals are m * 10**e, m of 1 to 17 digits and e over the whole
double range (so some overflow to inf and some underflow), and the
progressions are the grids that the CLI makes, start + step * i and
linspace, of short starts and steps.  Each mismatch is printed with its
bit pattern.  10**7 patterns take about 85 s on one 2-core x86-64 host;
pytest does not collect this file, and tests/test_reprs.py runs the same
comparison on fewer values.  Exit status: 0 when no cell differs, 1
otherwise.
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


def uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    """size uniform 64-bit patterns."""
    return rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False)


def decimal(rng: np.random.Generator, size: int, digits=(1, 17),
            exponents=(-340, 308)) -> np.ndarray:
    """size values m * 10**e, correctly rounded: m of a uniform digit
    count in digits and uniform among those numbers, e uniform in
    exponents, either sign."""
    count = rng.integers(digits[0], digits[1] + 1, size)
    m = rng.integers(10 ** (count - 1), 10 ** count)
    e = rng.integers(exponents[0], exponents[1] + 1, size)
    sign = rng.choice([-1.0, 1.0], size)
    return sign * np.array([float(f"{a}e{b}") for a, b in zip(m.tolist(), e.tolist())])


def short_decimals(rng: np.random.Generator, size: int) -> np.ndarray:
    """The bit patterns of size values m * 10**e (see decimal)."""
    return decimal(rng, size).view(np.uint64)


def progressions(rng: np.random.Generator, size: int) -> np.ndarray:
    """The bit patterns of size terms of grids of up to 4096 terms:
    start + step * i and linspace(start, stop, terms), with start, step
    and stop m * 10**e of 1 to 4 digits, e in -8..8."""
    parts = []
    while size > 0:
        terms = int(min(size, rng.integers(2, 4097)))
        start, step, stop = decimal(rng, 3, (1, 4), (-8, 8))
        if rng.integers(2):
            parts.append(start + abs(step) * np.arange(terms))
        else:
            parts.append(np.linspace(start, stop, terms))
        size -= terms
    return np.concatenate(parts).view(np.uint64)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10**7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    bad = 0
    total = 0
    for draw, count in ((uniform, args.count), (short_decimals, args.count // 4),
                        (progressions, args.count // 4)):
        for start in range(0, count, BLOCK):
            patterns = draw(rng, min(BLOCK, count - start))
            total += len(patterns)
            for pattern, kind, want, got in mismatches(patterns):
                bad += 1
                print(f"{pattern:#018x} as {kind}: want {want!r}, formatter {got!r}")
    print(f"{args.count} uniform patterns, {args.count // 4} short decimals and "
          f"{args.count // 4} progression terms, seed {args.seed}: "
          f"{bad} mismatching cells of {3 * total}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
