"""High-precision matrix-exponential references for the N = 11 chains.

    PYTHONPATH=src python tests/expm_references.py

rewrites ``expm_references_n11.json`` next to this file.  For every case
(gamma_left, xi, h) of EXPM_CASES it stores exp(V h) of the 11-atom chain
(gamma_right = 1), evaluated by ``mpmath.expm`` with EXPM_DPS digits and
rounded to complex128, together with the sha256 of the input matrix V h.
``test_dynamics.test_expm_matches_mpmath_across_chains_and_steps``
compares ``dynamics.expm`` with the stored values for N = 11, checks each
input digest against the matrix it builds, and recomputes LIVE_CASE with
mpmath, so a file that no longer matches its cases fails; N = 2 and
N = 5 run mpmath live for every case.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import mpmath
import numpy as np

from chiralchain.chain import ChainConfig, build_chain

EXPM_DPS = 40
STORED_N = 11
# 58.0 is just beyond 57.7, the largest step of the log grid to 1e4
EXPM_CASES = [(gamma_left, xi, h)
              for gamma_left in (0.0, 0.9, 1.0)
              for xi in (math.pi, 0.75 * math.pi, 0.3)
              for h in (1e-3, 0.04, 1.0, 8.0, 58.0)]
LIVE_CASE = (0.9, 0.3, 58.0)
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    f"expm_references_n{STORED_N}.json")


def mpmath_expm(a, dps):
    """exp(a) of one float matrix, evaluated with dps digits."""
    with mpmath.workdps(dps):
        exact = mpmath.expm(mpmath.matrix(a.tolist()))
        return np.array(exact.tolist(), dtype=complex)


def input_digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=complex)
                          .tobytes()).hexdigest()


def load_references() -> dict:
    """{(gamma_left, xi, h): (input sha256, exp(V h))} from the stored file."""
    with open(PATH, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["n_atoms"] == STORED_N and payload["dps"] == EXPM_DPS
    stored = {}
    for case in payload["cases"]:
        reference = np.empty(STORED_N * STORED_N, dtype=complex)
        reference.real = case["real"]
        reference.imag = case["imag"]
        key = (case["gamma_left"], case["xi"], case["h"])
        stored[key] = (case["input_sha256"],
                       reference.reshape(STORED_N, STORED_N))
    return stored


def main() -> None:
    lines = []
    for gamma_left, xi, h in EXPM_CASES:
        a = build_chain(ChainConfig(n_atoms=STORED_N, xi=xi,
                                    gamma_left=gamma_left,
                                    gamma_right=1.0)).entries * h
        reference = mpmath_expm(a, EXPM_DPS).ravel()
        # json writes floats with repr, so they read back bit for bit
        lines.append(json.dumps({
            "gamma_left": gamma_left, "xi": xi, "h": h,
            "input_sha256": input_digest(a),
            "real": reference.real.tolist(),
            "imag": reference.imag.tolist()}))
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write(f'{{"n_atoms": {STORED_N}, "dps": {EXPM_DPS}, "cases": [\n')
        fh.write(",\n".join(lines))
        fh.write("\n]}\n")


if __name__ == "__main__":
    main()
