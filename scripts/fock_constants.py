#!/usr/bin/env python3
"""Tabulate the extraction and Gram-bound constants for small alphabets.

lambda_l is the max absolute row sum of the inverse extraction matrix of the
semicircular tuple A; N(d)^3 lambda_{2d}^2 (fock.gram_bound_constant) bounds
||G|| / ||p(T)|| over psd Gram matrices of p at the canonical tuple T: mu_d
for A, and tau_d = N_red(d)^3 for the unitaries U, where lambda = 1.

Run from anywhere:

    python3 scripts/fock_constants.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ncsos.fock import build_extraction, gram_bound_constant
from ncsos.words import GROUP, MONOID, count_words


def main():
    print("extraction bound lambda_l (monoid)")
    print(f"{'g':>3s} {'l':>3s} {'N(l)':>6s} {'lambda_l':>12s}")
    for g in (1, 2, 3):
        for l in (1, 2, 3, 4):
            ext = build_extraction(g, l, MONOID)
            print(f"{g:3d} {l:3d} {count_words(g, l, MONOID):6d} {ext.row_sum_bound:12.4f}")

    print("\nGram norm bounds")
    print(f"{'g':>3s} {'d':>3s} {'mu_d (monoid)':>16s} {'tau_d (group)':>16s}")
    for g in (1, 2):
        for d in (1, 2):
            mu = gram_bound_constant(g, d, MONOID)
            tau = gram_bound_constant(g, d, GROUP)
            print(f"{g:3d} {d:3d} {mu:16.1f} {tau:16.1f}")


if __name__ == "__main__":
    main()
