#!/usr/bin/env python3
"""Measured inverted-link fraction against the homogeneous-density model.

Builds synthetic link ensembles whose destination ranks are truncated at
a*N with density 1/K'^nu, applies the rank filter across a sweep of
eta_k, and tabulates measured f next to the closed-form prediction.
Emits one TSV per parameter set into --out.
"""

import argparse
from pathlib import Path

import numpy as np

from chei2d import analytic_fraction, filter_links_by_rank, synth_rank_ensemble
from chei2d._bulk import write_rows

PARAM_SETS = ((1.0, 0.0), (0.4, 0.0), (0.4, 0.8))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=100_000)
    parser.add_argument("--links", type=int, default=400_000)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", default="fraction-model-out")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    etas = np.concatenate([np.linspace(0.05, 2.0, 40), np.geomspace(2.2, 50, 20)])
    identity = np.arange(1, args.nodes + 1)

    for a, nu in PARAM_SETS:
        g = synth_rank_ensemble(args.nodes, args.links, a, nu, args.seed)
        path = out / f"fraction_a{a}_nu{nu}.tsv"
        measured = np.array([filter_links_by_rank(g, identity, eta).fraction for eta in etas])
        model = np.array([analytic_fraction(eta, a, nu) for eta in etas])
        worst = float(np.max(np.abs(measured - model)))
        header = [f"a={a} nu={nu} nodes={args.nodes} links={args.links}",
                  "columns: eta_k measured analytic"]
        with open(path, "w", encoding="utf-8") as fp:
            write_rows(fp, header, etas, measured, model)
        print(f"a={a} nu={nu}: worst |measured - analytic| = {worst:.4f} -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
