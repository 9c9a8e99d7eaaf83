#!/usr/bin/env python3
"""Compound-Poisson diagonal-measure experiments: the refinement trajectory
of the kappa-statistic estimator and the variations-cumulant checks at
several joint orders, all against exact targets."""

import argparse
import sys

from homsum.stochsim import (
    Sampler,
    compound_poisson_cell_sampler,
    gaussian_cell_sampler,
    kstat_experiment,
    variations_cumulant_check,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rate", type=float, default=2.0)
    ap.add_argument("--horizon", type=float, default=1.0)
    ap.add_argument("--paths", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=17)
    args = ap.parse_args()

    print("# kappa-statistic refinement trajectory (Brownian cells, order 2, target T)")
    for N in (10, 100, 1000):
        rep = kstat_experiment(gaussian_cell_sampler, args.horizon, 2, N,
                               min(args.paths, 2000), args.horizon, args.seed)
        print(f"  N={N:>5}  estimate={rep['estimate']:.5f}  se={rep['se']:.5f}"
              f"  z={rep['z']:+.2f}  within5se={rep['within_5se']}")

    print("# compound-Poisson cells, order 3 (symmetric jumps, target 0)")
    cell = compound_poisson_cell_sampler(args.rate, Sampler("rademacher", seed=args.seed).draw_from)
    for N in (10, 100, 1000):
        rep = kstat_experiment(cell, 0.0, 3, N, min(args.paths, 2000), args.horizon, args.seed + 1)
        print(f"  N={N:>5}  estimate={rep['estimate']:+.5f}  se={rep['se']:.5f}"
              f"  within5se={rep['within_5se']}")

    print("# variations-cumulant checks (discrete jumps on {1, 2})")
    disc = Sampler("discrete", seed=args.seed + 2,
                   params={"values": [1.0, 2.0], "probs": [0.5, 0.5]})
    jl = disc.law_spec(10)
    for orders in [(3,), (1, 2), (2, 2), (1, 1, 1)]:
        rep = variations_cumulant_check(args.rate, disc, jl, 0.0, args.horizon,
                                        orders, paths=args.paths, seed=args.seed + 3)
        print(f"  orders={orders}  estimate={rep['estimate']:.4f}  target={rep['target']:.4f}"
              f"  se={rep['se']:.4f}  z={rep['z']:+.2f}  within5se={rep['within_5se']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
