#!/usr/bin/env python3
"""Analytical cost-model walkthrough, no simulation involved.

Prints sequential / synchronous / asynchronous model costs over a grid of
processor counts, the best-case async-over-sync speedup bound, the fitted
overhead round trip, and the large-p asymptotic ratios.

Usage: python3 scripts/cost_model_table.py
"""
from pintlab.analysis import (
    CostParams,
    async_cost,
    fit_overhead,
    sequential_cost,
    speedup_achieved,
    speedup_bound,
    sync_cost,
)
from pintlab.theory import asymptotic_speedups

FINE, COARSE, OVERHEAD = 14.0, 0.14, 1.53


def main() -> None:
    print(f"per-interval costs: fine={FINE} coarse={COARSE} overhead={OVERHEAD}")
    print()
    header = ["p", "k", "kappa", "sequential", "sync", "async",
              "bound", "achieved"]
    rows = [header]
    for p in (4, 8, 16, 32):
        k = max(2, p // 2 - 2 if p >= 8 else 2)
        kappa = int(2.4 * k)
        params = CostParams(p=p, fine_cost=FINE, coarse_cost=COARSE,
                            overhead=OVERHEAD)
        rows.append([
            str(p), str(k), str(kappa),
            f"{sequential_cost(params):.2f}",
            f"{sync_cost(params, k):.2f}",
            f"{async_cost(params, kappa):.2f}",
            f"{speedup_bound(params):.3f}",
            f"{speedup_achieved(params, k, kappa):.3f}",
        ])
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    for row in rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))

    print()
    params = CostParams(p=16, fine_cost=FINE, coarse_cost=COARSE,
                        overhead=OVERHEAD)
    total = sync_cost(params, 10)
    fitted = fit_overhead(total, p=16, k=10, fine_cost=FINE, coarse_cost=COARSE)
    print(f"reference row: sync_cost(p=16,k=10) = {total:.2f}, "
          f"async_cost(kappa=24) = {async_cost(params, 24):.2f}")
    print(f"overhead fitted back from that total: {fitted:.6f} "
          f"(configured {OVERHEAD})")
    sync_lim, async_lim, cross_lim = asymptotic_speedups(params, 10)
    print(f"large-p limits at k=10: sequential/sync -> {sync_lim:.4f}, "
          f"sequential/async -> {async_lim:.4f}, sync/async -> {cross_lim:.4f}")


if __name__ == "__main__":
    main()
