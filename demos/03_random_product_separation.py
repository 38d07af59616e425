"""The random product-matrix experiment, at desk scale.

Draw B (n x 14·log2 n) and C (14·log2 n x n) uniformly and set A = BC
over GF(2).  Composing small circuits for the factors gives an O(n)-gate
XOR circuit for A (cancelling heavily), while A itself stays dense and --
as far as a budgeted search can tell -- free of large all-ones blocks.
Measured against it, a greedy cancellation-free circuit for A (Paar's
heuristic) is the smaller one up to n = 256 and the larger one from
n = 512: at master seed 20131305 the median over 2 trials of paar gates
per composed gate is 0.818 at n = 256 and 1.412 at n = 512.  The density
quantity |A|/k^2 per composed gate is the measurable proxy for the gap a
lower bound would certify, and it grows with n.
"""

import lincirc as lc
from lincirc import ExperimentConfig

cfg = ExperimentConfig(n=128, master_seed=7, trials=4)
print(f"config: {cfg.to_dict()}\n")

report = lc.run_experiment(cfg)
print("trial  density  composed gates  wires(depth4)  k-freeness      ratio proxy")
for t in report.trials:
    print(f"{t.trial_index:<6} {t.density:<8.4f} {t.composed_gates:<15} "
          f"{t.composed_wires:<14} {t.kfree.kind:<15} {t.ratio_proxy:.5f}")
print(f"\nmin density {report.min_density:.4f} (expect > 0.3), "
      f"median proxy {report.median_ratio_proxy:.5f}")

# Rank statistics of the factors: random square submatrices stay close
# to full rank, and the Sylvester inequality bounds the product's rank
# from below on every sampled pair (checked exactly inside each trial).
t0 = report.trials[0]
print(f"\nsampled {t0.rank_stats_b.k}x{t0.rank_stats_b.k} submatrices of B: "
      f"min rank {t0.rank_stats_b.min_rank}, mean {t0.rank_stats_b.mean_rank:.1f}; "
      f"Sylvester holds: {t0.sylvester_ok}")

# Both the matrix and its complement resist the monochromatic-block
# search, i.e. A looks 2·log2(n)-Ramsey at this budget.
b, c, a = lc.trial_matrices(cfg, 0)
out = lc.ramsey_check(a, cfg.freeness_k + 1, budget=20_000, seed=11)
print(f"Ramsey check at t={cfg.freeness_k + 1}: {out.status}")

# The almost-uniformity behind the freeness argument, checked head-on at
# tiny size: condition a product entry on all the others.  The leftover
# bias is exact for every m, because Pr[BC = X] depends on rank X alone.
# First the all-zeros 2x2 mask, then the identity at m = 2, 3 and 4, each
# with its last cell left open.
mask = [[0, 0], [0, None]]
exact = lc.exact_conditional_bias(mask)
print(f"\nconditional bias at m=2: exact {exact} = {float(exact):.5f} (zeros, last cell open)")
for m in (2, 3, 4):
    mask = [[int(i == j) for j in range(m)] for i in range(m)]
    mask[-1][-1] = None
    gap = 0.5 - lc.exact_conditional_bias(mask)
    print(f"conditional bias at m={m}: exact 1/2 - {gap:.3g} (identity, last cell open)")

# The proxy trend over a size sweep (small here; the acceptance suite
# runs n up to 512, where paar's ratio passes 1).
sweep = lc.ratio_sweep([32, 64, 128], ExperimentConfig(n=32, master_seed=7, trials=4))
print("\nn      proxy median   heuristic/composed median")
for p in sweep.points:
    print(f"{p.n:<6} {p.median_ratio_proxy:<14.5f} {p.median_heuristic_ratio:.3f}")
print("nondecreasing:", sweep.ratio_proxy_nondecreasing, "/", sweep.heuristic_ratio_nondecreasing)
