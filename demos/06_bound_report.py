"""Walk through the recovery and infeasibility bounds on two graphs.

The first graph is hub-dominated (PA) under light noise, the second is
dense and flat (ER) under moderate noise. For each one the script prints
the observed-degree moments around the cutoff, the sufficient-condition
report, the necessary-gap thresholds, the tail envelope for the best
outsider, and the regime label that summarizes them. A single noisy draw
at the end shows the per-realization Hamming sandwich in action.
"""

import json

import numpy as np

from noisytopk import (
    NoiseParams,
    PaParams,
    apply_noise,
    bound_report,
    generate_er,
    generate_pa,
    hamming,
    hamming_bounds_realization,
    noisy_degree_moments,
    top_k,
)

K = 5
DELTA = 0.05


def show(title, g, params):
    print(f"--- {title} ---")
    d_sorted = np.sort(g.degree_array())[::-1]
    print(f"n = {g.n}, edges = {g.num_edges}, "
          f"alpha = {params.alpha}, beta = {params.beta}")
    print(f"top degrees: {list(int(v) for v in d_sorted[:8])}")

    for rank in (K, K + 1):
        mom = noisy_degree_moments(int(d_sorted[rank - 1]), g.n, params)
        print(f"rank {rank}: degree {int(d_sorted[rank - 1])}, "
              f"observed mean {mom.mu:.2f}, sd {mom.sigma:.3f}")

    report = bound_report(g.degree_array(), K, params, delta=DELTA)
    sep = report["separation"]
    inf_rep = report["infeasibility"]
    env = report["tail_envelope"]
    print(f"i_star = {report['i_star']}")
    print(f"sufficient: boundary gap {sep['delta_bdry']:.1f} vs required "
          f"{sep['bdry_required']:.2f} (ok={sep['boundary_ok']}), "
          f"bulk gap {sep['delta_bulk']:.1f} vs required "
          f"{sep['bulk_required']:.2f} (ok={sep['bulk_ok']})")
    print(f"necessary: bulk threshold {inf_rep['delta_bulk_threshold']:.2f} "
          f"(infeasible={inf_rep['bulk_infeasible']}), boundary threshold "
          f"{inf_rep['delta_bdry_threshold']:.2f} "
          f"(infeasible={inf_rep['bdry_infeasible']})")
    print(f"best-outsider envelope: [{env['c_lower']:.2f}, {env['c_upper']:.2f}]")
    print(f"regime: {report['regime']}")
    print()
    return report


def main():
    pa = generate_pa(PaParams(n=500, m=4, b=1.0), seed=11)
    light = NoiseParams(alpha=1e-4, beta=1e-3)
    show("hub-dominated graph, light noise", pa, light)

    er = generate_er(400, 0.3, seed=12)
    moderate = NoiseParams(alpha=0.05, beta=0.05)
    report = show("dense flat graph, moderate noise", er, moderate)

    print("--- one noisy realization of the dense graph ---")
    s_k = top_k(er.degree_array(), K, seed=99)
    y = apply_noise(er, moderate, seed=100)
    noisy = y.degree_array()
    s_tilde = top_k(noisy, K, seed=99)
    hb = hamming_bounds_realization(s_k, noisy)
    d = hamming(s_k, s_tilde)
    print(f"realized Hamming distance {d}, certified sandwich "
          f"[{hb.lower}, {hb.upper}], cutoff score t = {hb.t}")
    print()
    print("The full report is a dict of plain values; keys of the dense-graph report:")
    print(json.dumps(sorted(report.keys())))


if __name__ == "__main__":
    main()
