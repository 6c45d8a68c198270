"""Fixed against escaping probes on the ball sequence.

The balls of V_n = span{(1/2) delta_0 + delta_n} converge to the limit
disc in the dyadically weighted probe metric: the weighted columns decay
like 2^-(n+1) and move by at most the tail weight when the probe family
doubles.  The sup columns compare against a different candidate, the ball
of the limit subspace span{delta_0}, and never go below 1/2: the halved
zeroth coordinate is a permanent defect, because the limit of the balls is
the disc and not the ball of the limit.  While the moving coordinate n sits
inside the fixed family the sup reads 1; once n escapes it drops to the
residual 1/2; the escaping family chases with the probe delta_n and stays
pinned at 1.
"""
import numpy as np

from hyperselect.duality import (
    Subspace,
    convergence_gap,
    counterexample_ball,
    counterexample_limit_disc,
    counterexample_subspace,
    exact_support,
)
from hyperselect.norms import dyadic_weights, linf

TRUNC = 18
N_MAX = 8


def weighted_gap(ball, limit, count):
    probes = np.eye(TRUNC)[:count]
    w = dyadic_weights(count)
    bv = np.array([exact_support(ball, p) for p in probes])
    lv = np.array([exact_support(limit, p) for p in probes])
    return float(np.dot(w, np.abs(bv - lv)))


def main():
    limit = counterexample_limit_disc(TRUNC)
    limit_span = Subspace(basis=np.eye(TRUNC)[:1].astype(np.complex128),
                          ambient=linf(), side="dual")
    fixed = np.eye(TRUNC)[:8]
    print(f"# trunc={TRUNC}, tail weight past 8 probes = {2.0 ** -8:.2e}")
    print("n  weighted@8  weighted@16  fixed_sup  escaping_sup")
    for n in range(1, N_MAX + 1):
        ball = counterexample_ball(n, TRUNC)
        V = counterexample_subspace(n, TRUNC)
        g8 = weighted_gap(ball, limit, 8)
        g16 = weighted_gap(ball, limit, 16)
        fx = convergence_gap([V], limit_span, fixed)[0]
        esc = convergence_gap([V], limit_span,
                              np.vstack([fixed, np.eye(TRUNC)[n]]))[0]
        print(f"{n}  {g8:10.6f}  {g16:11.6f}  {fx:9.6f}  {esc:12.6f}")


if __name__ == "__main__":
    main()
