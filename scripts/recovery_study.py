"""Monte-Carlo study of parameter recovery on generated post streams.

For each (alpha, beta) design cell the script generates post streams,
rebuilds the cumulative curve, refits it, and compares the estimates with
the generating parameters. It reports estimate bias, the Monte-Carlo
standard deviation, the mean reported standard error, and the fraction of
replicates landing within 3 reported standard errors of the truth, for two
fits of the same series:

- ``paper``: the default ``fit(series)``, the full 0 -> 1 logistic with
  iid-residual standard errors s^2 (J'J)^-1;
- ``window``: ``fit(series, FitOptions(window=...))`` with the generator's
  window [0, horizon], the truncated-logistic model and Brownian-bridge
  sandwich standard errors.

With the default arguments the replicates are those of
``tests/test_acceptance.py::test_parameter_recovery_roundtrip_grid``, and
the figures below are from that grid.

Beta is compared in the generator's days: series days count from the
topic's first post and sample k covers engagement through the end of bin
k, so a fitted time converts as beta_hat + (t0 - CORPUS_EPOCH) + bin_width.

Three separate causes keep the paper's fit from recovering the generating
parameters within its reported errors; each alone holds the hit rate near
zero:

1. Frame: beta_hat counts from the first post, beta_true from the corpus
   epoch. Compared without the conversion above, beta_hat is off by
   hundreds of days (-451 and -751 at alpha = 0.05, beta = 600 and 900).
2. Truncation: the generator draws post times from the logistic law
   truncated to [0, horizon]. At alpha = 0.003 the window holds only
   62-78% of the rise, so the full sigmoid is misspecified and alpha_hat
   is biased by +1.4e-3 to +1.7e-3, about 12 Monte-Carlo SDs; at
   (0.01, 200) the window holds 88% and alpha_hat is biased by +1.7e-3.
3. Standard errors: a cumulative curve of n sampled posts carries
   bridge-correlated noise with covariance (min(F_i, F_j) - F_i F_j) / n,
   while the iid-residual errors come out 7-27x (alpha) and 12-46x (beta)
   smaller than the replicate scatter.

The window fit removes causes 2 and 3, and the conversion removes cause 1.

Usage: python scripts/recovery_study.py [--replicates 100] [--posts 1000]
"""

import argparse
import sys
import time

import numpy as np

from engdyn import curvefit, synth
from engdyn.model import build_series

BIN_WIDTH = 1.0


def summarize(alpha, beta, estimates, errors, converged):
    est = np.asarray(estimates)
    err = np.asarray(errors)
    hits = (np.asarray(converged)
            & (np.abs(est[:, 0] - alpha) <= 3 * err[:, 0])
            & (np.abs(est[:, 1] - beta) <= 3 * err[:, 1]))
    return {
        "bias_alpha": est[:, 0].mean() - alpha,
        "bias_beta": est[:, 1].mean() - beta,
        "sd_alpha": est[:, 0].std(ddof=1),
        "sd_beta": est[:, 1].std(ddof=1),
        "se_alpha": err[:, 0].mean(),
        "se_beta": err[:, 1].mean(),
        "hit_rate": hits.mean(),
    }


def run_cell(alpha, beta, horizon, n_posts, replicates):
    """Both fits of every replicate, summarized per fit."""
    runs = {"paper": ([], [], []), "window": ([], [], [])}
    for rep in range(replicates):
        spec = synth.SynthSpec("g", alpha, beta, horizon, n_posts,
                               noise_seed=rep)
        series = build_series(synth.generate_topic(spec), "g",
                              bin_width=BIN_WIDTH)
        shift = ((series.t0 - synth.CORPUS_EPOCH).total_seconds() / 86400.0
                 + BIN_WIDTH)
        options = {
            "paper": curvefit.FitOptions(),
            "window": curvefit.FitOptions(window=(-shift, horizon - shift)),
        }
        for name, opts in options.items():
            r = curvefit.fit(series, opts)
            estimates, errors, converged = runs[name]
            estimates.append((r.alpha_hat, r.beta_hat + shift))
            errors.append((r.se_alpha, r.se_beta))
            converged.append(r.converged)
    return {name: summarize(alpha, beta, *run) for name, run in runs.items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--replicates", type=int, default=100)
    parser.add_argument("--posts", type=int, default=1000)
    parser.add_argument("--horizon", type=float, default=1400.0)
    args = parser.parse_args()

    print(f"{args.replicates} replicates per cell, {args.posts} posts per "
          f"topic, horizon {args.horizon:.0f} days; beta in generator days\n")
    print(f"{'alpha':>7} {'beta':>6} {'fit':>6} | {'bias(a)':>10} "
          f"{'sd(a)':>9} {'mean se(a)':>10} | {'bias(b)':>8} {'sd(b)':>7} "
          f"{'mean se(b)':>10} | {'3-se rate':>9}")
    start = time.monotonic()
    for alpha in (0.003, 0.01, 0.05):
        for beta in (200.0, 600.0, 900.0):
            cells = run_cell(alpha, beta, args.horizon, args.posts,
                             args.replicates)
            for name, cell in cells.items():
                print(f"{alpha:>7} {beta:>6.0f} {name:>6} | "
                      f"{cell['bias_alpha']:>+10.2e} "
                      f"{cell['sd_alpha']:>9.2e} {cell['se_alpha']:>10.2e} | "
                      f"{cell['bias_beta']:>+8.2f} {cell['sd_beta']:>7.2f} "
                      f"{cell['se_beta']:>10.3f} | {cell['hit_rate']:>9.2f}")
    print(f"\nelapsed {time.monotonic() - start:.1f}s")
    print("note: sd columns are Monte-Carlo scatter; se columns are the "
          "fit-reported standard errors.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
