"""Nonlinear least-squares fit of a two-parameter logistic growth curve.

The model is f(t) = 1 / (1 + exp(-alpha * (t - beta))): alpha sets the
steepness of the rise, beta the time at which the curve crosses 0.5.
Fitting is damped Gauss-Newton (Levenberg-Marquardt) with the analytic
Jacobian, run over (log alpha, beta) so alpha stays positive. Standard
errors come from s2 * inv(J'J) with s2 = RSS / (n - 2), expressed in the
original (alpha, beta) coordinates.

``fit(series, window=(start, end))`` switches to a fit for curves whose
posts were drawn from the logistic law truncated to a known observation
window: the model becomes the truncated cumulative curve
F(t) = (f(t) - f(start)) / (f(end) - f(start)), fitted by the same loop,
and the standard errors become the sandwich
inv(J'J) J' Sigma J inv(J'J) with Sigma the Brownian-bridge covariance
(min(F_i, F_j) - F_i F_j) / n_posts of an empirical distribution function
(Seber & Wild, *Nonlinear Regression*, ch. 6). Without a window it is the
paper's fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, InsufficientData, InvalidInput
from .model import TopicSeries

_STALL_DAMPING = 1e16
# the Levenberg-Marquardt loop's iteration cap, tolerances and damping schedule
_MAX_ITER = 200
_GRAD_TOL = 1e-10
_STEP_TOL = 1e-12
_DAMPING_INIT = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 0.1
# a predicted decrease at or below this multiple of the RSS is rounding noise
_FLAT = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class FitResult:
    alpha_hat: float
    beta_hat: float
    se_alpha: float
    se_beta: float
    rss: float
    n_points: int
    converged: bool
    iterations: int


def sigmoid(t, alpha: float, beta: float):
    """Logistic curve value(s) at t, for any real alpha * (t - beta).

    Both branches divide by 1 + exp(-|z|), which cannot overflow, so
    saturated tails return exactly 0.0 or 1.0, infinite arguments their
    limits, and NaN stays NaN. Accepts scalars or arrays.
    """
    z = np.asarray(alpha * (np.asarray(t, dtype=float) - beta))
    e = np.exp(np.minimum(z, -z))  # exp(-|z|); minimum keeps a NaN's sign
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


def _sigmoid_parts(t, alpha: float, beta: float):
    """The logistic curve and its partials (df/dalpha, df/dbeta) at t, from
    one evaluation of it."""
    t = np.asarray(t, dtype=float)
    f = sigmoid(t, alpha, beta)
    core = f * (1.0 - f)
    return f, (t - beta) * core, -alpha * core


def _truncated_parts(t, alpha: float, beta: float,
                     window: tuple[float, float]):
    """The logistic law truncated to ``window`` as a cumulative curve,
    F(t) = (f(t) - f(start)) / (f(end) - f(start)), and its partials
    (dF/dalpha, dF/dbeta), from one evaluation of the logistic curve at t
    and one at the window ends; all NaN when the window holds no
    representable mass (f(end) == f(start) in floating point)."""
    (lo, hi), (da_lo, da_hi), (db_lo, db_hi) = _sigmoid_parts(window, alpha, beta)
    span = hi - lo
    if not span > 0.0:
        nan = np.full(np.shape(t), math.nan)
        return nan, nan, nan
    f, da, db = _sigmoid_parts(t, alpha, beta)
    F = (f - lo) / span
    # quotient rule on (f(t) - f(start)) / (f(end) - f(start))
    return (F, (da - da_lo - F * (da_hi - da_lo)) / span,
            (db - db_lo - F * (db_hi - db_lo)) / span)


def bridge_meat(F, J, n_posts: int) -> np.ndarray:
    """J' Sigma J for the Brownian-bridge covariance of a cumulative curve.

    Sigma_ij = (min(F_i, F_j) - F_i F_j) / n_posts is the covariance of an
    empirical distribution function of ``n_posts`` draws sampled where the
    true one is ``F``. ``F`` must be nondecreasing (samples of a cumulative
    curve in time order), so min(F_i, F_j) = F_min(i, j) and the product
    takes suffix sums of J instead of the dense n x n matrix:
    sum_ij F_min(i,j) J_i J_j' = sum_i F_i (J_i J_i' + J_i S_i' + S_i J_i')
    with S_i = sum_{j > i} J_j.
    """
    F = np.asarray(F, dtype=float)
    J = np.asarray(J, dtype=float)
    after = np.cumsum(J[::-1], axis=0)[::-1] - J
    FJ = F[:, None] * J
    m = F @ J
    return (FJ.T @ J + FJ.T @ after + after.T @ FJ - np.outer(m, m)) / n_posts


def initial_guess(series: TopicSeries) -> tuple[float, float]:
    """Quantile read-off start point for the optimizer.

    beta0 is the first time the curve reaches 0.5; alpha0 = 4 / (t90 - t10)
    from the 10%/90% crossing times, clamped to [1e-5, 10], with 1.0 as the
    fallback when both quantiles land in the same bin (step-like series).
    """
    t, y = series.times, series.fractions

    def first_crossing(level: float) -> float:
        hit = np.nonzero(y >= level)[0]
        return float(t[hit[0]]) if hit.size else float(t[-1])

    beta0 = first_crossing(0.5)
    t10 = first_crossing(0.1)
    t90 = first_crossing(0.9)
    if t90 == t10:
        alpha0 = 1.0
    else:
        alpha0 = min(max(4.0 / (t90 - t10), 1e-5), 10.0)
    return alpha0, beta0


def fit(series: TopicSeries, window: tuple[float, float] | None = None) -> FitResult:
    """Fit the logistic curve to a series by damped Gauss-Newton.

    Non-convergence within ``_MAX_ITER`` (200) iterations is reported
    through the result (``converged=False``), not raised; a singular J'J
    raises DegenerateFit.
    ``converged=True`` guarantees the gradient infinity-norm is below
    ``_GRAD_TOL`` (1e-10) and both standard errors are finite.

    Without a ``window`` this is the paper's full 0 -> 1 sigmoid with
    iid-residual standard errors. With ``window=(start, end)`` the truncated
    curve F(t) = (f(t) - f(start)) / (f(end) - f(start)) is fitted, 0 at the
    window start and 1 at its end, and the standard errors are the bridge
    sandwich with ``series.n_posts`` as the sample size; the window is in
    the series' own days (see :class:`~engdyn.model.TopicSeries`).
    """
    t, y = series.times, series.fractions
    n = len(t)
    if n < 3:
        raise InsufficientData(f"fit needs at least 3 points, got {n}")
    if window is not None and not (
            math.isfinite(window[0]) and math.isfinite(window[1])
            and window[0] < window[1]):
        raise InvalidInput(f"window must be finite with start < end, got {window}")

    alpha0, beta0 = initial_guess(series)
    theta = np.array([math.log(alpha0), beta0])

    # one evaluation of the curve and its Jacobian per trial point
    if window is None:
        def model_and_jac(th):
            alpha = math.exp(th[0])
            beta = th[1]
            f = sigmoid(t, alpha, beta)
            core = f * (1.0 - f)
            # columns: d/d(log alpha) = alpha * (t - beta) * f(1-f), d/dbeta
            J = np.column_stack((alpha * (t - beta) * core, -alpha * core))
            return f, J
    else:
        def model_and_jac(th):
            alpha = math.exp(th[0])
            F, da, db = _truncated_parts(t, alpha, th[1], window)
            return F, np.column_stack((alpha * da, db))

    f, J = model_and_jac(theta)
    residual = y - f
    rss = float(residual @ residual)
    damping = _DAMPING_INIT
    iterations = 0
    best_norm = math.inf
    no_progress = 0

    while iterations < _MAX_ITER:
        A = J.T @ J
        a00, a01, a10, a11 = A.ravel().tolist()
        # a non-finite entry or a diagonal entry <= 0 leaves no usable
        # curvature; NaN fails every comparison
        if not (0.0 < a00 < math.inf and 0.0 < a11 < math.inf
                and math.isfinite(a01) and math.isfinite(a10)):
            raise DegenerateFit("J'J is singular at the current iterate")
        gradient = J.T @ residual
        grad_norm = float(np.max(np.abs(gradient)))
        if grad_norm < _GRAD_TOL:
            break
        # Large-residual Gauss-Newton contracts the gradient only linearly,
        # so allow a few flat iterations before declaring a stall.
        if grad_norm < best_norm:
            best_norm = grad_norm
            no_progress = 0
        else:
            no_progress += 1
            if no_progress >= 5:
                break
        iterations += 1

        step = None
        while damping < _STALL_DAMPING:
            # A + damping * diag(A)
            lhs = np.array(((a00 + damping * a00, a01),
                            (a10, a11 + damping * a11)))
            try:
                candidate = np.linalg.solve(lhs, gradient)
            except np.linalg.LinAlgError as exc:
                raise DegenerateFit("J'J is singular at the current iterate") from exc
            # Model-predicted decrease; once it is below the RSS rounding
            # granularity the S-comparison carries no information, so the
            # quadratic model is trusted outright (near-Newton refinement).
            predicted = float(gradient @ candidate)
            flat = predicted <= _FLAT * max(rss, 1e-300)
            trial = theta + candidate
            log_alpha, beta = trial.tolist()
            if not (math.isfinite(log_alpha) and math.isfinite(beta)) \
                    or log_alpha > 700.0:
                damping *= _DAMPING_UP  # alpha would overflow; shrink
                continue
            f_trial, J_trial = model_and_jac(trial)
            r_trial = y - f_trial
            rss_trial = float(r_trial @ r_trial)
            if math.isfinite(rss_trial) and (rss_trial <= rss or flat):
                step = candidate
                theta, J, residual, rss = trial, J_trial, r_trial, rss_trial
                if flat:
                    damping = min(damping * _DAMPING_DOWN, 1e-12)
                else:
                    damping = max(damping * _DAMPING_DOWN, 1e-300)
                break
            damping *= _DAMPING_UP
        if step is None:
            break  # stalled: no decrease possible at float precision
        if float(np.linalg.norm(step)) < _STEP_TOL:
            break
    # every exit leaves J and residual at theta
    grad_ok = bool(np.max(np.abs(J.T @ residual)) < _GRAD_TOL)

    alpha_hat = math.exp(theta[0])
    beta_hat = float(theta[1])
    if window is None:
        se_alpha, se_beta = _standard_errors(
            lambda: _iid_covariance(t, alpha_hat, beta_hat, rss, n))
    else:
        se_alpha, se_beta = _standard_errors(
            lambda: _bridge_covariance(t, alpha_hat, beta_hat, window,
                                       series.n_posts))
    converged = grad_ok and math.isfinite(se_alpha) and math.isfinite(se_beta)
    return FitResult(
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        se_alpha=se_alpha,
        se_beta=se_beta,
        rss=rss,
        n_points=n,
        converged=converged,
        iterations=iterations,
    )


def _iid_covariance(t, alpha, beta, rss, n) -> np.ndarray:
    """s2 * inv(J'J) in the original parametrization.

    Computing J'J directly in (alpha, beta) coordinates is identical to the
    delta-method transport of the (log alpha, beta) covariance.
    """
    _, ja, jb = _sigmoid_parts(t, alpha, beta)
    J = np.column_stack((ja, jb))
    A = J.T @ J
    sigma2 = rss / (n - 2)
    return sigma2 * np.linalg.inv(A)


def _bridge_covariance(t, alpha, beta, window, n_posts) -> np.ndarray:
    """Sandwich inv(J'J) J' Sigma J inv(J'J) of the truncated fit, Sigma
    the bridge covariance of :func:`bridge_meat`."""
    F, ja, jb = _truncated_parts(t, alpha, beta, window)
    J = np.column_stack((ja, jb))
    bread = np.linalg.inv(J.T @ J)
    # a last bin can end past the window end, where F exceeds 1; a
    # distribution function cannot, so the covariance uses F clipped
    return bread @ bridge_meat(np.clip(F, 0.0, 1.0), J, n_posts) @ bread


def _standard_errors(covariance) -> tuple[float, float]:
    """Square roots of the diagonal of ``covariance()``; infinite when it
    is singular, not finite or has a negative variance."""
    try:
        cov = covariance()
    except np.linalg.LinAlgError:
        return math.inf, math.inf
    diag = np.diag(cov)
    if np.any(diag < 0) or not np.all(np.isfinite(diag)):
        return math.inf, math.inf
    return float(math.sqrt(diag[0])), float(math.sqrt(diag[1]))
