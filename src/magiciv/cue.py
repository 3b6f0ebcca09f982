"""Continuously updated GMM: objective, minimization, inference, J-test.

The objective is Q(beta) = 0.5 * gbar' Omega(beta)^{-1} gbar with both the
moment mean and the weighting matrix re-evaluated at every candidate beta.
Because gbar is affine and Omega quadratic in beta, first and second
derivatives of Q are available in closed form; the curvature feeds the
sandwich variance estimator, and 2n * Q(beta_hat) is referred to a
chi-square with r-1 degrees of freedom for the overidentification test.

Minimization is global-then-local: a uniform grid over the parameter
interval guards against the multiple local minima a ratio of quadratics can
have, and Newton steps on the analytic gradient, safeguarded by bisection,
find the root of Q' in the bracket around the grid minimum. Q has one
evaluator, :func:`_eval_objective`, shared by the search, the derivatives
and the variance; it factors Omega(beta) plus the base ridge, escalating by
steps of trace(Omega)/r only when that fails.

The grid is certified rather than evaluated in full. Q is the conjugate of
a quadratic form, Q(beta) = max_v v'g(beta) - 0.5 v'(Omega(beta) + rho I)v
(Boyd & Vandenberghe 2004, sec. 3.3), so restricting v to the span of the
solves u = (Omega + rho I)^{-1} g already made gives a lower bound on Q at
every grid point (a Galerkin, or Rayleigh-Ritz, bound). The two end points
are evaluated first; then, best first, the point with the lowest bound is
evaluated, and a grid point is dropped only when its bound proves it lies
above the best value found, by a rounding margin. The grid minimum, its
index and everything downstream are therefore those of the full grid, to
the bit, typically from about five evaluations of Q.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from . import _lapack
from ._kernel import _cho_factor_solve
from ._lapack import _blas_threads
from .data import Dataset
from .errors import ConfigError, IdentificationError, NumericalError
from .interactions import build_plan
from .moments import MomentComponents, _check_beta, build_components, gbar, omega
from .nuisance import _exposure_explained, fit_nuisance

__all__ = [
    "CueResult",
    "MinimizeResult",
    "objective_derivatives",
    "minimize",
    "variance",
    "overid_test",
    "chisq_cdf",
    "chisq_quantile",
    "estimate_cue",
]

DEFAULT_BOUNDS = (-10.0, 10.0)
DEFAULT_GRID_POINTS = 512
DEFAULT_TOL = 1e-9


def _check_settings(
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
    grid_points: int = DEFAULT_GRID_POINTS,
    tol: float = DEFAULT_TOL,
    ridge: float = 0.0,
) -> tuple[float, float]:
    """Raise ConfigError unless the CUE search settings keep :func:`minimize`'s rules.

    Returns the bounds (lo, hi) as floats.
    """
    if len(bounds) != 2:
        raise ConfigError(f"bounds needs exactly two numbers (got {bounds})")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError(f"invalid bounds [{lo}, {hi}]")
    if grid_points < 3:
        raise ConfigError(f"grid_points must be >= 3 (got {grid_points})")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tol must be positive and finite (got {tol})")
    if not (math.isfinite(ridge) and ridge >= 0.0):
        raise ConfigError(f"ridge must be >= 0 and finite (got {ridge})")
    return lo, hi


# Ridge multipliers applied to trace(Omega)/r, escalating by 10x, once the
# weighting matrix with the base ridge alone fails to factor.
_RIDGE_MULTIPLIERS = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)

# Grid certificate: the margin a lower bound must clear to drop a point. The
# absolute margin is a multiple of r^2 * eps * max(1, beta^2) *
# (|v|'(|s0| + |s1| + |s2|)|v| + |v|'(|abar| + |bbar|) + rho v'v) for the
# bound's vector v = V'c, with |V|'|c| standing in for |v|, which bounds the
# rounding of the bound's coefficients, of forming Omega(beta) and of its
# Cholesky factor (backward error); the relative margin covers the final dot
# product of Q. Both are generous: the points dropped lie far above the
# minimum, so raising either margin 1e4-fold adds few evaluations. A solve
# joins the span of the earlier ones only when more than _SPAN_TOL of its
# norm lies outside it.
_CERT_ABS = 64.0
_CERT_REL = 1e-8
_SPAN_TOL = 1e-8


# ---------------------------------------------------------------------------
# chi-square special functions
# ---------------------------------------------------------------------------
# Hand-rolled rather than scipy.special: the package imports no scipy, and
# importing scipy.special after it took 297-319 ms over 5 runs and raised
# peak RSS by 17.7-17.8 MiB (2 cores, scipy 1.17.1), a set-up cost that
# every CLI call would pay.

_GAMMA_MAX_ITER = 500


def _gammainc(a: float, x: float) -> tuple[float, float]:
    """Regularized lower and upper incomplete gamma (P(a, x), Q(a, x)).

    Series expansion of P for x < a + 1, Lentz continued fraction of Q
    otherwise; both converge to near machine precision. Each branch returns
    its own tail directly and the other as the complement, so a far-tail Q
    keeps its relative accuracy instead of cancelling in 1 - P.
    """
    if not (x >= 0.0 and a > 0.0):
        raise ConfigError("incomplete gamma needs x >= 0 and a > 0")
    if x == 0.0:
        return 0.0, 1.0
    if x == math.inf:
        return 1.0, 0.0
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(_GAMMA_MAX_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-17:
                lower = total * math.exp(log_prefactor)
                return lower, 1.0 - lower
        raise NumericalError("incomplete gamma series did not converge")
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            upper = math.exp(log_prefactor) * h
            return 1.0 - upper, upper
    raise NumericalError("incomplete gamma continued fraction did not converge")


def chisq_cdf(x: float, df: int) -> float:
    """Chi-square CDF via the regularized lower incomplete gamma."""
    if df < 1:
        raise ConfigError(f"degrees of freedom must be >= 1 (got {df})")
    if not x >= 0.0:
        raise ConfigError(f"chi-square CDF needs x >= 0 (got {x})")
    return _gammainc(0.5 * df, 0.5 * x)[0]


def _chisq_pdf(x: float, df: int) -> float:
    if x <= 0.0:
        return 0.0
    half = 0.5 * df
    return math.exp(
        (half - 1.0) * math.log(x) - 0.5 * x - math.lgamma(half) - half * math.log(2.0)
    )


@functools.lru_cache(maxsize=64)
def chisq_quantile(alpha: float, df: int) -> float:
    """The (1 - alpha) quantile of the chi-square distribution with df dof.

    Finds the root of CDF(x) = 1 - alpha by monotone bracketing followed by
    Newton steps safeguarded with bisection, to 1e-10 relative accuracy.
    Memoized: every replication asks for the same few quantiles, and the
    root search costs a fifth of a millisecond.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1) (got {alpha})")
    if df < 1:
        raise ConfigError(f"degrees of freedom must be >= 1 (got {df})")
    target = 1.0 - alpha
    lo = 0.0
    hi = df + 10.0 * math.sqrt(2.0 * df) + 10.0
    for _ in range(200):
        if chisq_cdf(hi, df) >= target:
            break
        hi *= 2.0
    else:
        raise NumericalError("failed to bracket the chi-square quantile")
    x = 0.5 * (lo + hi)
    for _ in range(200):
        f = chisq_cdf(x, df) - target
        if f > 0.0:
            hi = x
        else:
            lo = x
        deriv = _chisq_pdf(x, df)
        step_ok = False
        if deriv > 0.0:
            x_new = x - f / deriv
            if lo < x_new < hi:
                step_ok = True
        if not step_ok:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-10 * max(1.0, abs(x_new)):
            return x_new
        x = x_new
    raise NumericalError("chi-square quantile iteration did not converge")


# ---------------------------------------------------------------------------
# objective and derivatives
# ---------------------------------------------------------------------------


def _ridge_ladder(om: np.ndarray, base_ridge: float, attempt):
    """``attempt`` of om + ridge I on the ridge ladder. Returns (its result, ridge).

    ``attempt`` factors its matrix and solves with it in one
    :func:`magiciv._kernel._cho_factor_solve` call, raising LinAlgError
    when it is not positive definite. ``base_ridge`` is the user's ridge
    policy: it is always applied, and the ladder escalates on top of it, in
    steps of trace(om)/r, only when the attempt still fails. The first rung
    adds nothing to base_ridge, so the trace is computed only once it has
    failed.
    """
    def ridged(ridge):
        return om + ridge * np.eye(om.shape[0]) if ridge > 0.0 else om

    try:
        return attempt(ridged(base_ridge)), base_ridge
    except LinAlgError:
        pass
    scale = max(float(np.trace(om)) / max(om.shape[0], 1), float(np.finfo(float).tiny))
    for mult in _RIDGE_MULTIPLIERS:
        ridge = base_ridge + mult * scale
        try:
            return attempt(ridged(ridge)), ridge
        except LinAlgError:
            continue
    raise NumericalError(
        "weighting matrix factorization failed even after ridge escalation "
        f"(condition estimate {np.linalg.cond(om):.3e})"
    )


def _eval_objective(mc: MomentComponents, beta: float, base_ridge: float = 0.0):
    """Objective via the ridge ladder. Returns (value, solve u, factor, ridge).

    Each rung factors Omega and solves for u in one LAPACK posv call.
    """
    g = gbar(mc, beta)
    (factor, u), ridge = _ridge_ladder(
        omega(mc, beta), base_ridge, lambda om: _cho_factor_solve(om, g)
    )
    return 0.5 * float(g @ u), u, factor, ridge


def _derivatives(mc: MomentComponents, beta: float, base_ridge: float = 0.0, evaluated=None):
    """Q, Q', Q'' and the ridge, with the solve u and the factor they share.

    ``evaluated`` is :func:`_eval_objective`'s result at this beta and base
    ridge when the caller already has it; it is then not evaluated again.
    """
    if evaluated is None:
        evaluated = _eval_objective(mc, beta, base_ridge)
    q, u, factor, ridge = evaluated
    dom = -mc.s1 + 2.0 * beta * mc.s2
    dom_u = dom @ u
    dq = float(-mc.bbar @ u) - 0.5 * float(u @ dom_u)
    w = -mc.bbar - dom_u
    d2q = float(w @ _lapack.ROUTINES.potrs(factor, w)) - float(u @ (mc.s2 @ u))
    return q, dq, d2q, ridge, u, factor


@_blas_threads(1)
def objective_derivatives(
    mc: MomentComponents, beta: float, base_ridge: float = 0.0
) -> tuple[float, float, float, float]:
    """Objective value with analytic first and second beta-derivatives.

    With g(beta) = abar - beta*bbar and Omega(beta) = s0 - beta*s1 + beta^2*s2,

        Q   = 0.5 g' u,                      u = Omega^{-1} g
        Q'  = (-bbar)' u - 0.5 u' Omega' u
        Q'' = w' Omega^{-1} w - u' s2 u,     w = -bbar - Omega' u

    where Omega' = -s1 + 2 beta s2. Returns (Q, Q', Q'', ridge_used).
    ``base_ridge`` follows :func:`minimize`'s rule on ``ridge``; a ``beta``
    that is not finite raises :class:`ConfigError`.
    """
    _check_beta("beta", beta)
    _check_settings(ridge=base_ridge)
    return _derivatives(mc, beta, base_ridge)[:4]


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimizeResult:
    """The CUE minimizer and its objective value.

    ``ridge_used`` is True when some evaluated point factored Omega with a
    positive ridge, the base ridge or the ladder's. A grid point that the
    certificate drops is never factored, but the first evaluation that needs
    the ladder makes the whole grid evaluated, so a weighting matrix that is
    singular at every beta (a duplicated instrument) reports it.
    """

    beta_hat: float
    q_min: float
    boundary_flag: bool
    ridge_used: bool


class _Span:
    """The span of the grid's solves, and the lower bound on Q it gives.

    For any v, Q(beta) >= v'g(beta) - 0.5 v'(Omega(beta) + rho I)v, so the
    best v in the span of the solves made so far, v = V'c with
    c = G^{-1} h, h = V g(beta) and G = V (Omega(beta) + rho I) V', bounds Q
    from below (a Galerkin bound). The rows of V are kept orthonormal only to
    keep G well conditioned: the bound holds for any basis and any c, so a
    solve that fails, or is inexact, loses tightness and nothing else.
    """

    def __init__(self, mc: MomentComponents, ridge: float):
        self.mc, self.ridge = mc, ridge
        self.abs_s = np.abs(mc.s0) + np.abs(mc.s1) + np.abs(mc.s2)
        self.basis = np.empty((0, mc.r))
        # per basis row v: v s0, v s1, v s2 and |v|(|s0| + |s1| + |s2|)
        self.products = np.empty((4, 0, mc.r))

    def add(self, u: np.ndarray) -> None:
        """Extend the basis by the part of u outside it, unless that is rounding."""
        v = u - (self.basis @ u) @ self.basis
        if not float(v @ v) > _SPAN_TOL * _SPAN_TOL * float(u @ u):
            return
        v -= (self.basis @ v) @ self.basis  # Gram-Schmidt twice keeps V orthonormal
        v /= math.sqrt(float(v @ v))
        mc, basis = self.mc, np.vstack([self.basis, v])
        row = np.stack([v @ mc.s0, v @ mc.s1, v @ mc.s2, np.abs(v) @ self.abs_s])
        self.basis = basis
        self.products = np.concatenate([self.products, row[:, None]], axis=1)
        # the k x k matrices and k-vectors the bound reads, rho V V' in S_0
        abs_basis = np.abs(basis)
        self.s = self.products[:3] @ basis.T
        self.s[0] += self.ridge * (basis @ basis.T)
        self.va, self.vb = basis @ mc.abar, basis @ mc.bbar
        # the margin's size for |v| <= |V|'|c|
        self.size_s = self.products[3] @ abs_basis.T + self.ridge * (abs_basis @ abs_basis.T)
        self.size_g = abs_basis @ (np.abs(mc.abar) + np.abs(mc.bbar))

    def bound(self, betas: np.ndarray) -> np.ndarray:
        """Certified lower bound on Q at each of ``betas``, from one batched k x k solve.

        A solve that fails gives no bound (-inf) at any of them.
        """
        s0, s1, s2 = self.s
        b = betas[:, None, None]
        g_mat = s0 - b * s1 + b * b * s2
        h = self.va - betas[:, None] * self.vb
        try:
            c = np.linalg.solve(g_mat, h[..., None])[..., 0]
        except LinAlgError:
            return np.full(betas.size, -np.inf)
        value = np.sum(c * (h - 0.5 * (g_mat @ c[..., None])[..., 0]), axis=1)
        ac = np.abs(c)
        size = np.sum((ac @ self.size_s) * ac, axis=1) + ac @ self.size_g
        margin = _CERT_ABS * self.mc.r ** 2 * np.finfo(float).eps * np.maximum(1.0, betas * betas)
        return value - margin * size


def _scan_grid(mc: MomentComponents, grid: np.ndarray, ridge: float):
    """Q on the grid, dropping the points the span of its solves proves to lie above the minimum.

    Evaluates the two end points, then best first: each round bounds Q at
    the live points from the span of the solves made so far
    (:class:`_Span`), drops for good every point whose bound clears the
    best value by the margin, and evaluates the live point with the lowest
    bound, the smallest index on ties. A round that drops nothing doubles
    the points the next round evaluates, so a flat objective takes a
    logarithmic number of rounds. Should any evaluation need the ridge
    ladder (or exhaust it), the rest of the grid is evaluated as well.
    Returns (values, evaluated, ridge_used, best): values is inf at dropped
    points and wherever Q is non-finite or cannot be factored, and best is
    :func:`_eval_objective`'s result at the grid minimum, the first minimum
    in index order, or None when no value is finite.
    """
    values = np.full(grid.size, np.inf)
    evaluated = np.zeros(grid.size, dtype=bool)
    live = np.ones(grid.size, dtype=bool)
    span = _Span(mc, ridge)
    ridge_used = ladder = False
    best, i_best = None, grid.size

    def scan(indices):
        nonlocal ridge_used, ladder, best, i_best
        for i in indices:
            evaluated[i] = True
            live[i] = False
            try:
                result = _eval_objective(mc, float(grid[i]), ridge)
            except NumericalError:
                ladder = True
                continue
            value, u, _, used = result
            ridge_used |= used > 0.0
            ladder |= used > ridge
            if np.isfinite(value):
                values[i] = value
                span.add(u)
                if best is None or value < best[0] or (value == best[0] and i < i_best):
                    best, i_best = result, i

    scan([0, grid.size - 1])
    count = 1
    while not ladder and live.any():
        indices = np.flatnonzero(live)
        before = indices.size
        if best is not None and span.basis.size:
            bound = span.bound(grid[indices])
            above = bound > best[0] + _CERT_REL * abs(best[0])
            live[indices[above]] = False
            # lowest bound first; a stable sort keeps ties in index order
            indices = indices[~above][np.argsort(bound[~above], kind="stable")]
        scan(indices[:count])
        if indices.size == before:  # nothing dropped
            count *= 2
    if ladder:
        scan(np.flatnonzero(~evaluated))
    return values, evaluated, ridge_used, best


@_blas_threads(1)
def minimize(
    mc: MomentComponents,
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
    grid_points: int = DEFAULT_GRID_POINTS,
    tol: float = DEFAULT_TOL,
    ridge: float = 0.0,
) -> MinimizeResult:
    """Certified global grid scan plus a safeguarded Newton search of the CUE objective.

    The grid stage finds the minimum over all ``grid_points`` points but
    evaluates Q only where it must: the two end points first, then best
    first under the lower bound that the span of the solves made so far
    gives, until that bound lifts every other point above the best value
    (see :func:`_scan_grid`), and the whole grid when the ridge ladder
    engages. The grid minimum is the full grid's to the bit. Grid ties
    break toward the smallest beta; the boundary flag marks a minimizer
    within tol of either bound (an identification warning, not an error).

    From the grid minimum, Newton steps on the analytic gradient seek the
    root of Q' inside the bracket of the two neighbouring grid points: the
    sign of each Q' shrinks the bracket, and a step that would leave it
    bisects instead. The search stops at a Newton step below 1e-13 relative,
    at Q' = 0, or once a bisected bracket is within tol. Near a flat minimum
    function values drown in rounding while the gradient root stays sharply
    determined, so the last iterate is kept unless some evaluated point lies
    below it by more than 1e-9 relative. If some beta drives every moment to
    exactly zero (only possible when the stacked means are proportional),
    that root is evaluated as an extra candidate, since no grid can be
    relied on to contain it.

    ``bounds`` must be two finite numbers with lo < hi, ``grid_points`` at
    least 3, ``tol`` finite and positive and ``ridge`` finite and
    nonnegative (:func:`_check_settings`); otherwise :class:`ConfigError`.
    """
    lo, hi = _check_settings(bounds, grid_points, tol, ridge)
    grid = np.linspace(lo, hi, grid_points)
    values, _, any_ridge, at_grid_min = _scan_grid(mc, grid, ridge)
    if not np.any(np.isfinite(values)):
        raise NumericalError("objective is non-finite at every grid point")
    i_min = int(np.argmin(values))  # first occurrence: smallest beta wins ties
    a = float(grid[max(i_min - 1, 0)])
    b = float(grid[min(i_min + 1, grid_points - 1)])
    best_beta = beta = float(grid[i_min])
    best_val = float(values[i_min])

    # Newton on Q' safeguarded by bisection, confined to the grid bracket; the
    # bound is loose: bisection alone takes the default interval to tol in 35
    for _ in range(100):
        # the first step starts from the grid minimum's own factor and solve
        val, dq, d2q, used, _, _ = _derivatives(mc, beta, ridge, at_grid_min)
        at_grid_min = None
        any_ridge |= used > 0.0
        if val < best_val or (val == best_val and beta < best_beta):
            best_beta, best_val = beta, val
        if dq == 0.0 or not math.isfinite(dq):
            break
        if dq > 0.0:
            b = beta
        else:
            a = beta
        step = dq / d2q if d2q > 0.0 else math.inf
        if abs(step) <= 1e-13 * max(1.0, abs(beta)):
            break
        if a < beta - step < b:
            beta -= step
        elif b - a <= tol:
            break
        else:
            beta = 0.5 * (a + b)
    else:  # no exit was reached, and beta is unevaluated: keep the best
        val = math.inf
    # the gradient root outranks a lower Q that differs only by rounding
    if val <= best_val + 1e-9 * max(1.0, abs(best_val)):
        best_beta, best_val = beta, val

    # exact-root candidate: gbar(beta0) == 0 makes the objective exactly 0
    denom = float(mc.bbar @ mc.bbar)
    if denom > 0.0:
        beta0 = float(mc.abar @ mc.bbar) / denom
        if lo <= beta0 <= hi and not gbar(mc, beta0).any():
            val0, _, _, used = _eval_objective(mc, beta0, ridge)
            any_ridge |= used > 0.0
            if val0 < best_val or (val0 == best_val and beta0 < best_beta):
                best_beta, best_val = beta0, val0

    boundary = (best_beta - lo <= tol) or (hi - best_beta <= tol)
    return MinimizeResult(
        beta_hat=best_beta, q_min=best_val, boundary_flag=boundary, ridge_used=any_ridge
    )


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


@_blas_threads(1)
def variance(
    mc: MomentComponents, beta_hat: float, ridge: float = 0.0
) -> tuple[float, float]:
    """Sandwich variance of the estimator and its standard error.

    v_hat = (D' Omega^{-1} D) / H^2 with H the analytic objective curvature
    at beta_hat and

        D = E_n[G] - E_n[G g'] Omega^{-1} E_n[g],   G_i = -b_i.

    The standard error is sqrt(v_hat / n). A nonpositive curvature at the
    reported minimum signals a non-convex pathology and raises. ``ridge``
    follows :func:`minimize`'s rule; a ``beta_hat`` that is not finite
    raises :class:`ConfigError`.
    """
    _check_beta("beta_hat", beta_hat)
    _check_settings(ridge=ridge)
    _, _, h, _, u, factor = _derivatives(mc, beta_hat, ridge)
    if not h > 0.0:
        raise NumericalError(
            f"nonpositive objective curvature at beta_hat ({h:.3e}); variance unreliable"
        )
    c_ba = mc.c_ab.T
    # E_n[G g'] = -(c_ba - beta*s2); D = -bbar - E_n[G g'] u
    d_vec = -mc.bbar + (c_ba - beta_hat * mc.s2) @ u
    v_hat = float(d_vec @ _lapack.ROUTINES.potrs(factor, d_vec)) / (h * h)
    return v_hat, math.sqrt(v_hat / mc.n)


def overid_test(
    mc: MomentComponents, beta_hat: float, q_min: float
) -> tuple[float, int, float]:
    """J statistic 2n*Q(beta_hat), its degrees of freedom r-1, and p-value.

    ``q_min`` is the objective's value at ``beta_hat``. A ``beta_hat`` that
    is not finite, or a ``q_min`` that is negative or not finite, raises
    :class:`ConfigError` naming it.
    """
    _check_beta("beta_hat", beta_hat)
    if not (math.isfinite(q_min) and q_min >= 0.0):
        raise ConfigError(f"q_min must be >= 0 and finite (got {q_min})")
    if mc.r < 2:
        raise ConfigError(
            "overidentification test undefined for r = 1 (no overidentifying restrictions)"
        )
    j_stat = 2.0 * mc.n * q_min
    df = mc.r - 1
    # the upper tail directly: 1 - CDF rounds to 0 far in the tail
    return j_stat, df, _gammainc(0.5 * df, 0.5 * j_stat)[1]


@dataclass(frozen=True)
class CueResult:
    """Point estimate with inference and overidentification diagnostics.

    j_pvalue is None when r = 1 (the test is not applicable, never p = 1).
    """

    beta_hat: float
    se: float
    ci_low: float
    ci_high: float
    ci_level: float
    q_min: float
    j_stat: float
    j_df: int
    j_pvalue: Optional[float]
    r: int
    n: int
    p: int
    q: int
    boundary_flag: bool
    ridge_used: bool


@_blas_threads(1)
def estimate_cue(
    ds: Dataset,
    q: int = 2,
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
    grid_points: int = DEFAULT_GRID_POINTS,
    tol: float = DEFAULT_TOL,
    ci_level: float = 0.95,
    ridge: float = 0.0,
) -> CueResult:
    """Full estimation pipeline: plan, nuisance, moments, CUE, inference.

    ``ridge`` is an always-on base ridge on the weighting matrix (the
    escalation ladder still engages on top of it when factorization fails);
    the default 0.0 leaves regularization entirely to the ladder.

    An exposure whose residual is zero at every order, by the rule
    :func:`magiciv.diagnostics.f_stat` uses to report ``F_q = 0``, raises
    :class:`IdentificationError`: the objective is then flat up to rounding.
    Search settings that break :func:`minimize`'s rules raise
    :class:`ConfigError` before anything is fitted.
    """
    if not 0.0 < ci_level < 1.0:
        raise ConfigError(f"ci_level must lie in (0, 1) (got {ci_level})")
    _check_settings(bounds, grid_points, tol, ridge)
    plan = build_plan(ds.p, q)
    nuis = fit_nuisance(ds, plan)
    if all(_exposure_explained(r_d, ds.d) for r_d in nuis.r_d.values()):
        raise IdentificationError(
            "exposure is exactly explained by the lower-order basis at every order: "
            "no interaction carries exposure signal"
        )
    mc = build_components(ds, nuis, plan)
    fit = minimize(mc, bounds=bounds, grid_points=grid_points, tol=tol, ridge=ridge)
    v_hat, se = variance(mc, fit.beta_hat, ridge=ridge)
    z = math.sqrt(chisq_quantile(1.0 - ci_level, 1))
    if mc.r >= 2:
        j_stat, j_df, j_pvalue = overid_test(mc, fit.beta_hat, fit.q_min)
    else:
        j_stat, j_df, j_pvalue = 2.0 * mc.n * fit.q_min, 0, None
    return CueResult(
        beta_hat=fit.beta_hat,
        se=se,
        ci_low=fit.beta_hat - z * se,
        ci_high=fit.beta_hat + z * se,
        ci_level=ci_level,
        q_min=fit.q_min,
        j_stat=j_stat,
        j_df=j_df,
        j_pvalue=j_pvalue,
        r=mc.r,
        n=mc.n,
        p=ds.p,
        q=q,
        boundary_flag=fit.boundary_flag,
        ridge_used=fit.ridge_used,
    )
