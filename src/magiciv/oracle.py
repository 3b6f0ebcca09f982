"""Exact population calculations on the binary instrument lattice.

For p <= 12 every instrument configuration can be enumerated, which turns
population expectations into finite weighted sums: conditional means of the
outcome and exposure are polynomials in z, configuration probabilities are
products of Bernoulli weights, and identification or orthogonality claims
can be verified to machine precision instead of by sampling.

The generating process mirrors the simulator (linear effects plus pairwise
exposure interactions, optional pairwise outcome interactions violating the
linear outcome model) with two oracle-only extensions: third-order exposure
interactions so the q = 3 identification path is exercisable, and "noisy
copy" dependence (a child instrument equal to a parent XOR a Bernoulli
flip) so the consequences of dependent instruments can be demonstrated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, IdentificationError, NumericalError
from .interactions import InteractionPlan, build_plan, demeaned_matrix

__all__ = [
    "PopulationDgp",
    "OrthogonalityReport",
    "population_moment",
    "population_relevance",
    "population_beta",
    "orthogonality_check",
    "second_order_probe",
]

MAX_ENUM_P = 12


@dataclass(frozen=True, eq=False)
class PopulationDgp:
    """Population description of a binary-instrument generating process.

    ``alpha`` maps ordered pairs (j, k), j < k, to exposure interaction
    coefficients on raw products Z_j Z_k; ``phi`` holds outcome interaction
    coefficients (a violation of the linear outcome model). ``alpha3`` is a
    testing-only extension: coefficients on *centered* triple products
    prod(Z - mu), so they feed only the order-3 moments and the third-order
    identification path can be isolated. ``dependent`` maps a child index to
    (parent, flip_prob): the child equals the parent XOR an independent
    Bernoulli(flip_prob). ``mu`` entries of dependent children are derived,
    not read.
    """

    p: int
    mu: np.ndarray
    beta_true: float
    pi: np.ndarray
    theta: np.ndarray
    alpha: Mapping[tuple[int, int], float]
    alpha3: Mapping[tuple[int, int, int], float] = field(default_factory=dict)
    phi: Mapping[tuple[int, int], float] = field(default_factory=dict)
    dependent: Mapping[int, tuple[int, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 2 <= self.p <= MAX_ENUM_P:
            raise ConfigError(
                f"enumeration oracle supports 2 <= p <= {MAX_ENUM_P} (got {self.p})"
            )
        mu = np.asarray(self.mu, dtype=float)
        pi = np.asarray(self.pi, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        for name, vec in (("mu", mu), ("pi", pi), ("theta", theta)):
            if vec.shape != (self.p,):
                raise ConfigError(f"{name} must have length p={self.p}")
        if np.any((mu <= 0.0) | (mu >= 1.0)):
            raise ConfigError("instrument means must lie strictly in (0, 1)")
        for key in self.alpha:
            if len(key) != 2 or not 0 <= key[0] < key[1] < self.p:
                raise ConfigError(f"bad alpha key {key}: need 0 <= j < k < p")
        for key in self.alpha3:
            if len(key) != 3 or not 0 <= key[0] < key[1] < key[2] < self.p:
                raise ConfigError(f"bad alpha3 key {key}: need 0 <= i < j < k < p")
        for key in self.phi:
            if len(key) != 2 or not 0 <= key[0] < key[1] < self.p:
                raise ConfigError(f"bad phi key {key}: need 0 <= j < k < p")
        for child, (parent, flip) in self.dependent.items():
            if not 0 <= child < self.p or not 0 <= parent < self.p or child == parent:
                raise ConfigError(f"bad dependence {child} -> {parent}")
            if parent in self.dependent:
                raise ConfigError("dependence chains are not supported (parent must be free)")
            if not 0.0 <= flip < 1.0:
                raise ConfigError(f"flip probability must lie in [0, 1) (got {flip})")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "theta", theta)

    def instrument_means(self) -> np.ndarray:
        """Marginal means, with dependent children's means derived."""
        means = self.mu.copy()
        for child, (parent, flip) in self.dependent.items():
            mp = self.mu[parent]
            means[child] = mp * (1.0 - flip) + (1.0 - mp) * flip
        return means


def _lattice(dgp: PopulationDgp) -> tuple[np.ndarray, np.ndarray]:
    """All instrument configurations with their probabilities.

    Free instruments contribute a Bernoulli(mu_j) bit each; each dependent
    child contributes a flip bit. Probabilities sum to 1 exactly up to
    float rounding.
    """
    children = sorted(dgp.dependent)
    free = [j for j in range(dgp.p) if j not in dgp.dependent]
    m = len(free) + len(children)
    rows = np.empty((2**m, dgp.p))
    probs = np.empty(2**m)
    for idx, bits in enumerate(product((0, 1), repeat=m)):
        z = np.zeros(dgp.p)
        prob = 1.0
        for pos, j in enumerate(free):
            b = bits[pos]
            z[j] = float(b)
            prob *= dgp.mu[j] if b else 1.0 - dgp.mu[j]
        for pos, child in enumerate(children):
            parent, flip_prob = dgp.dependent[child]
            flip = bits[len(free) + pos]
            z[child] = float(int(z[parent]) ^ flip)
            prob *= flip_prob if flip else 1.0 - flip_prob
        rows[idx] = z
        probs[idx] = prob
    return rows, probs


def _conditional_means(dgp: PopulationDgp, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E[Y | z] and E[D | z] for each lattice row (errors are mean-zero given z)."""
    ed = z @ dgp.theta
    for (j, k), coef in dgp.alpha.items():
        ed = ed + coef * z[:, j] * z[:, k]
    if dgp.alpha3:
        means = dgp.instrument_means()
        zc = z - means
        for (i, j, k), coef in dgp.alpha3.items():
            ed = ed + coef * zc[:, i] * zc[:, j] * zc[:, k]
    ey = dgp.beta_true * ed + z @ dgp.pi
    for (j, k), coef in dgp.phi.items():
        ey = ey + coef * z[:, j] * z[:, k]
    return ey, ed


def _on_lattice(dgp: PopulationDgp, q: int):
    """Demeaned interactions (orders 2..q), probabilities, E[Y | z] and E[D | z] per row."""
    z, probs = _lattice(dgp)
    w = demeaned_matrix(z, dgp.instrument_means(), build_plan(dgp.p, q))
    ey, ed = _conditional_means(dgp, z)
    return w, probs, ey, ed


def population_moment(dgp: PopulationDgp, beta: float, q: int) -> np.ndarray:
    """Exact E[ demeaned interactions * (Y - beta D) ], stacked orders 2..q."""
    w, probs, ey, ed = _on_lattice(dgp, q)
    return w.T @ (probs * (ey - beta * ed))


def population_relevance(dgp: PopulationDgp, q: int) -> np.ndarray:
    """The moment derivative in beta: -E[ demeaned interactions * D ]."""
    w, probs, _, ed = _on_lattice(dgp, q)
    return -(w.T @ (probs * ed))


def population_beta(dgp: PopulationDgp, q: int) -> float:
    """Unique root of the relevance-projected scalar moment (affine in beta)."""
    w, probs, ey, ed = _on_lattice(dgp, q)
    slope = w.T @ (probs * ed)  # moment(beta) = m0 - beta * slope
    m_vec = -slope  # the relevance vector
    if float(np.max(np.abs(m_vec))) < 1e-12:
        raise IdentificationError(
            "no interaction is associated with the exposure (relevance vector is 0)"
        )
    m0 = w.T @ (probs * ey)  # moment at beta = 0
    return float(m_vec @ m0) / float(m_vec @ slope)


def _basis_matrix(z: np.ndarray, plan: InteractionPlan, k: int) -> np.ndarray:
    """Intercept, then the raw products over the subsets of sizes 1..k-1.

    The order-k projection basis in its textbook form, one ``np.prod`` per
    column: the reference that the estimator's demeaned basis, which spans
    the same space, is checked against.
    """
    cols = [np.ones(z.shape[0])]
    for j in range(1, k):
        cols += [np.prod(z[:, list(s)], axis=1) for s in plan.subsets_by_order[j]]
    return np.column_stack(cols)


def _population_projections(
    plan: InteractionPlan,
    z: np.ndarray,
    probs: np.ndarray,
    ey: np.ndarray,
    ed: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Population least-squares coefficients of Y and D on the order-(k-1) basis."""
    wk = _basis_matrix(z, plan, k)
    sw = np.sqrt(probs)
    coef, _, rank, _ = np.linalg.lstsq(
        sw[:, None] * wk, sw[:, None] * np.column_stack([ey, ed]), rcond=None
    )
    if rank < wk.shape[1]:
        raise NumericalError(
            f"singular population design for the order-{k - 1} projection "
            f"(rank {rank} < {wk.shape[1]})"
        )
    return wk, coef[:, 0], coef[:, 1]


def _expected_gk(
    plan: InteractionPlan,
    z: np.ndarray,
    probs: np.ndarray,
    ey: np.ndarray,
    ed: np.ndarray,
    wk: np.ndarray,
    k: int,
    beta: float,
    mu_vec: np.ndarray,
    theta_k: np.ndarray,
    xi_k: np.ndarray,
) -> np.ndarray:
    """E[g_k] at an arbitrary nuisance point (mu, theta_{k-1}, xi_{k-1})."""
    w = demeaned_matrix(z, mu_vec, plan)[:, plan.order_slices()[k]]
    resid = (ey - wk @ theta_k) - beta * (ed - wk @ xi_k)
    return w.T @ (probs * resid)


@dataclass(frozen=True)
class OrthogonalityReport:
    max_abs_derivative: float
    by_order: dict
    beta_grid: tuple
    step: float


def orthogonality_check(
    dgp: PopulationDgp,
    q: int,
    beta_grid: Sequence[float] = (-2.0, -1.0, 0.0, 1.0, 2.0),
    step: float = 1e-4,
) -> OrthogonalityReport:
    """Max |dE[g_k]/d(nuisance)| over orders, betas, and nuisance coordinates.

    Central finite differences of the exact population moment with respect
    to every coordinate of (mu, theta_{k-1}, xi_{k-1}), with the projections
    computed exactly on the lattice. Mutually independent instruments make
    every derivative vanish for all beta; dependence breaks this.
    """
    if step <= 0.0:
        raise ConfigError("step must be positive")
    plan = build_plan(dgp.p, q)
    z, probs = _lattice(dgp)
    mu_star = dgp.instrument_means()
    ey, ed = _conditional_means(dgp, z)
    worst = 0.0
    by_order: dict[int, float] = {}
    for k in range(2, q + 1):
        wk, theta_k, xi_k = _population_projections(plan, z, probs, ey, ed, k)
        order_worst = 0.0

        def gk(beta: float, mu_vec: np.ndarray, th: np.ndarray, xi_: np.ndarray) -> np.ndarray:
            return _expected_gk(plan, z, probs, ey, ed, wk, k, beta, mu_vec, th, xi_)

        for beta in beta_grid:
            for j in range(dgp.p):
                mu_plus, mu_minus = mu_star.copy(), mu_star.copy()
                mu_plus[j] += step
                mu_minus[j] -= step
                diff = gk(beta, mu_plus, theta_k, xi_k) - gk(beta, mu_minus, theta_k, xi_k)
                order_worst = max(order_worst, float(np.max(np.abs(diff))) / (2.0 * step))
            for vec, other, is_theta in ((theta_k, xi_k, True), (xi_k, theta_k, False)):
                for j in range(vec.shape[0]):
                    plus, minus = vec.copy(), vec.copy()
                    plus[j] += step
                    minus[j] -= step
                    if is_theta:
                        diff = gk(beta, mu_star, plus, xi_k) - gk(beta, mu_star, minus, xi_k)
                    else:
                        diff = gk(beta, mu_star, theta_k, plus) - gk(beta, mu_star, theta_k, minus)
                    order_worst = max(
                        order_worst, float(np.max(np.abs(diff))) / (2.0 * step)
                    )
        by_order[k] = order_worst
        worst = max(worst, order_worst)
    return OrthogonalityReport(
        max_abs_derivative=worst,
        by_order=by_order,
        beta_grid=tuple(float(b) for b in beta_grid),
        step=step,
    )


def second_order_probe(
    dgp: PopulationDgp, q: int, k: int = 2, beta: float = 0.5, delta: float = 1e-3
) -> tuple[float, float]:
    """Moment change along a joint (mu, theta) nuisance direction at delta and 2*delta.

    The moment is multilinear in the nuisance coordinates, so any single-
    coordinate perturbation moves it exactly linearly (with zero slope under
    independence); genuine second-order curvature only shows along mixed
    directions. This one shifts mu_0 together with the order-1 basis
    coefficient on Z_1, whose cross-derivative through the first pair
    component is Var(Z_1) != 0. Returns (change at delta, change at
    2*delta), whose ratio is ~4 when the first-order term vanishes.
    """
    plan = build_plan(dgp.p, q)
    z, probs = _lattice(dgp)
    mu_star = dgp.instrument_means()
    ey, ed = _conditional_means(dgp, z)
    wk, theta_k, xi_k = _population_projections(plan, z, probs, ey, ed, k)
    base = _expected_gk(plan, z, probs, ey, ed, wk, k, beta, mu_star, theta_k, xi_k)

    def shifted(scale: float) -> float:
        mu_vec = mu_star.copy()
        mu_vec[0] += scale
        th = theta_k.copy()
        th[2] += scale  # basis columns are (1, Z_0, Z_1, ...): index 2 is Z_1
        moved = _expected_gk(plan, z, probs, ey, ed, wk, k, beta, mu_vec, th, xi_k)
        return float(np.linalg.norm(moved - base))

    return shifted(delta), shifted(2.0 * delta)
