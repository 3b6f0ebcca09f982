"""Exact population calculations on the binary instrument lattice.

For p <= 12 every instrument configuration can be enumerated, which turns
population expectations into finite weighted sums: conditional means of the
outcome and exposure are polynomials in z, configuration probabilities are
products of Bernoulli weights, and identification or orthogonality claims
can be verified to machine precision instead of by sampling. Orthogonality
is checked by central differences of each order's exact moment map in its
stacked nuisance: the instrument means, then the projection coefficients of
Y and D on the order-(k-1) raw-product basis.

The generating process mirrors the simulator (linear effects plus pairwise
exposure interactions, optional pairwise outcome interactions violating the
linear outcome model) with two oracle-only extensions: third-order exposure
interactions so the q = 3 identification path is exercisable, and "noisy
copy" dependence (a child instrument equal to a parent XOR a Bernoulli
flip) so the consequences of dependent instruments can be demonstrated.

Each public function holds its BLAS at one thread while it runs, as the
estimators do (see :mod:`magiciv._lapack`), so its bits do not depend on
the machine's thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ._lapack import _blas_threads
from .errors import ConfigError, IdentificationError, NumericalError
from .interactions import InteractionPlan, build_plan, demeaned_matrix

__all__ = [
    "PopulationDgp",
    "OrthogonalityReport",
    "population_moment",
    "population_relevance",
    "population_beta",
    "orthogonality_check",
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
        for name, keys in (("alpha", self.alpha), ("phi", self.phi)):
            for key in keys:
                if len(key) != 2 or not 0 <= key[0] < key[1] < self.p:
                    raise ConfigError(f"bad {name} key {key}: need 0 <= j < k < p")
        for key in self.alpha3:
            if len(key) != 3 or not 0 <= key[0] < key[1] < key[2] < self.p:
                raise ConfigError(f"bad alpha3 key {key}: need 0 <= i < j < k < p")
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

    Free instruments contribute a Bernoulli(mu_j) bit each, then each
    dependent child a flip bit; row i holds the bits of i in binary, first
    bit most significant. Each probability is the product of its bits'
    weights, multiplied in that order. Probabilities sum to 1 up to float
    rounding.
    """
    children = sorted(dgp.dependent)
    free = [j for j in range(dgp.p) if j not in dgp.dependent]
    bits = np.array(list(product((0, 1), repeat=len(free) + len(children))), dtype=bool)
    z = np.zeros((bits.shape[0], dgp.p))
    probs = np.ones(bits.shape[0])
    for pos, j in enumerate(free):
        z[:, j] = bits[:, pos]
        probs *= np.where(bits[:, pos], dgp.mu[j], 1.0 - dgp.mu[j])
    for pos, child in enumerate(children, start=len(free)):
        parent, flip_prob = dgp.dependent[child]
        z[:, child] = (z[:, parent] == 1.0) ^ bits[:, pos]
        probs *= np.where(bits[:, pos], flip_prob, 1.0 - flip_prob)
    return z, probs


def _conditional_means(dgp: PopulationDgp, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E[Y | z] and E[D | z] for each lattice row (errors are mean-zero given z)."""
    ed = z @ dgp.theta
    for (j, k), coef in dgp.alpha.items():
        ed = ed + coef * z[:, j] * z[:, k]
    if dgp.alpha3:
        zc = z - dgp.instrument_means()
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


@_blas_threads(1)
def population_moment(dgp: PopulationDgp, beta: float, q: int) -> np.ndarray:
    """Exact E[ demeaned interactions * (Y - beta D) ], stacked orders 2..q."""
    w, probs, ey, ed = _on_lattice(dgp, q)
    return w.T @ (probs * (ey - beta * ed))


@_blas_threads(1)
def population_relevance(dgp: PopulationDgp, q: int) -> np.ndarray:
    """The moment derivative in beta: -E[ demeaned interactions * D ]."""
    w, probs, _, ed = _on_lattice(dgp, q)
    return -(w.T @ (probs * ed))


@_blas_threads(1)
def population_beta(dgp: PopulationDgp, q: int) -> float:
    """Unique root of the relevance-projected scalar moment (affine in beta)."""
    w, probs, ey, ed = _on_lattice(dgp, q)
    slope = w.T @ (probs * ed)  # moment(beta) = m0 - beta * slope; -slope is the relevance
    if float(np.max(np.abs(slope))) < 1e-12:
        raise IdentificationError(
            "no interaction is associated with the exposure (relevance vector is 0)"
        )
    m0 = w.T @ (probs * ey)  # moment at beta = 0
    return float(slope @ m0) / float(slope @ slope)


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


def _order_moments(dgp: PopulationDgp, q: int) -> Iterator[tuple[np.ndarray, Callable]]:
    """Yield, for k = 2..q, the true nuisance of order k and its moment map.

    The nuisance nu = (mu, theta_{k-1}, xi_{k-1}) stacks the instrument
    means and the population least-squares coefficients of Y and D on the
    order-(k-1) raw-product basis; the map (beta, nu) -> E[g_k] evaluates
    the order-k moment exactly at any nuisance point. The lattice, the
    conditional means and each order's projections are computed once.
    """
    plan = build_plan(dgp.p, q)
    z, probs = _lattice(dgp)
    ey, ed = _conditional_means(dgp, z)
    sw = np.sqrt(probs)
    targets = sw[:, None] * np.column_stack([ey, ed])
    p = dgp.p
    for k in range(2, q + 1):
        wk = _basis_matrix(z, plan, k)
        coef, _, rank, _ = np.linalg.lstsq(sw[:, None] * wk, targets, rcond=None)
        if rank < wk.shape[1]:
            raise NumericalError(
                f"singular population design for the order-{k - 1} projection "
                f"(rank {rank} < {wk.shape[1]})"
            )
        cols, mid = plan.order_slices()[k], p + wk.shape[1]

        def moment(beta: float, nu: np.ndarray, wk=wk, cols=cols, mid=mid) -> np.ndarray:
            w = demeaned_matrix(z, nu[:p], plan)[:, cols]
            resid = (ey - wk @ nu[p:mid]) - beta * (ed - wk @ nu[mid:])
            return w.T @ (probs * resid)

        yield np.concatenate([dgp.instrument_means(), coef[:, 0], coef[:, 1]]), moment


@dataclass(frozen=True)
class OrthogonalityReport:
    max_abs_derivative: float
    by_order: dict
    beta_grid: tuple
    step: float


@_blas_threads(1)
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

    A step that is not positive with 2 * step finite, or that leaves some
    nuisance coordinate unchanged, and a ``beta_grid`` that is empty or
    holds a value that is not finite raise :class:`ConfigError`; a
    derivative that is not finite raises :class:`NumericalError`.
    """
    if not (math.isfinite(2.0 * step) and step > 0.0):  # 2 * step divides each difference
        raise ConfigError(f"step must be positive, with 2 * step finite (got {step})")
    grid = tuple(float(b) for b in beta_grid)
    if not grid or not all(math.isfinite(b) for b in grid):
        raise ConfigError(f"beta_grid needs one value or more, all finite (got {grid})")
    by_order: dict[int, float] = {}
    for k, (nu, moment) in enumerate(_order_moments(dgp, q), start=2):
        if np.any(nu + step == nu) or np.any(nu - step == nu):
            raise ConfigError(f"step {step} leaves an order-{k} nuisance coordinate unchanged")
        order_worst = 0.0
        for beta in grid:
            for j in range(nu.size):
                plus, minus = nu.copy(), nu.copy()
                plus[j] += step
                minus[j] -= step
                diff = moment(beta, plus) - moment(beta, minus)
                derivative = float(np.max(np.abs(diff))) / (2.0 * step)
                if not math.isfinite(derivative):
                    raise NumericalError(
                        f"order-{k} orthogonality derivative is {derivative} at beta={beta}"
                    )
                order_worst = max(order_worst, derivative)
        by_order[k] = order_worst
    return OrthogonalityReport(
        max_abs_derivative=max(by_order.values()),
        by_order=by_order,
        beta_grid=grid,
        step=step,
    )
