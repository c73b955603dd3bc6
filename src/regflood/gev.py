"""Generalized extreme value (GEV) distributions and seasonal product models.

The annual-maximum model used throughout the package is either a single
GEV or the product of two GEV distribution functions (one per season,
assuming independent seasonal maxima).  All functions here are pure;
parameter containers are frozen dataclasses and safe to share.

Shape convention: ``xi > 0`` means a heavy (polynomial) right tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ParameterError, RegfloodError

__all__ = [
    "GUMBEL_SHAPE_EPS",
    "GevParams",
    "TwoComponentGev",
    "gev_cdf",
    "gev_pdf",
    "gev_quantile",
    "gev_cdf_jacobian",
    "twocomp_cdf",
    "twocomp_pdf",
    "twocomp_quantile",
    "kl_project_gev",
]

# |xi| below this uses the Gumbel limit; avoids cancellation in (.)**(-1/xi).
GUMBEL_SHAPE_EPS = 1e-8


@dataclass(frozen=True)
class GevParams:
    """Location, scale and shape of a GEV distribution.

    Attributes
    ----------
    mu : float
        Location, in data units (m3/s for river flows).
    sigma : float
        Scale, strictly positive, same units as ``mu``.
    xi : float
        Shape (extreme value index for this family), dimensionless.
    """

    mu: float
    sigma: float
    xi: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ParameterError(f"scale must be a positive real, got {self.sigma!r}")
        if not (np.isfinite(self.mu) and np.isfinite(self.xi)):
            raise ParameterError("location and shape must be finite")

    @property
    def is_gumbel(self) -> bool:
        return abs(self.xi) < GUMBEL_SHAPE_EPS

    def support(self) -> tuple[float, float]:
        """Open interval on which the density is positive."""
        if self.is_gumbel:
            return (-math.inf, math.inf)
        edge = self.mu - self.sigma / self.xi
        if self.xi > 0:
            return (edge, math.inf)
        return (-math.inf, edge)

    def as_array(self) -> np.ndarray:
        return np.array([self.mu, self.sigma, self.xi], dtype=float)


@dataclass(frozen=True)
class TwoComponentGev:
    """Annual-maximum model: product of a winter and a summer GEV cdf."""

    winter: GevParams
    summer: GevParams


def _gev_cdf_scalar(params: GevParams, x: float) -> float:
    # inner loop of twocomp_quantile: reads xi once instead of via is_gumbel
    xi = params.xi
    z = (x - params.mu) / params.sigma
    if abs(xi) < GUMBEL_SHAPE_EPS:
        if -z > 700.0:
            return 0.0
        return math.exp(-math.exp(-z))
    w = xi * z
    if w <= -1.0:
        return 0.0 if xi > 0 else 1.0
    expo = -math.log1p(w) / xi
    if expo > 700.0:
        return 0.0
    return math.exp(-math.exp(expo))


def gev_cdf(params: GevParams, x):
    """GEV distribution function, evaluated as a total function.

    Returns 0 below the lower support endpoint (``xi > 0``) and 1 above
    the upper endpoint (``xi < 0``) so that product distributions and
    root finders can evaluate anywhere; a NaN argument gives NaN.
    Scalar in, scalar out; arrays are mapped elementwise.
    """
    # a float (np.float64 included) skips np.ndim, which costs more than the kernel
    if isinstance(x, float) or np.ndim(x) == 0:
        return _gev_cdf_scalar(params, float(x))
    return _map_kernel(_gev_cdf_scalar, params, x)


def _map_kernel(kernel, params: GevParams, x) -> np.ndarray:
    """``kernel(params, v)`` for every entry v of the array ``x``, in its shape."""
    x = np.asarray(x, dtype=float)
    values = [kernel(params, v) for v in x.ravel().tolist()]
    return np.array(values, dtype=float).reshape(x.shape)


def _gev_pdf_scalar(params: GevParams, x: float) -> float:
    z = (x - params.mu) / params.sigma
    if params.is_gumbel:
        if -z > 690.0:
            return 0.0
        t = math.exp(-z)
        dens = t * math.exp(-t) / params.sigma
    else:
        w = params.xi * z
        if w <= -1.0:
            return 0.0
        expo = -math.log1p(w) / params.xi
        if expo > 690.0:
            return 0.0
        t = math.exp(expo)
        arg = (params.xi + 1.0) * expo - t
        if arg < -745.0:
            return 0.0
        dens = math.exp(arg) / params.sigma
    if dens == math.inf:
        raise NumericError(f"the density of {params} at x={x} overflows the float range")
    return dens


def gev_pdf(params: GevParams, x):
    """GEV density; zero outside the support, NaN at a NaN argument and a
    ``NumericError`` where it exceeds the float range."""
    if isinstance(x, float) or np.ndim(x) == 0:
        return _gev_pdf_scalar(params, float(x))
    return _map_kernel(_gev_pdf_scalar, params, x)


def gev_quantile(params: GevParams, p):
    """Inverse of :func:`gev_cdf` on (0, 1); a ``NumericError`` where it
    exceeds the float range."""
    if isinstance(p, float) or np.ndim(p) == 0:
        p = float(p)
        if not 0.0 < p < 1.0:
            raise DomainError("quantile level must lie strictly between 0 and 1")
        y = -math.log(p)
        try:
            if params.is_gumbel:
                q = params.mu - params.sigma * math.log(y)
            else:
                t = -params.xi * math.log(y)
                try:
                    # expm1 avoids the cancellation of y**(-xi) - 1 for small |xi|
                    q = params.mu + params.sigma * math.expm1(t) / params.xi
                    if not math.isfinite(q):  # sigma * e**t overflowed before the division
                        q = params.mu + params.sigma * (math.expm1(t) / params.xi)
                except OverflowError:  # only e**t overflowed: sigma/xi * e**t on the log scale
                    scale = math.exp(t + math.log(params.sigma) - math.log(abs(params.xi)))
                    q = params.mu + math.copysign(scale, params.xi)
        except OverflowError:
            q = math.inf
        if not math.isfinite(q):
            raise NumericError(f"the {p}-quantile of {params} overflows the float range")
        return q
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):  # also rejects NaN
        raise DomainError("quantile level must lie strictly between 0 and 1")
    y = -np.log(p)
    with np.errstate(over="ignore"):
        if params.is_gumbel:
            q = params.mu - params.sigma * np.log(y)
        else:
            q = params.mu + params.sigma * np.expm1(-params.xi * np.log(y)) / params.xi
    over = ~np.isfinite(q)
    if over.any():
        # the scalar path recovers a quantile whose intermediate e**t overflowed, or raises
        q[over] = [gev_quantile(params, level) for level in p[over].tolist()]
    return q


def _xi_log_factor(w: float) -> float:
    """Stable evaluation of log(1+w)/w**2 - 1/(w*(1+w)).

    This is the factor multiplying z**2 in the shape derivative of the
    GEV cdf exponent; the direct expression cancels catastrophically for
    small ``w``, where the series 1/2 - 2w/3 + 3w**2/4 - ... applies.
    """
    if abs(w) > 1e-4:
        return math.log1p(w) / (w * w) - 1.0 / (w * (1.0 + w))
    return 0.5 - 2.0 * w / 3.0 + 0.75 * w**2 - 0.8 * w**3


def gev_cdf_jacobian(params: GevParams, x: float) -> np.ndarray:
    """Gradient of the cdf with respect to (mu, sigma, xi) at fixed x.

    Parameters
    ----------
    x : float
        Finite point strictly inside the support (else ``DomainError``).

    Returns
    -------
    numpy.ndarray
        Length-3 vector (dG/dmu, dG/dsigma, dG/dxi); ``NumericError`` if
        one exceeds the float range.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"the cdf Jacobian needs a finite x, got {x}")
    z = (x - params.mu) / params.sigma
    # the Gumbel limit is w = 0, where the shape factor is exactly 1/2
    w = 0.0 if params.is_gumbel else params.xi * z
    if w <= -1.0:
        raise DomainError(f"x={x} lies outside the support of {params}")
    dmu = -_gev_pdf_scalar(params, x)
    cdf = _gev_cdf_scalar(params, x)
    dxi = 0.0
    if cdf > 0.0:  # where G underflows, t = -log G can overflow while G t vanishes
        t = math.exp(-z) if params.is_gumbel else math.exp(-math.log1p(w) / params.xi)
        dxi = -cdf * t * z * z * _xi_log_factor(w)
    jac = np.array([dmu, z * dmu, dxi])
    if not np.isfinite(jac).all():
        raise NumericError(f"the cdf Jacobian of {params} at x={x} overflows the float range")
    return jac


_BRENT_RTOL = 4 * float(np.finfo(float).eps)


def brentq(f, a: float, b: float, xtol: float = 2e-12, maxiter: int = 100) -> float:
    """Root of ``f`` on the bracket [a, b] by Brent's (1973) method.

    A line-for-line port of SciPy's ``brentq.c`` with its relative
    tolerance 4*eps: the same float operations in the same order, so it
    takes the same iterates and returns the same root as
    ``scipy.optimize.brentq(f, a, b, xtol=xtol, maxiter=maxiter)``, and
    raises the same exceptions, without importing ``scipy.optimize``.
    Package-internal; not part of the public API.

    Raises
    ------
    ValueError
        If f(a) and f(b) have the same sign or ``f`` returns NaN.
    RuntimeError
        If ``maxiter`` iterations do not converge.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # for nonzero, non-NaN values (x < 0) is C's signbit(x)
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate; where C divides by zero it gets an inf or
                # NaN step, which the test below turns into bisection
                try:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:
                    stry = math.inf
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


# acceptable residual |F(q) - p| of a product quantile, and the solver's iteration cap
_QUANTILE_PROB_TOL = 1e-10
_QUANTILE_MAX_ITER = 200


def twocomp_cdf(model: TwoComponentGev, x):
    """Distribution function of the seasonal product model."""
    return gev_cdf(model.winter, x) * gev_cdf(model.summer, x)


def twocomp_pdf(model: TwoComponentGev, x):
    """Density of the product model: g_w*G_s + G_w*g_s."""
    return gev_pdf(model.winter, x) * gev_cdf(model.summer, x) + gev_cdf(
        model.winter, x
    ) * gev_pdf(model.summer, x)


def twocomp_quantile(model: TwoComponentGev, p: float) -> float:
    """Invert the product cdf at level ``p`` by bracketed root finding.

    The root is bracketed without heuristics: the larger of the two
    component p-quantiles is a lower bound (there the product is at most
    p) and the larger of the component sqrt(p)-quantiles is an upper
    bound (both factors are at least sqrt(p) there).  The root is found
    by the in-package Brent solver :func:`brentq`, which takes the same
    iterates as SciPy's ``brentq``.  Its absolute tolerance is 1e-13
    times the bracket's magnitude, capped at 1e-13, so a bracket of small
    magnitude is searched to a proportionally finer tolerance.

    Raises
    ------
    DomainError
        If ``p`` is outside (0, 1).
    NumericError
        If the solver fails or its root's residual |F(q) - p| exceeds 1e-10.
    """
    if not 0.0 < p < 1.0:
        raise DomainError("quantile level must lie strictly between 0 and 1")
    if model.winter == model.summer:
        # F = G**2, so the inverse is the component quantile at sqrt(p).
        return float(gev_quantile(model.winter, math.sqrt(p)))
    lo = max(gev_quantile(model.winter, p), gev_quantile(model.summer, p))
    sq = math.sqrt(p)
    hi = max(gev_quantile(model.winter, sq), gev_quantile(model.summer, sq))

    def residual(x: float) -> float:
        return twocomp_cdf(model, x) - p

    # mathematically F(lo) <= p <= F(hi); rounding can saturate either
    # end onto the level, in which case the endpoint is the root
    res_lo = residual(lo)
    if res_lo >= 0.0:
        if res_lo <= _QUANTILE_PROB_TOL:
            return float(lo)
        raise NumericError(
            f"lower bracket invalidated by rounding: F({lo:.6g}) - p = {res_lo:.3e}"
        )
    res_hi = residual(hi)
    if res_hi <= 0.0:
        if -res_hi <= _QUANTILE_PROB_TOL:
            return float(hi)
        raise NumericError(
            f"upper bracket invalidated by rounding: F({hi:.6g}) - p = {res_hi:.3e}"
        )
    try:
        # a fixed 1e-13 stops a bracket of scale 1e-7 or below short of the
        # residual tolerance; lo < hi, so the magnitude is positive
        xtol = 1e-13 * min(1.0, max(abs(lo), abs(hi)))
        root = brentq(residual, lo, hi, xtol=xtol, maxiter=_QUANTILE_MAX_ITER)
    except (ValueError, RuntimeError) as exc:
        raise NumericError(
            f"product-quantile inversion failed for p={p} on bracket "
            f"[{lo:.6g}, {hi:.6g}]: {exc}"
        ) from exc
    res = residual(root)
    if abs(res) > _QUANTILE_PROB_TOL:
        raise NumericError(
            f"product-quantile inversion did not converge: residual {res:.3e} "
            f"exceeds {_QUANTILE_PROB_TOL:.3e} at q={root:.6g}"
        )
    return float(root)


# --------------------------------------------------------------------------
# Projection of an arbitrary density onto the GEV family
# --------------------------------------------------------------------------


# kl_project_gev: tolerated mass defect of the target, density truncation floor,
# gradient norm accepted as stationary and Nelder-Mead iteration budget
_KL_MASS_TOL = 1e-6
_KL_DENSITY_FLOOR = 1e-12
_KL_GRAD_TOL = 1e-3
_KL_MAX_ITER = 4000


def _quadrature_grid(lo: float, hi: float, n_segments: int, nodes_per_segment: int):
    """Composite Gauss-Legendre nodes/weights on [lo, hi].

    Segments are log-spaced away from ``lo`` so that both a sharp mode
    near the lower endpoint and a slowly decaying right tail are
    resolved with a fixed node budget.
    """
    span = hi - lo
    edges = np.concatenate(
        [[lo], lo + np.logspace(math.log10(span) - 5.0, math.log10(span), n_segments)]
    )
    xg, wg = np.polynomial.legendre.leggauss(nodes_per_segment)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * xg + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * wg)
    return np.concatenate(nodes), np.concatenate(weights)


# Offsets 2^j probed for a visible density around an anchor.
_PROBE_LADDER = [2.0**j for j in range(-20, 60)]


def _effective_bounds(density, support, floor: float) -> tuple[float, float]:
    """Truncate an (possibly unbounded) support where the density is tiny.

    Unbounded ends are searched outward from one anchor: the finite end
    of the support if there is one, else 0 or the nearest point of the
    dyadic ladder +-2^j where the density is visible.  The density must
    therefore be visible on some ladder point (true for any unimodal model
    at realistic scales).
    """
    lo, hi = float(support[0]), float(support[1])
    if math.isinf(lo) and math.isinf(hi):
        anchor = _visible_point(density, floor)
    else:
        anchor = hi if math.isinf(lo) else lo
    if math.isinf(hi):
        hi = _density_edge(density, anchor, 1.0, floor)
    if math.isinf(lo):
        lo = _density_edge(density, anchor, -1.0, floor)
    return lo, hi


def _visible_point(density, floor: float) -> float:
    """0 if the density shows above the floor there, else the nearest ladder point
    +-2^j (+ before -) where it does."""
    for x in [0.0] + [sign * b for b in _PROBE_LADDER for sign in (1.0, -1.0)]:
        if density(x) > floor:
            return x
    raise ParameterError("density not detectable above the truncation floor on the line")


def _density_edge(density, anchor: float, step: float, floor: float) -> float:
    """Truncation point of an unbounded end: right of ``anchor`` for ``step`` +1,
    left for -1 (``anchor + (-b)`` is ``anchor - b`` exactly, so both ends probe
    the same points)."""
    probe = None
    for b in _PROBE_LADDER:
        x = anchor + step * b
        if density(x) > floor:
            probe = x
    if probe is None:
        side = "right" if step > 0 else "left"
        raise ParameterError(
            "density not detectable above the truncation floor to the "
            f"{side} of the support anchor"
        )
    edge = anchor + 2.0 * (probe - anchor)
    while density(edge) > floor and step * (edge - anchor) < 1e12:
        edge = anchor + 2.0 * (edge - anchor)
    return edge


def kl_project_gev(target_density, target_support: tuple[float, float]) -> GevParams:
    """Project a density onto the GEV family in Kullback-Leibler distance.

    Minimizes KL(f || g_theta) over theta by numerical quadrature of the
    cross-entropy integral and derivative-free minimization from a
    moment-matched start.  The target support is truncated where the
    density falls below 1e-12.

    Parameters
    ----------
    target_density : callable
        Scalar density ``f``; must integrate to 1 on the support within
        1e-6 (checked by quadrature).
    target_support : (float, float)
        Interval on which ``f`` lives; either end may be infinite.

    Returns
    -------
    GevParams
        Local minimizer with quadrature-gradient norm below 1e-3.
    """
    lo, hi = _effective_bounds(target_density, target_support, _KL_DENSITY_FLOOR)
    if not lo < hi:
        raise ParameterError(f"empty effective support [{lo}, {hi}]")
    nodes, weights = _quadrature_grid(lo, hi, n_segments=48, nodes_per_segment=32)
    f_vals = np.array([max(float(target_density(x)), 0.0) for x in nodes])
    mass = float(np.sum(weights * f_vals))
    if abs(mass - 1.0) > _KL_MASS_TOL:
        raise ParameterError(
            f"target density integrates to {mass:.8f} on [{lo:.6g}, {hi:.6g}], "
            f"not 1 within {_KL_MASS_TOL}"
        )
    active = f_vals > _KL_DENSITY_FLOOR
    wf = weights * f_vals

    theta0 = _moment_matched_init(nodes, wf).as_array()

    def objective(theta: np.ndarray) -> float:
        mu, sigma, xi = theta
        if sigma <= 0:
            return 1e10 * (1.0 + abs(sigma))
        z = (nodes - mu) / sigma
        if abs(xi) < GUMBEL_SHAPE_EPS:
            log_g = -z - np.exp(-z) - math.log(sigma)
        else:
            u = 1.0 + xi * z
            umin = float(np.min(u[active]))
            if umin <= 1e-12:
                # support violation: penalize with slope back to feasibility
                return 1e8 * (1.0 + abs(umin))
            usafe = np.maximum(u, 1e-300)
            with np.errstate(over="ignore"):
                log_g = (
                    -(1.0 + 1.0 / xi) * np.log(usafe)
                    - usafe ** (-1.0 / xi)
                    - math.log(sigma)
                )
        val = -float(np.sum(wf[active] * log_g[active]))
        return val if np.isfinite(val) else 1e10

    from scipy import optimize  # Nelder-Mead; kept off the package's import path

    result = optimize.minimize(
        objective,
        theta0,
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": _KL_MAX_ITER, "maxfev": _KL_MAX_ITER},
    )
    if not result.success:
        raise NumericError(f"KL projection did not converge: {result.message}")
    theta = result.x

    grad = np.empty(3)
    for i in range(3):
        h = 1e-5 * max(1.0, abs(theta[i]))
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (objective(up) - objective(dn)) / (2.0 * h)
    if float(np.linalg.norm(grad)) > _KL_GRAD_TOL:
        raise NumericError(
            f"KL projection stalled away from a stationary point "
            f"(gradient norm {np.linalg.norm(grad):.3e} > {_KL_GRAD_TOL})"
        )
    return GevParams(*map(float, theta))


def _moment_matched_init(nodes: np.ndarray, wf: np.ndarray) -> GevParams:
    """Starting point from grid moments of the target density."""
    from .moments import PwmVector, gev_from_lmoments

    cdf = np.cumsum(wf)
    betas = [float(np.sum(wf * nodes * cdf**k)) for k in range(3)]
    try:
        return gev_from_lmoments(PwmVector(np.array(betas)))
    except RegfloodError:
        mean = betas[0]
        sd = math.sqrt(max(float(np.sum(wf * (nodes - mean) ** 2)), 1e-12))
        return GevParams(mean - 0.45 * sd, 0.78 * sd, 0.1)
