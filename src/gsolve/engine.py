"""Full iterative solves, spectral radius, and convergence prediction.

The spectral radius of an iteration matrix H = M^{-1} N has two paths:
dense eigenvalues of an explicit H, which a step operator of order up to
``SMALL_ORDER`` forms, and ARPACK (Lehoucq, Sorensen & Yang, ARPACK Users'
Guide, SIAM 1998) above that order.  ARPACK iterates x -> M^{-1} N x,
except on a certified regular splitting M - N = A of a nonsingular M-matrix
A (N >= 0, M a Z-matrix, a positive witness for A), where it iterates
x -> A^{-1} N x and maps its Perron root tau to rho(H) = tau / (1 + tau)
(Varga, Matrix Iterative Analysis, 2nd ed., Springer 2000, Thm 3.13): the
map spreads a radius crowded near 1 away from the rest of the spectrum.
``predict`` decides the overrelaxed-GSOR theorem by one M-matrix
certificate, which needs no eigenvalues.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.sparse.linalg import ArpackError, LinearOperator, SuperLU, eigs

from .matrices import (
    ClassificationReport,
    MCertificate,
    SquareMatrix,
    certify_m,
    classify,
    extract_splitting,
    gamma,
    is_z_matrix,
    require_integer,
    require_real_array,
)
from .solvers import Method, StepOperator, build_step, iteration_matrix, relaxation_factor

#: A solve is declared divergent once the successive-difference norm exceeds
#: this multiple of the first difference.
DIVERGENCE_GUARD = 1e12


@dataclass(frozen=True)
class IterationConfig:
    """Validated method spec and stopping parameters for :func:`solve`.

    ``m`` and ``max_iter`` must be whole numbers and ``tol`` real; ``omega``
    becomes None for GJ and GGS (:func:`~gsolve.solvers.relaxation_factor`).
    The stopping rule is the 2-norm of successive differences dropping to
    ``tol``; the iterate count reported is the number of steps performed
    when the test first passes.
    """

    method: Method | str
    m: int
    omega: float | None = None
    tol: float = 1e-7
    max_iter: int = 10000

    def __post_init__(self) -> None:
        method = Method.parse(self.method)
        object.__setattr__(self, "method", method)
        tol = float(self.tol) if isinstance(self.tol, Real) else math.nan
        if isinstance(self.tol, bool) or not 0 < tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "max_iter", require_integer("max_iter", self.max_iter, 1))
        object.__setattr__(self, "m", require_integer("half-bandwidth m", self.m, 0))
        object.__setattr__(self, "omega", relaxation_factor(method, self.omega))


@dataclass(frozen=True)
class SolveReport:
    """Outcome of :func:`solve`.

    ``note`` is empty iff ``converged``, else ``"diverged"`` or ``"max_iter"``.
    ``setup_seconds`` is the time of splitting extraction and factorization,
    ``elapsed_seconds`` that of the iteration loop.  Both norms are summed
    by ``math.fsum``, so they, like the count, do not depend on BLAS.
    """

    iterations: int
    final_diff_norm: float
    final_error_norm: float | None
    elapsed_seconds: float
    setup_seconds: float
    solution: np.ndarray
    note: str = ""

    @property
    def converged(self) -> bool:
        return not self.note


def _fsum_norm(v: np.ndarray) -> float:
    """2-norm of v from the correctly rounded sum of its rounded squares: no BLAS."""
    try:
        return math.sqrt(math.fsum(v * v))
    except OverflowError:  # the sum lies past the float range
        return math.inf


def solve(
    A: SquareMatrix,
    b: np.ndarray,
    config: IterationConfig,
    x_exact: np.ndarray | None = None,
) -> SolveReport:
    """Iterate from the zero vector until the successive-difference test passes.

    Stops early with ``note="diverged"`` once the difference norm blows past
    ``DIVERGENCE_GUARD`` times the first difference (or goes non-finite), and
    with ``note="max_iter"`` when the cap is reached first.  Splitting
    extraction and factorization are timed as ``setup_seconds``, the
    iteration loop as ``elapsed_seconds``.  When ``x_exact`` is supplied the
    2-norm error of the final iterate is reported as ``final_error_norm``.
    A complex, string, misshapen or non-finite ``b`` or ``x_exact`` raises ValueError
    before set-up.
    """
    b = require_real_array("b", b, (A.n,))
    x = np.zeros(A.n)
    if x_exact is not None:
        x_exact = require_real_array("x_exact", x_exact, (A.n,))
    setup_start = time.perf_counter()
    op = build_step(extract_splitting(A, config.m), config.method, config.omega)
    setup = time.perf_counter() - setup_start

    note = ""
    tol = config.tol
    # ddot in any summation order and _fsum_norm lie within gamma_{n+2} of the
    # exact norm, so outside this window of tol every BLAS decides alike.
    window = gamma(A.n + 2) * tol
    start = time.perf_counter()
    d = np.empty(A.n)  # the successive difference
    # max_iter >= 1, so the loop runs and leaves k, diff and first_diff bound.
    for k in range(1, config.max_iter + 1):
        x_next = op.step(x, b)
        np.subtract(x_next, x, out=d)
        # Bitwise what np.linalg.norm computes for a 1-D float64 vector.
        diff = math.sqrt(d.dot(d))
        if abs(diff - tol) <= window:
            diff = _fsum_norm(d)
        x = x_next
        if k == 1:
            first_diff = diff
        if diff <= tol:
            break
        if not math.isfinite(diff) or diff > DIVERGENCE_GUARD * first_diff:
            note = "diverged"
            break
    else:
        note = "max_iter"
    elapsed = time.perf_counter() - start
    if math.isfinite(diff):  # a non-finite norm is one in every order
        diff = _fsum_norm(d)

    err = None if x_exact is None else _fsum_norm(x - x_exact)
    return SolveReport(
        iterations=k,
        final_diff_norm=diff,
        final_error_norm=err,
        elapsed_seconds=elapsed,
        setup_seconds=setup,
        solution=x,
        note=note,
    )


# -- spectral radius ----------------------------------------------------

#: Up to this order a step operator's radius is the dense one of its H.  Bench
#: zero grid, GSOR m = 1, omega = 1.5, one BLAS thread: dense takes 0.3, 3.6 and
#: 7.6 ms at orders 30, 90 and 132, where ARPACK fails on some or all of seeds
#: 0-2; at orders 210 and 380 dense takes 26 and 82 ms, ARPACK 5-7 ms.
SMALL_ORDER = 200


@dataclass(frozen=True)
class PowerEstimate:
    """Operator spectral radius of H = M^{-1} N with its evidence.

    Up to order ``SMALL_ORDER``, ``value`` is the dense radius of H,
    ``error_bound`` the backward error eps * ||H||_1 of LAPACK's eigenvalue
    bounds (LAPACK Users' Guide, 3rd ed., sec. 4.8) and ``steps`` the order.
    Above it, ``value`` is |lambda| of ARPACK's dominant eigenpair (lambda,
    v), ||v|| = 1, and ``error_bound`` its residual ||H v - lambda v||; if
    ARPACK does not converge, ``value`` is NaN and ``error_bound`` infinite.
    ``steps`` then counts applications of the operator ARPACK iterated
    (A^{-1} N on a certified regular splitting, H otherwise) plus the 2
    applications of H in the residual.  ``reliable`` is False exactly when
    ``value`` is NaN.
    """

    value: float
    error_bound: float
    steps: int

    @property
    def reliable(self) -> bool:
        return not math.isnan(self.value)


def _regular_factor(op: StepOperator, certificate: MCertificate | None = None) -> SuperLU | None:
    """SuperLU factor of A = M - N when M - N is a regular splitting of a
    nonsingular M-matrix, certified exactly; None otherwise.

    The splitting's conditions are checked here: N >= 0 entrywise and M a
    Z-matrix.  A's certificate is ``certificate``, or else :func:`certify_m`
    of M - N.  The Z-matrix M >= M - N is then a nonsingular M-matrix too,
    so M^{-1} >= 0 (Berman & Plemmons, Nonnegative Matrices in the
    Mathematical Sciences, SIAM 1994, ch. 6).
    """
    if np.any(op.n_part.data < 0.0) or not is_z_matrix(SquareMatrix(op.m_part)):
        return None
    if certificate is None:
        certificate = certify_m(SquareMatrix(op.m_part - op.n_part))
    return certificate.lu


def _operator_radius(op: StepOperator, seed: int, lu: SuperLU | None = None) -> PowerEstimate:
    """Dominant eigenpair of ``op``'s H by ARPACK, from a start vector drawn with ``seed``.

    With ``lu``, A's factor from :func:`_regular_factor`, the eigen-solve runs
    on A^{-1} N instead, and its eigenvalue mu maps to H's mu / (1 + mu), with
    the same eigenvector; the residual is taken with H either way.
    """
    steps = 0

    def apply(v: np.ndarray, solve=op.solve_m) -> np.ndarray:
        nonlocal steps
        steps += 1
        return solve(op.n_part @ v)

    iterated = LinearOperator((op.n, op.n), dtype=np.float64,
                              matvec=apply if lu is None else (lambda v: apply(v, lu.solve)))
    v0 = np.random.default_rng(seed).standard_normal(op.n)
    try:
        lams, vecs = eigs(iterated, k=1, which="LM", v0=v0)
    except ArpackError:  # no convergence, or no shift could be applied
        return PowerEstimate(float("nan"), np.inf, steps)
    lam, v = lams[0], vecs[:, 0]
    if lu is not None:
        # An eigenvalue mu != tau with |mu| = tau would give H the eigenvalue
        # mu / (1 + mu), of modulus above tau / (1 + tau) = rho(H); so mu is tau.
        lam = lam / (1.0 + lam)
    # H is real, so it is applied to the real and imaginary parts apart.
    residual = apply(v.real) + 1j * apply(v.imag) - lam * v
    return PowerEstimate(float(abs(lam)), float(np.linalg.norm(residual)), steps)


def spectral_radius(target, mode: str = "dense", *, seed: int = 0,
                    certificate: MCertificate | None = None):
    """Largest eigenvalue modulus of an iteration matrix.

    Arguments are checked first, by ValueError: ``mode``, ``seed`` (whole, >= 0),
    ``target`` against the mode, then ``certificate`` (None or an MCertificate).

    ``mode="dense"``: ``target`` is an explicit real, finite, square matrix,
    such as ``iteration_matrix(op)``, not ``op`` itself; returns a float from
    a dense eigenvalue computation.

    ``mode="power"``: ``target`` is a :class:`StepOperator` (the operator
    x -> M^{-1} N x); returns a :class:`PowerEstimate`.  An empty N part
    gives radius 0.  Up to order ``SMALL_ORDER`` the radius is the dense one
    of ``iteration_matrix(target)``; above it ARPACK finds the dominant
    eigenpair from the start vector drawn with ``seed``, so every call is
    deterministic.

    Above ``SMALL_ORDER``, a step operator whose splitting M - N = A is
    certified regular (N >= 0, M a Z-matrix, A certified by
    :func:`certify_m`; the factor is A's) is handled through A^{-1} N >= 0
    instead: its Perron root tau is its largest-modulus eigenvalue, and
    rho(H) = tau / (1 + tau) (Varga, Thm 3.13).  That covers GJ and GGS at
    every m and SOR (GSOR at m = 0) at omega <= 1 on nonsingular M-matrices.
    ``certificate`` is ``certify_m`` of the A that ``target`` splits, such
    as ``classify(A).m``; without it A is certified here.  Every other
    operator is iterated as H (:func:`_operator_radius`), whose residual
    gives ``error_bound`` either way.
    """
    if mode not in ("dense", "power"):
        raise ValueError(f"unknown mode {mode!r}; expected 'dense' or 'power'")
    seed = require_integer("seed", seed, 0)
    if (mode == "power") != isinstance(target, StepOperator):
        raise ValueError('a StepOperator needs mode="power"' if mode == "dense"
                         else "power mode needs a StepOperator")
    if not (certificate is None or isinstance(certificate, MCertificate)):
        raise ValueError(f"certificate must be an MCertificate, got {type(certificate).__name__}")
    if mode == "dense":
        dense = require_real_array("dense matrix", target)  # read first: a ragged target is named
        # (k, k) for a target of k rows; a 0-d target is held to (0, 0), so it is refused.
        dense = require_real_array("dense matrix", dense, dense.shape[:1] * 2 or (0, 0))
        return float(np.max(np.abs(np.linalg.eigvals(dense))))
    if target.n_part.nnz == 0:
        return PowerEstimate(0.0, 0.0, 0)
    if target.n <= SMALL_ORDER:
        H = iteration_matrix(target)
        bound = float(np.finfo(np.float64).eps * np.linalg.norm(H, 1))
        return PowerEstimate(spectral_radius(H), bound, target.n)
    return _operator_radius(target, seed, _regular_factor(target, certificate))


# -- theorem-based convergence prediction --------------------------------

TAG_OVERRELAXED_M = "M+GSOR(overrelaxed)"


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Outcome of matching (matrix class, method, omega) against the theorems.

    ``guarantee_source`` tags each convergence theorem that applies; every
    tag rests on an exact certificate, so one tag proves convergence.
    ``radius`` is the :class:`PowerEstimate` of the iteration matrix's
    spectral radius that ``predict`` computed, at any order.
    ``predicted_converges`` is True when a theorem applies, else
    ``radius.value < 1`` when the radius is reliable, and ``None`` otherwise.
    """

    radius: PowerEstimate
    guarantee_source: tuple[str, ...] = ()

    @property
    def predicted_converges(self) -> bool | None:
        if self.guarantee_source:
            return True
        return bool(self.radius.value < 1.0) if self.radius.reliable else None


def predict(
    A: SquareMatrix,
    config: IterationConfig,
    report: ClassificationReport | None = None,
) -> ConvergenceVerdict:
    """Tag the convergence theorems that A's classes give the method; keep rho(H)'s estimate.

    Guarantees: SDD, M, and H matrices converge under GJ and GGS for any
    bandwidth; the same classes converge under GSOR for omega in (0, 1];
    an M-matrix also converges under overrelaxed GSOR whenever
    omega < 2 / (1 + rho(H_GJ)), decided by one M-matrix certificate; the
    theorem's other condition, rho(band^{-1} lower) < 1 / omega, follows.
    Only here is it decided which omega a theorem covers; :func:`build_step`
    accepts any finite nonzero omega for which band/omega stays finite.
    ``report`` must be ``classify(A)``, whose factor of A feeds the radius;
    without one, A is classified here.  The SPD verdict plays no part.  The
    radius is :func:`spectral_radius`'s in power mode, given ``report.m``, so
    above ``SMALL_ORDER`` on a nonsingular M-matrix, GJ and GGS at every m
    and SOR at omega <= 1 take its regular-splitting route on A's factor:
    ARPACK on A^{-1} N, with rho = tau / (1 + tau) (Varga, Thm 3.13).
    """
    if report is None:
        report = classify(A)
    splitting = extract_splitting(A, config.m)
    method: Method = config.method
    omega = config.omega
    tags: list[str] = []

    memberships = (("SDD", report.is_sdd), ("M", report.is_m), ("H", report.is_h))
    if method in (Method.GJ, Method.GGS):
        tags.extend(f"{cls}+{method.value.upper()}" for cls, ok in memberships if ok)
    elif 0.0 < omega <= 1.0:
        tags.extend(f"{cls}+GSOR(0<omega<=1)" for cls, ok in memberships if ok)
    # Overrelaxed GSOR on an M-matrix A: band is then one too, and lower,
    # upper >= 0.  By the regular-splitting theorem (Varga, Thm 3.13),
    # c*band - lower - upper with c = 2/omega - 1 > 0 is a nonsingular
    # M-matrix iff rho(band^{-1}(lower + upper)) < c, i.e. omega < 2 / (1 +
    # rho(H_GJ)); for omega >= 2 (c <= 0) no positive witness exists.  The
    # theorem's other condition, rho(band^{-1} lower) < 1/omega, follows:
    # rho(band^{-1} lower) <= rho(band^{-1}(lower + upper)) by Perron-Frobenius
    # (band^{-1} >= 0), and 1/omega - c = 1 - 1/omega > 0.  The margin is
    # certified before the step operator is built, so its LU is freed first.
    if (method is Method.GSOR and omega > 1.0 and report.is_m
            and certify_m(SquareMatrix(
                (2.0 / omega - 1.0) * splitting.band.csr - splitting.lower.csr
                - splitting.upper.csr)).witness is not None):
        tags.append(TAG_OVERRELAXED_M)

    radius = spectral_radius(build_step(splitting, method, omega), mode="power",
                             certificate=report.m)
    return ConvergenceVerdict(radius, tuple(tags))
