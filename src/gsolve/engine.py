"""Full iterative solves, spectral radius, and convergence prediction.

The spectral radius of an iteration matrix H = M^{-1} N has two paths:
dense eigenvalues of an explicit H, which a step operator of order up to
``SMALL_ORDER`` forms, and ARPACK (Lehoucq, Sorensen & Yang, ARPACK Users'
Guide, SIAM 1998) above that order.  ARPACK iterates x -> M^{-1} N x,
except on a certified regular splitting A = M - N of a nonsingular M-matrix
(N >= 0, M and A Z-matrices, a positive witness for A), where it iterates
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

import numpy as np
from scipy.sparse.linalg import ArpackError, LinearOperator, SuperLU, eigs

from .matrices import (
    ClassificationReport,
    SquareMatrix,
    certify_m,
    classify,
    extract_splitting,
    is_m_matrix,
    is_z_matrix,
    require_integer,
)
from .solvers import Method, StepOperator, build_step, iteration_matrix, relaxation_factor

#: A solve is declared divergent once the successive-difference norm exceeds
#: this multiple of the first difference.
DIVERGENCE_GUARD = 1e12


@dataclass(frozen=True)
class IterationConfig:
    """Validated method spec and stopping parameters for :func:`solve`.

    ``m`` and ``max_iter`` must be whole numbers; ``omega`` becomes None for
    GJ and GGS (:func:`~gsolve.solvers.relaxation_factor`).  The stopping
    rule is the 2-norm of successive differences dropping to ``tol``; the
    iterate count reported is the number of steps performed when the test
    first passes.
    """

    method: Method | str
    m: int
    omega: float | None = None
    tol: float = 1e-7
    max_iter: int = 10000

    def __post_init__(self) -> None:
        method = Method.parse(self.method)
        object.__setattr__(self, "method", method)
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        object.__setattr__(self, "max_iter", require_integer("max_iter", self.max_iter))
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        object.__setattr__(self, "m", require_integer("half-bandwidth m", self.m))
        if self.m < 0:
            raise ValueError(f"half-bandwidth m must be >= 0, got {self.m}")
        object.__setattr__(self, "omega", relaxation_factor(method, self.omega))


@dataclass(frozen=True)
class SolveReport:
    """Outcome of :func:`solve`.

    ``note`` says why an unconverged run stopped: ``"diverged"`` or
    ``"max_iter"``.  ``setup_seconds`` is the time of splitting extraction
    and factorization, ``elapsed_seconds`` that of the iteration loop.
    """

    converged: bool
    iterations: int
    final_diff_norm: float
    final_error_norm: float | None
    elapsed_seconds: float
    setup_seconds: float
    solution: np.ndarray
    note: str = ""


def _finite_vector(name: str, v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({n},)")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite entries")
    return v


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
    A misshapen or non-finite ``b`` or ``x_exact`` raises ValueError before
    set-up.
    """
    b = _finite_vector("b", b, A.n)
    x = np.zeros(A.n)
    if x_exact is not None:
        x_exact = _finite_vector("x_exact", x_exact, A.n)
    setup_start = time.perf_counter()
    op = build_step(extract_splitting(A, config.m), config.method, config.omega)
    setup = time.perf_counter() - setup_start

    converged = False
    note = ""
    diff = np.inf
    first_diff: float | None = None
    iterations = 0

    start = time.perf_counter()
    c = op.rhs_scale * b
    for k in range(1, config.max_iter + 1):
        x_next = op.step(x, c)
        d = x_next - x
        # Bitwise what np.linalg.norm computes for a 1-D float64 vector.
        diff = math.sqrt(d @ d)
        x = x_next
        iterations = k
        if first_diff is None:
            first_diff = diff
        if diff <= config.tol:
            converged = True
            break
        if not math.isfinite(diff) or diff > DIVERGENCE_GUARD * first_diff:
            note = "diverged"
            break
    else:
        note = "max_iter"
    elapsed = time.perf_counter() - start

    err = None if x_exact is None else float(np.linalg.norm(x - x_exact))
    return SolveReport(
        converged=converged,
        iterations=iterations,
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
    ARPACK does not converge, ``reliable`` is False, ``value`` NaN and
    ``error_bound`` infinite.  ``steps`` then counts applications of the
    operator ARPACK iterated (A^{-1} N on a certified regular splitting, H
    otherwise) plus the 2 applications of H in the residual.
    """

    value: float
    error_bound: float
    reliable: bool
    steps: int


def _regular_factor(op: StepOperator) -> SuperLU | None:
    """SuperLU factor of A = M - N when M - N is a regular splitting of a
    nonsingular M-matrix, certified exactly; None otherwise.

    The splitting's conditions are checked here: N >= 0 entrywise and M a
    Z-matrix.  A's own certificate, the Z test and a positive witness from
    one sparse LU, is :func:`certify_m`, whose factor is returned.  A is then
    a nonsingular M-matrix, and the Z-matrix M >= A is one too, so
    M^{-1} >= 0 (Berman & Plemmons, Nonnegative Matrices in the Mathematical
    Sciences, SIAM 1994, ch. 6).
    """
    if np.any(op.n_part.data < 0.0) or not is_z_matrix(SquareMatrix(op.m_part)):
        return None
    return certify_m(SquareMatrix(op.m_part - op.n_part))[0]


def _operator_radius(apply_h, n: int, seed: int, apply_regular=None) -> PowerEstimate:
    """Dominant eigenpair of H by ARPACK.

    With ``apply_regular`` (x -> A^{-1} N x of a certified regular
    splitting) the eigen-solve runs on that operator instead, and its
    eigenvalue mu maps to H's mu / (1 + mu), with the same eigenvector.
    """
    steps = 0

    def counted(apply):
        def call(v: np.ndarray) -> np.ndarray:
            nonlocal steps
            steps += 1
            return apply(v)

        return call

    iterated = counted(apply_h if apply_regular is None else apply_regular)
    op = LinearOperator((n, n), matvec=iterated, dtype=np.float64)
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        lams, vecs = eigs(op, k=1, which="LM", v0=v0)
    except ArpackError:  # no convergence, or no shift could be applied
        return PowerEstimate(float("nan"), np.inf, False, steps)
    lam, v = lams[0], vecs[:, 0]
    if apply_regular is not None:
        # An eigenvalue mu != tau with |mu| = tau would give H the eigenvalue
        # mu / (1 + mu), of modulus above tau / (1 + tau) = rho(H); so mu is tau.
        lam = lam / (1.0 + lam)
    # H is real, so it is applied to the real and imaginary parts apart.
    apply = counted(apply_h)
    residual = apply(v.real) + 1j * apply(v.imag) - lam * v
    return PowerEstimate(float(abs(lam)), float(np.linalg.norm(residual)), True, steps)


def spectral_radius(target, mode: str = "dense", *, seed: int = 0):
    """Largest eigenvalue modulus of an iteration matrix.

    ``mode="dense"``: ``target`` is an explicit square ndarray, such as
    ``iteration_matrix(op)``; returns a float from a dense eigenvalue
    computation.

    ``mode="power"``: ``target`` is a :class:`StepOperator` (the operator
    x -> M^{-1} N x); returns a :class:`PowerEstimate`.  An empty N part
    gives radius 0.  Up to order ``SMALL_ORDER`` the radius is the dense one
    of ``iteration_matrix(target)``; above it ARPACK finds the dominant
    eigenpair from the start vector drawn with ``seed``, 0 unless given, so
    every call is deterministic.

    Above ``SMALL_ORDER``, a step operator whose splitting A = M - N is
    certified regular (N >= 0, M a Z-matrix, and A = M - N certified by
    :func:`certify_m`, whose sparse LU of A is reused) is handled through
    A^{-1} N >= 0 instead: its Perron root tau is its largest-modulus
    eigenvalue, and rho(H) = tau / (1 + tau) (Varga, Thm 3.13).  That covers
    GJ and GGS at every m and SOR (GSOR at m = 0) at omega <= 1 on
    nonsingular M-matrices.  The residual is still taken with H.  Every
    other operator is iterated as H.
    """
    if mode == "dense":
        dense = np.asarray(target, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError(f"dense mode needs a square matrix, got shape {dense.shape}")
        return float(np.max(np.abs(np.linalg.eigvals(dense))))
    if mode == "power":
        if not isinstance(target, StepOperator):
            raise TypeError("power mode needs a StepOperator")
        op = target
        if op.n_part.nnz == 0:
            return PowerEstimate(0.0, 0.0, True, 0)
        if op.n <= SMALL_ORDER:
            H = iteration_matrix(op)
            bound = np.finfo(np.float64).eps * float(np.linalg.norm(H, 1))
            return PowerEstimate(spectral_radius(H), bound, True, op.n)
        lu = _regular_factor(op)
        apply_regular = None if lu is None else (lambda v: lu.solve(op.n_part @ v))
        return _operator_radius(lambda v: op.solve_m(op.n_part @ v), op.n, seed,
                                apply_regular)
    raise ValueError(f"unknown mode {mode!r}; expected 'dense' or 'power'")


# -- theorem-based convergence prediction --------------------------------

TAG_OVERRELAXED_M = "M+GSOR(overrelaxed)"


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Outcome of matching (matrix class, method, omega) against the theorems.

    ``guarantee_source`` tags each convergence theorem that applies, and
    ``guaranteed`` is derived from it: True iff at least one does.
    ``rho_estimate`` is the operator spectral radius of the iteration
    matrix (see :class:`PowerEstimate`), at any order, and ``None`` when
    ARPACK did not converge.  ``predicted_converges`` is ``rho < 1`` when
    the radius is known, the theorem verdict otherwise, and ``None`` when
    neither is available.
    """

    rho_estimate: float | None
    guarantee_source: tuple[str, ...] = ()
    predicted_converges: bool | None = None

    @property
    def guaranteed(self) -> bool:
        return bool(self.guarantee_source)


def predict(
    A: SquareMatrix,
    config: IterationConfig,
    report: ClassificationReport | None = None,
) -> ConvergenceVerdict:
    """Look up the convergence guarantees that A's classes give the method.

    Guarantees: SDD, M, and H matrices converge under GJ and GGS for any
    bandwidth; the same classes converge under GSOR for omega in (0, 1];
    an M-matrix also converges under overrelaxed GSOR whenever
    omega < 2 / (1 + rho(H_GJ)), decided by one M-matrix certificate; the
    theorem's other condition, rho(band^{-1} lower) < 1 / omega, follows.
    Only here is it decided which omega a theorem covers; :func:`build_step`
    accepts any finite nonzero omega.  ``report`` is A's :func:`classify`
    report when the caller already has it; without one, A is classified
    here.  The SPD verdict plays no part.
    The radius comes from :func:`spectral_radius` in power mode, so above
    ``SMALL_ORDER`` on a nonsingular M-matrix, GJ and GGS at every m and SOR
    at omega <= 1 take its regular-splitting route: ARPACK on A^{-1} N, whose
    Perron root tau gives rho = tau / (1 + tau) (Varga, Thm 3.13).
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
            and is_m_matrix(SquareMatrix(
                (2.0 / omega - 1.0) * splitting.band.csr - splitting.lower.csr
                - splitting.upper.csr))[0]):
        tags.append(TAG_OVERRELAXED_M)

    estimate = spectral_radius(build_step(splitting, method, omega), mode="power")
    if estimate.reliable:
        rho, predicted = estimate.value, bool(estimate.value < 1.0)
    else:
        rho, predicted = None, (True if tags else None)

    return ConvergenceVerdict(
        rho_estimate=rho,
        guarantee_source=tuple(tags),
        predicted_converges=predicted,
    )
