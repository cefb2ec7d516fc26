"""Full iterative solves, spectral radius, and convergence prediction.

The spectral radius of an iteration matrix H = M^{-1} N has two paths:
dense eigenvalues of an explicit matrix (the reference, for orders within
the dense limit) and one operator path that never forms H, ARPACK (Lehoucq,
Sorensen & Yang, ARPACK Users' Guide, SIAM 1998).  ARPACK iterates
x -> M^{-1} N x, except on a certified regular splitting A = M - N of a
nonsingular M-matrix (N >= 0, M and A Z-matrices, a positive witness for
A), where it iterates x -> A^{-1} N x and maps its Perron root tau to
rho(H) = tau / (1 + tau) (Varga, Matrix Iterative Analysis, 2nd ed.,
Springer 2000, Thm 3.13): the map spreads a radius crowded near 1 away
from the rest of the spectrum.  ``predict`` uses the operator path at every
order and decides the overrelaxed-GSOR theorem by M-matrix certificates,
which need no eigenvalues.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, SuperLU, eigs

from .matrices import (
    ClassificationReport,
    SquareMatrix,
    certify_m,
    classify,
    extract_splitting,
    is_m_matrix,
    is_z_matrix,
    positive_witness,
)
from .solvers import Method, StepOperator, build_step

#: A solve is declared divergent once the successive-difference norm exceeds
#: this multiple of the first difference.
DIVERGENCE_GUARD = 1e12


@dataclass(frozen=True)
class IterationConfig:
    """Method selection and stopping parameters for :func:`solve`.

    The stopping rule is the 2-norm of successive differences dropping to
    ``tol``; the iterate count reported is the number of steps performed
    when the test first passes.
    """

    method: Method | str
    m: int
    omega: float | None = None
    tol: float = 1e-7
    max_iter: int = 10000
    x0: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", Method.parse(self.method))
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.m < 0:
            raise ValueError(f"half-bandwidth m must be >= 0, got {self.m}")
        if self.method is Method.GSOR and self.omega is None:
            raise ValueError("gsor requires a relaxation factor omega")


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
    """Iterate from x0 until the successive-difference test passes.

    Stops early with ``note="diverged"`` once the difference norm blows past
    ``DIVERGENCE_GUARD`` times the first difference (or goes non-finite), and
    with ``note="max_iter"`` when the cap is reached first.  Splitting
    extraction and factorization are timed as ``setup_seconds``, the
    iteration loop as ``elapsed_seconds``.  When ``x_exact`` is supplied the
    2-norm error of the final iterate is reported as ``final_error_norm``.
    A misshapen or non-finite ``b``, ``x0`` or ``x_exact`` raises ValueError
    before set-up.
    """
    b = _finite_vector("b", b, A.n)
    x = np.zeros(A.n) if config.x0 is None else _finite_vector("x0", config.x0, A.n)
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

#: Up to this order the operator radius comes from dense eigenvalues of the
#: explicit H: ARPACK needs order >= 3, and up to here its default Krylov
#: space of 20 vectors spans the whole space anyway.
SMALL_ORDER = 20


@dataclass(frozen=True)
class PowerEstimate:
    """Operator spectral radius of H = M^{-1} N with its evidence.

    ``value`` is |lambda| of the dominant eigenpair (lambda, v), ||v|| = 1,
    and ``error_bound`` is its residual ||H v - lambda v||, computed with H
    on either route of :func:`spectral_radius`.  When ARPACK does not
    converge, ``reliable`` is False, ``value`` is NaN and ``error_bound`` is
    infinite.  ``steps`` counts applications of the operator the eigen-solve
    iterated (A^{-1} N on a certified regular splitting, H otherwise) plus
    the 2 applications of H in the residual.
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
    if np.any(op.n_part.data < 0.0) or not is_z_matrix(SquareMatrix.from_csr(op.m_part)):
        return None
    return certify_m(SquareMatrix.from_csr(op.m_part - op.n_part))[0]


def _operator_radius(apply_h, n: int, seed: int, apply_regular=None) -> PowerEstimate:
    """Dominant eigenpair of H by ARPACK (dense below ``SMALL_ORDER``).

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
    if n <= SMALL_ORDER:
        T = np.column_stack([iterated(e) for e in np.eye(n)])
        lams = np.linalg.eigvals(T)
        lam = lams[int(np.argmax(np.abs(lams)))]
        # LAPACK geev balances T, and where a column of T is near zero (SOR
        # at omega = 1 - eps puts 1e-16 on N's diagonal) its eigenvectors
        # come back with residuals near 1e-10.  The right singular vector of
        # T - lam I for its least singular value has the least residual.
        v = np.linalg.svd(T - lam * np.eye(n))[2][-1].conj()
    else:
        op = LinearOperator((n, n), matvec=iterated, dtype=np.float64)
        v0 = np.random.default_rng(seed).standard_normal(n)
        try:
            lams, vecs = eigs(op, k=1, which="LM", v0=v0)
        except ArpackNoConvergence:
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

    ``mode="dense"``: ``target`` is an explicit matrix (:class:`SquareMatrix`
    or ndarray); returns a float from a dense eigenvalue computation.

    ``mode="power"``: ``target`` is a :class:`StepOperator` (the operator
    x -> M^{-1} N x); returns a :class:`PowerEstimate`.  ARPACK finds the
    dominant eigenpair from the start vector drawn with ``seed``, 0 unless
    given, so every call is deterministic.  Orders up to ``SMALL_ORDER`` use
    dense eigenvalues of the operator applied to the identity, and an
    operator with an empty N part has radius 0.

    A step operator whose splitting A = M - N is certified regular (N >= 0,
    M a Z-matrix, and A = M - N certified by :func:`certify_m`, whose sparse
    LU of A is reused) is handled through A^{-1} N >= 0 instead: its Perron
    root tau is its largest-modulus eigenvalue, and rho(H) = tau / (1 + tau)
    (Varga, Thm 3.13).  That covers GJ and GGS at every m and SOR (GSOR at
    m = 0) at omega <= 1 on nonsingular M-matrices.  The residual is
    still taken with H.  Every other operator is iterated as H.
    """
    if mode == "dense":
        if isinstance(target, SquareMatrix):
            dense = target.to_dense()
        else:
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

    ``guaranteed`` means at least one convergence theorem applies.
    ``rho_estimate`` is the operator spectral radius of the iteration
    matrix (see :class:`PowerEstimate`), at any order, and ``None`` when
    ARPACK did not converge.  ``predicted_converges`` is ``rho < 1`` when
    the radius is known, the theorem verdict otherwise, and ``None`` when
    neither is available.
    """

    rho_estimate: float | None
    guaranteed: bool
    guarantee_source: tuple[str, ...] = field(default_factory=tuple)
    predicted_converges: bool | None = None


def predict(
    A: SquareMatrix,
    config: IterationConfig,
    report: ClassificationReport | None = None,
) -> ConvergenceVerdict:
    """Look up the convergence guarantees that A's classes give the method.

    Guarantees: SDD, M, and H matrices converge under GJ and GGS for any
    bandwidth; the same classes converge under GSOR for omega in (0, 1];
    an M-matrix also converges under overrelaxed GSOR whenever
    omega < 2 / (1 + rho(H_GJ)) and rho(band^{-1} lower) < 1 / omega.
    Only here is it decided which omega a theorem covers; :func:`build_step`
    accepts any finite nonzero omega.  ``report`` is A's :func:`classify`
    report when the caller already has it; without one, A is classified
    here.  The SPD verdict plays no part.
    The radius comes from :func:`spectral_radius` in power mode, so on a
    nonsingular M-matrix, GJ and GGS at every m and SOR at omega <= 1 take
    its regular-splitting route: ARPACK on A^{-1} N, whose Perron root tau
    gives rho = tau / (1 + tau) (Varga, Thm 3.13).
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
    elif omega is not None and 0.0 < omega <= 1.0:
        tags.extend(f"{cls}+GSOR(0<omega<=1)" for cls, ok in memberships if ok)
    # Overrelaxed GSOR on an M-matrix A: band is then one too, and lower,
    # upper >= 0.  By the regular-splitting theorem (Varga, Thm 3.13),
    # c*band - N with c > 0 and N >= 0 is a nonsingular M-matrix iff
    # rho(band^{-1} N) < c:
    #   N = lower + upper, c = 2/omega - 1:  omega < 2 / (1 + rho(H_GJ));
    #   N = omega*lower,   c = 1:            rho(band^{-1} lower) < 1/omega.
    # For omega >= 2 (c <= 0) no positive witness exists, as required.  The
    # second matrix is GSOR's M part, a Z-matrix here, certified through the
    # step operator's own factor; the margin is certified first, so its LU is
    # freed before the operator's is made.
    overrelaxed = (
        method is Method.GSOR and omega > 1.0 and report.is_m
        and is_m_matrix(SquareMatrix.from_csr(
            (2.0 / omega - 1.0) * splitting.band.csr - splitting.lower.csr
            - splitting.upper.csr))[0]
    )
    op = build_step(splitting, method, omega)
    if overrelaxed and positive_witness(SquareMatrix.from_csr(op.m_part),
                                        op.solve_m(np.ones(op.n)))[0] is not None:
        tags.append(TAG_OVERRELAXED_M)

    guaranteed = bool(tags)
    estimate = spectral_radius(op, mode="power")
    if estimate.reliable:
        rho, predicted = estimate.value, bool(estimate.value < 1.0)
    else:
        rho, predicted = None, (True if guaranteed else None)

    return ConvergenceVerdict(
        rho_estimate=rho,
        guaranteed=guaranteed,
        guarantee_source=tuple(tags),
        predicted_converges=predicted,
    )
