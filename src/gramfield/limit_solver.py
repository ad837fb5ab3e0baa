"""Fixed-point solvers for limiting Stieltjes transforms of Gram spectra.

Two characterizations are solved, each as a fixed point of an update
of a discretized complex measure ("Stieltjes kernel") evaluated at a
point z of the upper half-plane.

Centered case (noise only), with profile P(u, t) = |Phi(u, t)|^2 and
aspect ratio c:

    pi_z(du) = du / ( -z + int_0^1 P(u, t) / (1 + c int P(x, t) pi_z(dx)) dt )

Non-centered case (noise plus pseudo-diagonal deterministic part whose
diagonal measure is H(du, dlambda)): the coupled pair

    pi_z(du,dl)  over H:  1 / ( -z (1 + int P(u,t) pit(dt,dz))
                               + lambda / (1 + c int P(t, c u) pi(dt,dz)) )
    pit_z = c * (same with the two denominator groups swapped, atoms
            mapped (u, l) -> (c u, l))
            + (1 - c) int_c^1 du / ( -z (1 + c int P(t, u) pi(dt,dz)) )

A square-Toeplitz deterministic part with symbol psi is, after the
Fourier congruence and up to a low-rank corner, the pseudo-diagonal case
at c = 1 with H = measure_from_profile(|psi|^2, grid_size).

Integrals over [0, 1] use a midpoint rule whose nodes carry the kernel
weights themselves, so each discrete system is exactly self-consistent.
f(z) is the total kernel mass.

Every integral against the kernel is a product w @ P of the (B, M)
weights with a profile matrix P (M x K) on the grid.  For a filter with
finite support, |Phi|^2 is a trigonometric polynomial, a sum over tap
pairs (k, l) of terms in exp(2 pi i ((k1 - l1) u + (k2 - l2) t)), so

    rank P <= min(|{k1 - l1}|, |{k2 - l2}|)

over all pairs of taps: 3 for the README filter at every grid size.
Each solve factors P = A @ B (rank r) with one SVD and applies
(w @ A) @ B: (M + K) r multiply-adds per z instead of M K.  P has full
rank only for a filter about K/2 taps wide in both directions
(2 w - 1 >= K differences for w taps); there the two factors cost about
twice the dense product.

The update g therefore reads the weights only through r numbers per z,
y = w @ A (coupled: y = (w @ A, w~ @ B.T), 2 r numbers), and the fixed
point is the root of F(y) = proj(g(y)) - y with proj(w) = w @ A.  Each
iteration takes the Newton step, solving (I - J) step = F with the
analytic r x r (coupled: 2r x 2r) Jacobian J of y -> proj(g(y)), built
from weighted Gram products of the factors.  Safeguard: a z keeps its
Newton step only if sup|F| falls and the new weights are still a
Stieltjes kernel (Im w >= 0 and Im(z w) >= 0 at every node, and
Im(1 + int P dpi) >= 0 for every denominator); otherwise it takes the
damped step y + d F, which is the classical damped iteration
next = (1 - d) current + d update seen through proj.  The iteration
starts from the zero-coupling value -1/z per unit weight.

Stop rule: a z stops once its weights g(y) moved by at most the
tolerance (or by a non-finite amount) between successive iterates.  The
residual is the sup-norm of g(w) - w, re-evaluated once at the returned
weights w, and a z has converged when it is at most the tolerance.
Near the root the steps converge quadratically, so the returned f is
usually far closer to the fixed point than the tolerance.

Cost per iteration and z: (M + K) r for the update, (M + K) r^2 for the
Jacobian, and O(r^3) for the solve, which is negligible at r = 3 but
M^3 when P has full rank (r = M).  The z points run in blocks of at
most ``_BLOCK`` weights, which bounds the working set of a long sweep.

Every solve takes a batch of z points and runs them as one vectorized
iteration; the points are independent, so a batch of one is the single-z
solve.  A point that stops without converging is returned with
``converged=False`` and its final iterate, and the caller decides how to
treat it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .symbols import _integer, _number, _positive

__all__ = [
    "SolverConfig",
    "StieltjesKernel",
    "AtomicMeasureH",
    "solve_centered_many",
    "solve_noncentered_many",
    "measure_from_lambda",
    "measure_from_profile",
    "verify_kernel_axioms",
    "KernelAxiomReport",
    "write_solver_csv",
]

_AXIOM_SLACK = 1e-10  # verify_kernel_axioms' tolerance, relative to 1/Im z
_BLOCK = 1 << 15  # weights (z points x nodes) iterated together


def _midpoints(m):
    """Nodes (k + 1/2)/m of the m-point midpoint rule on [0, 1]; every
    node carries weight 1/m."""
    return (np.arange(m) + 0.5) / m


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point iteration controls.

    ``grid_size`` is the midpoint resolution of every solver: the [0, 1]
    grid of the centered kernel and the (1 - c) tail grid of the
    non-centered pi_tilde.

    ``tolerance`` bounds how far the weights may move in the last
    iteration, and the residual of a converged kernel.  ``damping`` is
    the fallback step d in (0, 1], taken by a z whose Newton step the
    safeguard rejects.
    """

    grid_size: int = 64
    tolerance: float = 1e-10
    max_iterations: int = 10000
    damping: float = 0.5

    def __post_init__(self):
        for name, cast, *floor in (("grid_size", _integer, 8),
                                   ("max_iterations", _integer, 1),
                                   ("tolerance", _positive),
                                   ("damping", _number)):
            object.__setattr__(self, name,
                               cast(getattr(self, name), name, *floor))
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")


@dataclass(frozen=True)
class StieltjesKernel:
    """Discretized complex measure pi_z: weights on support points.

    ``nodes`` holds the primary coordinate of each support point (a
    quadrature node in [0, 1] or an atom's u-coordinate).  ``weights[k]``
    is the complex measure of point k, so integration of g is
    sum g(node_k) * weights[k] and the transform value f(z) is the plain
    weight sum.
    """

    z: complex
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    residual: float = 0.0
    iterations: int = 0
    converged: bool = True

    @property
    def value(self):
        """f(z) = integral of the constant function 1 against the kernel."""
        return complex(self.weights.sum())


@dataclass(frozen=True)
class AtomicMeasureH:
    """Atomic probability measure on [0,1] x R+: atoms (u_i, lambda_i),
    each of mass 1/len(u).

    This is the diagonal-limit measure of a pseudo-diagonal matrix, with
    atoms (i/N, |diag_i|^2), or the midpoint approximation of a
    continuous limit.
    """

    u: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        lam = np.asarray(self.lam, dtype=np.float64)
        if not u.shape == lam.shape or u.ndim != 1 or len(u) == 0:
            raise ValueError("atoms require matching nonempty u/lam arrays")
        for name, arr in (("u", u), ("lam", lam)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"atom {name} values must be finite")
        if np.any(u < 0) or np.any(u > 1):
            raise ValueError("atom u-coordinates must lie in [0, 1]")
        if np.any(lam < 0):
            raise ValueError("atom lambda-coordinates must be nonnegative")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "lam", lam)


def measure_from_lambda(diag):
    """Diagonal measure (1/N) sum_i delta_{(i/N, |diag_i|^2)}, N = len(diag),
    of an N x n pseudo-diagonal matrix (N <= n) with diagonal ``diag``.

    The 0-based entry ``diag[k]`` sits at u = (k+1)/N, while
    ``transforms.fourier_matrix`` numbers its frequencies from 0.  Moving
    u alone to k/N is worse: for the README filter at c = 0.5 and z = i,
    f is 7.4 standard errors from Monte Carlo at N = 32, against 2.1."""
    N = len(diag)
    if N == 0:
        raise ValueError("diag must be nonempty")
    i = np.arange(1, N + 1)
    return AtomicMeasureH(u=i / N, lam=np.abs(diag) ** 2)


def measure_from_profile(fn, m):
    """Atomic approximation of the image of Lebesgue measure under
    u -> (u, fn(u)), on the m-point midpoint grid; ``fn`` is called once,
    on the array of nodes, and must return nonnegative values."""
    m = _integer(m, "m", 1)
    nodes = _midpoints(m)
    lam = _evaluate("measure_from_profile fn", fn, nodes)
    return AtomicMeasureH(u=nodes, lam=lam)


def _evaluate(name, fn, *args):
    """``fn(*args)``, called vectorized, as a float array of the arguments'
    broadcast shape; raises unless every value is real, finite and
    nonnegative (``fn`` is a squared modulus such as |Phi|^2, not Phi)."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    out = np.asarray(fn(*args))
    if out.shape != shape:
        raise ValueError(f"{name} must return an array of shape {shape} "
                         f"when called on arrays, got shape {out.shape}")
    if np.iscomplexobj(out):
        if np.abs(out.imag).max(initial=0.0) > 0:
            raise ValueError(
                f"{name} must be real-valued (pass |Phi|^2, not Phi)")
        out = out.real
    out = out.astype(np.float64, copy=False)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite everywhere on the grid")
    if out.min(initial=0.0) < 0:
        raise ValueError(f"{name} must be nonnegative (pass |Phi|^2)")
    return out


def _low_rank(P):
    """Factors (A, B) of the real matrix P, P = A @ B, from one SVD.

    A has the rank r as its column count: singular values at or below
    numpy's ``matrix_rank`` threshold s[0] * max(P.shape) * eps are
    dropped, so the dropped part of P has 2-norm at most
    max(P.shape) * eps * ||P||_2.
    """
    U, s, Vt = np.linalg.svd(P, full_matrices=False)
    r = np.count_nonzero(s > s[0] * max(P.shape) * np.finfo(P.dtype).eps)
    return U[:, :r] * s[:r], Vt[:r]


def _real(F):
    """kron(F, I2), the operand of ``_times_real`` for the real matrix F."""
    return np.kron(F, np.eye(2))


def _times_real(w, F2):
    """w @ F for complex w and real F, given F2 = kron(F, I2).

    The interleaved (re, im) float view of w times kron(F, I2) is the
    interleaved view of w @ F, so the product runs on the real BLAS
    kernels: F is never cast to complex, and single-z solves stay off the
    complex kernels, which OpenBLAS hands to a second thread from a
    1 x 64 by 64 x 64 product on.
    """
    w = np.ascontiguousarray(w).view(np.float64)
    return (w @ F2).view(np.complex128)


def _check_z(z_values):
    z = np.asarray(z_values, dtype=np.complex128).ravel()
    if not np.all(np.isfinite(z)):
        raise ValueError("solver requires a finite z at every point")
    if np.any(z.imag <= 0):
        raise ValueError("solver requires Im z > 0 for every point")
    return z


def _residual(old, new):
    """Per-z sup-norm of (new - old) over every block of the state."""
    return np.max([np.abs(b - a).max(axis=1, initial=0.0)
                   for a, b in zip(old, new)], axis=0)


def _gram(F, G):
    """kron(Q, I2) for the (n, r * r) matrix Q[i, k r + l] = F[i, k] G[i, l]:
    row v of ``_times_real(v, _gram(F, G))``, reshaped to (r, r), is
    F.T @ diag(v) @ G."""
    n, r = F.shape
    return _real((F[:, :, None] * G[:, None, :]).reshape(n, r * r))


def _weighted_gram(v, FG2, r):
    """F.T @ diag(v_b) @ G for every row v_b of v, as a (B, r, r) array,
    given FG2 = _gram(F, G) for factors of r columns."""
    return _times_real(v, FG2).reshape(len(v), r, r)


class _FixedPointMap(NamedTuple):
    """A solver's update g in the coordinates y it reads, y = proj(w).

    ``evaluate(y, z)`` returns (weights, invs): g(y) as a tuple of
    (B, K_i) weight arrays, one per kernel, and the (B, K_j) reciprocals
    1 / (1 + int P dpi) of the denominators it divides by.
    ``project(weights)`` returns the (B, n) coordinates, and
    ``jacobian(z, weights, invs)`` the (B, n, n) derivative of
    y -> proj(g(y)) at the point that ``evaluate`` returned them for.
    """

    evaluate: Callable
    project: Callable
    jacobian: Callable


class _Point(NamedTuple):
    """The iterate: coordinates y, the reduced step F = proj(g(y)) - y and
    ``evaluate``'s weights and reciprocal denominators at y."""

    y: np.ndarray
    F: np.ndarray
    weights: tuple
    invs: tuple

    def arrays(self):
        return (self.y, self.F, *self.weights, *self.invs)

    def take(self, sel):
        return _Point(self.y[sel], self.F[sel],
                      tuple(a[sel] for a in self.weights),
                      tuple(a[sel] for a in self.invs))


def _point(fmap, y, z):
    weights, invs = fmap.evaluate(y, z)
    return _Point(y, fmap.project(weights) - y, weights, invs)


def _sup(F):
    return np.abs(F).max(axis=1, initial=0.0)


def _is_kernel(z, weights, invs):
    """Per z: Im w >= 0 and Im(z w) >= 0 at every node of every kernel,
    and Im d >= 0 for every denominator d = 1 + int P dpi, tested as
    Im(1 / d) <= 0."""
    zc = z[:, None]
    ok = np.ones(len(z), dtype=bool)
    for w in weights:
        ok &= ((w.imag >= 0) & ((zc * w).imag >= 0)).all(axis=1)
    for inv in invs:
        ok &= (inv.imag <= 0).all(axis=1)
    return ok


def _iterate(z, cfg, state, fmap):
    """Safeguarded Newton iteration of every z on the coordinates of
    ``fmap``, from the weights ``state`` (a tuple of (B, K_i) arrays),
    which receive the final weights in place.  The z points run in
    blocks of at most ``_BLOCK`` weights (or one z).

    Returns (residual, iterations, converged) per z: the residual is the
    sup-norm of g(w) - w re-evaluated once at the returned weights w.
    """
    resid = np.empty(len(z))
    iterations = np.empty(len(z), dtype=np.int64)
    rows = max(1, _BLOCK // sum(s.shape[1] for s in state))
    for lo in range(0, len(z), rows):
        blk = slice(lo, lo + rows)
        sub = tuple(s[blk] for s in state)      # views: written in place
        iterations[blk] = _newton(z[blk], cfg, sub, fmap)
        resid[blk] = _residual(sub, fmap.evaluate(fmap.project(sub),
                                                  z[blk])[0])
    return resid, iterations, resid <= cfg.tolerance


def _newton(z, cfg, state, fmap):
    """Iterate the rows of one block; returns the iteration count per z.

    Each iteration solves (I - J) step = F for the Newton step.  A row
    keeps it only if the reduced residual sup|F| falls and the weights
    there pass ``_is_kernel``; every other row takes the damped step
    y + d F instead.  A z stops once its weights moved by at most
    ``cfg.tolerance``, or by a non-finite amount, in one iteration.
    Stopped rows are written back to ``state`` and dropped.
    """
    rows = np.arange(len(z))        # row of ``state`` of each active row
    iterations = np.full(len(z), cfg.max_iterations, dtype=np.int64)
    cur = _point(fmap, fmap.project(state), z)
    eye = np.eye(cur.y.shape[1])
    for it in range(1, cfg.max_iterations + 1):
        if len(rows) == 0:
            break
        step = np.linalg.solve(eye - fmap.jacobian(z, cur.weights, cur.invs),
                               cur.F[..., None])[..., 0]
        new = _point(fmap, cur.y + step, z)
        bad = ~((_sup(new.F) < _sup(cur.F))
                & _is_kernel(z, new.weights, new.invs))
        if bad.any():
            damped = _point(fmap, cur.y[bad] + cfg.damping * cur.F[bad], z[bad])
            for a, b in zip(new.arrays(), damped.arrays()):
                a[bad] = b
        moved = _residual(cur.weights, new.weights)
        cur = new
        stop = ~np.isfinite(moved) | (moved <= cfg.tolerance)
        if stop.any():
            iterations[rows[stop]] = it
            for s, w in zip(state, cur.weights):
                s[rows[stop]] = w[stop]
            keep = ~stop
            rows, z = rows[keep], z[keep]
            cur = cur.take(keep)
    for s, w in zip(state, cur.weights):
        s[rows] = w
    return iterations


def _kernels(z, stats, nodes, weights):
    """One StieltjesKernel per z: row i of ``weights`` with the
    (residual, iterations, converged) of ``_iterate`` at z[i]."""
    resid, iters, conv = stats
    return [StieltjesKernel(z=complex(z[i]), nodes=nodes, weights=weights[i],
                            residual=float(resid[i]), iterations=int(iters[i]),
                            converged=bool(conv[i]))
            for i in range(len(z))]


def _centered_map(P, c):
    """The centered update on the m-point grid with profile matrix P, in
    the coordinates y = w @ A of P = A @ B:

        s = 1 + c y @ B,   g = (1/m) / (-z + (1/s) @ P.T / m),

    with Jacobian c (A.T diag(g^2) A) (B diag(1/s^2) B.T)."""
    m = P.shape[0]
    A, B = _low_rank(P)
    r = A.shape[1]
    A2, B2, At2, Bt2 = _real(A), _real(B), _real(A.T), _real(B.T)
    AA, BB = _gram(A, A), _gram(B.T, B.T)

    def evaluate(y, z):
        inv = 1.0 / (1.0 + c * _times_real(y, B2))         # (B, M) over t
        # int P(u, t) / s dt, as (inv @ B.T) @ A.T
        inner = _times_real(_times_real(inv, Bt2), At2) * (1.0 / m)
        return ((1.0 / m) / (-z[:, None] + inner),), (inv,)

    def project(weights):
        return _times_real(weights[0], A2)

    def jacobian(z, weights, invs):
        (g,), (inv,) = weights, invs
        return c * (_weighted_gram(g * g, AA, r)
                    @ _weighted_gram(inv * inv, BB, r))

    return _FixedPointMap(evaluate, project, jacobian)


def solve_centered_many(profile, c, z_values, cfg=SolverConfig()):
    """Centered-case kernels, one per point of ``z_values``; a point
    that did not converge has ``converged=False``."""
    c = _number(c, "c")
    if not 0 < c <= 1:
        raise ValueError("aspect ratio c must lie in (0, 1]")
    z = _check_z(z_values)
    x = _midpoints(cfg.grid_size)
    P = _evaluate("profile", profile, x[:, None], x[None, :])  # P[x or u, t]
    w = np.tile((-1.0 / z)[:, None] / cfg.grid_size, (1, cfg.grid_size))
    stats = _iterate(z, cfg, (w,), _centered_map(P, c))
    return _kernels(z, stats, x, w)


def _noncentered_map(P, c, hw, hl, tilde_w):
    """The coupled update with P[i, j] = P(u_i, v_j) between the atoms u
    (masses hw, lambdas hl) and pi_tilde's nodes v (masses tilde_w), in
    the coordinates (y, yt) = (w @ A, wt @ B.T) of P = A @ B:

        a = 1 + yt @ A.T                      (atoms)
        b = 1 + c y @ B                       (pi_tilde nodes)
        w  = hw / (-z a + hl / b[:atoms])
        wt = tilde_w / (-z b + [hl / a, 0 on the tail])

    The Jacobian blocks follow from dw/da = z w^2 / hw,
    dw/db = hl w^2 / (hw b^2), dwt/db = z wt^2 / tilde_w and
    dwt/da = hl wt^2 / (tilde_w a^2).
    """
    atoms = len(hw)
    A, B = _low_rank(P)
    r = A.shape[1]
    A2, B2, At2, Bt2 = _real(A), _real(B), _real(A.T), _real(B.T)
    AA, BB, AB = _gram(A, A), _gram(B.T, B.T), _gram(A, B[:, :atoms].T)
    inv_hw, inv_tilde_w = 1.0 / hw, 1.0 / tilde_w

    def evaluate(y, z):
        zc = z[:, None]
        a = 1.0 + _times_real(y[:, r:], At2)          # (B, atoms)
        b = 1.0 + c * _times_real(y[:, :r], B2)       # (B, atoms + R)
        inv_a, inv_b = 1.0 / a, 1.0 / b
        new_w = hw / (-zc * a + hl * inv_b[:, :atoms])
        den_t = -zc * b
        den_t[:, :atoms] += hl * inv_a                # the tail has lambda = 0
        return (new_w, tilde_w / den_t), (inv_a, inv_b)

    def project(weights):
        w, wt = weights
        return np.concatenate([_times_real(w, A2),
                               _times_real(wt, Bt2)], axis=1)

    def jacobian(z, weights, invs):
        (w, wt), (inv_a, inv_b) = weights, invs
        zc = z[:, None, None]
        J = np.empty((len(z), 2 * r, 2 * r), dtype=np.complex128)
        # w^2 / hw and wt^2 / tilde_w, by multiplication: a complex
        # division costs several times as much
        q, qt = w * w * inv_hw, wt * wt * inv_tilde_w
        J[:, :r, :r] = c * _weighted_gram(
            hl * q * inv_b[:, :atoms] * inv_b[:, :atoms], AB, r)
        J[:, :r, r:] = zc * _weighted_gram(q, AA, r)
        J[:, r:, :r] = (c * zc) * _weighted_gram(qt, BB, r)
        # B[:, :atoms] diag(.) A, the transpose of A.T diag(.) B[:, :atoms].T
        J[:, r:, r:] = _weighted_gram(
            hl * qt[:, :atoms] * inv_a * inv_a, AB, r).transpose(0, 2, 1)
        return J

    return _FixedPointMap(evaluate, project, jacobian)


def solve_noncentered_many(profile, c, H: AtomicMeasureH, z_values,
                           cfg=SolverConfig()):
    """Non-centered kernels (pi, pi_tilde) at a batch of z points.

    pi lives on the atoms of H; pi_tilde on the atoms mapped through
    (u, l) -> (c u, l) plus a ``cfg.grid_size``-node midpoint grid on
    [c, 1] x {0} carrying the (1 - c) term, empty when c == 1.
    """
    c = _number(c, "c")
    if not 0 < c <= 1:
        raise ValueError("aspect ratio c must lie in (0, 1]")
    z = _check_z(z_values)
    hu, hl = H.u, H.lam
    hw = np.full(len(hu), 1.0 / len(hu))
    R = cfg.grid_size if c < 1 else 0
    # pi_tilde's nodes and masses: the atoms at c u, then the (1 - c) tail
    tail_u = c + (1.0 - c) * (np.arange(R) + 0.5) / R
    tilde_u = np.concatenate([c * hu, tail_u])
    tilde_w = np.concatenate([c * hw, np.full(R, 1.0 - c) / R])

    # P[i, j] = P(u_i, v_j) at the pi_tilde nodes v: w @ P gives
    # int P(t, v_j) dpi, and pit @ P.T gives int P(u_i, t) dpit.
    P = _evaluate("profile", profile, hu[:, None], tilde_u[None, :])
    minus_inv_z = (-1.0 / z)[:, None]
    w = minus_inv_z * hw
    wt = minus_inv_z * tilde_w
    stats = _iterate(z, cfg, (w, wt), _noncentered_map(P, c, hw, hl, tilde_w))
    return list(zip(
        _kernels(z, stats, hu, w), _kernels(z, stats, tilde_u, wt)))


def write_solver_csv(kernels, path):
    """Solver results as CSV rows re_z,im_z,re_f,im_f,residual,iterations."""
    table = np.reshape([(k.z.real, k.z.imag, k.value.real, k.value.imag,
                         k.residual, k.iterations) for k in kernels], (-1, 6))
    np.savetxt(path, table, fmt=["%.17g"] * 5 + ["%d"], delimiter=",",
               header="re_z,im_z,re_f,im_f,residual,iterations", comments="")


@dataclass(frozen=True)
class KernelAxiomReport:
    """Exact verdict on the testable kernel properties.

    Each field is the extreme over every test function g on the support
    points, a closed form in the weights w_k.  Property 1, |int g dpi|
    <= sup|g| / Im z: ``max_bound_excess`` = sum |w_k| - 1/Im z, the
    total variation attained at g_k = conj(w_k)/|w_k|.  Property 3,
    Im int g dpi >= 0 for g >= 0: ``min_imag`` = sum min(Im w_k, 0), the
    infimum over 0 <= g <= 1.  Property 4, Im (z int g dpi) >= 0 for
    g >= 0: ``min_imag_z`` = sum min(Im(z w_k), 0), likewise.  Property
    2 (analyticity in z) admits no finite test and is not tested.
    """

    bound_ok: bool
    positive_imag_ok: bool
    positive_imag_z_ok: bool
    max_bound_excess: float
    min_imag: float
    min_imag_z: float

    @property
    def passed(self):
        return self.bound_ok and self.positive_imag_ok and self.positive_imag_z_ok


def verify_kernel_axioms(kernel: StieltjesKernel):
    """Check the testable Stieltjes-kernel properties on one kernel."""
    z = complex(kernel.z)
    w = kernel.weights
    scale = 1.0 / z.imag
    excess = float(np.abs(w).sum()) - scale
    min_im = float(np.minimum(w.imag, 0.0).sum())
    min_im_z = float(np.minimum((z * w).imag, 0.0).sum())
    return KernelAxiomReport(
        bound_ok=excess <= _AXIOM_SLACK * scale,
        positive_imag_ok=min_im >= -_AXIOM_SLACK * scale,
        positive_imag_z_ok=(
            min_im_z >= -_AXIOM_SLACK * (1.0 + abs(z)) * scale),
        max_bound_excess=excess,
        min_imag=min_im,
        min_imag_z=min_im_z)
