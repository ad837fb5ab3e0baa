"""Fixed-point solvers for limiting Stieltjes transforms of Gram spectra.

Two characterizations are solved, each as a damped fixed-point
iteration on a discretized complex measure ("Stieltjes kernel")
evaluated at a point z of the upper half-plane.

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
Iterations start from the zero-coupling value -1/z per unit weight and
apply damping: next = (1 - d) * current + d * update.  The residual is
the sup-norm of (update - current) and is re-evaluated once after the
loop; f(z) is the total kernel mass.

All solves at distinct z are independent; the *_many variants run them
as one vectorized batch, equivalent to one-at-a-time solving up to
floating-point summation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SolverConfig",
    "StieltjesKernel",
    "AtomicMeasureH",
    "SolverConvergenceError",
    "solve_centered",
    "solve_centered_many",
    "solve_noncentered",
    "solve_noncentered_many",
    "measure_from_lambda",
    "measure_from_profile",
    "verify_kernel_axioms",
    "KernelAxiomReport",
    "write_solver_csv",
]

_HAT_COUNT = 8  # hat test functions used by verify_kernel_axioms
_AXIOM_SLACK = 1e-10  # its tolerance, relative to 1/Im z


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

    ``damping=None`` resolves per z to 1.0 when Im z >= 1 and 0.5
    otherwise; near-axis evaluations (eta ~ 1e-3) usually need damping
    and a generous iteration budget.
    """

    grid_size: int = 64
    tolerance: float = 1e-10
    max_iterations: int = 10000
    damping: float | None = None

    def __post_init__(self):
        if self.grid_size < 8:
            raise ValueError("grid_size must be at least 8")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(
                f"tolerance must be finite and positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.damping is not None and not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")

    def damping_for(self, z):
        if self.damping is not None:
            return self.damping
        return 1.0 if complex(z).imag >= 1.0 else 0.5


@dataclass(frozen=True)
class StieltjesKernel:
    """Discretized complex measure pi_z: weights on support points.

    ``nodes`` holds the primary coordinate of each support point (a
    quadrature node in [0, 1] or an atom's u-coordinate); ``lambdas``
    holds the second coordinate where the measure lives on
    [0, 1] x R+.  ``weights[k]`` is the complex measure of point k, so
    integration of g is sum g(node_k) * weights[k] and the transform
    value f(z) is the plain weight sum.
    """

    z: complex
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    lambdas: np.ndarray | None = field(default=None, repr=False)
    residual: float = 0.0
    iterations: int = 0
    converged: bool = True

    @property
    def value(self):
        """f(z) = integral of the constant function 1 against the kernel."""
        return complex(self.weights.sum())

    def integrate(self, g_values):
        g_values = np.asarray(g_values)
        if g_values.shape != self.nodes.shape:
            raise ValueError("g must be evaluated on the kernel support")
        return complex((g_values * self.weights).sum())


class SolverConvergenceError(RuntimeError):
    """Raised when the damped iteration fails to reach tolerance."""

    def __init__(self, message, kernel=None, kernel_tilde=None):
        super().__init__(message)
        self.kernel = kernel
        self.kernel_tilde = kernel_tilde


@dataclass(frozen=True)
class AtomicMeasureH:
    """Atomic probability measure on [0,1] x R+: atoms (u_i, lambda_i).

    This is the diagonal-limit measure of a pseudo-diagonal matrix: its
    atoms are (i/N, |diag_i|^2) with weight 1/N each, or any atomic
    approximation of a continuous limit.
    """

    u: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        lam = np.asarray(self.lam, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if not (u.shape == lam.shape == w.shape) or u.ndim != 1 or len(u) == 0:
            raise ValueError("atoms require matching nonempty u/lam/weight arrays")
        for name, arr in (("u", u), ("lam", lam), ("weights", w)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"atom {name} values must be finite")
        if np.any(u < 0) or np.any(u > 1):
            raise ValueError("atom u-coordinates must lie in [0, 1]")
        if np.any(lam < 0):
            raise ValueError("atom lambda-coordinates must be nonnegative")
        if np.any(w <= 0):
            raise ValueError("atom weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"atom weights sum to {w.sum()!r}, not 1")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "weights", w)


def measure_from_lambda(lam_matrix):
    """Diagonal measure (1/N) sum_i delta_{(i/N, |diag_i|^2)} of a
    pseudo-diagonal N x n array; raises on a nonzero off-diagonal entry."""
    lam = np.asarray(lam_matrix)
    N, n = lam.shape
    if np.any(lam[~np.eye(N, n, dtype=bool)]):
        raise ValueError("measure_from_lambda needs a pseudo-diagonal matrix, "
                         "but an off-diagonal entry is nonzero")
    d = np.zeros(N, dtype=np.complex128)
    d[:min(N, n)] = np.diagonal(lam)
    i = np.arange(1, N + 1)
    return AtomicMeasureH(u=i / N, lam=np.abs(d) ** 2, weights=np.full(N, 1.0 / N))


def measure_from_profile(fn, m):
    """Atomic approximation of the image of Lebesgue measure under
    u -> (u, fn(u)), on the m-point midpoint grid; ``fn`` is called once,
    on the array of nodes, and must return nonnegative values."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    nodes = _midpoints(m)
    lam = _evaluate("measure_from_profile fn", fn, nodes)
    return AtomicMeasureH(u=nodes, lam=lam, weights=np.full(m, 1.0 / m))


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


def _real_factors(P):
    """kron(P, I2) and kron(P.T, I2), both C-contiguous, for ``_times_real``."""
    eye = np.eye(2)
    return np.kron(P, eye), np.kron(P.T, eye)


def _times_real(w, P2):
    """w @ P for complex w and real P, given P2 = kron(P, I2).

    The interleaved (re, im) float view of w times kron(P, I2) is the
    interleaved view of w @ P, so the product runs as one real product:
    P is not cast to complex on every iteration, and single-z solves stay
    off the complex BLAS kernels, which OpenBLAS hands to a second thread
    from a 1 x 64 by 64 x 64 product on.
    """
    w = np.ascontiguousarray(w).view(np.float64)
    return (w @ P2).view(np.complex128)


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


def _iterate(z, cfg, state, update):
    """Damped iteration of ``state``, a tuple of (B, K_i) arrays updated
    in place, under ``update(state, z)``, freezing each z once its
    residual reaches the tolerance or is not finite.

    Returns (residual, iterations, converged) per z, with the residual
    re-evaluated once at the returned state.
    """
    damp = np.array([cfg.damping_for(zz) for zz in z])[:, None]
    active = np.ones(len(z), dtype=bool)
    iterations = np.zeros(len(z), dtype=np.int64)
    for it in range(1, cfg.max_iterations + 1):
        if not active.any():
            break
        sub = tuple(s[active] for s in state)
        new = update(sub, z[active])
        d = damp[active]
        for s, s_old, s_new in zip(state, sub, new):
            s[active] = (1.0 - d) * s_old + d * s_new
        iterations[active] = it
        res = _residual(sub, new)
        active[active] = np.isfinite(res) & ~(res <= cfg.tolerance)
    resid = _residual(state, update(state, z))
    return resid, iterations, resid <= cfg.tolerance


def _kernels(z, stats, nodes, weights, lambdas=None):
    """One StieltjesKernel per z: row i of ``weights`` with the
    (residual, iterations, converged) of ``_iterate`` at z[i]."""
    resid, iters, conv = stats
    return [StieltjesKernel(z=complex(z[i]), nodes=nodes, weights=weights[i],
                            lambdas=lambdas, residual=float(resid[i]),
                            iterations=int(iters[i]), converged=bool(conv[i]))
            for i in range(len(z))]


def solve_centered_many(profile, c, z_values, cfg=SolverConfig()):
    """Centered-case kernels at a batch of z points (no raising).

    Non-converged points are returned with ``converged=False`` and the
    final iterate; callers decide how to treat them.
    """
    if not 0 < c <= 1:
        raise ValueError("aspect ratio c must lie in (0, 1]")
    z = _check_z(z_values)
    x = _midpoints(cfg.grid_size)
    P = _evaluate("profile", profile, x[:, None], x[None, :])  # P[x or u, t]
    P2, P2T = _real_factors(P)
    m = cfg.grid_size

    def update(state, zb):
        (w,) = state
        denom_t = 1.0 + c * _times_real(w, P2)         # (B, M) over t
        inner = _times_real(1.0 / denom_t, P2T) / m    # int P(u,t)/denom dt
        return ((1.0 / m) / (-zb[:, None] + inner),)

    w = np.tile((-1.0 / z)[:, None] / m, (1, m))
    stats = _iterate(z, cfg, (w,), update)
    return _kernels(z, stats, x, w)


def _solve_one(label, solve_many, z, cfg, *args):
    """``solve_many`` at the single point z, raising if it did not converge.

    Returns the kernel, or the (pi, pi_tilde) pair for coupled solvers.
    """
    result = solve_many(*args, [z], cfg)[0]
    kernel, kernel_tilde = result if isinstance(result, tuple) else (result, None)
    if not kernel.converged:
        raise SolverConvergenceError(
            f"{label} solve at z={z} stopped at residual "
            f"{kernel.residual:.3e} after {kernel.iterations} iterations "
            f"(tolerance {cfg.tolerance:.1e}); consider lowering damping",
            kernel=kernel, kernel_tilde=kernel_tilde)
    return result


def solve_centered(profile, c, z, cfg=SolverConfig()):
    """Kernel of the centered fixed point at one z (raises if stuck)."""
    return _solve_one("centered", solve_centered_many, z, cfg, profile, c)


def solve_noncentered_many(profile, c, H: AtomicMeasureH, z_values,
                           cfg=SolverConfig()):
    """Non-centered kernels (pi, pi_tilde) at a batch of z points.

    pi lives on the atoms of H; pi_tilde on the atoms mapped through
    (u, l) -> (c u, l) plus a ``cfg.grid_size``-node midpoint grid on
    [c, 1] x {0} carrying the (1 - c) term, empty when c == 1.
    """
    if not 0 < c <= 1:
        raise ValueError("aspect ratio c must lie in (0, 1]")
    z = _check_z(z_values)
    hu, hl, hw = H.u, H.lam, H.weights
    R = cfg.grid_size if c < 1 else 0
    tail_nodes = c + (1.0 - c) * (np.arange(R) + 0.5) / R
    tail_w = np.full(R, 1.0 - c) / R

    # P_at[i, j] = P(u_i, c u_j): pit atom coordinates are c*u_j, and the
    # same matrix transposed gives int P(t, c u_i) dpi.
    P_at2, P_at2T = _real_factors(
        _evaluate("profile", profile, hu[:, None], c * hu[None, :]))
    P_tail2, P_tail2T = _real_factors(
        _evaluate("profile", profile, hu[:, None], tail_nodes[None, :]))

    def update(state, zb):
        w, wta, wtg = state
        zc = zb[:, None]
        # int P(u_i, t) dpit over the atoms plus the tail
        t_tilde = _times_real(wta, P_at2T) + _times_real(wtg, P_tail2T)
        s_plain = _times_real(w, P_at2)          # int P(t, c u_i) dpi
        new_w = hw / (-zc * (1.0 + t_tilde) + hl / (1.0 + c * s_plain))
        new_wta = c * hw / (-zc * (1.0 + c * s_plain) + hl / (1.0 + t_tilde))
        g_tail = _times_real(w, P_tail2)         # int P(t, v_r) dpi
        new_wtg = tail_w / (-zc * (1.0 + c * g_tail))
        return new_w, new_wta, new_wtg

    minus_inv_z = (-1.0 / z)[:, None]
    w = minus_inv_z * hw
    wta = c * minus_inv_z * hw
    wtg = tail_w * minus_inv_z
    stats = _iterate(z, cfg, (w, wta, wtg), update)

    tilde_nodes = np.concatenate([c * hu, tail_nodes])
    tilde_lam = np.concatenate([hl, np.zeros(R)])
    return list(zip(
        _kernels(z, stats, hu, w, hl),
        _kernels(z, stats, tilde_nodes, np.concatenate([wta, wtg], axis=1),
                 tilde_lam)))


def solve_noncentered(profile, c, H, z, cfg=SolverConfig()):
    """Non-centered pair (pi, pi_tilde) at one z (raises if stuck)."""
    return _solve_one("non-centered", solve_noncentered_many, z, cfg,
                      profile, c, H)


def write_solver_csv(kernels, path):
    """Solver results as CSV rows re_z,im_z,re_f,im_f,residual,iterations."""
    table = np.reshape([(k.z.real, k.z.imag, k.value.real, k.value.imag,
                         k.residual, k.iterations) for k in kernels], (-1, 6))
    np.savetxt(path, table, fmt=["%.17g"] * 5 + ["%d"], delimiter=",",
               header="re_z,im_z,re_f,im_f,residual,iterations", comments="")


@dataclass(frozen=True)
class KernelAxiomReport:
    """Numerical verdict on the testable kernel properties.

    Property 1: |int g dpi| <= sup|g| / Im z.  Property 3: Im int g dpi
    >= 0 for g >= 0.  Property 4: Im (z int g dpi) >= 0 for g >= 0.
    Each is evaluated for g == 1 and a family of nonnegative hat
    functions on [0, 1].  Property 2 (analyticity in z) admits no finite
    test and is not tested.
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


def _hat_functions(xs, count):
    """Nonnegative triangular bumps with sup value 1 covering [0, 1]."""
    centers = (np.arange(count) + 0.5) / count
    width = 1.0 / count
    return [np.maximum(0.0, 1.0 - np.abs(xs - c0) / width) for c0 in centers]


def verify_kernel_axioms(kernel: StieltjesKernel):
    """Check the testable Stieltjes-kernel properties on one kernel."""
    z = complex(kernel.z)
    im_z = z.imag
    gs = [np.ones(len(kernel.nodes))]
    gs += _hat_functions(kernel.nodes, _HAT_COUNT)
    excess = -np.inf
    min_im = np.inf
    min_im_z = np.inf
    for g in gs:
        val = kernel.integrate(g)
        sup_g = 1.0  # every test function has sup value 1 on [0, 1]
        excess = max(excess, abs(val) - sup_g / im_z)
        min_im = min(min_im, val.imag)
        min_im_z = min(min_im_z, (z * val).imag)
    scale = 1.0 / im_z
    return KernelAxiomReport(
        bound_ok=bool(excess <= _AXIOM_SLACK * scale),
        positive_imag_ok=bool(min_im >= -_AXIOM_SLACK * scale),
        positive_imag_z_ok=bool(
            min_im_z >= -_AXIOM_SLACK * (1.0 + abs(z)) * scale),
        max_bound_excess=float(excess),
        min_imag=float(min_im),
        min_imag_z=float(min_im_z))
