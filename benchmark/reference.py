"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports gp2d: the Townes profile, the spectral calculus, the
GPF1 reader and the eigenvalue solver are written independently, so a fault
in the program cannot hide behind a copy of itself.  Integrals over the
plane use the periodic trapezoid rule on the program's grid, which is
spectrally accurate for the smooth, localized fields involved.
"""

from __future__ import annotations

import struct

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.optimize import minimize_scalar
from scipy.sparse.linalg import LinearOperator, lobpcg
from scipy.special import mathieu_a

GN_CONSTANT = 1.86225  # a* / (2 pi), the Weinstein constant to 6 figures


# --- Townes profile ------------------------------------------------------


def _townes_rhs(r, y):
    q, p = y
    return (p, q - q**3 - p / r)


def _shoot(amp: float, dense: bool = False):
    """Integrate from the origin; stop at the first sign change or turn."""
    r0 = 1e-6
    c = (amp - amp**3) / 4.0

    def cross(r, y):
        return y[0]

    def turn(r, y):
        return y[1]

    cross.terminal = turn.terminal = True
    cross.direction, turn.direction = -1.0, 1.0
    return solve_ivp(
        _townes_rhs,
        (r0, 40.0),
        (amp + c * r0**2, 2.0 * c * r0),
        method="DOP853",
        rtol=1e-12,
        atol=1e-15,
        events=(cross, turn),
        dense_output=dense,
    )


class Townes:
    """Positive radial solution of -Q'' - Q'/r + Q - Q^3 = 0.

    Found by bisection on Q(0) with an eighth-order integrator; the stored
    shot is the one that turns up while still positive, cut at its lowest
    point (Q ~ 1e-7 near r = 16.7).  Moments beyond that radius are
    negligible; the mass agrees with the program's a* to 1e-11.
    """

    def __init__(self):
        lo, hi = 2.0, 2.4
        for _ in range(42):
            mid = 0.5 * (lo + hi)
            if _shoot(mid).t_events[0].size:
                hi = mid
            else:
                lo = mid
        sol = _shoot(lo, dense=True)
        self.r_end = float(sol.t[-1])
        self.amplitude = lo
        r = np.linspace(0.0, self.r_end, 20001)
        self.r = r
        self.q = sol.sol(np.maximum(r, 1e-6))[0]
        self.mass = self.moment(0.0)

    def moment(self, p: float) -> float:
        """2 pi int r^p Q^2 r dr."""
        return float(2.0 * np.pi * simpson(self.r ** (p + 1.0) * self.q**2, x=self.r))

    def sampled(self, rr: np.ndarray) -> np.ndarray:
        """Q(|x|)/||Q|| at the given radii (zero past the stored shot)."""
        vals = np.interp(rr, self.r, self.q, right=0.0)
        return vals / np.sqrt(self.mass)


# --- spectral calculus on [-L, L)^2 ---------------------------------------


class Grid:
    def __init__(self, L: float, n: int):
        self.L, self.n = float(L), int(n)
        self.dx = 2.0 * self.L / self.n
        self.w = self.dx * self.dx
        self.x = -self.L + self.dx * np.arange(self.n)
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        self.kx, self.ky = k[None, :], k[:, None]
        self.k2 = self.kx**2 + self.ky**2
        self.X, self.Y = np.meshgrid(self.x, self.x, indexing="xy")
        self.R = np.hypot(self.X, self.Y)

    def integral(self, f: np.ndarray) -> float:
        return float(np.sum(f) * self.w)

    def kinetic(self, u: np.ndarray) -> float:
        uh = np.fft.fft2(u)
        return float(np.sum(self.k2 * np.abs(uh) ** 2) * self.w / self.n**2)

    def laplacian(self, u: np.ndarray) -> np.ndarray:
        return np.fft.ifft2(-self.k2 * np.fft.fft2(u)).real

    def x_grad(self, u: np.ndarray) -> np.ndarray:
        """x . grad u."""
        uh = np.fft.fft2(u)
        ux = np.fft.ifft2(1j * self.kx * uh).real
        uy = np.fft.ifft2(1j * self.ky * uh).real
        return self.X * ux + self.Y * uy


def read_gpf(path) -> tuple[float, np.ndarray]:
    """(L, values) of a GPF1 file: magic, uint32 n, float64 L, n*n float64."""
    raw = open(path, "rb").read()
    if raw[:8] != b"GPF1\0\0\0\0":
        raise ValueError(f"{path}: not a GPF1 file")
    n = struct.unpack("<I", raw[8:12])[0]
    L = struct.unpack("<d", raw[12:20])[0]
    vals = np.frombuffer(raw[20:], dtype="<f8")
    if vals.size != n * n:
        raise ValueError(f"{path}: payload holds {vals.size} values, expected {n * n}")
    return L, vals.reshape(n, n).copy()


# --- the functional and its stationarity ---------------------------------


def functional(g: Grid, u: np.ndarray, V: np.ndarray, a: float) -> dict:
    kin = g.kinetic(u)
    quart = g.integral(u**4)
    return {"kinetic": kin, "quartic": quart, "E": kin + g.integral(V * u * u) - 0.5 * a * quart}


def el_residual(g: Grid, u: np.ndarray, V: np.ndarray, a: float) -> float:
    """||P_u(-Lap u + V u - a u^3)|| with P_u the projection off u."""
    grad = -g.laplacian(u) + V * u - a * u**3
    mu = g.integral(grad * u)
    return float(np.sqrt(g.integral((grad - mu * u) ** 2)))


def virial(g: Grid, u: np.ndarray, V: np.ndarray, xdV: np.ndarray, a: float):
    """(defect, allowance) of 2 int|grad u|^2 - a int u^4 = int (x.grad V) u^2.

    Pairing the Euler-Lagrange equation with x.grad u gives
    defect = 2 <r, x.grad u> for the projected residual r, so |defect| is at
    most 2 ||r|| ||x.grad u||.  The allowance is that bound plus 5 % and
    1e-9 for the quadrature of the pairing on the grid.
    """
    defect = 2.0 * g.kinetic(u) - a * g.integral(u**4) - g.integral(xdV * u * u)
    xg = np.sqrt(g.integral(g.x_grad(u) ** 2))
    return float(defect), float(2.1 * el_residual(g, u, V, a) * xg + 1e-9)


def sinc(r: np.ndarray) -> np.ndarray:
    safe = np.where(r > 0, r, 1.0)
    return np.where(r > 0, np.sin(safe) / safe, 1.0)


def sinc_min() -> float:
    """min sin(r)/r by bounded 1D minimization over its first trough."""
    f = lambda r: np.sin(r) / r  # noqa: E731
    out = minimize_scalar(f, bounds=(np.pi, 2.0 * np.pi), method="bounded",
                          options={"xatol": 1e-12})
    return float(out.fun)


def mathieu_lattice_lambda0(s: float, period: float) -> float:
    """Ground energy of -Lap + s(cos 2pi x/T + cos 2pi y/T) on the plane."""
    q = (period / np.pi) ** 2 * s / 2.0
    return float(2.0 * (np.pi / period) ** 2 * mathieu_a(0, q))


def ground_energy(g: Grid, V: np.ndarray) -> float:
    """Lowest eigenvalue of -Lap + V by preconditioned LOBPCG."""
    n = g.n
    shift = 1.0 + max(0.0, -float(V.min()))

    def apply(x):
        u = x.reshape(n, n, -1)
        out = np.empty_like(u)
        for j in range(u.shape[2]):
            out[..., j] = -g.laplacian(u[..., j]) + V * u[..., j]
        return out.reshape(n * n, -1)

    def precond(x):
        u = x.reshape(n, n, -1)
        out = np.empty_like(u)
        for j in range(u.shape[2]):
            out[..., j] = np.fft.ifft2(np.fft.fft2(u[..., j]) / (shift + g.k2)).real
        return out.reshape(n * n, -1)

    A = LinearOperator((n * n, n * n), matvec=apply, matmat=apply, dtype=float)
    M = LinearOperator((n * n, n * n), matvec=precond, matmat=precond, dtype=float)
    X = np.exp(-0.5 * g.R**2).reshape(-1, 1)
    vals = lobpcg(A, X, M=M, tol=1e-11, maxiter=2000, largest=False)[0]
    return float(vals[0])
