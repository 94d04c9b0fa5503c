"""Array kernels: the RK4 step loop and the 3D consistency residual with
its exact Jacobian."""
import numpy as np


def rk4_trajectory(gen, drift, z0, dt, steps):
    # classical RK4 on the affine system dz/dt = gen @ z + drift
    n = z0.shape[0]
    out = np.empty((steps + 1, n))
    out[0] = z0
    z = z0.copy()
    for i in range(steps):
        k1 = np.dot(gen, z) + drift
        k2 = np.dot(gen, z + 0.5 * dt * k1) + drift
        k3 = np.dot(gen, z + 0.5 * dt * k2) + drift
        k4 = np.dot(gen, z + dt * k3) + drift
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = z
    return out


def _block_map():
    # m[i] = (dF/dx_i, dG/dx_i) for F = f_theta - theta and
    # G = f_eta - eta over the packed 18-vector
    #   (f_tx, f_ty, f_tz, f_t1, f_t2, f_t3,
    #    f_ex, f_ey, f_ez, f_e1, f_e2, f_e3,
    #    t1, t2, t3, e1, e2, e3).
    # F and G are linear in x, so (F, G) = x @ m.
    m = np.zeros((18, 2, 3, 3))
    for s in (0, 1):
        sym, anti = 6 * s, 12 + 3 * s
        for k in range(3):
            m[sym + k, s, k, k] = 1.0
        for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
            m[sym + 3 + k, s, i, j] = m[sym + 3 + k, s, j, i] = 1.0
            m[anti + k, s, i, j] = -1.0
            m[anti + k, s, j, i] = 1.0
    return m


_BLOCKS = _block_map()
_BLOCKS_FLAT = _BLOCKS.reshape(18, 18)
_DF = _BLOCKS[:, 0]
_DG = _BLOCKS[:, 1]


def _blocks(x):
    x = np.asarray(x, dtype=float)
    b = (x @ _BLOCKS_FLAT).reshape(x.shape[:-1] + (2, 3, 3))
    return b[..., 0, :, :], b[..., 1, :, :]


def residual3d(x):
    """(f_theta - theta)(f_eta - eta), row-major, for an (18,) or (N, 18)
    packed vector; returns shape (9,) or (N, 9)."""
    F, G = _blocks(x)
    return (F @ G).reshape(F.shape[:-2] + (9,))


def jacobian3d(x):
    """Exact Jacobian of residual3d and the residual itself.

    The residual F G is affine in every single unknown, so column i is
    dF/dx_i G + F dG/dx_i.  Returns (J, r) with J of shape (9, 18) and
    r of shape (9,) for one packed vector, (N, 9, 18) and (N, 9) for N.
    """
    F, G = _blocks(x)
    F1, G1 = F[..., None, :, :], G[..., None, :, :]
    cols = (_DF @ G1 + F1 @ _DG).reshape(F.shape[:-2] + (18, 9))
    return np.swapaxes(cols, -1, -2), (F @ G).reshape(F.shape[:-2] + (9,))
