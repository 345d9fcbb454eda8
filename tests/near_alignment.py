"""Near-aligned test inputs: a matrix and its conjugate by a unitary a small
angle from the identity, built with numpy alone."""

import numpy as np

import spectralorder as so

# Rotation sizes of the near-alignment sweeps, from 1e-3 down to 1e-10.
NEAR_ANGLES = tuple(10.0**-e for e in range(3, 11))


def cayley(a: np.ndarray, theta: float) -> np.ndarray:
    """The orthogonal matrix (I - theta a / 2)^-1 (I + theta a / 2) of an
    antisymmetric a; with ||a|| = 1 it turns no vector by more than about theta."""
    eye = np.eye(len(a))
    return np.linalg.solve(eye - 0.5 * theta * a, eye + 0.5 * theta * a)


def near_aligned_pair(dim: int, theta: float) -> list[so.HermitianMatrix]:
    """[X, U X U*] with U a Cayley rotation of size theta: X = diag(2, 1) and
    a plane rotation at dim 2, the generic seed-0 matrix and a seeded
    normalized antisymmetric generator at dim 8."""
    if dim == 2:
        x = np.diag([2.0, 1.0])
        a = np.array([[0.0, -1.0], [1.0, 0.0]])
    else:
        x = so.gen_instances(so.InstanceSpec(dim=dim, seed=0, kind="generic"))[0].entries
        g = np.random.default_rng(0).standard_normal((dim, dim))
        a = (g - g.T) / np.linalg.norm(g - g.T, 2)
    u = cayley(a, theta)
    return [so.HermitianMatrix(x), so.HermitianMatrix(u @ x @ u.T)]

