"""Reference helpers the tests build expected values from; the package does not use them."""

import numpy as np


def basis_matrix(i: int, j: int, d: int) -> np.ndarray:
    """Matrix unit |i><j| (0-indexed)."""
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def phase_unitary(d: int) -> np.ndarray:
    """Z = sum_l exp(2 pi i l / d) E_ll, the diagonal clock unitary."""
    return np.diag(np.exp(2j * np.pi * np.arange(1, d + 1) / d))


def pair_functional(gen, x: np.ndarray, y: np.ndarray) -> float:
    """<y| L(|x><x|) |y> evaluated through the generator's transfer matrix."""
    out = gen(np.outer(x, x.conj()))
    return float(np.real(y.conj() @ out @ y))
