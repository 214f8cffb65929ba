import numpy as np
import pytest

from replaycm import autodiff as ad
from replaycm.autodiff import Tensor


def finite_difference_gradient(f, x0: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Central differences of a scalar function of one float64 array."""
    grad = np.zeros_like(x0, dtype=np.float64)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x0.copy()
        xp[idx] += step
        xm = x0.copy()
        xm[idx] -= step
        grad[idx] = (f(xp) - f(xm)) / (2.0 * step)
        it.iternext()
    return grad


def gradcheck(build, x0: np.ndarray, seed: int = 0, step: float = 1e-3,
              rtol: float = 1e-3) -> float:
    """Compare analytic input gradient of mean(build(x) * W) against central
    finite differences; W is a fixed random weighting so transposition bugs
    cannot cancel.  Returns the max relative error."""
    rng = np.random.default_rng(seed)
    probe = build(Tensor(x0, dtype=np.float64))
    wts = Tensor(rng.standard_normal(probe.data.shape), dtype=np.float64)

    def loss_value(xv):
        out = build(Tensor(xv, dtype=np.float64))
        return float(ad.tmean(ad.mul(out, wts)).data)

    x = Tensor(x0.copy(), requires_grad=True, dtype=np.float64)
    ad.backward(ad.tmean(ad.mul(build(x), wts)))
    analytic = x.grad
    numeric = finite_difference_gradient(loss_value, x0.astype(np.float64), step)
    denom = np.maximum(np.abs(numeric), 1e-6)
    rel = float(np.max(np.abs(analytic - numeric) / denom))
    assert rel < rtol, f"gradient mismatch: max rel err {rel:.3e} >= {rtol}"
    return rel


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
