import tracemalloc

import numpy as np
import pytest


def traced_peak(call):
    """``call()``'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def finite_difference(f, arrays, h=1e-5):
    """Central-difference gradients of scalar f() wrt each array (in place).

    f must recompute the loss from the arrays' current contents; the arrays
    are restored after probing. Independent of the autodiff engine on purpose.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rtol, atol=1e-8):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    assert analytic.shape == numeric.shape
    err = np.abs(analytic - numeric)
    bound = atol + rtol * np.maximum(np.abs(analytic), np.abs(numeric))
    if not np.all(err <= bound):
        worst = np.unravel_index(np.argmax(err - bound), err.shape)
        pytest.fail(
            f"gradient mismatch at {worst}: analytic={analytic[worst]!r} "
            f"numeric={numeric[worst]!r} |diff|={err[worst]:.3e}"
        )
