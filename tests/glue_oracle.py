"""`core.glue` as a loop over pivot slices: for a fixed pivot atom the joint is an outer product.

`mmot.core.glue` builds the same joint as one broadcast product and must
equal this loop bit for bit; validation is left to `glue`.
"""
import numpy as np

from mmot.core import JointMass


def pivot_slice_glue(q_k, conditionals, k):
    q_k = np.asarray(q_k, dtype=float)
    n = len(conditionals) + 1
    shape = [0] * n
    shape[k] = q_k.shape[0]
    for i, q in conditionals.items():
        shape[i] = q.shape[0]
    out = np.zeros(shape, dtype=float)
    for t in range(q_k.shape[0]):
        block = np.array(q_k[t], dtype=float)
        # outer product over non-pivot axes in increasing axis order
        factors = [conditionals[i].entries[:, t] for i in range(n) if i != k]
        if factors:
            prod = factors[0]
            for f in factors[1:]:
                prod = np.multiply.outer(prod, f)
            block = block * prod
        index = [slice(None)] * n
        index[k] = t
        out[tuple(index)] = block
    return JointMass(out)
