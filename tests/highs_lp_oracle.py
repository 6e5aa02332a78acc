"""One HiGHS solve with the model built field by field as a `HighsLp`.

`mmot.lp` hands HiGHS the same arrays through the array overload of
`passModel`.  For every LP, `lp.solve` must give this path's status,
x, value and simplex iteration count exactly: the two overloads must
describe the same model to the same solver with the same options.
"""
import numpy as np

from mmot import lp
from mmot.lp import _h


def solve(p):
    """(status, value, x, iterations) of p, solved through a `HighsLp` model."""
    (m, n), A = p.A.shape, p.A
    model = _h.HighsLp()
    model.num_col_, model.num_row_ = n, m
    model.col_cost_ = p.c
    model.col_lower_ = np.zeros(n)
    model.col_upper_ = np.full(n, _h.kHighsInf)
    model.row_lower_ = model.row_upper_ = p.b
    matrix = model.a_matrix_
    matrix.format_ = _h.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = n, m
    matrix.start_, matrix.index_, matrix.value_ = A.indptr, A.indices, A.data

    highs = _h._Highs()
    highs.passOptions(lp._OPTIONS)
    assert highs.passModel(model) != _h.HighsStatus.kError
    assert highs.run() != _h.HighsStatus.kError
    status = highs.getModelStatus()
    iterations = int(highs.getInfoValue("simplex_iteration_count")[1])
    if status == _h.HighsModelStatus.kInfeasible:
        return lp.INFEASIBLE, np.nan, np.full(n, np.nan), iterations
    if status == _h.HighsModelStatus.kUnbounded:
        return lp.UNBOUNDED, -np.inf, np.full(n, np.nan), iterations
    assert status == _h.HighsModelStatus.kOptimal
    x = np.array(highs.getSolution().col_value)
    return lp.OPTIMAL, float(p.c @ x), x, iterations
