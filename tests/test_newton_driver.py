"""The batched damped-Newton driver on synthetic scalar equations x = c."""

import numpy as np

from hk._fem import damped_newton

# One unknown per row, residual r = x - c.  The scripted Newton directions
# are exact (row 0), uphill (row 1), half the exact step (row 2) and zero
# (row 3); Picard steps are exact for row 2 only.
TARGET = np.array([1.0, 0.0, 2.0, 3.0])
START = np.array([[0.0], [1.0], [0.0], [0.0]])
DIRECTION = np.array([-1.0, 1.0, -0.5, 0.0])


def test_every_driver_path():
    calls = []

    def residual(rows, x):
        calls.append(rows.tolist())
        res = x - TARGET[rows, None]
        return res, np.abs(res[:, 0])

    def newton_step(rows, x, res):
        return DIRECTION[rows, None] * res

    def picard_step(rows, x):
        return np.where(rows[:, None] == 2, TARGET[rows, None], x)

    out = damped_newton(START, residual, newton_step, 1e-12, max_newton=1,
                        max_linesearch=3, picard_step=picard_step,
                        max_picard=2)
    # row 0: accepted at t = 1; row 1: the three trials t = 1, 1/2, 1/4
    # fail and it keeps the t = 1/4 candidate; row 2: accepted at t = 1,
    # then converged by one Picard step; row 3: never moves
    assert out.x[:, 0].tolist() == [1.0, 1.25, 2.0, 0.0]
    assert out.converged.tolist() == [True, False, True, False]
    assert out.iterations.tolist() == [1, 3, 2, 3]
    assert out.norm.tolist() == [0.0, 1.25, 0.0, 3.0]
    assert np.array_equal(out.res[:, 0], out.x[:, 0] - TARGET)
    # initial residual, then each trial re-evaluates only pending rows,
    # then the Picard steps of the unconverged rows
    assert calls == [[0, 1, 2, 3], [0, 1, 2, 3], [1, 3], [1, 3],
                     [1, 2, 3], [1, 3]]
    assert START[:, 0].tolist() == [0.0, 1.0, 0.0, 0.0]


def test_converged_start_takes_no_step():
    def fail(*args):
        raise AssertionError("no step expected")

    out = damped_newton(np.ones((2, 3)), lambda rows, x: (0.0 * x,
                                                          np.zeros(len(rows))),
                        fail, 1e-10, 5, 5, fail, 5)
    assert out.converged.all()
    assert out.iterations.tolist() == [0, 0]
