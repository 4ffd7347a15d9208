"""A fixed reference task whose time tracks the speed of the machine."""
import numpy as np


def reference_task():
    """A fixed mix of Python and small numpy work that uses no lamit
    code."""
    x = np.arange(256.0)
    acc, d = 0.0, {}
    for i in range(1500):
        acc += float(np.dot(x[:64], x[64:128]))
        d[i % 97] = d.get(i % 97, 0) + i
    for i in range(20000):
        acc += i * 0.5
    return acc
