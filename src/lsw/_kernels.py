"""Stub kept for the benchmark worker, not used by the package.

``perfbench/worker.py`` imports this module and reports ``USING_NUMBA`` in
its environment line.  Propagation runs through
``scipy.sparse.linalg.expm_multiply`` in ``lsw.dynamics``.
"""

USING_NUMBA = False
