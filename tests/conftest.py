"""Shared fixtures: experiment results are cached per session and reused
across acceptance criteria and the driver tests, and the session's peak
RSS is printed in the terminal summary."""

from __future__ import annotations

import resource
from collections import OrderedDict

import numpy as np
import pytest

import nested_bddc as nb
from nested_bddc.nested_driver import NestedSolver

# Solvers held at once.  Tests that ask for a solver ask again soon after,
# if at all, so the last two asked for serve nearly every repeat.
HELD_SOLVERS = 2


class SolveCache:
    """Every spec's result, and the solvers of the specs asked for last.

    A solver holds a spec's set-up (factorizations, groups, levels), far
    more memory than its result, so only the ``HELD_SOLVERS`` most
    recently asked for are kept: the session's peak memory is then that
    of its largest cases, not their sum.  A solver asked for again once
    dropped is built again; set-up is deterministic, so it is the same.
    A result is solved with the held solver of its spec or, without one,
    with a solver built for that solve alone.
    """

    def __init__(self):
        self._solvers: OrderedDict = OrderedDict()
        self._results = {}

    def solver(self, spec: nb.ExperimentSpec) -> NestedSolver:
        solver = self._solvers.pop(spec, None)
        if solver is None:
            # Drop the oldest before building, so at most HELD_SOLVERS exist.
            while len(self._solvers) >= HELD_SOLVERS:
                self._solvers.popitem(last=False)
            solver = NestedSolver(spec)
        self._solvers[spec] = solver
        return solver

    def result(self, spec: nb.ExperimentSpec):
        if spec not in self._results:
            solver = self._solvers.get(spec) or NestedSolver(spec)
            self._results[spec] = solver.solve()
        return self._results[spec]


@pytest.fixture(scope="session")
def runs() -> SolveCache:
    return SolveCache()


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def pytest_terminal_summary(terminalreporter):
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    terminalreporter.write_line(f"peak RSS of the test session: {peak_mb:.0f} MB")
