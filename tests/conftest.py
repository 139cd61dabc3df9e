"""Shared fixtures: experiment results are cached per session and reused
across acceptance criteria and the driver tests, and the session's peak
RSS is printed in the terminal summary."""

from __future__ import annotations

import resource
import warnings
from collections import OrderedDict

import numpy as np
import pytest

import nested_bddc as nb
from nested_bddc.nested_driver import NestedSolver

# A solver is small when its fine grid has at most SMALL_CELLS cells (up
# to the four-level ratio-3 hierarchy, 81 x 81): tests ask for the same
# small solvers again and again, and each holds a few MB, so every small
# solver asked for is held for the whole session.  At most HELD_SOLVERS
# large solvers exist at once: tests that ask for a large solver ask again
# soon after, if at all.
SMALL_CELLS = 81 * 81
HELD_SOLVERS = 2


def _small(spec: nb.ExperimentSpec) -> bool:
    return spec.nx**2 <= SMALL_CELLS


class SolveCache:
    """Every spec's result, every small solver, and the large solvers asked for last.

    A solver holds a spec's set-up (factorizations, groups, levels), far
    more memory than its result.  A small solver is built once.  Of the
    large solvers only the ``HELD_SOLVERS`` most recently asked for are
    kept, and none while a large one is built for a single solve: the
    session's peak memory is then that of its largest cases, not their
    sum.  A large solver asked for again once dropped is built again;
    set-up is deterministic, so it is the same.  A result is solved with
    the held solver of its spec or, without one, with a solver built for
    that solve alone.
    """

    def __init__(self):
        self._small = {}
        self._large: OrderedDict = OrderedDict()
        self._results = {}

    def solver(self, spec: nb.ExperimentSpec) -> NestedSolver:
        if _small(spec):
            if spec not in self._small:
                self._small[spec] = NestedSolver(spec)
            return self._small[spec]
        solver = self._large.pop(spec, None)
        if solver is None:
            # Drop the oldest before building, so at most HELD_SOLVERS exist.
            while len(self._large) >= HELD_SOLVERS:
                self._large.popitem(last=False)
            solver = NestedSolver(spec)
        self._large[spec] = solver
        return solver

    def result(self, spec: nb.ExperimentSpec):
        if spec not in self._results:
            solver = self._small.get(spec) or self._large.get(spec)
            if solver is None:
                if not _small(spec):
                    self._large.clear()
                solver = NestedSolver(spec)
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


def pytest_runtest_makereport(item, call):
    # When a hypothesis test fails, hypothesis's pytest plugin imports its
    # patch writer at teardown, after this hook.  That import pulls in
    # libcst, which warns DeprecationWarning, and the session's
    # error::DeprecationWarning filter would turn the warning into an
    # INTERNALERROR that hides the falsifying example.  Importing the
    # module here, with that warning ignored, leaves it loaded for the
    # plugin; a passing run never imports it.
    if call.when == "teardown" and getattr(item, "_hypothesis_failing_examples", None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            import hypothesis.extra._patching  # noqa: F401
