"""Shared fixtures: experiment results are cached per session and reused
across acceptance criteria and the driver tests, and the session's peak
RSS is printed in the terminal summary.  ``level_groups`` gives the tests
a level's batch entries one at a time, ``copy_rows`` an entry's rows of
its level's copy layout, and ``edge_sides_weights`` the face weights by
the grid's edge sides."""

from __future__ import annotations

import resource
import warnings
from collections import OrderedDict
from types import SimpleNamespace

import numpy as np
import pytest

import nested_bddc as nb
from nested_bddc.mesh_fem import SLOT_BOTTOM, SLOT_LEFT, SLOT_RIGHT, SLOT_TOP
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


# The per-entry stacks of a batch (bddc._Batch), one row per entry.
BATCH_STACKS = ("face_slots", "ext", "schur", "dual", "psi", "coarse_elem")


def level_groups(level) -> list[SimpleNamespace]:
    """One namespace per batch entry of ``level``, in the level's order.

    An entry's members ``subs`` are its rows ``span`` of ``level.order``;
    ``kkt`` is its interior KKT and ``face_slots``, ``ext``, ``schur``,
    ``dual``, ``psi`` and ``coarse_elem`` its entries of the batch's
    stacks; ``idx_int`` and ``idx_cells`` are the members' rows of the
    level's index rows.  Everything is read from public batch and level
    fields, so the tests can check one group at a time against a
    reference.
    """
    n_int, n_cells = level.idx_int.shape[1], level.idx_cells.shape[1]
    entries = []
    for batch in level.batches:
        n_face_dofs, n_faces = batch.psi.shape[1:]
        for j, kkt in enumerate(batch.kkts):
            start = batch.span.start + j * batch.n_members
            span = slice(start, start + batch.n_members)
            ops = {name: getattr(batch, name)[j] for name in BATCH_STACKS}
            rows = dict(subs=level.order[span], idx_int=level.idx_int[span], idx_cells=level.idx_cells[span])
            sizes = dict(n_faces=n_faces, n_face_dofs=n_face_dofs, n_int=n_int, n_cells=n_cells)
            entries.append(SimpleNamespace(span=span, kkt=kkt, **ops, **rows, **sizes))
    return entries


def copy_rows(level, grp) -> SimpleNamespace:
    """The rows of batch entry ``grp`` (``level_groups``) of ``level``'s copy layout, one per member.

    ``face_ids`` holds the faces of its face copies, and ``face_pos``,
    ``w`` and ``idx_face`` its face-dof copies' positions in the face
    vector, weights and level dofs: the rows of ``copy_faces``,
    ``copy_pos`` and ``copy_w`` that follow the present faces of the
    subdomains before its span of ``level.order``.
    """
    ratio = level.decomp.face_dofs.shape[1]
    start = np.count_nonzero(level.decomp.faces_by_sub[level.order[: grp.span.start]] >= 0)
    n, stop = len(grp.subs), start + len(grp.subs) * grp.n_faces
    span = slice(start * ratio, stop * ratio)
    face_pos = level.copy_pos[span].reshape(n, -1)
    return SimpleNamespace(
        face_ids=level.copy_faces[start:stop].reshape(n, -1),
        face_pos=face_pos,
        w=level.copy_w[span].reshape(n, -1),
        idx_face=level.face_dofs[face_pos],
    )


def edge_sides_weights(decomp, elem_table, elem_class) -> np.ndarray:
    """``compute_weights`` at ``gamma=1`` by the grid's ``edge_sides``, from the level's class table.

    Each face dof's lower and higher cell come from ``edge_sides``, their
    diagonals at the face's slots are gathered into an ``(n_faces, ratio,
    2)`` array and summed over its middle axis, which numpy adds in order
    along the face.
    """
    grid, face_dofs = decomp.grid, decomp.face_dofs
    vertical = face_dofs < grid.n_vertical
    slots = np.where(vertical[..., None], (SLOT_RIGHT, SLOT_LEFT), (SLOT_TOP, SLOT_BOTTOM))
    diag = np.diagonal(elem_table, axis1=1, axis2=2)
    d = diag[elem_class[grid.edge_sides[face_dofs]], slots].sum(axis=1)
    return d[:, 0] / (d[:, 0] + d[:, 1])


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
