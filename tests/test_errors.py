"""Every error class of the library hangs from one root, ``NestedBddcError``."""

import inspect

import pytest

import nested_bddc
from nested_bddc import bddc, cli, errors, hierarchy, krylov, mesh_fem, nested_driver, saddle_core
from nested_bddc.nested_driver import ExperimentSpec

MODULES = (errors, mesh_fem, hierarchy, saddle_core, bddc, krylov, nested_driver, cli)
# The bases that callers caught as ValueError before the root existed.
VALUE_ERRORS = (
    mesh_fem.MeshError,
    mesh_fem.CoefficientError,
    hierarchy.HierarchyError,
    hierarchy.WeightsError,
)


def public_errors() -> dict:
    """Every public exception class defined in the package, by qualified name."""
    return {
        f"{mod.__name__}.{name}": value
        for mod in MODULES
        for name, value in vars(mod).items()
        if inspect.isclass(value)
        and issubclass(value, BaseException)
        and value.__module__ == mod.__name__
        and not name.startswith("_")
    }


def test_every_public_error_subclasses_the_root():
    found = public_errors()
    # the root, the eight module bases and their subclasses
    bases = {"MeshError", "CoefficientError", "HierarchyError", "WeightsError"}
    bases |= {"BddcError", "SaddleError", "PcgError", "DriverError", "NestedBddcError"}
    assert bases <= {name.rsplit(".", 1)[1] for name in found}
    for name, cls in found.items():
        assert issubclass(cls, nested_bddc.NestedBddcError), name
    assert nested_bddc.NestedBddcError is errors.NestedBddcError
    for cls in VALUE_ERRORS:
        assert issubclass(cls, ValueError)


def test_the_root_catches_a_rejected_input():
    with pytest.raises(nested_bddc.NestedBddcError):
        ExperimentSpec(levels=3, ratio=3, coeff="no-such-pattern")
