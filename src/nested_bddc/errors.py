"""The root of the library's errors."""

__all__ = ["NestedBddcError"]


class NestedBddcError(Exception):
    """Base of every error the library raises for an input it rejects or a solve that fails.

    Each module's error base subclasses it; those that subclass
    ``ValueError`` as well keep that base, so ``except ValueError`` still
    catches them.
    """
