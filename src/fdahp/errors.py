"""Exception types, and the call wrappers, shared across the package."""
import gc
from functools import wraps


class FdahpError(Exception):
    """Base class for all fdahp-specific errors."""


class ValidationError(FdahpError, ValueError):
    """An input violates a structural or numeric contract.

    Subclasses ValueError so callers that guard plain ValueError keep working.
    """


class DatasetError(FdahpError):
    """The bundled study resource is missing, unreadable, or corrupted."""


def _located(where: object, build, *args):
    """`build(*args)`, with `where` (a file, or a place in one) prefixed to any
    validation error it raises."""
    try:
        return build(*args)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _nogc(func):
    """`func` with the cyclic garbage collector paused while it runs, and turned back on,
    on return or raise, only if it was on. A whole-input build allocates thousands of
    acyclic tuples, so the passes they trigger free nothing. The pause covers the whole
    process: cyclic garbage made meanwhile by another thread waits until the call ends."""
    @wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused
