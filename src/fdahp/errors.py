"""Exception types, and the call wrappers and value display that the package's errors share."""
import gc
import reprlib
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


_SHOWN = reprlib.Repr()
_SHOWN.maxstring = _SHOWN.maxlong = _SHOWN.maxother = _SHOWN_CHARS = 50


def _shown(value: object) -> str:
    """`repr(value)` for an error text, cut to _SHOWN_CHARS, well above any value the golden
    cases show: reprlib elides a long string or integer in its middle and a container after
    its first items or levels (a dict's keys sorted), and the rest is cut."""
    text = _SHOWN.repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS - 3] + "..."


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
