"""Exception types shared across the package."""


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
