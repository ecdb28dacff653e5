"""Common exception base for the framework, and the constructor hook of the
records that check their own fields.

Each module defines its own error types; everything user-facing derives from
ForgeloopError so the CLI can catch one class at the top level.
"""


class ForgeloopError(Exception):
    """Base class for every error raised by forgeloop."""


def checked(record):
    """Make the NamedTuple class ``record`` run its ``_check`` method whenever
    an instance is built, ``_replace`` included. A NamedTuple body may not
    define ``__new__``, so this returns a thin subclass that does."""

    def __new__(cls, *args, **kwargs):
        self = record.__new__(cls, *args, **kwargs)
        self._check()
        return self

    namespace = {"__slots__": (), "__new__": __new__, "_make": classmethod(lambda cls, values: cls(*values)),
                 "__doc__": record.__doc__, "__module__": record.__module__}
    return type(record.__name__, (record,), namespace)
