"""Exception taxonomy shared by all modules.

The CLI maps DataError to exit code 1 and ConfigError to exit code 2;
everything else is a programming error and propagates.
"""

import contextlib
import dataclasses


class SpvsError(Exception):
    """Base class for all package errors."""


class DimensionError(SpvsError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(SpvsError):
    """Input value outside the mathematical domain (e.g. log of x <= 0)."""


class NumericsError(SpvsError):
    """An operation produced NaN or Inf."""


@contextlib.contextmanager
def numerics_context(where):
    """Prefix a NumericsError raised in the block with `where` (a step, a
    fold, video ids), so the message says where the failing op ran."""
    try:
        yield
    except NumericsError as exc:
        raise NumericsError(f"{where}: {exc}") from exc


class ContractError(SpvsError):
    """A documented precondition was violated by the caller."""


class CapacityError(SpvsError):
    """A fixed capacity (e.g. positional table length) was exceeded."""


class ConfigError(SpvsError):
    """Invalid configuration value or combination."""


class DataError(SpvsError):
    """Malformed input data (dataset records, score dumps, ...)."""


class VocabularyError(DataError):
    """Token id outside the embedding table."""


class FormatError(DataError):
    """Corrupt or unsupported serialized file (checkpoint, dataset)."""


# field annotation -> accepted value types; an int is a valid float, and a
# bool (an int subclass in python) is only a bool
_FIELD_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}


def check_field_types(config):
    """Raise ConfigError unless every field of a config dataclass holds a
    value of its annotated type (int, float or bool)."""
    for f in dataclasses.fields(config):
        kind = f.type if isinstance(f.type, str) else f.type.__name__
        value = getattr(config, f.name)
        is_bool = isinstance(value, bool)
        if is_bool != (kind == "bool") or not isinstance(value, _FIELD_TYPES[kind]):
            raise ConfigError(
                f"{type(config).__name__}.{f.name} must be {kind}, got {value!r}"
            )
