"""Exception types shared across the package, the one way inputs are opened,
and the one check of the `workers` keyword.

The CLI maps these onto exit codes: DomainError (and subclasses) -> 1,
ParseError and I/O failures -> 2.
"""

from collections.abc import Iterator
from contextlib import contextmanager
from typing import TextIO


class AdrRefineError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(AdrRefineError):
    """A request that is well-formed but has no defined answer
    (e.g. parent of a level-1 code, risk with zero exposures)."""


class ConfigError(DomainError):
    """An invalid configuration value (bad probability, empty catalog, ...)."""


def check_workers(workers: int | None) -> None:
    """Reject a `workers` value below 1; None and any count from 1 up pass.

    The library runs on the caller's thread, so the value has no other
    effect: numpy's BLAS threads (`OPENBLAS_NUM_THREADS`) are the only
    parallelism.
    """
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1: {workers}")


class ParseError(AdrRefineError):
    """Malformed input data. Carries optional source location context."""

    def __init__(self, message: str, *, source: str | None = None, line: int | None = None):
        self.source = source
        self.line = line
        if line is not None:
            prefix = f"{source or 'input'}:{line}: "
            message = prefix + message
        elif source is not None:
            message = f"{source}: {message}"
        super().__init__(message)


@contextmanager
def open_input(path: str, newline: str | None = None) -> Iterator[TextIO]:
    """Open an input file as UTF-8 text. Bytes that are not UTF-8, met
    anywhere while the file is read, raise a ParseError naming the file."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.end].hex(" ")
        raise ParseError(f"not UTF-8 text: cannot decode byte(s) {bad}", source=path) from None
