"""Exception hierarchy shared by all solvbie modules, and the one text-input reader.

The CLI maps these onto stable exit codes: parse errors -> 3,
domain/precondition errors -> 4, numerical failures -> 5.
"""


class SolvbieError(Exception):
    """Base class for all solvbie errors."""


class ParseError(SolvbieError):
    """Malformed input file (PQR, mesh, config)."""


class EmptyInputError(ParseError):
    """Input file parsed but contained no usable records."""


class DomainError(SolvbieError):
    """A precondition on physical or mathematical domain was violated."""


class TopologyError(SolvbieError):
    """Surface mesh is open, non-manifold, or inconsistently oriented."""


class GeometryError(SolvbieError):
    """Degenerate mesh geometry (zero-area triangle, etc.)."""


class ConvergenceError(SolvbieError):
    """Iterative solve exceeded its iteration cap."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def read_text(path) -> str:
    """The text of an input file, decoded as UTF-8; ParseError naming the file if it is not."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
