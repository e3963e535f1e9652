"""Exception hierarchy shared by all solvbie modules, and the one text-input decoder.

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
    with open(path, "rb") as fh:
        return decode_text(fh.read(), path)


def decode_text(data: bytes, path) -> str:
    """``data``, the bytes of input file ``path``, as UTF-8 text with universal newlines.

    That is the text ``open`` reads in text mode: ``read_text`` is this decoder.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text
