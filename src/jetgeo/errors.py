"""Exception types shared across the package, and the reader of JSON spec
files, which reports malformed JSON as a SpecLoadError."""

import json


class JetGeoError(Exception):
    """Base class for all package errors."""


class ParseError(JetGeoError):
    """Malformed expression text.  Carries the 0-based offset of the defect."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(JetGeoError):
    """Identifier in expression text is not a declared coordinate."""

    def __init__(self, name, position=None):
        where = "" if position is None else f" (at position {position})"
        super().__init__(f"unknown symbol '{name}'{where}")
        self.name = name
        self.position = position


class MissingSymbolError(JetGeoError):
    """Evaluation assignment does not cover a symbol of the expression."""


class DomainError(JetGeoError):
    """Evaluation left the real domain: zero denominator, negative sqrt,
    overflow to non-finite."""


class DimensionMismatchError(JetGeoError):
    """Operands disagree on a dimension (frame length, vector length, ...)."""


class FrameMismatchError(JetGeoError):
    """Jet and connection live on incompatible coordinate frames."""


class BadSplitError(JetGeoError):
    """Base/fibre split n is out of range for the frame."""


class SingularJacobianError(JetGeoError):
    """The top derivative block is not invertible; the divided chart is not
    concordant at this jet."""


class InconsistentPerturbationError(JetGeoError):
    """Supplied shift data violates the contracted delta-identities."""


class SpecLoadError(JetGeoError):
    """A JSON spec file is structurally invalid."""


def load_json(path):
    """The parsed contents of a JSON spec file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise SpecLoadError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}") from None
