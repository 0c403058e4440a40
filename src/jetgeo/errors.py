"""Exception types shared across the package; the reader of JSON spec
files, which reports malformed JSON as a SpecLoadError, with the type
checks `json_int`, `json_number`, `json_numbers` and `json_names`;
`draw_regular`, the one loop that redraws random samples, one at a time
or in batches of `outcome`s, with `require_finite`, and `worst`, the one
reduction of their deviations."""

import json
import math

import numpy as np


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
    """The parsed contents of a JSON spec file.  NaN, Infinity and numbers
    beyond float range are rejected: every number in a spec is finite."""

    def finite(text):
        if not math.isfinite(float(text)):
            shown = text if len(text) <= 20 else text[:20] + "..."
            raise SpecLoadError(f"{path}: non-finite number {shown}")
        return text

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=lambda text: float(finite(text)),
                             parse_int=lambda text: int(finite(text)), parse_constant=finite)
        except json.JSONDecodeError as e:
            raise SpecLoadError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}") from None


def json_int(value, what):
    """`value` if it is a JSON integer; 1.5, "2" or true raise ValueError,
    which the spec loaders report as SpecLoadError, and are never truncated."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_number(value, what):
    """`value` as a float if it is a JSON number; a string, null or true
    raises ValueError."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def json_numbers(value, what):
    """`value` as a tuple of floats if it is a JSON list of numbers; a
    string, null or true in it raises ValueError."""
    if not (isinstance(value, list) and all(type(x) in (int, float) for x in value)):
        raise ValueError(f"{what} must be a list of numbers, got {value!r}")
    return tuple(float(x) for x in value)


def json_names(value, what):
    """`value` as a tuple if it is a JSON list of strings; a string, which
    would read as a list of one-letter names, raises ValueError."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ValueError(f"{what} must be a list of strings, got {value!r}")
    return tuple(value)


# A sampler gives up after this many failed draws per requested sample.
_REDRAWS_PER_SAMPLE = 100

# A batch asks for at most this many samples, so that the arrays of one
# batch stay small whatever the count.
_BATCH_SAMPLES = 1024


def outcome(fn, *args):
    """fn(*args), or the DomainError or SingularJacobianError it raised: the
    outcome of one sample, as a batch given to `draw_regular` reports it."""
    try:
        return fn(*args)
    except (DomainError, SingularJacobianError) as e:
        return e


def draw_regular(draw, count, batch=False):
    """`count` results of regular samples, and how many samples failed on
    the way.

    One sample is one call ``draw()``; a sample that raises DomainError or
    SingularJacobianError is redrawn, and any other exception propagates.
    With `batch`, ``draw(k)`` takes up to k samples at once, the next ones of
    the same stream, and returns their outcomes in order (see `outcome`).
    Each round asks for the shortfall, at most 1024, so the batched form
    accepts the same samples in the same order as drawing one at a time
    from the stream, and consumes no more of it.  After 100 failed samples per requested sample
    the sampler gives up with DomainError.  Returns (results, redrawn).
    numpy's floating-point warnings are off: a non-finite deviation is
    redrawn by `require_finite` or kept by `worst`.
    """
    take = draw if batch else lambda k: [outcome(draw)]
    results = []
    redrawn = 0
    with np.errstate(all="ignore"):
        while len(results) < count:
            for result in take(min(count - len(results), _BATCH_SAMPLES)):
                if not isinstance(result, (DomainError, SingularJacobianError)):
                    results.append(result)
                    continue
                redrawn += 1
                if redrawn >= _REDRAWS_PER_SAMPLE * count:
                    raise gave_up(redrawn, len(results), count, result) from None
    return results, redrawn


def gave_up(redrawn, succeeded, count, last):
    """The DomainError with which `draw_regular` gives up."""
    return DomainError(f"could not sample: {redrawn} draws failed and {succeeded} of {count} "
                       f"succeeded; the last failed with: {last}")


def require_finite(deviation, what):
    """`deviation` as a float; DomainError, which `draw_regular` redraws,
    if it is NaN or infinite."""
    deviation = float(deviation)
    if not math.isfinite(deviation):
        raise DomainError(f"{what} is not finite ({deviation})")
    return deviation


def worst(values):
    """The largest of 0.0 and `values`, or NaN if one is NaN, so that a NaN
    fails ``worst(...) <= tol``; ``max`` drops it: ``max(0.0, nan)`` is 0.0."""
    values = [0.0] + [float(v) for v in values]
    return math.nan if any(math.isnan(v) for v in values) else max(values)
