"""Exception hierarchy for the toolkit.

Every operation documents which of these it may raise; nothing else is
allowed to escape the public API.
"""


class EfgpError(Exception):
    """Base class for all toolkit errors."""


# --- potentials / operators ------------------------------------------------

class UnknownFamily(EfgpError):
    pass


class EmptyTable(EfgpError):
    pass


class EmptyRange(EfgpError):
    pass


class PhaseOutOfRange(EfgpError):
    pass


# --- recurrence / Prufer ---------------------------------------------------

class Overflow(EfgpError):
    """Solution amplitude left the representable range; not silently clamped."""


class DegenerateSolution(EfgpError):
    pass


class LengthMismatch(EfgpError):
    pass


class ParamOutOfRange(EfgpError):
    pass


# --- spectral --------------------------------------------------------------

class NoConvergence(EfgpError):
    pass


class SubcriticalAmplitude(EfgpError):
    pass


class ZeroInitial(EfgpError):
    pass


# --- analysis --------------------------------------------------------------

class NegativeConstant(EfgpError):
    pass


class ResonantFrequency(EfgpError):
    pass


class DegenerateFrequencies(EfgpError):
    pass


class RangeMismatch(EfgpError):
    pass


class PreconditionFailed(EfgpError):
    pass


class NotUnitVectors(EfgpError):
    pass


class DomainError(EfgpError):
    pass


# --- cli -------------------------------------------------------------------

class ParseError(EfgpError):
    pass


class ValidationError(EfgpError):
    """Config field rejected; carries the dotted field path."""

    def __init__(self, field, reason):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


class PipelineError(EfgpError):
    """Wraps an inner error with the pipeline stage where it occurred."""

    def __init__(self, stage, original):
        super().__init__(f"[{stage}] {original}")
        self.stage = stage
        self.original = original
