"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: :class:`InputError` and its subclasses
exit with 2, :class:`BackendError` with 3, :class:`DegenerateLabels` with 4.
Anything else is a bug and exits with 1.

Degradations are not errors: an extractor that finds no claims returns an
empty list, and a failing coreference backend is logged and skipped, so
neither has a class here.
"""


class SumfactError(Exception):
    """Base class for all toolkit errors."""


class InputError(SumfactError):
    """User-supplied input is invalid or inconsistent."""


class BackendError(SumfactError):
    """A model backend failed, misbehaved, or refused the request."""


class EmptyDocument(InputError):
    """A document or summary has no usable text or no sentences."""


class MissingSplit(InputError):
    """A benchmark dataset lacks a validation or test split."""


class EmptyClaimSet(InputError):
    """A claim-set metric received an empty claim list."""


class ClaimCacheMiss(InputError):
    """A claim cache has no entry for a requested summary id."""


class DegenerateLabels(SumfactError):
    """Gold labels contain only one class, so balanced accuracy is undefined."""


class NliBackendError(BackendError):
    """The entailment backend failed or returned malformed output."""


class OversizedPremise(BackendError):
    """A premise/hypothesis pair exceeds the backend's size budget."""


class ExtractorUnavailable(BackendError):
    """The claim extraction backend is unreachable or refused the request."""


class MalformedClaimOutput(BackendError):
    """Extractor output could not be parsed into claims by any recovery route."""
