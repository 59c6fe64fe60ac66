"""Shared exception types."""


class HomcxError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(HomcxError, ValueError):
    """A builder or operation received out-of-range parameters."""


class GraphFormatError(HomcxError, ValueError):
    """Malformed graph JSON."""


class DisconnectedGraphError(HomcxError, ValueError):
    """Operation requires a connected graph."""


class ResourceLimitError(HomcxError, RuntimeError):
    """A configured enumeration or search budget was exceeded."""


class NotAnInvolutionError(HomcxError, ValueError):
    """The supplied self-map is not an involution."""


class BipartiteInputError(HomcxError, ValueError):
    """The construction pipeline needs a non-bipartite input graph."""


class NotFoundWithinBudgetError(HomcxError, RuntimeError):
    """No verified graph with the requested properties was found."""
