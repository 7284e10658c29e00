"""Exception types shared across the toolkit."""


class EngdynError(Exception):
    """Base class for all toolkit errors."""


class InsufficientData(EngdynError):
    """Too few posts or bins to build or fit a series."""


class TooManyBins(EngdynError):
    """A topic's span needs more bins than ``model.MAX_BINS``."""


class ZeroEngagement(EngdynError):
    """A topic's posts carry no likes, shares or comments at all."""


class DegenerateFit(EngdynError):
    """The normal equations of the fit are singular."""


class DomainError(EngdynError):
    """A metric was evaluated outside its mathematical domain."""


class InvalidInput(EngdynError):
    """Arguments violate a documented precondition."""


class UndefinedCorrelation(EngdynError):
    """A rank vector has zero variance, so the correlation is undefined."""


class EmptyArticle(EngdynError):
    """No tokens survive normalization and stopword filtering."""
