"""Error classes of the layers a command may not load, defined apart from
them so that ``cli.main`` can map each to its exit code without importing
those layers (every module a child imports is compiled from source when
no bytecode is cached).  ``channel`` re-exports ``ChannelError``, ``sim``
``TraceFormatError``, ``laws`` and ``clusters`` ``ClusterStatsError`` and
``safety`` ``SafetyError``, each under the same name."""


class ChannelError(ValueError):
    """Invalid channel parameter or table."""


class TraceFormatError(ValueError):
    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


class ClusterStatsError(ValueError):
    """Base class for statistics failures."""


class SafetyError(ValueError):
    """Invalid safety-scenario input."""
