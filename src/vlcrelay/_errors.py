"""Error classes of the layers that load numpy, defined without numpy so
that ``cli.main`` can map them to exit codes without loading those layers.
``channel`` and ``sim`` re-export them under these names."""


class ChannelError(ValueError):
    """Invalid channel parameter or table."""


class TraceFormatError(ValueError):
    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno
