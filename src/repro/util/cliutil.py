"""What the ``repro`` command's two modules share: the logging wiring
and the one-line failure type.

The library logs through module-level ``repro.*`` loggers and never
configures handlers itself (the usual library discipline — embedding
applications decide where logs go).  ``repro.cli.main`` calls
:func:`configure_logging` to attach one stderr handler to the ``repro``
root logger; the default level is WARNING, so runs are quiet unless
``--verbose`` is given.

:class:`CliError` lives here rather than in :mod:`repro.cli` because
``python -m repro.cli`` runs that file as ``__main__``: a class defined
there would not be the one :mod:`repro.service.cli` raises.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["CliError", "configure_logging"]

_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"


class CliError(Exception):
    """A user-facing failure: ``repro <sub>: MESSAGE`` on stderr, exit 1."""


def configure_logging(verbose: int = 0, quiet: bool = False) -> logging.Logger:
    """Point the ``repro`` logger hierarchy at stderr; returns the logger.

    Level mapping: default WARNING, ``-v`` INFO, ``-vv`` (or more) DEBUG,
    ``--quiet`` ERROR.  Idempotent — repeated calls reconfigure the same
    handler instead of stacking duplicates.
    """
    if quiet:
        level = logging.ERROR
    elif verbose >= 2:
        level = logging.DEBUG
    elif verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(_FORMAT))
    logger.addHandler(handler)
    logger.propagate = False
    return logger
