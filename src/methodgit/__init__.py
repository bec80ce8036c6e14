"""methodgit: rewrite Java Git repositories at method-file granularity and
track per-method histories with Git-compatible rename detection.

The package root exports the API the README documents; everything else is
imported from its submodule (``methodgit.tracking``, ``methodgit.errors``,
...)."""

from __future__ import annotations

from .emit import LineFormat, RenderConfig, render
from .errors import MethodGitError
from .evaluate import compare_modes, evaluate
from .extract import extract
from .gitstore import ObjectStore, RepoWriter
from .lexer import tokenize
from .naming import NamePolicy, method_file_name
from .rewrite import ConversionConfig, rewrite_history
from .tracking import (
    Metric,
    TrackerConfig,
    count_renames,
    fingerprint,
    follow,
    similarity,
)

__version__ = "0.1.0"

__all__ = [
    "ConversionConfig",
    "LineFormat",
    "Metric",
    "MethodGitError",
    "NamePolicy",
    "ObjectStore",
    "RenderConfig",
    "RepoWriter",
    "TrackerConfig",
    "compare_modes",
    "count_renames",
    "evaluate",
    "extract",
    "fingerprint",
    "follow",
    "method_file_name",
    "render",
    "rewrite_history",
    "similarity",
    "tokenize",
    "__version__",
]
