"""Content-addressed cache of compiled fused-kernel shared objects.

Serve runs a fleet of worker processes that would each pay the same
compiler invocation (0.4-2.4 s) for the same robot.  The store keys every
shared object by :func:`repro.codegen.emit.module_fingerprint` — a hash
over the expression DAGs themselves, the dtype token and the emitter
version — so the key *is* the content: a changed dynamics model, weight
constant or emitter version lands on a different key and a stale entry is
never consulted, while every horizon of one robot (the stage body has no
``N`` in it) shares one artifact.

Layout under the cache root (``REPRO_CODEGEN_CACHE`` or
``~/.cache/repro/codegen``)::

    so/<key>/<mod>.so   compiled C extension (written by cbackend)

:func:`repro.codegen.cbackend.build_c_kernel` writes it by building in a
temp directory beside the target and ``os.replace``-ing the result, so
concurrent first-compiles from two processes race benignly, and reloads
it on every later build of the same key; a shared object that does not
load (truncated, foreign ABI) is rebuilt over.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

__all__ = ["ArtifactStore", "default_cache_root"]

ENV_CACHE = "REPRO_CODEGEN_CACHE"


def default_cache_root() -> Path:
    env = os.environ.get(ENV_CACHE, "").strip()
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "codegen"


class ArtifactStore:
    """Filesystem root of the content-addressed shared-object cache."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()

    def so_dir_for(self, key: str) -> Path:
        return self.root / "so" / key
