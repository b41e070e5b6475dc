"""Content-addressed cache keys for runner jobs.

A job's key is the SHA-256 of the canonicalized JSON of its identity:
the experiment id, the job kind, the declared config dict, and a code
fingerprint.  The fingerprint names :data:`repro.__version__` plus a
SHA-256 over the source of the packages that compute payloads
(:data:`_HASHED_SOURCES`), so any edit there — a behaviour change or
not — invalidates every cached result, while an edit to the runner,
the server or the CLI keeps them.  ``REPRO_CACHE_SALT`` adds a manual
lever on top, for changes the source hash cannot see.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Mapping, Optional

from repro._version import __version__

__all__ = ["canonical_json", "code_fingerprint", "job_key"]

#: Parts of the package, relative to its directory, whose ``.py`` files
#: compute payloads: the simulator and its models, the applications,
#: the trace aggregates behind tables 2 and 3, and the experiments.
_HASHED_SOURCES = ("sim", "machine", "pfs", "iolib", "mp", "apps", "trace",
                   "experiments", "faults.py")

#: Directory of the ``repro`` package.
_PACKAGE = Path(__file__).resolve().parent.parent

#: :func:`_source_digest` of the package, computed once per process.
_DIGEST: Optional[str] = None


def canonical_json(obj: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace, ASCII only.

    Objects exposing ``to_dict()`` (e.g. :class:`repro.faults.FaultPlan`)
    are serialized through it, so configs may hold live value objects and
    still produce the same key as their plain-dict form.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, default=_to_dict_fallback)


def _to_dict_fallback(obj: object):
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    raise TypeError(
        f"object of type {type(obj).__name__} is not JSON serializable")


def _source_digest() -> str:
    """SHA-256 over the sorted relative paths and contents of the ``.py``
    files of :data:`_HASHED_SOURCES`."""
    files = []
    for part in _HASHED_SOURCES:
        path = _PACKAGE / part
        files += [path] if path.is_file() else path.rglob("*.py")
    digest = hashlib.sha256()
    for rel, path in sorted((p.relative_to(_PACKAGE).as_posix(), p)
                            for p in files):
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def code_fingerprint() -> str:
    """Identity of the code that produced a result: the version, the
    source digest and ``REPRO_CACHE_SALT`` (read on every call)."""
    global _DIGEST
    if _DIGEST is None:
        _DIGEST = _source_digest()
    salt = os.environ.get("REPRO_CACHE_SALT", "")
    return f"repro-{__version__}+{_DIGEST}" + (f"+{salt}" if salt else "")


def job_key(exp_id: str, kind: str, config: Mapping[str, object]) -> str:
    """SHA-256 key of one job's (experiment id, kind, config, code)."""
    blob = canonical_json({
        "exp_id": exp_id,
        "kind": kind,
        "config": dict(config),
        "code": code_fingerprint(),
    })
    return hashlib.sha256(blob.encode("ascii")).hexdigest()
