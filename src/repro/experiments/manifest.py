"""Crash-safe run manifest: resume a killed figure run where it stopped.

A figure run with an on-disk solve cache records each figure's rendered
output in ``<cache_dir>/run-manifest.json`` the moment the figure
completes (written atomically, like the cache entries themselves).  After
a crash -- power cut, OOM kill, the ``kill_run`` fault of
:mod:`repro.faults` -- ``python -m repro.experiments ... --resume``
replays the completed figures *verbatim* from the manifest and recomputes
only the rest; the solve cache makes the recomputation pick up mid-sweep,
so the resumed run's output is byte-identical to an uninterrupted run.

The manifest carries a format number, :data:`MANIFEST_VERSION`.  Bump it
whenever the rendered output of a figure changes for the same command
line (a new sampler, a removed option); a resume then starts fresh
rather than replaying stale text.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["MANIFEST_NAME", "MANIFEST_VERSION", "RunManifest"]

#: File name of the manifest, next to the solve-cache entries.
MANIFEST_NAME = "run-manifest.json"

#: Format number; a manifest with any other number is ignored.  2: fig1
#: samples a new stream and the manifest records no per-run options.
MANIFEST_VERSION = 2


class RunManifest:
    """Per-figure completion record of one figure run.

    Parameters
    ----------
    path:
        The manifest file.  Loaded if it exists and carries
        :data:`MANIFEST_VERSION`; started empty otherwise.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._figures: dict[str, str] = {}
        self._load()

    @classmethod
    def in_cache_dir(cls, directory: str | os.PathLike) -> "RunManifest":
        """The manifest living next to the solve cache in ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        return cls(directory / MANIFEST_NAME)

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError):
            # A torn manifest write loses at most the resume shortcut --
            # the run recomputes from the (still valid) solve cache.
            return
        if not isinstance(payload, dict) or payload.get("version") != MANIFEST_VERSION:
            return
        figures = payload.get("figures")
        if isinstance(figures, dict) and all(
            isinstance(k, str) and isinstance(v, str) for k, v in figures.items()
        ):
            self._figures = figures

    @property
    def figures(self) -> tuple[str, ...]:
        """Names of the figures completed so far, in completion order."""
        return tuple(self._figures)

    def completed(self, figure: str) -> str | None:
        """The stored rendered output of ``figure``, or ``None``."""
        return self._figures.get(figure)

    def record(self, figure: str, rendered: str) -> None:
        """Mark ``figure`` complete and persist the manifest atomically."""
        self._figures[figure] = rendered
        payload = {"version": MANIFEST_VERSION, "figures": self._figures}
        tmp = self.path.with_name(f"{self.path.name}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp, self.path)

    def __repr__(self) -> str:
        return (
            f"RunManifest({str(self.path)!r}, "
            f"completed={list(self._figures)})"
        )
