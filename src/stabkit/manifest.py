"""Reproducible run manifests embedded in every CLI output.

Rerunning the same command on the same inputs reproduces the output byte for
byte apart from the timestamp field, which comparison tools should strip.
"""
from __future__ import annotations

from datetime import datetime, timezone
from typing import Any, Dict, NamedTuple, Optional, Sequence

VERSION = "0.1.0"


class RunManifest(NamedTuple):
    command: str
    input_hashes: Dict[str, str]
    version: str
    bounds: Dict[str, Any]
    seed: Optional[int]
    timestamp: str = ""

    def to_json(self) -> Dict[str, Any]:
        return {
            "command": self.command,
            "input_hashes": dict(sorted(self.input_hashes.items())),
            "version": self.version,
            "bounds": dict(sorted(self.bounds.items())),
            "seed": self.seed,
            "timestamp": self.timestamp,
        }


def build_manifest(argv: Sequence[str], input_hashes: Dict[str, str],
                   bounds: Dict[str, Any], seed: Optional[int] = None) -> RunManifest:
    """Manifest of a run; ``input_hashes`` maps each input's name to the
    SHA-256 hex digest of its content."""
    return RunManifest(
        command=" ".join(argv),
        input_hashes=input_hashes,
        version=VERSION,
        bounds=bounds,
        seed=seed,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
