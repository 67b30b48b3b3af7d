"""Run manifests: config snapshot, seed, stage timings, artifact checksums.

Every output directory gets exactly one ``manifest.json``. Checksums cover
every emitted file except the manifest itself. Stage timings are wall
clock and therefore the one part of a run that is not byte-reproducible;
everything the manifest checksums is.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

MANIFEST_NAME = "manifest.json"


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def file_checksums(out_dir: str | Path) -> dict[str, str]:
    out_dir = Path(out_dir)
    sums: dict[str, str] = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != MANIFEST_NAME:
            sums[path.relative_to(out_dir).as_posix()] = sha256_file(path)
    return sums


def write_manifest(out_dir: str | Path, command: str, config: dict, seed: int | None,
                   inputs: list[str], stage_seconds: dict[str, float] | None = None) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "seed": seed,
        "config": config,
        "inputs": inputs,
        "stage_seconds": stage_seconds or {},
        "artifacts": file_checksums(out_dir),
    }
    path = out_dir / MANIFEST_NAME
    write_json(path, manifest)
    return path


def write_json(path: Path, obj) -> None:
    """Indented, key-sorted strict JSON: a NaN or infinity raises ValueError
    before the file is opened, instead of writing invalid JSON."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_manifest(out_dir: str | Path) -> dict:
    with open(Path(out_dir) / MANIFEST_NAME) as fh:
        return json.load(fh)


def verify_manifest(out_dir: str | Path) -> list[str]:
    """Return the artifacts whose checksum no longer matches."""
    manifest = read_manifest(out_dir)
    current = file_checksums(out_dir)
    return sorted(name for name, digest in manifest["artifacts"].items()
                  if current.get(name) != digest)
