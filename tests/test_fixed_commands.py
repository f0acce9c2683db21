"""The fixed command set keeps its bytes: every file it leaves against a manifest.

``tools/fixed_commands.sh`` runs the fixed CLI commands and keeps each
command's stdout, stderr, exit status and written files.  The manifest
``fixed_commands.sha256`` holds one ``sha256  path`` line per file, after
a header naming the numpy version and the OpenBLAS core they were made
with: float results depend on numpy's build, and the compact engine's on
the kernels OpenBLAS picks at run time.  On any other platform the test
skips and names both.  After a change that moves bytes by design, rewrite
the manifest with

    python tests/test_fixed_commands.py > tests/fixed_commands.sha256

and name the commands whose lines moved, with their bounds, in CHANGES.md.
"""

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "fixed_commands.sh"
MANIFEST = Path(__file__).with_name("fixed_commands.sha256")


def openblas_core() -> str:
    """The core name numpy's bundled OpenBLAS runs its kernels for, or "none"."""
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            name = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        name.argtypes, name.restype = [], ctypes.c_char_p
        return name().decode()
    return "none"


def platform() -> dict[str, str]:
    return {"numpy": np.__version__, "openblas-core": openblas_core()}


def run_commands(out: Path) -> dict[str, str]:
    """sha256 of every file the script leaves in out, by path relative to it.

    The script's ``python3`` is the interpreter that runs this module.
    """
    path = os.pathsep.join([str(Path(sys.executable).parent), os.environ.get("PATH", "")])
    subprocess.run(
        ["sh", str(SCRIPT), str(ROOT), str(out)],
        env=dict(os.environ, PATH=path),
        check=True,
    )
    return {
        file.relative_to(out).as_posix(): hashlib.sha256(file.read_bytes()).hexdigest()
        for file in sorted(out.rglob("*"))
        if file.is_file()
    }


def manifest_text(digests: dict[str, str]) -> str:
    header = [f"# {key} {value}" for key, value in platform().items()]
    return "\n".join(header + [f"{digest}  {path}" for path, digest in digests.items()]) + "\n"


def read_manifest() -> tuple[dict[str, str], dict[str, str]]:
    """The manifest's platform header and its digest by path."""
    header, digests = {}, {}
    for line in MANIFEST.read_text().splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(" ", 1)
            header[key] = value
        else:
            digest, path = line.split("  ", 1)
            digests[path] = digest
    return header, digests


def test_fixed_commands_leave_the_bytes_of_the_manifest(tmp_path):
    made_with, want = read_manifest()
    here = platform()
    if made_with != here:
        pytest.skip(f"{MANIFEST.name} was made with {made_with}; this platform has {here}")
    got = run_commands(tmp_path / "out")
    differ = sorted(path for path in want.keys() | got.keys() if want.get(path) != got.get(path))
    assert not differ, f"files that differ from {MANIFEST.name}: {', '.join(differ)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(manifest_text(run_commands(Path(tmp) / "out")))
