"""Where the program under test lives, and how its processes are started.

The benchmark runs from a checkout of the repository and uses the
package under ``src/`` of that checkout, never an installed copy.
Everything it writes goes under the checkout too: scratch outputs in
``.bench_work/`` (removed at the end of a run) and the determinism
record and trace files in ``.bench_state/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "se2track"
WORK = ROOT / ".bench_work"
STATE = ROOT / ".bench_state"


class MissingProgram(RuntimeError):
    """The checkout holds no se2track sources to benchmark."""


def require_program() -> None:
    if not (PACKAGE / "cli.py").is_file():
        raise MissingProgram(f"no se2track package under {SRC}; run from a full checkout")


def child_env() -> dict:
    """Environment of every CLI child: this checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def cli_argv(args) -> list:
    """Command line of one CLI invocation, as a user would type it."""
    return [sys.executable, "-m", "se2track.cli", *args]


def import_program():
    """Import this checkout's se2track into the benchmark's own process."""
    require_program()
    for var, value in child_env().items():
        if var.endswith("_THREADS"):
            os.environ[var] = value
    sys.path.insert(0, str(SRC))
    import se2track.cli

    where = Path(se2track.cli.__file__).resolve()
    if PACKAGE.resolve() not in where.parents:
        raise MissingProgram(f"imported se2track from {where}, not from {PACKAGE}")
    return se2track


@contextlib.contextmanager
def in_dir(path):
    """Run in-process CLI calls with their relative output paths under path."""
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


def source_digest() -> str:
    """SHA-256 over the package sources: the identity of 'the same code'."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
