"""``python -m subjfair``: run one command and exit with its code."""

import gc
import sys
from typing import NoReturn


def run() -> NoReturn:
    """The process entry of ``python -m subjfair``, ``python -m
    subjfair.harness.cli`` and the ``subjfair`` script: run the command
    ``sys.argv`` names and exit with ``main``'s code, or argparse's.

    The process runs one command, so the cyclic collector is off from before
    the harness is imported to exit (``main`` leaves it as it found it), and
    what is alive when the command ends is frozen, on every exit, so the
    interpreter's shutdown collections walk none of it. Nothing waits on
    them: the engine forms no reference cycles, so reference counting frees,
    closes and warns at shutdown as it would have.
    """
    gc.disable()
    from .harness.cli import main

    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
