import gc
import sys

from .cli import main


def entry() -> int:
    """`python -m varsolid` and the `varsolid` script: cli.main in a process
    of its own.

    By now `cli` has imported numpy, the scipy package and mpmath, and their
    objects live until the process exits.  Freezing them moves them to the
    permanent generation, so no collection during the command or at exit
    scans them.  main itself leaves the collector alone: a library or test
    caller runs it in a process the freeze must not change.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
