"""The command-line entry: ``python -m ioxsim`` and the ``ioxsim`` script
both run main here.

main runs the command line on one OpenBLAS thread unless the user has
set OPENBLAS_NUM_THREADS or OMP_NUM_THREADS: every BLAS call in ioxsim is
on a 2x2 or 3x3 matrix, so a thread pool only costs start-up CPU.  The
default is set before anything imports numpy, which reads it when it
loads, and only then is the CLI imported.  Library imports never touch
the environment.
"""

import os
import sys


def main(argv=None):
    """The ``ioxsim`` command line on argv (default sys.argv[1:])."""
    if ("OPENBLAS_NUM_THREADS" not in os.environ
            and "OMP_NUM_THREADS" not in os.environ):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as run

    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
