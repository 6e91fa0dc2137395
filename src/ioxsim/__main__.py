"""``python -m ioxsim``: the same command line as the ``ioxsim`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
