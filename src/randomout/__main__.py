"""``python -m randomout``: the same command line as the ``randomout`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
