"""`python -m gradedwords`: the same command line as the `gradedwords` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
