"""`python -m equirr ...` runs the equirr command line (see cli.main)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
