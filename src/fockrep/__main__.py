"""`python -m fockrep ...`: the fockrep command line (see fockrep.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
