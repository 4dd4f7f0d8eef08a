"""`python -m schurkit ARGS` runs the same command line as `schurkit ARGS`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
