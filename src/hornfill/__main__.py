"""`python -m hornfill`: the command line front end of `cli`."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
