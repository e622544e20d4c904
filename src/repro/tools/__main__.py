"""``python -m repro.tools`` — the ``vidi`` command line."""

import sys

from repro.tools.cli import main

if __name__ == "__main__":
    sys.exit(main())
