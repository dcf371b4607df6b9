"""Command-line entry point: ``python -m gradcomp run --config c.yaml --out dir``."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
