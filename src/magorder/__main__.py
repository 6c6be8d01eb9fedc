"""``python -m magorder``: the same commands as the ``magorder`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
