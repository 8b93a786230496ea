"""`python -m skewalg ...` runs the command line, as the `skewalg` script does.

From a checkout, without installing: `PYTHONPATH=src python -m skewalg validate FILE`.
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
