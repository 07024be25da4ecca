"""``python -m hk``: the ``hk`` command line, also from a checkout.

    PYTHONPATH=src python -m hk corrector-study --config laminate-p3
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
