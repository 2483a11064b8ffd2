"""Run the akpz command line as `python -m akpz`."""
import sys

from .cli import main

sys.exit(main())
