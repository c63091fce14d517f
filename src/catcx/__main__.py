"""`python -m catcx ...`: the same command line as the `catcx` script."""

from .cli import main

main()
