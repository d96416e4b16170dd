"""`python -m cnslab ...` runs the command-line interface of `cnslab.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
