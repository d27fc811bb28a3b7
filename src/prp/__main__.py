"""`python -m prp`: the command-line interface of `prp.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
