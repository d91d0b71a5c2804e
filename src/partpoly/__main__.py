"""Entry point for ``python -m partpoly``."""

from .cli import main

if __name__ == "__main__":
    main()
