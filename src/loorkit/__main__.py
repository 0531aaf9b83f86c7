"""``python -m loorkit``: the same command line as the ``loorkit`` script."""

from .cli import run

if __name__ == "__main__":
    run()
