"""``python -m cdposets``: the same command line as the ``cdposets`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
