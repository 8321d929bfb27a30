"""Bundled problem corpus, addressable by file name."""

from importlib import resources


def _filename(name):
    return name if name.endswith(".flat") else name + ".flat"


def read(name):
    """Return the text of a bundled problem file."""
    return resources.files(__package__).joinpath(_filename(name)).read_text(
        encoding="utf-8"
    )


def path(name):
    """Filesystem path of a bundled problem file (for the CLI)."""
    return str(resources.files(__package__).joinpath(_filename(name)))
